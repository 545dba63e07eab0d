import numpy as np
import pytest

from passquant import (
    BoundReport,
    DivergenceError,
    LoopConfig,
    LtiModel,
    ToolkitError,
    WellPosednessError,
    eta_sweep,
    lipschitz_output_bound,
    simulate,
    ultimate_bound_audit,
)
from passquant.sim import AuditResult, read_csv


def lti_plant():
    return LtiModel([[-1.0, 0.5], [-0.5, -1.0]], np.eye(2), np.eye(2), np.zeros((2, 2)))


def base_config(bench_model, **overrides):
    kwargs = dict(
        plant=lti_plant(),
        controller=bench_model,
        mode="sampled-quantized",
        tau=0.3,
        mu1=0.01,
        mu2=0.01,
        horizon=60,
        x1_0=np.array([1.0, -1.5]),
        x2_0=np.array([-0.5, 0.8]),
    )
    kwargs.update(overrides)
    return LoopConfig(**kwargs)


def symbolic_config(cubic_plant, bench_model, **overrides):
    kwargs = dict(
        plant=cubic_plant,
        controller=bench_model,
        mode="symbolic",
        tau=0.3,
        mu1=0.01,
        mu2=0.01,
        eta=0.1,
        eps=0.25,
        horizon=120,
        x1_0=np.array([-0.7, -2.0]),
        x2_0=np.array([1.5, -1.6]),
    )
    kwargs.update(overrides)
    return LoopConfig(**kwargs)


class TestSimulate:
    def test_zero_everything_stays_zero(self, bench_model):
        cfg = base_config(bench_model, x1_0=np.zeros(2), x2_0=np.zeros(2))
        traj = simulate(cfg)
        for arr in (traj.x1, traj.x2, traj.u1, traj.u2, traj.y1, traj.y2_tilde):
            assert not np.any(arr)

    def test_signal_algebra_bit_exact_zero_reference(self, bench_model):
        traj = simulate(base_config(bench_model))
        assert np.array_equal(traj.y2_tilde + traj.u1, np.zeros_like(traj.u1))
        assert np.array_equal(traj.u2_tilde - traj.y1, np.zeros_like(traj.y1))

    def test_signal_algebra_nonzero_reference(self, bench_model):
        # dyadic grids keep the plant-side identity exact; the controller
        # side rounds once in r2 + y1 and reproduces r2 to an ulp
        r1 = np.array([3.0 / 64.0, -5.0 / 64.0])
        r2 = np.array([1.0 / 32.0, 1.0 / 32.0])
        cfg = base_config(bench_model, r1=r1, r2=r2, mu1=1.0 / 64.0, mu2=1.0 / 64.0)
        traj = simulate(cfg)
        assert np.array_equal(traj.y2_tilde + traj.u1, np.tile(r1, (cfg.horizon, 1)))
        assert np.max(np.abs((traj.u2_tilde - traj.y1) - r2)) <= 2.0**-48

    def test_quantized_signals_on_grid(self, cubic_plant, bench_model):
        traj = simulate(symbolic_config(cubic_plant, bench_model))
        assert np.array_equal(np.round(traj.u2 / 0.01) * 0.01, traj.u2)
        assert np.array_equal(np.round(traj.y2_tilde / 0.01) * 0.01, traj.y2_tilde)
        assert np.array_equal(np.round(traj.x2s / 0.1) * 0.1, traj.x2s)

    def test_symbolic_fine_grid_matches_exact_mode(self, cubic_plant, bench_model):
        exact = simulate(symbolic_config(cubic_plant, bench_model, horizon=50, mode="sampled-quantized", eta=None, eps=None))
        fine = simulate(symbolic_config(cubic_plant, bench_model, horizon=50, eta=1e-9))
        assert np.max(np.abs(exact.x1 - fine.x1)) <= 1e-6
        assert np.max(np.abs(exact.x2 - fine.x2s)) <= 1e-6

    def test_symbolic_shadow_disturbance_bound(self, cubic_plant, bench_model):
        # the implicit disturbance turning the exact loop into the symbolic
        # one stays within lip*eps + 2 sqrt(m) mu2 on bisimulation-valid runs
        cfg = symbolic_config(cubic_plant, bench_model, horizon=200)
        traj = simulate(cfg)
        lip = lipschitz_output_bound(bench_model)
        w = traj.y2_tilde - traj.y2_tilde_shadow
        bound = lip * cfg.eps + 2.0 * np.sqrt(2.0) * cfg.mu2
        assert np.max(np.linalg.norm(w, axis=1)) <= bound + 1e-12
        assert np.max(np.abs(traj.x2 - traj.x2s)) <= cfg.eps + 1e-12

    def test_disturbance_mode_respects_bound(self, bench_model):
        cfg = base_config(
            bench_model, mode="disturbance-injected", disturbance_bound=0.05, seed=9
        )
        traj = simulate(cfg)
        assert traj.w is not None
        assert np.max(np.linalg.norm(traj.w, axis=1)) <= 0.05 + 1e-12
        # the applied output includes the disturbance
        applied = traj.y2_tilde + traj.w
        assert np.array_equal(applied + traj.u1, np.zeros_like(applied))

    def test_disturbance_reproducible(self, bench_model):
        cfg = base_config(bench_model, mode="disturbance-injected", disturbance_bound=0.05, seed=4)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.x1, b.x1)

    def test_plant_feedthrough_rejected(self, bench_model):
        with pytest.raises(WellPosednessError):
            simulate(base_config(bench_model, plant=bench_model))

    def test_divergence_reported(self, bench_model):
        unstable = LtiModel(30.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cfg = base_config(bench_model, plant=unstable, horizon=500)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            simulate(cfg)


class TestCsv:
    def test_bit_identical_reruns(self, cubic_plant, bench_model, tmp_path):
        cfg = symbolic_config(cubic_plant, bench_model, horizon=40)
        storage = np.eye(4)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        simulate(cfg).to_csv(p1, storage=storage)
        simulate(cfg).to_csv(p2, storage=storage)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_shape(self, bench_model, tmp_path):
        cfg = base_config(bench_model, horizon=5)
        path = tmp_path / "t.csv"
        simulate(cfg).to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "k"
        assert header[1] == "x1_1"
        assert header[-2] == "y2tilde_2"
        assert header[-1] == "V"
        assert len(lines) == 1 + 5 + 1  # header, one row per step, final state

    def test_read_back_is_exact(self, cubic_plant, bench_model, tmp_path):
        traj = simulate(symbolic_config(cubic_plant, bench_model, horizon=30))
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        states, signals = read_csv(path, 2, 2, 2)
        assert np.array_equal(states, np.hstack([traj.x1, traj.x2s]))
        recorded = (traj.u1, traj.u2_tilde, traj.u2, traj.y1, traj.y2, traj.y2_tilde)
        for stem, arr in zip(("u1", "u2tilde", "u2", "y1", "y2", "y2tilde"), recorded):
            assert np.array_equal(signals[stem], arr), stem

    def test_unparsable_entry_is_reported(self, bench_model, tmp_path):
        path = tmp_path / "t.csv"
        simulate(base_config(bench_model, horizon=3)).to_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[1], "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ToolkitError, match="column x1"):
            read_csv(path, 2, 2, 2)


class TestUltimateBoundAudit:
    def test_zero_trajectory_enters_immediately(self, bench_model):
        cfg = base_config(bench_model, x1_0=np.zeros(2), x2_0=np.zeros(2))
        traj = simulate(cfg)
        report = BoundReport(eta1=1.0, eta2=1.0, level_d1=1.0, level_d2=0.5)
        audit = ultimate_bound_audit(traj, report, np.eye(4))
        assert audit.global_ok and audit.entry_index == 0 and audit.post_entry_ok

    def test_shrunken_ultimate_level_detected(self, cubic_plant, bench_model):
        # symbolic chatter keeps the grid state away from zero, so a tiny
        # ultimate level must be flagged
        traj = simulate(symbolic_config(cubic_plant, bench_model, horizon=200))
        storage = np.eye(4)
        generous = BoundReport(eta1=1.0, eta2=1.0, level_d1=1e6, level_d2=1.0)
        ok = ultimate_bound_audit(traj, generous, storage)
        assert ok.global_ok and ok.post_entry_ok
        tiny = BoundReport(eta1=1.0, eta2=1.0, level_d1=1e6, level_d2=1e-3 * 1.0e-3)
        bad = ultimate_bound_audit(traj, tiny, storage)
        assert not bad.post_entry_ok
        assert bad.entry_index is None

    def test_result_type(self):
        assert AuditResult(True, 0, True, 0.0).global_ok


class TestEtaSweep:
    def test_single_eta_matches_direct_run(self, cubic_plant, bench_model):
        cfg = symbolic_config(cubic_plant, bench_model, horizon=120)
        (point,) = eta_sweep(cfg, [0.1])
        traj = simulate(cfg)
        cut = (traj.x1.shape[0] * 2) // 3
        assert point.sup_x1 == pytest.approx(np.max(np.abs(traj.x1[cut:])))
        assert point.sup_x2s == pytest.approx(np.max(np.abs(traj.x2s[cut:])))
        assert point.sup_combined == max(point.sup_x1, point.sup_x2s)

    def test_requires_symbolic_mode(self, bench_model):
        from passquant import ParameterError

        cfg = base_config(bench_model)
        with pytest.raises(ParameterError):
            eta_sweep(cfg, [0.1])
