import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from passquant import (
    BoundReport,
    DimensionError,
    DivergenceError,
    LoopConfig,
    LtiModel,
    NonlinearModel,
    ParameterError,
    ToolkitError,
    WellPosednessError,
    linalg,
    lipschitz_output_bound,
    load_config,
    quantize,
    quantize_nearest,
    simulate,
    ultimate_bound_audit,
)
from passquant import sim
from passquant.config import bundled_config_path
from passquant.sim import MODES, AuditResult, SweepPoint, Trajectory, read_csv
from tests.test_systems import same_bits

STORAGE4 = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2],
                     [0.1, 0.0, 1.2, 0.4], [0.0, 0.2, 0.4, 0.9]])


def lti_plant():
    return LtiModel([[-1.0, 0.5], [-0.5, -1.0]], np.eye(2), np.eye(2), np.zeros((2, 2)))


def csv_writer_reference(traj, path, storage=None):
    """Reference: the trajectory CSV written through ``csv.writer``, one
    ``format(x, ".17g")`` string per value, blank signals on the final row
    and a blank V column without a storage."""
    n1, n2, m = traj.x1.shape[1], traj.loop_states.shape[1] - traj.x1.shape[1], traj.u1.shape[1]
    stems = ("u1", "u2tilde", "u2", "y1", "y2", "y2tilde")
    header = ["k", *(f"x1_{i}" for i in range(1, n1 + 1)), *(f"x2_{i}" for i in range(1, n2 + 1)),
              *(f"{stem}_{i}" for stem in stems for i in range(1, m + 1)), "V"]
    signals = np.hstack([traj.u1, traj.u2_tilde, traj.u2, traj.y1, traj.y2, traj.y2_tilde])
    v = traj.storage_values(storage) if storage is not None else None
    fmt = lambda x: format(float(x), ".17g")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, state in enumerate(traj.loop_states):
            step = map(fmt, signals[k]) if k < traj.horizon else [""] * signals.shape[1]
            writer.writerow([k, *map(fmt, state), *step, "" if v is None else fmt(v[k])])


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
        # the shadow output is the exact controller's at the recorded state
        shadow = np.array([
            quantize(bench_model.output(x2, u2), cfg.mu2) for x2, u2 in zip(traj.x2, traj.u2)
        ])
        w = traj.y2_tilde - shadow
        bound = lip * cfg.eps + 2.0 * np.sqrt(2.0) * cfg.mu2
        assert np.max(np.linalg.norm(w, axis=1)) <= bound + 1e-12
        assert np.max(np.abs(traj.x2 - traj.x2s)) <= cfg.eps + 1e-12

    def test_disturbance_mode_respects_bound(self, bench_model):
        cfg = base_config(bench_model, mode="disturbance-injected", eps=0.1, seed=9)
        traj = simulate(cfg)
        # u1 = r1 - (y2~ + w) with r1 = 0 recovers the injected disturbance,
        # drawn within the twin's gap lip*eps + 2 sqrt(m) mu2
        w = (cfg.r1 - traj.u1) - traj.y2_tilde
        bound = lipschitz_output_bound(bench_model) * cfg.eps + 2.0 * np.sqrt(2.0) * cfg.mu2
        assert np.max(np.linalg.norm(w, axis=1)) <= bound + 1e-12
        assert np.any(w)

    def test_disturbance_reproducible(self, bench_model):
        cfg = base_config(bench_model, mode="disturbance-injected", eps=0.1, seed=4)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.u1, b.u1)
        assert np.array_equal(a.x1, b.x1)

    def test_plant_feedthrough_rejected(self, bench_model):
        with pytest.raises(WellPosednessError):
            base_config(bench_model, plant=bench_model)

    def test_nonlinear_plant_feedthrough_rejected(self, bench_model):
        # h2 feeds the input straight through to the output
        plant = NonlinearModel(
            2, 2, rhs=lambda x, u: tuple(-a for a in x), h1=lambda x: x, h2=lambda u: 0.5 * u
        )
        assert np.array_equal(plant.output([1.0, 2.0], [2.0, -4.0]), [2.0, 0.0])
        assert not plant.strictly_proper
        with pytest.raises(WellPosednessError):
            base_config(bench_model, plant=plant)

    def test_divergence_reported(self, bench_model):
        unstable = LtiModel(30.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cfg = base_config(bench_model, plant=unstable, horizon=500)
        with np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match="^loop state diverged at step 78$"
        ) as info:
            simulate(cfg)
        assert info.value.step == 78

    def test_controller_divergence_reported(self, bench_model):
        # the controller state overflows one step before the plant state it drives
        unstable = LtiModel(30.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cfg = base_config(bench_model, controller=unstable, horizon=500)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="^loop state diverged at step 78$"
        ) as info:
            simulate(cfg)
        assert info.value.step == 78

    @pytest.mark.parametrize("mode", ["sampled-quantized", "symbolic", "disturbance-injected"])
    @pytest.mark.parametrize("side, step", [("plant", 491), ("controller", 474)])
    def test_slow_divergence_reported(self, bench_model, mode, side, step):
        # about 4.5x per step, less than 1/mu1 = 100x: the state passes
        # through [mu * FLOAT_MAX, FLOAT_MAX], where its ratio to the pitch
        # overflows although it is still finite, and that is divergence
        unstable = LtiModel(5.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cfg = base_config(bench_model, mode=mode, eta=0.1, eps=0.25, horizon=500,
                          **{side: unstable})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match=f"^loop state diverged at step {step}$"
        ) as info:
            simulate(cfg)
        assert info.value.step == step
        assert isinstance(info.value.__cause__, ParameterError)

    def test_twin_overflow_is_divergence_at_its_step(self, bench_model):
        # the twin's successor x2s[14], past 1e-300 * FLOAT_MAX, overflows its
        # ratio to eta in step 13, long before the exact states do
        unstable = LtiModel(5.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cfg = base_config(bench_model, mode="symbolic", eta=1e-300, eps=0.25, horizon=500,
                          controller=unstable)
        with pytest.raises(DivergenceError, match="^loop state diverged at step 13$") as info:
            simulate(cfg)
        assert info.value.step == 13
        assert str(info.value.__cause__) == "s/eta overflows the float range"

    def test_overflowing_ratio_at_the_start_is_the_pitch(self, bench_model):
        cfg = base_config(bench_model, mu1=1e-310)
        with pytest.raises(ParameterError, match=r"^s/mu overflows the float range$"):
            simulate(cfg)

    @pytest.mark.parametrize("mode", ["sampled-quantized", "symbolic", "disturbance-injected"])
    @pytest.mark.parametrize("side", ["x1", "x2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_raises_at_its_step(self, monkeypatch, bench_model, mode, side, bad):
        # one entry of one side's exact step turns non-finite at step 5; the
        # loop stops there, whichever side and value and in every mode
        plant = LtiModel(-np.eye(3), np.ones((3, 2)), np.ones((2, 3)), np.zeros((2, 2)))
        cfg = base_config(bench_model, plant=plant, mode=mode, eta=0.1, eps=0.25, horizon=12,
                          x1_0=np.array([1.0, -1.5, 0.5]))
        target_n = 3 if side == "x1" else 2
        # the loop binds each side's step off the SampledModel it builds; the
        # twin gets a SampledModel of its own, so the fault and the count
        # reach the loop's step alone
        sampled_model, twin, calls = sim.SampledModel, sim.SymbolicController, []

        def faulty(source, tau):
            sampled = sampled_model(source, tau)
            if sampled.n == target_n:
                exact_step = sampled.step

                def step(x, u):
                    out = exact_step(x, u)
                    if len(calls) == 5:
                        out = out.copy()
                        out[1] = bad
                    calls.append(out)
                    return out

                object.__setattr__(sampled, "step", step)  # the model is frozen
            return sampled

        monkeypatch.setattr(sim, "SampledModel", faulty)
        monkeypatch.setattr(sim, "SymbolicController", lambda model, *args: twin(
            sampled_model(model.source, model.tau), *args))
        with np.errstate(invalid="ignore"), pytest.raises(
            DivergenceError, match="^loop state diverged at step 5$"
        ) as info:
            simulate(cfg)
        assert info.value.step == 5
        assert len(calls) == 6
        assert all(np.isfinite(x).all() for x in calls[:-1])

    def test_overflowing_plant_is_divergence(self, example5_plant, bench_model):
        cfg = base_config(bench_model, plant=example5_plant, x1_0=np.array([1e110, 0.0]))
        # the first RK4 substep of the first step overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="^state diverged at substep 0$"
        ) as info:
            simulate(cfg)
        assert info.value.step == 0


def matmul_reference_loop(cfg, plant_mats, ctrl_mats):
    """The loop of :func:`simulate` written out with ``@``: on the matrices
    ``(A, B, C, D)`` of each side as given, and on the slices of the
    augmented exponential that :func:`discretize_exact` takes ``Ad`` and
    ``Bd`` from.  Returns the :class:`Trajectory` fields as arrays."""

    def discretize(a, b):
        n, m = b.shape
        aug = np.zeros((n + m, n + m))
        aug[:n, :n], aug[:n, n:] = a * cfg.tau, b * cfg.tau
        e = linalg.expm(aug)
        return e[:n, :n], e[:n, n:]

    (a1, b1), c1 = discretize(*plant_mats[:2]), plant_mats[2]
    (a2, b2), (c2, d2) = discretize(*ctrl_mats[:2]), ctrl_mats[2:]
    m = c1.shape[0]
    rng = np.random.default_rng(cfg.seed)
    radius = None
    if cfg.mode == "disturbance-injected":
        lip, eps, mu2 = lipschitz_output_bound(cfg.controller), cfg.eps, cfg.mu2
        radius = lip * eps + 2 * math.sqrt(m) * mu2
    x1, x2, xs = cfg.x1_0, cfg.x2_0, None
    if cfg.mode == "symbolic":
        xs = quantize_nearest(cfg.x2_0 if cfg.x2s_0 is None else cfg.x2s_0, cfg.eta) + 0.0
    out = {name: [] for name in ("x1", "x2", "x2s", "u1", "u2_tilde", "u2", "y1", "y2",
                                 "y2_tilde")}
    for k in range(cfg.horizon + 1):
        out["x1"].append(x1)
        out["x2"].append(x2)
        out["x2s"].append(xs)
        if k == cfg.horizon:
            break
        y1 = c1 @ x1
        u2_tilde = cfg.r2 + y1
        u2 = quantize(u2_tilde, cfg.mu1)
        y2 = c2 @ (x2 if xs is None else xs) + d2 @ u2
        y2_tilde = applied = quantize(y2, cfg.mu2)
        if radius is not None:
            direction = rng.normal(size=m)
            direction = direction / np.linalg.norm(direction)
            applied = y2_tilde + rng.uniform(0.0, radius) * direction
        u1 = cfg.r1 - applied
        x1 = a1 @ x1 + b1 @ u1
        x2 = a2 @ x2 + b2 @ u2
        if xs is not None:
            xs = quantize_nearest(a2 @ xs + b2 @ u2, cfg.eta) + 0.0
        for name, value in zip(("u1", "u2_tilde", "u2", "y1", "y2", "y2_tilde"),
                               (u1, u2_tilde, u2, y1, y2, y2_tilde)):
            out[name].append(value)
    return {name: np.array(rows) for name, rows in out.items() if rows[0] is not None}


def random_lti(rng, n, m, feedthrough):
    """A stable LTI side with small gains."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.normal(size=(n, n))
    a = -(q * rng.uniform(0.5, 2.0, n)) @ q.T + 0.5 * (s - s.T)
    return (a, 0.5 * rng.normal(size=(n, m)) / np.sqrt(n), 0.5 * rng.normal(size=(m, n)) / np.sqrt(n),
            0.3 * rng.normal(size=(m, m)) if feedthrough else np.zeros((m, m)))


def random_loop(seed, mode, order="C"):
    """A seeded loop of two random LTI sides, its matrices in ``order``;
    returns the config and the matrices as drawn."""
    rng = np.random.default_rng(seed)
    n1, n2, m = (int(v) for v in rng.integers(1, [5, 5, 4]))
    plant_mats, ctrl_mats = random_lti(rng, n1, m, False), random_lti(rng, n2, m, True)
    plant, ctrl = (LtiModel(*(np.asarray(mat, order=order) for mat in mats))
                   for mats in (plant_mats, ctrl_mats))
    loop = LoopConfig(plant=plant, controller=ctrl, mode=mode, tau=0.3, mu1=0.01, mu2=0.01,
                      horizon=150, x1_0=rng.uniform(-2, 2, n1), x2_0=rng.uniform(-2, 2, n2),
                      eta=0.05, eps=0.25, r1=rng.uniform(-0.5, 0.5, m),
                      r2=rng.uniform(-0.5, 0.5, m), seed=seed)
    return loop, plant_mats, ctrl_mats


class TestMatmulReference:
    """The loop's products go through ``ndarray.dot`` on stored C-contiguous
    matrices; every recorded signal has the bits of the ``@`` loop."""

    @staticmethod
    def check(cfg, plant_mats, ctrl_mats):
        traj = simulate(cfg)
        ref = matmul_reference_loop(cfg, plant_mats, ctrl_mats)
        assert (traj.x2s is None) == ("x2s" not in ref)
        for name, value in ref.items():
            assert same_bits(getattr(traj, name), value), name

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["loop_a", "loop_b", "loop_c"])
    def test_bundled_loops(self, name, mode):
        cfg = load_config(bundled_config_path(name))
        plant, ctrl = cfg.plant.model, cfg.controller.model
        loop = LoopConfig(plant=plant, controller=ctrl, mode=mode, tau=cfg.tau, mu1=cfg.mu1,
                          mu2=cfg.mu2, horizon=cfg.horizon, x1_0=cfg.x1_0, x2_0=cfg.x2_0,
                          eta=0.05, eps=0.25, r1=cfg.r1, r2=cfg.r2, seed=cfg.seed)
        self.check(loop, (plant.a, plant.b, plant.c), (ctrl.a, ctrl.b, ctrl.c, ctrl.d))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_loops(self, seed, mode):
        loop, plant_mats, ctrl_mats = random_loop(seed, mode)
        self.check(loop, plant_mats[:3], ctrl_mats)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_whatever_the_matrix_layout(self, seed):
        # the models store C-contiguous copies, so a loop given Fortran-ordered
        # matrices (a transpose, say) runs the products of the C-ordered one
        by_c, by_f = (simulate(random_loop(seed, "symbolic", order)[0]) for order in "CF")
        for name in ("x1", "x2", "x2s", "u1", "u2_tilde", "u2", "y1", "y2", "y2_tilde"):
            assert same_bits(getattr(by_c, name), getattr(by_f, name)), name


class TestLoopConfig:
    @staticmethod
    def sized_config(**overrides):
        """A symbolic loop with n1 = 3, n2 = 2 and m = 1: each array has its own size."""
        kwargs = dict(
            plant=LtiModel(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1))),
            controller=LtiModel(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))),
            mode="symbolic", tau=0.3, mu1=0.01, mu2=0.01, eta=0.1, eps=0.25, horizon=5,
            x1_0=np.ones(3), x2_0=np.zeros(2), x2s_0=np.zeros(2), r1=np.ones(1), r2=np.ones(1),
        )
        kwargs.update(overrides)
        return LoopConfig(**kwargs)

    def test_rightly_sized_arrays_run(self):
        traj = simulate(self.sized_config())
        assert traj.loop_states.shape == (6, 5) and traj.u1.shape == (5, 1)

    @pytest.mark.parametrize(
        "name, size", [("x1_0", 3), ("x2_0", 2), ("x2s_0", 2), ("r1", 1), ("r2", 1)]
    )
    def test_wrongly_sized_array_rejected(self, name, size):
        message = rf"^{name} must have shape \({size},\), got \({size + 1},\)$"
        with pytest.raises(DimensionError, match=message):
            self.sized_config(**{name: np.zeros(size + 1)})

    def test_negative_seed_rejected(self, bench_model):
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            base_config(bench_model, mode="disturbance-injected", eps=0.1, seed=-1)

    def test_disturbance_loop_needs_the_twin_constants(self, cubic_plant, bench_model):
        # the injected radius is derived from eps and the controller's
        # Lipschitz output bound, so a loop lacking either is not built
        with pytest.raises(ParameterError, match="requires a positive eps"):
            base_config(bench_model, mode="disturbance-injected")
        unbounded = replace(cubic_plant, h1_lipschitz=None)
        with pytest.raises(ParameterError, match="h1_lipschitz"):
            base_config(bench_model, controller=unbounded, mode="disturbance-injected", eps=0.1)

    def test_unsupported_plant_rejected(self, bench_model):
        with pytest.raises(ParameterError, match="^plant must be LtiModel or NonlinearModel, got "):
            base_config(bench_model, plant=object())

    def test_unsupported_controller_rejected(self, bench_model):
        with pytest.raises(
            ParameterError, match="^controller must be LtiModel or NonlinearModel, got object$"
        ):
            base_config(bench_model, controller=object())

    def test_absent_references_are_zero_vectors(self, bench_model):
        cfg = base_config(bench_model)
        assert np.array_equal(cfg.r1, np.zeros(2)) and np.array_equal(cfg.r2, np.zeros(2))

    def test_twin_start_checked_after_rounding(self, cubic_plant, bench_model):
        # 0.21 is within eps of x2_0, but the twin starts from 0.4 on the
        # eta grid, 0.4 away
        with pytest.raises(ParameterError, match="rounded"):
            symbolic_config(cubic_plant, bench_model, eta=0.4, x2_0=np.zeros(2),
                            x2s_0=np.array([0.21, 0.21]))

    def test_start_rounded_within_eps_accepted(self, cubic_plant, bench_model):
        cfg = symbolic_config(cubic_plant, bench_model, eta=0.4, horizon=2,
                              x2_0=np.zeros(2), x2s_0=np.array([0.19, -0.19]))
        assert np.array_equal(simulate(cfg).x2s[0], np.zeros(2))

    def test_x2_0_start_checked_after_rounding(self, cubic_plant, bench_model):
        # without x2s_0 the twin starts from x2_0 on a grid coarser than 2 eps
        with pytest.raises(ParameterError, match="rounded"):
            symbolic_config(cubic_plant, bench_model, eta=0.6, x2_0=np.array([0.3, 0.0]))


class TestLoopStates:
    @pytest.mark.parametrize("symbolic", [False, True])
    def test_storage_values_match_per_step_stacking(self, cubic_plant, bench_model, symbolic):
        cfg = symbolic_config(cubic_plant, bench_model, horizon=40)
        if not symbolic:
            cfg = replace(cfg, mode="sampled-quantized", eta=None, eps=None)
        traj = simulate(cfg)
        second = traj.x2s if symbolic else traj.x2
        storage = STORAGE4
        # x'Px of each step's stacked state, one float evaluation per step
        per_step = [np.concatenate([traj.x1[k], second[k]]) for k in range(traj.horizon + 1)]
        assert np.array_equal(
            traj.storage_values(storage), [float(x @ storage @ x) for x in per_step]
        )
        assert np.array_equal(traj.loop_states, np.hstack([traj.x1, second]))


class TestCsv:
    def test_bit_identical_reruns(self, cubic_plant, bench_model, tmp_path):
        cfg = symbolic_config(cubic_plant, bench_model, horizon=40)
        storage = np.eye(4)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        simulate(cfg).to_csv(p1, storage=storage)
        simulate(cfg).to_csv(p2, storage=storage)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("storage", [None, STORAGE4], ids=["no-storage", "storage"])
    @pytest.mark.parametrize("horizon", [1, 40])
    @pytest.mark.parametrize("mode", ["sampled-quantized", "symbolic", "disturbance-injected"])
    def test_same_bytes_as_csv_writer(self, cubic_plant, bench_model, tmp_path, mode, horizon,
                                      storage):
        if mode == "symbolic":
            cfg = symbolic_config(cubic_plant, bench_model, horizon=horizon)
        else:
            cfg = base_config(bench_model, mode=mode, eps=0.1, seed=9, horizon=horizon)
        traj = simulate(cfg)
        traj.to_csv(tmp_path / "got.csv", storage=storage)
        csv_writer_reference(traj, tmp_path / "want.csv", storage=storage)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("storage", [None, np.eye(3)], ids=["no-storage", "storage"])
    def test_special_values_same_bytes_as_csv_writer(self, tmp_path, storage):
        # signed zeros, subnormals, extremes and non-finite values, with
        # n1 = 2, n2 = 1 and m = 1 so that every block has its own width
        special = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, np.inf, -np.inf, np.nan,
                   1.0 / 3.0, -2.5e-310, 123456789.0, 1e22]
        values = iter(special * 3)
        block = lambda rows, cols: np.array([[next(values) for _ in range(cols)]
                                             for _ in range(rows)])
        traj = Trajectory(x1=block(3, 2), x2=block(3, 1), **{
            name: block(2, 1) for name in ("u1", "u2_tilde", "u2", "y1", "y2", "y2_tilde")})
        with np.errstate(invalid="ignore", over="ignore"):
            traj.to_csv(tmp_path / "got.csv", storage=storage)
            csv_writer_reference(traj, tmp_path / "want.csv", storage=storage)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

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
        for name in ("u1", "u2_tilde", "u2", "y1", "y2", "y2_tilde"):
            assert np.array_equal(signals[name], getattr(traj, name)), name

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
        report = BoundReport(eta1=1.0, eta2=1.0, level_d1=1.0, level_d2=0.5, mp=np.eye(4))
        audit = ultimate_bound_audit(traj, report, np.eye(4))
        assert audit.global_ok and audit.entry_index == 0 and audit.post_entry_ok

    def test_shrunken_ultimate_level_detected(self, cubic_plant, bench_model):
        # symbolic chatter keeps the grid state away from zero, so a tiny
        # ultimate level must be flagged
        traj = simulate(symbolic_config(cubic_plant, bench_model, horizon=200))
        storage = np.eye(4)
        generous = BoundReport(eta1=1.0, eta2=1.0, level_d1=1e6, level_d2=1.0, mp=np.eye(4))
        ok = ultimate_bound_audit(traj, generous, storage)
        assert ok.global_ok and ok.post_entry_ok
        tiny = BoundReport(eta1=1.0, eta2=1.0, level_d1=1e6, level_d2=1e-3 * 1.0e-3, mp=np.eye(4))
        bad = ultimate_bound_audit(traj, tiny, storage)
        assert not bad.post_entry_ok
        assert bad.entry_index is None

    def test_result_type(self):
        assert AuditResult(True, 0, True).global_ok


class TestEtaSweep:
    def test_single_eta_matches_direct_run(self, cubic_plant, bench_model):
        cfg = symbolic_config(cubic_plant, bench_model, horizon=120)
        point = SweepPoint.from_trajectory(0.1, simulate(replace(cfg, eta=0.1)))
        traj = simulate(cfg)
        cut = (traj.x1.shape[0] * 2) // 3
        assert point.sup_x1 == pytest.approx(np.max(np.abs(traj.x1[cut:])))
        assert point.sup_x2s == pytest.approx(np.max(np.abs(traj.x2s[cut:])))
        assert point.sup_combined == max(point.sup_x1, point.sup_x2s)

    def test_rejects_a_run_without_twin(self, bench_model):
        traj = simulate(base_config(bench_model, horizon=10))
        with pytest.raises(ParameterError, match=r"^a sweep point needs a symbolic run \(x2s\)$"):
            SweepPoint.from_trajectory(0.1, traj)
