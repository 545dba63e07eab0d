"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold; run with ``-s`` (or
read the captured output) to see the per-criterion summary.
"""

import time

import numpy as np
import pytest

from passquant import (
    DiscreteLti,
    IndexSet,
    NotDetectableError,
    SampledModel,
    SdCertificate,
    SymbolicController,
    check_bisim_params,
    check_sd_certificate,
    degrade_quantization,
    degrade_sampling,
    discretize_exact,
    dissipation_audit,
    linalg,
    load_config,
    lti_delta_iss,
    lti_sd_certificate,
    max_index_bisection,
    quantize,
    sd_falsify,
    simulate,
    ultimate_bound_audit,
    verify_gain_assumption,
    verify_lti_passivity,
)
from passquant.cli import _compute_bounds, _loop_config, _loop_storage
from passquant.config import bundled_config_path
from passquant.sim import eta_sweep
from tests.test_linalg import series_expm
from tests.test_passivity import P_BENCH, rollout


def best_of(fn, repeats=5):
    """Shortest wall time of several calls (shields sub-ms limits from jitter)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_01_sampling_degradation():
    idx = degrade_sampling(0.3, 0.5628, 0.2, 0.3, 10)
    assert idx.nu == pytest.approx(0.2177, abs=1e-4)
    assert idx.rho == pytest.approx(0.5065, abs=1e-4)
    assert idx.w == pytest.approx(6.8572, abs=1e-4)
    assert idx.w * 0.2187 == pytest.approx(1.4997, abs=1e-3)
    runtime = best_of(lambda: degrade_sampling(0.3, 0.5628, 0.2, 0.3, 10))
    assert runtime < 1e-3
    print(f"CRITERION 1: PASS (sampling degradation, {runtime * 1e6:.0f} us)")


def test_criterion_02_quantization_degradation():
    idx = degrade_quantization(0.20, 0.9803, 0.01, 0.01, 2, 20, 20, 20, 20)
    assert idx.nu == pytest.approx(0.1775, abs=1e-4)
    assert idx.rho == pytest.approx(0.9188, abs=1e-4)
    assert idx.delta == pytest.approx(0.0130, abs=1e-4)
    runtime = best_of(
        lambda: degrade_quantization(0.20, 0.9803, 0.01, 0.01, 2, 20, 20, 20, 20)
    )
    assert runtime < 1e-3
    print(f"CRITERION 2: PASS (quantization degradation, {runtime * 1e6:.0f} us)")


def test_criterion_03_lmi_verification(bench_model, bench_discrete):
    t0 = time.perf_counter()
    # published indices are rounded to 4 decimals, ~1e-5 outside the exact
    # feasibility boundary, hence the 1e-5 check tolerance
    assert verify_lti_passivity(bench_model, P_BENCH, 0.3, 0.5628, tol=1e-5).passed
    assert verify_lti_passivity(bench_discrete, P_BENCH, 0.20, 0.9803, tol=1e-5).passed
    rho_ct = max_index_bisection(bench_model, P_BENCH, "nu", 0.3)
    rho_dt = max_index_bisection(bench_discrete, P_BENCH, "nu", 0.20)
    runtime = time.perf_counter() - t0
    assert rho_ct == pytest.approx(0.5628, abs=1e-3)
    assert rho_dt == pytest.approx(0.9803, abs=1e-3)
    assert runtime < 0.1
    print(f"CRITERION 3: PASS (LMI verification + bisection, {runtime * 1e3:.1f} ms)")


def test_criterion_04_gain_certificate(bench_model):
    from passquant import GainCertificate

    cert = GainCertificate(gamma=0.2, beta_matrix=0.2187 * np.eye(2))
    verdict = verify_gain_assumption(bench_model, cert)
    assert verdict.passed
    print(f"CRITERION 4: PASS (gain certificate, margin {verdict.margin:.2e})")


def test_criterion_05_strong_detectability(double_integrator, cubic_plant, bench_discrete):
    with pytest.raises(NotDetectableError):
        lti_sd_certificate(double_integrator, 0)
    paper_cert = SdCertificate(window=1, theta=2.0, mp=0.5 * np.eye(2))
    assert check_sd_certificate(double_integrator, paper_cert).passed

    plant_cert = SdCertificate(window=0, theta=0.0, mp=np.diag([0.16, 0.25]))
    plant = SampledModel(cubic_plant, 0.3)
    res1 = sd_falsify(plant, plant_cert, trials=10000, box=3.0, seed=11)
    assert not res1.falsified

    # the controller certificate concerns the state part of the output;
    # an invertible feedthrough could cancel the full output, so the check
    # runs on the feedthrough-free channel the quadratic was built from
    ctrl_cert = SdCertificate(
        window=0, theta=0.0, mp=[[0.13, -0.015], [-0.015, 0.1125]]
    )
    state_channel = DiscreteLti(
        bench_discrete.ad, bench_discrete.bd, bench_discrete.c,
        np.zeros_like(bench_discrete.d),
    )
    res2 = sd_falsify(state_channel, ctrl_cert, trials=10000, box=3.0, seed=12)
    assert not res2.falsified
    print(
        "CRITERION 5: PASS (detectability; worst ratios "
        f"{res1.worst_ratio:.6f}, {res2.worst_ratio:.6f})"
    )


def test_criterion_06_dissipation_audits(bench_discrete):
    rng = np.random.default_rng(60)
    storage = 0.7667 * np.eye(2)
    certified = IndexSet(0.20, 0.9803)
    worst = -np.inf
    trajs = []
    for _ in range(100):
        xs, us, ys = rollout(
            bench_discrete, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (100, 2))
        )
        trajs.append((xs, us, ys))
        worst = max(worst, dissipation_audit(xs, us, ys, storage, certified))
    assert worst <= 1e-8

    inflated = IndexSet(0.20, 2 * 0.9803)
    violation = max(
        dissipation_audit(xs, us, ys, storage, inflated) for xs, us, ys in trajs[:10]
    )
    assert violation > 0
    print(f"CRITERION 6: PASS (audit worst {worst:.2e}; inflated rho violates by {violation:.2e})")


def test_criterion_07_bisimulation_tracking(bench_model):
    bound = lti_delta_iss(bench_model.a, bench_model.b)
    eps, tau, mu, eta = 0.25, 0.3, 0.01, 0.1
    assert check_bisim_params(bound, eps, tau, mu, eta).passed
    disc = discretize_exact(bench_model, tau)
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        ctrl = SymbolicController(SampledModel(bench_model, tau), eta=eta, mu=mu, x0=x)
        for _ in range(100):
            u = rng.uniform(-1, 1, 2)
            x = disc.step(x, u)
            sym = ctrl.step(quantize(u, mu))
            worst = max(worst, float(np.max(np.abs(sym - x))))
    assert worst <= eps
    print(f"CRITERION 7: PASS (tracking worst gap {worst:.4f} <= eps {eps})")


def test_criterion_08_end_to_end_symbolic_sweep():
    cfg = load_config(bundled_config_path("example5"))
    loop = _loop_config(cfg)
    assert loop.horizon >= 300
    t0 = time.perf_counter()
    points = eta_sweep(loop, [0.1, 0.05, 0.01])
    runtime = time.perf_counter() - t0
    sups = [p.sup_combined for p in points]
    assert all(np.isfinite(s) for s in sups)
    assert all(later <= earlier * 1.05 for earlier, later in zip(sups, sups[1:]))
    assert runtime < 5.0
    print(
        f"CRITERION 8: PASS (ultimate sup norms {[round(s, 4) for s in sups]}, "
        f"{runtime:.2f} s)"
    )


def test_criterion_09_bound_audit_consistency():
    checked = 0
    for name in ("loop_a", "loop_b", "loop_c"):
        cfg = load_config(bundled_config_path(name))
        report, margin, composed, details = _compute_bounds(cfg)
        assert composed.rho > 0, name
        assert margin.passed, name
        assert details["cert_plant"][1]["passed"], name
        assert details["cert_controller"][1]["passed"], name
        loop = _loop_config(cfg)
        assert loop.horizon == 500
        traj = simulate(loop)
        audit = ultimate_bound_audit(traj, report, _loop_storage(cfg))
        assert audit.global_ok, name
        assert audit.post_entry_ok, name
        checked += 1
    assert checked >= 3
    print(f"CRITERION 9: PASS ({checked} loop configurations certified and audited)")


def test_criterion_10_numerics():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = rng.integers(2, 5)
        a = rng.standard_normal((n, n))
        norm = np.linalg.norm(a, 2)
        if norm > 3.0:
            a *= 3.0 / norm
        assert np.max(np.abs(linalg.expm(a) - series_expm(a, terms=40))) <= 1e-9

    for _ in range(50):
        g = rng.standard_normal((2, 2))
        p = g @ g.T + 0.3 * np.eye(2)
        h = rng.standard_normal((2, 2))
        m = h @ h.T
        xi = float(rng.uniform(0.5, 3.0))
        got = linalg.quad_sublevel_max(m, p, xi)
        low = np.linalg.cholesky(p)
        theta = np.linspace(0.0, 2.0 * np.pi, 100000)
        circle = np.stack([np.cos(theta), np.sin(theta)]) * np.sqrt(xi)
        pts = np.linalg.solve(low.T, circle)
        brute = np.einsum("ik,ij,jk->k", pts, m, pts).max()
        assert got == pytest.approx(brute, abs=1e-3 * max(1.0, got))

    for _ in range(100):
        n = rng.integers(1, 9)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, v = linalg.sym_eig(a)
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(a - v @ np.diag(w) @ v.T)) <= 1e-9 * scale
    print("CRITERION 10: PASS (expm, sublevel maxima, eigendecomposition)")
