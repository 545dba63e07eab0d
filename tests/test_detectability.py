import numpy as np
import pytest

import passquant
from passquant import (
    CertificateError,
    DiscreteLti,
    LtiModel,
    NotDetectableError,
    ParameterError,
    SampledModel,
    SdCertificate,
    check_sd_certificate,
    compose_sd,
    discretize_exact,
    lti_sd_certificate,
    sd_falsify,
)
from passquant.detectability import observability_stack
from passquant.linalg import min_eig


class TestCertificateType:
    def test_rejects_zero_p(self):
        with pytest.raises(ParameterError):
            SdCertificate(window=0, theta=0.0, mp=np.zeros((2, 2)))

    def test_rejects_negative_theta(self):
        with pytest.raises(ParameterError):
            SdCertificate(window=0, theta=-1.0, mp=np.eye(2))


class TestConstruction:
    def test_rejects_quadruple(self, double_integrator):
        d = double_integrator
        with pytest.raises(ParameterError, match="^system must be DiscreteLti, got tuple$"):
            lti_sd_certificate((d.ad, d.bd, d.c, d.d), 1)

    def test_double_integrator_rejected_at_window_zero(self, double_integrator):
        with pytest.raises(NotDetectableError) as err:
            lti_sd_certificate(double_integrator, 0)
        assert err.value.info["rank"] == 1

    def test_double_integrator_window_one(self, double_integrator):
        cert = lti_sd_certificate(double_integrator, 1)
        assert cert.window == 1
        assert check_sd_certificate(double_integrator, cert).passed

    def test_static_identity_output(self):
        system = DiscreteLti(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        cert = lti_sd_certificate(system, 0)
        assert cert.theta <= 1e-8
        assert np.allclose(cert.mp, 0.5 * np.eye(2), atol=1e-9)

    def test_soundness_on_random_systems(self):
        rng = np.random.default_rng(20)
        built = 0
        for _ in range(25):
            n = rng.integers(1, 4)
            m = rng.integers(1, 3)
            ad = rng.uniform(-0.9, 0.9, (n, n))
            bd = rng.uniform(-1, 1, (n, m))
            c = rng.uniform(-1, 1, (m, n))
            d = rng.uniform(-1, 1, (m, m))
            system = DiscreteLti(ad, bd, c, d)
            try:
                cert = lti_sd_certificate(system, int(n))
            except NotDetectableError:
                continue
            built += 1
            assert check_sd_certificate(system, cert).passed
            assert not sd_falsify(system, cert, trials=200, seed=built).falsified
        assert built >= 10


def oracle_stack(system, window):
    """The per-block construction of (O, H): ``C Ad^k Bd`` once per block."""
    ad, bd, c, d = system.ad, system.bd, system.c, system.d
    mo, mi = c.shape[0], bd.shape[1]
    powers = [np.eye(system.n)]
    for _ in range(window):
        powers.append(powers[-1] @ ad)
    o = np.vstack([c @ pw for pw in powers])
    h = np.zeros(((window + 1) * mo, (window + 1) * mi))
    for i in range(window + 1):
        for j in range(i + 1):
            blk = d if j == i else c @ powers[i - 1 - j] @ bd
            h[i * mo : (i + 1) * mo, j * mi : (j + 1) * mi] = blk
    return o, h


def oracle_schur(o, h, theta):
    """S(theta), with every product recomputed on each call."""
    g = theta * np.eye(h.shape[1]) + h.T @ h
    s = o.T @ o - o.T @ h @ np.linalg.solve(g, h.T @ o)
    return 0.5 * (s + s.T)


def oracle_certificate(system, window):
    """The certificate from all 80 geometric halvings, each forming S(theta)
    from O and H afresh."""
    o, h = oracle_stack(system, window)
    rank = int(np.linalg.matrix_rank(o))
    if rank < system.n:
        raise NotDetectableError("not detectable", rank=rank, window=window)

    def feasible(theta):
        return min_eig(oracle_schur(o, h, theta)) >= 1e-8

    lo, hi = 1e-9, 1e3
    if not feasible(hi):
        raise CertificateError("no theta", window=window)
    if feasible(lo):
        return SdCertificate(window=window, theta=lo, mp=0.5 * oracle_schur(o, h, lo))
    for _ in range(80):
        mid = (lo * hi) ** 0.5
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return SdCertificate(window=window, theta=hi, mp=0.5 * oracle_schur(o, h, hi))


def random_stable(seed, n, m, tau, feedthrough=0.5):
    """Seeded stable system sampled at ``tau``: ``A = -Q diag(l) Q' + S``
    with ``l`` in [0.5, 2] and ``S`` skew, and ``D = feedthrough * I``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.normal(size=(n, n))
    a = -(q * rng.uniform(0.5, 2.0, n)) @ q.T + 0.5 * (s - s.T)
    b = rng.normal(size=(n, m)) / np.sqrt(n)
    c = rng.normal(size=(m, n)) / np.sqrt(n)
    return discretize_exact(LtiModel(a, b, c, feedthrough * np.eye(m)), tau)


SEEDED = [
    pytest.param(seed, n, m, window, tau, id=f"n{n}-m{m}-w{window}-tau{tau}")
    for seed, (n, m, window) in enumerate([(2, 1, 1), (8, 2, 7), (32, 8, 25)])
    for tau in (0.05, 0.3, 1.0)
]


def assert_agrees_with_oracle(system, window):
    """The construction matches the oracle to rounding: theta within 1e-6
    relative, Mp within 1e-6 of its largest entry, the certificate passes
    the exact check, and theta sits on the oracle's 1e-8 floor, which holds
    just above it and fails just below it."""
    cert = lti_sd_certificate(system, window)
    ref = oracle_certificate(system, window)
    assert cert.theta == pytest.approx(ref.theta, rel=1e-6, abs=0)
    assert np.abs(cert.mp - ref.mp).max() <= 1e-6 * np.abs(ref.mp).max()
    assert check_sd_certificate(system, cert).passed
    o, h = oracle_stack(system, window)
    assert min_eig(oracle_schur(o, h, 1.00001 * cert.theta)) >= 1e-8
    assert min_eig(oracle_schur(o, h, 0.99999 * cert.theta)) < 1e-8


class TestAgainstOracle:
    """The stacks are bit-identical to the per-block ones; the certificate
    agrees to rounding with the Schur complement solved afresh on every
    check and the full 80-step bisection.  Near the 1e-8 floor the two
    round differently, so theta agrees only to about 1e-8 relative."""

    @pytest.mark.parametrize("seed, n, m, window, tau", SEEDED)
    def test_bit_identical_on_seeded_systems(self, seed, n, m, window, tau):
        system = random_stable(seed, n, m, tau)
        o, h = observability_stack(system, window)
        o_ref, h_ref = oracle_stack(system, window)
        assert np.array_equal(o, o_ref) and np.array_equal(h, h_ref)
        assert_agrees_with_oracle(system, window)

    @pytest.mark.parametrize("window", [1, 3])
    def test_rank_deficient_input_output_map(self, window):
        # with D = 0 the diagonal blocks of H vanish, so H has zero
        # singular values, whose weights s^2/(theta + s^2) are zero
        system = random_stable(5, 4, 2, 0.3, feedthrough=0.0)
        _, h = observability_stack(system, window)
        assert np.linalg.matrix_rank(h) < h.shape[1]
        assert_agrees_with_oracle(system, window)

    def test_construction_makes_no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for seed, n, m, window in [(0, 2, 1, 1), (1, 8, 2, 7)]:
            lti_sd_certificate(random_stable(seed, n, m, 0.3), window)

    def test_same_errors(self, double_integrator):
        # rank 1 < 2 at window 0; at window 1 the stack is full rank, but
        # scaled down so far that S(1e3) misses the 1e-8 eigenvalue floor
        d = double_integrator
        faint = DiscreteLti(d.ad, d.bd, 1e-6 * d.c, d.d)
        wide = random_stable(3, 8, 2, 0.3)
        for system, window, error in [
            (double_integrator, 0, NotDetectableError),
            (wide, 0, NotDetectableError),
            (faint, 1, CertificateError),
        ]:
            with pytest.raises(error):
                oracle_certificate(system, window)
            with pytest.raises(error) as err:
                lti_sd_certificate(system, window)
            assert err.value.info["window"] == window

    def test_no_theta_names_the_searched_range(self, double_integrator):
        d = double_integrator
        faint = DiscreteLti(d.ad, d.bd, 1e-6 * d.c, d.d)
        with pytest.raises(CertificateError, match=r"\[1e-09, 1000\]") as err:
            lti_sd_certificate(faint, 1)
        assert err.value.info == {"window": 1, "theta_lo": 1e-9, "theta_hi": 1e3}

    def test_lower_end_feasible(self):
        system = DiscreteLti(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        cert = lti_sd_certificate(system, 0)
        ref = oracle_certificate(system, 0)
        assert cert.theta == ref.theta == 1e-9
        assert np.array_equal(cert.mp, ref.mp)

    @pytest.mark.parametrize("seed, n, m, window, tau", SEEDED)
    def test_bisection_stops_at_a_fixed_bracket(self, monkeypatch, seed, n, m, window, tau):
        # two end checks, 59 halvings and the check that Mp is definite;
        # all 80 halvings would make 83
        system = random_stable(seed, n, m, tau)
        calls = []

        def counted(matrix):
            calls.append(1)
            return min_eig(matrix)

        monkeypatch.setattr(passquant.linalg, "min_eig", counted)
        lti_sd_certificate(system, window)
        assert 2 < len(calls) <= 62


class TestCheck:
    def test_paper_candidate_passes(self, double_integrator):
        cert = SdCertificate(window=1, theta=2.0, mp=0.5 * np.eye(2))
        assert check_sd_certificate(double_integrator, cert).passed

    def test_zero_theta_fails(self, double_integrator):
        cert = SdCertificate(window=1, theta=0.0, mp=0.5 * np.eye(2))
        verdict = check_sd_certificate(double_integrator, cert)
        assert not verdict.passed
        assert verdict.margin < -0.1

    def test_block_form_matches_inequality(self, double_integrator):
        # the PSD verdict must agree with the scalar inequality on samples
        cert = SdCertificate(window=1, theta=2.0, mp=0.5 * np.eye(2))
        o, h = observability_stack(double_integrator, cert.window)
        rng = np.random.default_rng(21)
        for _ in range(100):
            x0 = rng.uniform(-3, 3, 2)
            useq = rng.uniform(-3, 3, 2)
            y = o @ x0 + h @ useq
            energy = cert.theta * useq @ useq + y @ y
            assert energy + 1e-9 >= cert.p(x0)

    def test_margin_is_the_explicit_block_form_on_random_certificates(self):
        rng = np.random.default_rng(23)
        for seed in range(30):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            system = random_stable(seed, n, m, float(rng.uniform(0.05, 1.0)))
            g = rng.uniform(-1, 1, (n, n))
            cert = SdCertificate(
                int(rng.integers(0, 4)), float(rng.uniform(0, 5)), g @ g.T + 0.1 * np.eye(n)
            )
            o, h = observability_stack(system, cert.window)
            blk = np.block([
                [o.T @ o - cert.mp, o.T @ h],
                [h.T @ o, cert.theta * np.eye(h.shape[1]) + h.T @ h],
            ])
            assert check_sd_certificate(system, cert).margin == min_eig(blk)


class TestCompose:
    def test_zero_thetas(self):
        c1 = SdCertificate(0, 0.0, np.eye(2))
        c2 = SdCertificate(0, 0.0, 2.0 * np.eye(1))
        comp = compose_sd(c1, c2)
        assert comp.theta == 0.0
        assert np.allclose(comp.mp, np.diag([1.0, 1.0, 2.0]))

    def test_published_substitution(self):
        c1 = SdCertificate(0, 2.0, np.eye(1))
        c2 = SdCertificate(0, 0.0, np.eye(1))
        comp = compose_sd(c1, c2)
        assert comp.theta == pytest.approx(0.8)
        assert np.allclose(comp.mp, 0.2 * np.eye(2))

    def test_window_is_max(self):
        c1 = SdCertificate(1, 0.1, np.eye(1))
        c2 = SdCertificate(3, 0.2, np.eye(1))
        assert compose_sd(c1, c2).window == 3

    def test_scale_in_unit_interval_and_pd(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            t1, t2 = rng.uniform(0, 50, 2)
            g = rng.standard_normal((2, 2))
            c1 = SdCertificate(0, t1, g @ g.T + 0.1 * np.eye(2))
            c2 = SdCertificate(0, t2, np.eye(1))
            comp = compose_sd(c1, c2)
            assert 0.0 < 1.0 - comp.theta <= 1.0
            assert np.linalg.eigvalsh(comp.mp).min() > 0


class TestFalsify:
    def test_sound_certificate_survives(self, double_integrator):
        cert = lti_sd_certificate(double_integrator, 1)
        result = sd_falsify(double_integrator, cert, trials=10000, seed=1)
        assert not result.falsified
        assert result.worst_ratio <= 1.0 + 1e-9

    def test_cubic_plant_state_output_certificate(self, cubic_plant):
        # p equals |h1(x)|^2 exactly, so the ratio never exceeds one
        cert = SdCertificate(0, 0.0, np.diag([0.16, 0.25]))
        system = SampledModel(cubic_plant, 0.3)
        result = sd_falsify(system, cert, trials=10000, seed=2)
        assert not result.falsified
        assert result.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_inflated_certificate_falsified(self, double_integrator):
        cert = SdCertificate(1, 2.0, 10.0 * 0.5 * np.eye(2))
        result = sd_falsify(double_integrator, cert, trials=10000, seed=3)
        assert result.falsified
        x0, useq = result.counterexample
        o, h = observability_stack(double_integrator, cert.window)
        y = o @ x0 + h @ useq.ravel()
        assert cert.p(x0) > cert.theta * useq.ravel() @ useq.ravel() + y @ y

    def test_feedthrough_defeats_state_only_quadratic(self, bench_discrete):
        # an invertible feedthrough can cancel the state output, so a
        # certificate built from the state channel alone is falsifiable
        # under the full output map
        mp = bench_discrete.c.T @ bench_discrete.c
        cert = SdCertificate(0, 0.0, mp)
        result = sd_falsify(bench_discrete, cert, trials=2000, seed=4)
        assert result.falsified

    def test_state_channel_certificate_survives(self, bench_discrete):
        # the same quadratic is exact on the feedthrough-free channel
        state_channel = DiscreteLti(
            bench_discrete.ad, bench_discrete.bd, bench_discrete.c,
            np.zeros_like(bench_discrete.d),
        )
        cert = SdCertificate(0, 0.0, bench_discrete.c.T @ bench_discrete.c)
        result = sd_falsify(state_channel, cert, trials=10000, seed=5)
        assert not result.falsified

    def test_negative_seed_rejected(self, double_integrator):
        cert = lti_sd_certificate(double_integrator, 1)
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            sd_falsify(double_integrator, cert, trials=10, seed=-1)
