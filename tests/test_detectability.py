import numpy as np
import pytest

from passquant import (
    DimensionError,
    DiscreteLti,
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
        with pytest.raises(DimensionError):
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
        assert built >= 10


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
        result = sd_falsify(system, cert, trials=10000, box=3.0, seed=2)
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
