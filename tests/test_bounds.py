import numpy as np
import pytest
import scipy.linalg

from passquant import (
    ComposedIndices,
    IndexSet,
    LtiModel,
    ParameterError,
    SdCertificate,
    loop_bounds,
    margin_check,
    single_system_bounds,
    symbolic_loop_bounds,
    verify_lti_passivity,
)
from passquant.bounds import loop_detectability_matrix


def unit_cert(theta=0.0, n=2, window=0):
    return SdCertificate(window=window, theta=theta, mp=np.eye(n))


class TestSingleSystemBounds:
    def test_hand_computed_case(self):
        # nu=0, rho=1, lam=1/2, N=0, theta=0, delta=0, |u|=1, V=p=|x|^2
        idx = IndexSet(0.0, 1.0)
        rep = single_system_bounds(idx, unit_cert(), np.eye(2), 1.0, lam=0.5, c5=0.5, p_x0=0.0)
        assert rep.eta1 == pytest.approx(0.5)
        assert rep.eta2 == pytest.approx(0.5)
        assert rep.constants["c2"] == pytest.approx(0.5)
        assert rep.constants["c3"] == pytest.approx(0.5)
        assert rep.constants["xi2"] == pytest.approx(1.0)
        assert rep.constants["c1"] == pytest.approx(1.0)
        assert rep.level_d1 == pytest.approx(1.5)
        # xi4 = (c2+c5)/eta2 = 2, c4 = 2, level_d2 = c2 + c4 = 2.5
        assert rep.level_d2 == pytest.approx(2.5)

    def test_zero_input_from_origin(self):
        idx = IndexSet(0.0, 1.0)
        rep = single_system_bounds(idx, unit_cert(), np.eye(2), 0.0, lam=0.5, c5=1.0, p_x0=0.0)
        assert rep.level_d1 == pytest.approx(0.0)

    def test_input_homogeneity(self):
        idx = IndexSet(0.0, 1.0, delta=0.0)
        r1 = single_system_bounds(idx, unit_cert(theta=0.3), np.eye(2), 1.0, lam=0.5, c5=0.1)
        r2 = single_system_bounds(idx, unit_cert(theta=0.3), np.eye(2), 2.0, lam=0.5, c5=0.1)
        assert r2.constants["c2"] == pytest.approx(4.0 * r1.constants["c2"])
        assert r2.constants["c3"] == pytest.approx(4.0 * r1.constants["c3"])

    def test_rejects_negative_rho(self):
        with pytest.raises(ParameterError):
            single_system_bounds(IndexSet(0.0, -0.1), unit_cert(), np.eye(2), 0.0)

    def test_rejects_eta1_nonpositive(self):
        with pytest.raises(ParameterError):
            single_system_bounds(IndexSet(5.0, 1.0), unit_cert(), np.eye(2), 0.0, lam=0.5)

    def test_rejects_state_bias(self):
        with pytest.raises(ParameterError):
            single_system_bounds(IndexSet(0.0, 1.0, w=1.0), unit_cert(), np.eye(2), 0.0)


class TestLoopBounds:
    def setup_method(self):
        self.idx = ComposedIndices(nu=-2.0, rho=0.5, delta=0.013, w1=0.0, w2=0.0)
        self.c1 = unit_cert(theta=0.0, n=2)
        self.c2 = unit_cert(theta=0.0, n=2)
        self.storage = np.eye(4)

    def test_zero_reference_specialization(self):
        rep = loop_bounds(self.idx, self.c1, self.c2, self.storage, 0.0, 0.01, 0.01, 2)
        # theta = 0: d1 = (N+1) delta, d2 = m (N2+1) (theta2 mu1^2 + mu2^2)
        assert rep.constants["d1"] == pytest.approx(0.013)
        assert rep.constants["d2"] == pytest.approx(2 * 0.01**2)

    def test_zero_noise_collapse(self):
        idx = ComposedIndices(nu=-2.0, rho=0.5, delta=0.0, w1=0.0, w2=0.0)
        rep = loop_bounds(idx, self.c1, self.c2, self.storage, 0.0, 0.0, 0.0, 2)
        assert rep.constants["d1"] == 0.0
        assert rep.constants["d2"] == 0.0

    def test_monotone_in_reference_and_precision(self):
        base = loop_bounds(self.idx, self.c1, self.c2, self.storage, 0.1, 0.01, 0.01, 2, d3=1e-3)
        for kwargs in (
            dict(r_norm=0.2, mu1=0.01, mu2=0.01),
            dict(r_norm=0.1, mu1=0.02, mu2=0.01),
            dict(r_norm=0.1, mu1=0.01, mu2=0.02),
        ):
            other = loop_bounds(
                self.idx, self.c1, self.c2, self.storage,
                kwargs["r_norm"], kwargs["mu1"], kwargs["mu2"], 2, d3=1e-3,
            )
            assert other.level_d2 >= base.level_d2

    def test_halved_precision_shrinks_level(self):
        coarse = loop_bounds(self.idx, self.c1, self.c2, self.storage, 0.0, 0.02, 0.02, 2)
        idx_fine = ComposedIndices(nu=-2.0, rho=0.5, delta=0.013 / 4.0, w1=0.0, w2=0.0)
        fine = loop_bounds(idx_fine, self.c1, self.c2, self.storage, 0.0, 0.01, 0.01, 2)
        assert fine.level_d2 < coarse.level_d2

    def test_v_first_in_global_level(self):
        rep = loop_bounds(
            self.idx, self.c1, self.c2, self.storage, 0.0, 0.01, 0.01, 2, v_first=[9.0]
        )
        assert rep.level_d1 == pytest.approx(9.0)
        assert rep.level_d2 < 9.0

    def test_rejects_nonpositive_rho(self):
        bad = ComposedIndices(nu=-2.0, rho=0.0, delta=0.0, w1=0.0, w2=0.0)
        with pytest.raises(ParameterError):
            loop_bounds(bad, self.c1, self.c2, self.storage, 0.0, 0.01, 0.01, 2)


class TestLoopDetectabilityMatrix:
    def test_halved_controller_quadratic_on_random_certificates(self):
        # bit-identical to the formula the loop levels are stated in:
        # p = (1 - theta) blockdiag(p1, p2/2), theta = max 2 theta_i/(2 theta_i + 1)
        rng = np.random.default_rng(31)
        for _ in range(200):
            certs = []
            for _ in range(2):
                n = int(rng.integers(1, 5))
                g = rng.uniform(-1, 1, (n, n))
                theta = float(rng.choice([0.0, rng.uniform(0, 5), 10.0 ** rng.uniform(-9, 3)]))
                p = g @ g.T + 0.1 * np.eye(n)
                certs.append(SdCertificate(int(rng.integers(0, 6)), theta, p))
            c1, c2 = certs
            window, theta, mp = loop_detectability_matrix(c1, c2)
            expected = max(2.0 * c.theta / (2.0 * c.theta + 1.0) for c in certs)
            assert window == max(c1.window, c2.window)
            assert theta == expected
            halved = scipy.linalg.block_diag(c1.mp, 0.5 * c2.mp)
            assert np.array_equal(mp, (1.0 - expected) * halved)


class TestSymbolicLoopBounds:
    def setup_method(self):
        self.idx = ComposedIndices(nu=-2.0, rho=0.5, delta=0.1, w1=0.0, w2=0.0)
        self.c1 = unit_cert(n=2)
        self.c2 = unit_cert(n=2)
        self.storage = np.eye(4)

    def test_eps_zero_matches_inflated_output_radius(self):
        rep = symbolic_loop_bounds(
            self.idx, self.c1, self.c2, self.storage, 0.0, 0.7, 0.0, 0.01, 0.01, 2
        )
        assert rep.constants["d2"] == pytest.approx((3.0 * np.sqrt(2.0) * 0.01) ** 2)

    def test_zero_lipschitz_decouples_eps(self):
        a = symbolic_loop_bounds(self.idx, self.c1, self.c2, self.storage, 0.0, 0.0, 0.1, 0.01, 0.01, 2)
        b = symbolic_loop_bounds(self.idx, self.c1, self.c2, self.storage, 0.0, 0.0, 5.0, 0.01, 0.01, 2)
        assert a.constants["d2"] == pytest.approx(b.constants["d2"])

    def test_level_monotone_in_eps(self):
        levels = [
            symbolic_loop_bounds(
                self.idx, self.c1, self.c2, self.storage, 0.0, 0.67, eps, 0.01, 0.01, 2, d3=1e-3
            ).level_d2
            for eps in (0.05, 0.1, 0.25, 0.5)
        ]
        assert np.all(np.diff(levels) > 0)
        assert np.all(np.isfinite(levels))


class TestIndefiniteStorage:
    """Sublevel sets of an indefinite storage bound nothing."""

    storage = np.diag([1.0, -1.0])

    def test_single_system_bounds(self):
        with pytest.raises(ParameterError, match="storage matrix"):
            single_system_bounds(IndexSet(0.0, 1.0), unit_cert(), self.storage, 1.0)

    def test_loop_bounds(self):
        idx = ComposedIndices(nu=-2.0, rho=0.5, delta=0.013)
        with pytest.raises(ParameterError, match="storage matrix"):
            loop_bounds(idx, unit_cert(n=1), unit_cert(n=1), self.storage, 0.0, 0.01, 0.01, 1)

    def test_verify_lti_passivity(self):
        model = LtiModel(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="storage matrix"):
            verify_lti_passivity(model, self.storage, 0.0, 0.0)


class TestMarginCheck:
    def test_no_bias_reduces_to_min_eigenvalue(self):
        cert = margin_check(0.4, np.diag([1.0, 2.0]), 0.0, np.zeros((1, 1)), 0.0, np.zeros((1, 1)))
        assert cert.passed
        assert cert.margin == pytest.approx(0.4)

    def test_direct_substitution(self):
        cert = margin_check(2.0, np.eye(2), 1.0, np.eye(1), 1.0, np.eye(1))
        assert cert.margin == pytest.approx(1.0)
        assert cert.passed

    def test_large_bias_fails(self):
        cert = margin_check(
            0.1, 0.05 * np.eye(4),
            6.8572, 0.2187 * np.eye(2),
            0.0, np.zeros((2, 2)),
        )
        assert not cert.passed
        assert cert.margin < 0
