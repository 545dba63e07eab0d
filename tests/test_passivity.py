import math

import numpy as np
import pytest
import scipy.linalg

import passquant
from passquant import (
    CertificateError,
    DimensionError,
    DiscreteLti,
    GainCertificate,
    IndexSet,
    LtiModel,
    NonlinearModel,
    ParameterError,
    choose_nu_hat,
    compose_feedback,
    degrade_quantization,
    degrade_sampling,
    dissipation_audit,
    max_index_bisection,
    symbolic_quant_bias,
    verify_gain_assumption,
    verify_lti_passivity,
)
from passquant.passivity import _quad_values

P_BENCH = 0.23 * np.eye(2)


def rollout(disc, x0, inputs):
    """Open-loop trajectory of a discrete quadruple under given inputs."""
    xs = [np.asarray(x0, float)]
    ys = []
    for u in inputs:
        ys.append(disc.output(xs[-1], u))
        xs.append(disc.step(xs[-1], u))
    return np.array(xs), np.asarray(inputs, float), np.array(ys)


def pairwise_violation(xs, us, ys, storage, idx, bias=None):
    """Dissipation-audit reference: every window k0 < k1 summed on its own."""
    v = [float(x @ storage @ x) for x in xs]
    supply = [
        u @ y - idx.nu * (u @ u) - idx.rho * (y @ y) + idx.delta for u, y in zip(us, ys)
    ]
    worst = -np.inf
    for k0 in range(len(us)):
        start_bias = idx.w * float(xs[k0] @ bias @ xs[k0]) if idx.w > 0 else 0.0
        for k1 in range(k0 + 1, len(us) + 1):
            worst = max(worst, v[k1] - v[k0] - start_bias - sum(supply[k0:k1]))
    return worst


class TestVerifyLmi:
    def test_continuous_published_indices(self, bench_model):
        # published 4-decimal indices sit ~2e-6 outside the exact boundary,
        # so the check runs at 1e-5
        verdict = verify_lti_passivity(bench_model, P_BENCH, 0.3, 0.5628)
        assert verdict.margin <= 1e-5

    def test_discrete_published_indices(self, bench_discrete):
        verdict = verify_lti_passivity(bench_discrete, P_BENCH, 0.20, 0.9803)
        assert verdict.margin <= 1e-5

    def test_inflated_rho_fails(self, bench_model):
        verdict = verify_lti_passivity(bench_model, P_BENCH, 0.3, 0.60)
        assert verdict.margin > 1e-3

    def test_storage_dimension_mismatch(self, bench_model):
        with pytest.raises(DimensionError):
            verify_lti_passivity(bench_model, np.eye(3), 0.0, 0.0)


class TestMaxIndexBisection:
    def test_recovers_continuous_rho(self, bench_model):
        rho = max_index_bisection(bench_model, P_BENCH, "nu", 0.3)
        assert rho == pytest.approx(0.5628, abs=1e-3)
        assert verify_lti_passivity(bench_model, P_BENCH, 0.3, rho).passed
        assert not verify_lti_passivity(bench_model, P_BENCH, 0.3, rho + 1e-4).passed

    def test_recovers_discrete_rho(self, bench_discrete):
        rho = max_index_bisection(bench_discrete, P_BENCH, "nu", 0.20)
        assert rho == pytest.approx(0.9803, abs=1e-3)

    def test_lossless_integrator(self):
        model = LtiModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        nu = max_index_bisection(model, 0.5 * np.eye(1), "rho", 0.0)
        assert nu == pytest.approx(0.0, abs=1e-4)

    def test_whole_window_feasible_returns_its_edge(self):
        # every nu <= 100 is feasible, yet the search stops at its window
        # edge 10; a closed form replacing the bisection changes this
        model = LtiModel([[-1.0]], [[1.0]], [[1.0]], [[100.0]])
        assert max_index_bisection(model, [[0.5]], "rho", 0.0) == 10.0

    def test_index_is_the_verified_boundary_on_random_systems(self):
        # the bisection and the check decide at the same LMI tolerance, and
        # the bisection resolves the index to 1e-5
        rng = np.random.default_rng(30)
        for _ in range(40):
            n, m = rng.integers(1, 4), rng.integers(1, 3)
            ad = rng.uniform(-1, 1, (n, n))
            ad *= rng.uniform(0.1, 0.9) / max(np.abs(np.linalg.eigvals(ad)).max(), 1e-3)
            system = DiscreteLti(
                ad, rng.uniform(-0.5, 0.5, (n, m)), rng.uniform(-1, 1, (m, n)),
                rng.uniform(-1, 1, (m, m)),
            )
            p = scipy.linalg.solve_discrete_lyapunov(ad.T, np.eye(n))  # A'PA - P = -I
            nu = max_index_bisection(system, p, "rho", 0.0)
            assert verify_lti_passivity(system, p, nu, 0.0).passed
            assert not verify_lti_passivity(system, p, nu + 1e-5, 0.0).passed

    def test_small_outputs_keep_the_resolution(self):
        # with C and D scaled by 1e-2 (and A'PA - P = -1e-4 I to match),
        # F = [C D]'[C D] is of order 1e-4, so the boundary at tol/2 lies
        # about 5e-5 inside the one at tol
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = rng.integers(1, 4), rng.integers(1, 3)
            ad = rng.uniform(-1, 1, (n, n))
            ad *= rng.uniform(0.1, 0.9) / max(np.abs(np.linalg.eigvals(ad)).max(), 1e-3)
            system = DiscreteLti(
                ad, rng.uniform(-0.5, 0.5, (n, m)), 1e-2 * rng.uniform(-1, 1, (m, n)),
                1e-2 * rng.uniform(-1, 1, (m, m)),
            )
            p = scipy.linalg.solve_discrete_lyapunov(ad.T, 1e-4 * np.eye(n))
            rho = max_index_bisection(system, p, "nu", -1.0)
            assert -10.0 < rho < 10.0
            assert verify_lti_passivity(system, p, -1.0, rho).passed
            assert not verify_lti_passivity(system, p, -1.0, rho + 1e-5).passed

    def test_lower_end_within_half_the_tolerance_of_the_boundary(self):
        # M(nu) = diag(7e-9, nu): M(-10) is above tol/2 yet every nu <= 1e-8
        # passes, so the index is 1e-8 to within 1e-5, not -10
        model = LtiModel([[7e-9]], [[1.0]], [[1.0]], [[0.0]])
        nu = max_index_bisection(model, [[0.5]], "rho", 0.0)
        assert verify_lti_passivity(model, [[0.5]], nu, 0.0).passed
        assert not verify_lti_passivity(model, [[0.5]], nu + 1e-5, 0.0).passed

    def test_interior_index_costs_three_lmi_eigenvalues(self, bench_discrete, monkeypatch):
        # both window ends and the closed-form candidate, whatever the system
        calls = []
        max_eig = passquant.linalg.max_eig

        def counted(matrix):
            calls.append(1)
            return max_eig(matrix)

        monkeypatch.setattr(passquant.linalg, "max_eig", counted)
        for fixed, value in [("nu", 0.2), ("rho", 0.0)]:
            calls.clear()
            index = max_index_bisection(bench_discrete, P_BENCH, fixed, value)
            assert -10.0 < index < 10.0
            assert len(calls) == 3

    def test_infeasible_raises(self, bench_discrete):
        # a strictly proper discrete system cannot pass with nu fixed at 10
        model = LtiModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(CertificateError):
            max_index_bisection(model, np.eye(1), "nu", 10.0)


class TestModelType:
    NONLINEAR = NonlinearModel(1, 1, lambda x, u: (0.0,), lambda x: np.zeros(1))

    @pytest.mark.parametrize("check", [
        lambda model: verify_lti_passivity(model, np.eye(1), 0.0, 0.1),
        lambda model: max_index_bisection(model, np.eye(1), "rho", 0.1),
    ], ids=["verify_lti_passivity", "max_index_bisection"])
    def test_nonlinear_model_rejected(self, check):
        with pytest.raises(
            ParameterError, match="^model must be LtiModel or DiscreteLti, got NonlinearModel$"
        ):
            check(self.NONLINEAR)


class TestGainAssumption:
    def test_published_gain_passes(self, bench_model):
        cert = GainCertificate(gamma=0.2, beta_matrix=0.2187 * np.eye(2))
        assert verify_gain_assumption(bench_model, cert).passed

    def test_zero_output_matrix(self):
        model = LtiModel([[-1.0]], [[1.0]], [[0.0]], [[0.0]])
        cert = GainCertificate(gamma=0.7, beta_matrix=np.zeros((1, 1)))
        assert verify_gain_assumption(model, cert).passed

    def test_shrunk_gamma_fails(self, bench_model):
        cert = GainCertificate(gamma=0.05, beta_matrix=0.2187 * np.eye(2))
        assert not verify_gain_assumption(bench_model, cert).passed


class TestDegradeSampling:
    def test_published_values(self):
        idx = degrade_sampling(0.3, 0.5628, 0.2, 0.3, 10)
        assert idx.nu == pytest.approx(0.2177, abs=1e-4)
        assert idx.rho == pytest.approx(0.5065, abs=1e-4)
        assert idx.w == pytest.approx(6.8572, abs=1e-4)
        assert idx.delta == 0.0

    def test_vanishing_tau_limit(self):
        idx = degrade_sampling(0.4, 0.7, 0.5, 1e-12, 3.0)
        assert idx.nu == pytest.approx(0.4, abs=1e-9)
        assert idx.rho == pytest.approx(0.7 - 0.7 / 3.0)
        assert idx.w == pytest.approx(2.0, abs=1e-9)

    def test_zero_rho_kills_absolute_terms(self):
        idx = degrade_sampling(0.0, 0.0, 1.0, 0.5, 1.0)
        assert (idx.nu, idx.rho, idx.w) == (-0.5, 0.0, 1.0)

    def test_rejects_nonpositive_parameters(self):
        for bad in ((0.1, 1, -1, 1, 1), (0.1, 1, 1, 0, 1), (0.1, 1, 1, 1, 0)):
            with pytest.raises(ParameterError):
                degrade_sampling(bad[0], bad[1], bad[2], bad[3], bad[4])

    def test_monotone_in_tau_and_gamma(self):
        taus = np.linspace(0.01, 1.0, 20)
        gammas = np.linspace(0.05, 2.0, 20)
        for gamma in gammas:
            nus = [degrade_sampling(0.3, 0.5, gamma, t, 10).nu for t in taus]
            assert np.all(np.diff(nus) <= 1e-15)
        for tau in taus:
            nus = [degrade_sampling(0.3, 0.5, g, tau, 10).nu for g in gammas]
            assert np.all(np.diff(nus) <= 1e-15)


class TestDegradeQuantization:
    def test_published_values(self):
        idx = degrade_quantization(0.20, 0.9803, 0.01, 0.01, 2, 20, 20, 20, 20)
        assert idx.nu == pytest.approx(0.1775, abs=1e-4)
        assert idx.rho == pytest.approx(0.9188, abs=1e-4)
        assert idx.delta == pytest.approx(0.0130, abs=1e-4)

    def test_zero_precision_keeps_lambda_slack(self):
        idx = degrade_quantization(0.3, 0.5, 0.0, 0.0, 2, 10, 10, 10, 10)
        assert idx.delta == 0.0
        assert idx.nu == pytest.approx(0.3 - 0.03 - 1.0 / 40.0)

    def test_direct_substitution(self):
        idx = degrade_quantization(0.0, 0.0, 0.1, 0.1, 1, 1, 1, 1, 1)
        assert idx.nu == pytest.approx(-0.25)
        assert idx.rho == pytest.approx(-0.25)
        assert idx.delta == pytest.approx(0.02)

    def test_delta_vanishes_with_precision(self):
        deltas = [
            degrade_quantization(0.2, 0.9, mu, mu, 2).delta
            for mu in (0.1, 0.01, 0.001, 0.0)
        ]
        assert np.all(np.diff(deltas) < 0) and deltas[-1] == 0.0

    def test_strict_degradation_and_lambda_tradeoff(self):
        base = degrade_quantization(0.2, 0.9, 0.01, 0.01, 2, 20, 20, 20, 20)
        assert base.nu < 0.2 and base.rho < 0.9
        looser = degrade_quantization(0.2, 0.9, 0.01, 0.01, 2, 40, 40, 40, 40)
        assert looser.nu > base.nu and looser.rho > base.rho
        assert looser.delta > base.delta


class TestSymbolicQuantBias:
    def test_all_zero(self):
        assert symbolic_quant_bias(0.2, 0.98, 0.0, 0.0, 0.0, 0.0, 2) == 0.0

    def test_eps_zero_reduces_to_inflated_output_radius(self):
        got = symbolic_quant_bias(0.1, 0.5, 0.7, 0.0, 0.01, 0.01, 2, 20, 20, 20, 20)
        radius = 3.0 * np.sqrt(2.0) * 0.01
        expected = (0.5 * 21 + 20) * radius**2 + (0.1 * 21 + 20) * 2 * 0.01**2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_duplicate_evaluation(self):
        nu, rho, lip, eps, mu1, mu2, m = 0.20, 0.9803, 0.5, 0.25, 0.01, 0.01, 2
        got = symbolic_quant_bias(nu, rho, lip, eps, mu1, mu2, m, 20, 20, 20, 20)
        radius = lip * eps + 3.0 * np.sqrt(m) * mu2
        expected = (abs(rho) * 21.0 + 20.0) * radius**2 + (abs(nu) * 21.0 + 20.0) * m * mu1**2
        assert got == pytest.approx(expected, rel=1e-12)


class TestQuantizationBiasRule:
    """``degrade_quantization`` and ``symbolic_quant_bias`` share one bias
    rule: the same weights and the same input checks."""

    def test_biases_are_their_docstring_formulas_on_random_draws(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            nu, rho = (float(v) for v in rng.uniform(-1, 1, 2))
            lip, eps, mu1, mu2 = (float(v) for v in rng.uniform(0, 1, 4))
            m = int(rng.integers(1, 5))
            l2, l3, l4, l5 = (float(v) for v in rng.uniform(0.1, 50, 4))
            out_w = abs(rho) * (1.0 + l2) + l4
            in_w = abs(nu) * (1.0 + l3) + l5
            got = degrade_quantization(nu, rho, mu1, mu2, m, l2, l3, l4, l5)
            assert got.delta == out_w * m * mu2**2 + in_w * m * mu1**2
            assert got.nu == nu - abs(nu) / l3 - 1.0 / (4.0 * l4)
            assert got.rho == rho - abs(rho) / l2 - 1.0 / (4.0 * l5)
            got = symbolic_quant_bias(nu, rho, lip, eps, mu1, mu2, m, l2, l3, l4, l5)
            radius = lip * eps + 3 * math.sqrt(m) * mu2
            assert got == out_w * radius**2 + in_w * m * mu1**2

    # the fault of each case -> the message of the scalar rule it raises
    MESSAGES = {
        "precisions": r"^mu[12] must be nonnegative and finite, got -0\.01$",
        "signal dimension": r"^m must be a positive integer, got 0$",
        "lambda2..lambda5": r"^lambda4 must be positive and finite, got 0$",
    }

    @pytest.mark.parametrize(
        "bias",
        [
            lambda mu1, mu2, m, lam: degrade_quantization(0.2, 0.9, mu1, mu2, m, *lam),
            lambda mu1, mu2, m, lam: symbolic_quant_bias(0.2, 0.9, 1.0, 0.1, mu1, mu2, m, *lam),
        ],
        ids=["degrade_quantization", "symbolic_quant_bias"],
    )
    @pytest.mark.parametrize(
        "mu1, mu2, m, lam, fault",
        [
            (-0.01, 0.01, 2, (20, 20, 20, 20), "precisions"),
            (0.01, -0.01, 2, (20, 20, 20, 20), "precisions"),
            (-0.01, -0.01, 0, (20, 20, 20, 20), "precisions"),
            (0.01, 0.01, 0, (20, 20, 20, 20), "signal dimension"),
            (0.01, 0.01, 2, (20, 20, 0, 20), "lambda2..lambda5"),
        ],
    )
    def test_rejected_inputs(self, bias, mu1, mu2, m, lam, fault):
        with pytest.raises(ParameterError, match=self.MESSAGES[fault]):
            bias(mu1, mu2, m, lam)


class TestComposeFeedback:
    def test_zero_nu_hat_keeps_rho(self):
        idx = compose_feedback(IndexSet(1.0, 1.0), IndexSet(1.0, 1.0), 0.0)
        assert idx.rho == pytest.approx(1.0)
        assert idx.delta == 0.0

    def test_duplicate_evaluation(self):
        i1 = IndexSet(0.2177, 0.5065)
        i2 = IndexSet(0.1775, 0.9188, delta=0.0130)
        nu_hat = 0.1
        got = compose_feedback(i1, i2, nu_hat)
        expected = min(
            0.5065 - 0.1 * 0.1775 / (0.1775 - 0.1),
            0.9188 - 0.1 * 0.2177 / (0.2177 - 0.1),
        )
        assert got.rho == pytest.approx(expected, rel=1e-12)
        assert got.delta == pytest.approx(0.0130)

    def test_delta_additive(self):
        idx = compose_feedback(IndexSet(1, 1, delta=0.01), IndexSet(1, 1, delta=0.02), -5.0)
        assert idx.delta == pytest.approx(0.03)

    def test_bias_weights_carried(self):
        idx = compose_feedback(IndexSet(1, 1, w=2.0), IndexSet(1, 1, w=3.0), 0.0)
        assert (idx.w1, idx.w2) == (2.0, 3.0)

    def test_rejects_nu_hat_at_bound(self):
        with pytest.raises(ParameterError):
            compose_feedback(IndexSet(1.0, 1.0), IndexSet(2.0, 1.0), 1.0)


class TestChooseNuHat:
    @staticmethod
    def grid_oracle(i1, i2, span=10.0, points=10000):
        bound = min(i1.nu, i2.nu)
        grid = np.linspace(bound - span, bound - 1e-9, points)
        vals = [
            min(
                i1.rho - nh * i2.nu / (i2.nu - nh),
                i2.rho - nh * i1.nu / (i1.nu - nh),
            )
            for nh in grid
        ]
        return grid[int(np.argmax(vals))]

    def test_symmetric_matches_grid(self):
        i1 = i2 = IndexSet(1.0, 1.0)
        got = choose_nu_hat(i1, i2)
        assert got == pytest.approx(self.grid_oracle(i1, i2), abs=2e-3)

    def test_asymmetric_matches_grid(self):
        i1 = IndexSet(-0.175, 0.63)
        i2 = IndexSet(0.1775, 0.9188)
        got = choose_nu_hat(i1, i2)
        assert got == pytest.approx(self.grid_oracle(i1, i2), abs=2e-3)

    def test_local_optimality_within_search_window(self):
        i1 = IndexSet(0.3, 0.7)
        i2 = IndexSet(0.5, 0.4, delta=0.01)
        star = choose_nu_hat(i1, i2)
        bound = min(i1.nu, i2.nu)
        best = compose_feedback(i1, i2, star).rho
        for eps in (-1e-3, 1e-3):
            trial = star + eps
            if bound - 10.0 <= trial < bound:
                assert best >= compose_feedback(i1, i2, trial).rho - 1e-6

    def test_result_near_1e9_unchanged(self):
        assert choose_nu_hat(IndexSet(1e9, 0.5), IndexSet(1.0000001e9, 0.2)) == 999999990.0000005

    @pytest.mark.parametrize("nu", [1e10, 3e10, 1e12, -1e12, 1e15, 1e17])
    def test_large_index_returns_an_accepted_nu_hat(self, nu):
        # the bound's float spacing exceeds the 1e-6 width: the search stops
        # where its probes stop moving, never probing the bound itself
        i1, i2 = IndexSet(nu, 0.5), IndexSet(nu + abs(nu) * 1e-7, 0.2)
        star = choose_nu_hat(i1, i2)
        assert nu - 10.0 <= star < nu
        assert compose_feedback(i1, i2, star).nu == star

    def test_index_beyond_the_window_raises(self):
        with pytest.raises(ParameterError, match=r"^nu = 1e\+18 leaves no float nu_hat"):
            choose_nu_hat(IndexSet(1e18, 0.5), IndexSet(2e18, 0.2))


class TestQuadValues:
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_bits_of_the_per_row_product(self, layout):
        # the batched product against float(x @ q @ x) row by row, bit for
        # bit, over state sizes 1..32 and entries from 1e-3 to 1e15
        rng = np.random.default_rng(17)
        for n in range(1, 33):
            scale = 10.0 ** rng.uniform(-3, 15)
            q = rng.normal(size=(n, n))
            q = q + q.T
            wide = scale * rng.normal(size=(41, 2 * n))
            states = {
                "contiguous": np.ascontiguousarray(wide[:, :n]),
                "strided": wide[:, ::2],
                "fortran": np.asfortranarray(wide[:, :n]),
            }[layout]
            expected = np.array([float(x @ q @ x) for x in states])
            assert np.array_equal(_quad_values(q, states), expected)


class TestDissipationAudit:
    def test_zero_trajectory(self):
        idx = IndexSet(0.1, 0.2)
        xs = np.zeros((11, 2))
        us = np.zeros((10, 2))
        ys = np.zeros((10, 2))
        assert dissipation_audit(xs, us, ys, np.eye(2), idx) <= 0.0

    def test_certified_indices_hold_on_random_runs(self, bench_discrete):
        rng = np.random.default_rng(5)
        idx = IndexSet(0.20, 0.98)
        storage = P_BENCH
        worst = -np.inf
        for _ in range(20):
            xs, us, ys = rollout(
                bench_discrete, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (100, 2))
            )
            worst = max(worst, dissipation_audit(xs, us, ys, storage, idx))
        assert worst <= 1e-8

    def test_inflated_rho_violates(self, bench_discrete):
        rng = np.random.default_rng(6)
        idx = IndexSet(0.20, 2.0)
        xs, us, ys = rollout(bench_discrete, np.zeros(2), rng.uniform(-1, 1, (100, 2)))
        assert dissipation_audit(xs, us, ys, P_BENCH, idx) > 0.0

    def test_state_bias_needs_callback(self):
        idx = IndexSet(0.0, 0.1, w=1.0)
        xs = np.zeros((3, 1))
        us = np.zeros((2, 1))
        with pytest.raises(ParameterError):
            dissipation_audit(xs, us, us, np.eye(1), idx)

    def test_misaligned_arrays(self):
        idx = IndexSet(0.0, 0.1)
        with pytest.raises(DimensionError):
            dissipation_audit(np.zeros((5, 1)), np.zeros((3, 1)), np.zeros((3, 1)), np.eye(1), idx)

    def test_zero_steps_rejected(self):
        # one state and no inputs leave no window to audit
        idx = IndexSet(0.0, 0.1)
        with pytest.raises(DimensionError, match="no steps"):
            dissipation_audit(np.zeros((1, 2)), np.zeros((0, 2)), np.zeros((0, 2)), np.eye(2), idx)

    def test_violation_after_step_500_is_flagged(self, bench_discrete):
        # at rest for 520 steps, then driven: the inflated rho only fails
        # once the outputs are nonzero, after the first 500 steps
        rng = np.random.default_rng(8)
        us = np.vstack([np.zeros((520, 2)), rng.uniform(-1, 1, (200, 2))])
        xs, us, ys = rollout(bench_discrete, np.zeros(2), us)
        idx = IndexSet(0.20, 2.0)
        storage = P_BENCH
        assert dissipation_audit(xs[:501], us[:500], ys[:500], storage, idx) <= 0.0
        assert dissipation_audit(xs, us, ys, storage, idx) > 0.0

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            k, n, m = int(rng.integers(1, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
            xs = rng.uniform(-2, 2, (k + 1, n))
            us = rng.uniform(-1, 1, (k, m))
            ys = rng.uniform(-1, 1, (k, m))
            g = rng.standard_normal((n, n))
            storage = g @ g.T
            weighted = trial % 2 == 1
            idx = IndexSet(
                rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                delta=rng.uniform(0, 0.1), w=1.5 if weighted else 0.0,
            )
            bias = np.eye(n) if weighted else None
            got = dissipation_audit(xs, us, ys, storage, idx, bias=bias)
            want = pairwise_violation(xs, us, ys, storage, idx, bias)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_lmi_pass_implies_clean_audit(self, bench_discrete):
        # any candidate the feasibility check accepts must audit clean
        rng = np.random.default_rng(7)
        storage = P_BENCH
        accepted = 0
        for _ in range(40):
            nu = rng.uniform(-0.5, 0.4)
            rho = rng.uniform(-0.5, 1.1)
            if not verify_lti_passivity(bench_discrete, P_BENCH, nu, rho).passed:
                continue
            accepted += 1
            idx = IndexSet(nu, rho)
            for _ in range(3):
                xs, us, ys = rollout(
                    bench_discrete, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (60, 2))
                )
                assert dissipation_audit(xs, us, ys, storage, idx) <= 1e-8
        assert accepted >= 5


class TestIndexSetInvariants:
    def test_rejects_negative_delta(self):
        with pytest.raises(ParameterError):
            IndexSet(0.0, 0.0, delta=-0.1)

    def test_rejects_negative_weight(self):
        with pytest.raises(ParameterError):
            IndexSet(0.0, 0.0, w=-1.0)
