import numpy as np
import pytest

from passquant import (
    CertificateError,
    ContractViolationError,
    DeltaIssBound,
    LtiModel,
    ParameterError,
    SampledModel,
    SymbolicController,
    check_bisim_params,
    discretize_exact,
    lipschitz_output_bound,
    lti_delta_iss,
    quantize,
    quantize_nearest,
)
from passquant.abstraction import _inf_bisim_check
from tests.conftest import make_cubic_plant


class TestDeltaIss:
    def test_symmetric_case(self):
        bound = lti_delta_iss(-np.eye(2), np.eye(2))
        assert bound.scale == pytest.approx(1.0)
        assert bound.rate == pytest.approx(1.0)
        assert bound.input_gain == pytest.approx(1.0)

    def test_no_input(self):
        bound = lti_delta_iss(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
        assert bound.input_gain == 0.0

    def test_rejects_unstable(self):
        with pytest.raises(CertificateError):
            lti_delta_iss(np.array([[0.5]]), np.eye(1))

    def test_bound_validated_by_simulation(self, bench_model):
        bound = lti_delta_iss(bench_model.a, bench_model.b)
        rng = np.random.default_rng(30)
        for _ in range(100):
            x1 = rng.uniform(-2, 2, 2)
            x2 = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 2)
            v = rng.uniform(-1, 1, 2)
            for t in np.arange(0.1, 2.05, 0.1):
                disc = discretize_exact(bench_model, float(t))
                gap = np.linalg.norm(
                    (disc.ad @ x1 + disc.bd @ u) - (disc.ad @ x2 + disc.bd @ v)
                )
                allowed = bound.beta1(np.linalg.norm(x1 - x2), t) + bound.beta2(
                    np.linalg.norm(u - v)
                )
                assert gap <= allowed + 1e-9


class TestBisimParams:
    def test_fast_contraction_passes(self):
        bound = DeltaIssBound(scale=1.0, rate=1e3, input_gain=0.0)
        verdict = check_bisim_params(bound, eps=1.0, tau=0.3, mu=0.01, eta=1.0)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.5, abs=1e-6)

    def test_static_terms_alone_can_fail(self):
        bound = DeltaIssBound(scale=1.0, rate=1e3, input_gain=10.0)
        verdict = check_bisim_params(bound, eps=1.0, tau=0.3, mu=1.0, eta=1.0)
        assert not verdict.passed

    def test_benchmark_parameters_feasible(self, bench_model):
        bound = lti_delta_iss(bench_model.a, bench_model.b)
        verdict = check_bisim_params(bound, eps=0.25, tau=0.3, mu=0.01, eta=0.1)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.03224, abs=1e-4)

    @pytest.mark.parametrize(
        "eps, mu, eta, passed", [(0.25, 0.01, 0.1, True), (0.01, 0.5, 2.0, False)]
    )
    def test_benchmark_parameter_sets(self, bench_model, eps, mu, eta, passed):
        bound = lti_delta_iss(bench_model.a, bench_model.b)
        assert check_bisim_params(bound, eps=eps, tau=0.3, mu=mu, eta=eta).passed == passed


class TestInfNormBisimCheck:
    """The parameter inequality in the inf-norm, the norm of eps everywhere
    else (the twin's start check and the ``lip*eps`` output radius)."""

    # a lightly damped rotation: contracting in the 2-norm, expanding in the
    # inf-norm over one period tau
    A = np.array([[-1.0, 3.93], [-3.93, -1.0]])
    B = 0.01 * np.eye(2)
    TAU, EPS, MU, ETA = 0.2, 0.1, 0.01, 0.01

    def test_mixed_norm_pass_is_falsified_in_one_step(self):
        disc = discretize_exact(LtiModel(self.A, self.B, np.eye(2), np.zeros((2, 2))), self.TAU)
        mixed = check_bisim_params(lti_delta_iss(self.A, self.B), self.EPS, self.TAU, self.MU,
                                   self.ETA)
        assert mixed.passed and mixed.margin == pytest.approx(0.0130, abs=1e-4)
        # a start mismatch within eps, signed along Ad's largest row, leaves
        # the eps tube after one step with equal inputs
        row = int(np.argmax(np.abs(disc.ad).sum(axis=1)))
        gap = np.max(np.abs(disc.ad @ (self.EPS * np.sign(disc.ad[row]))))
        assert gap == pytest.approx(1.1579 * self.EPS, rel=1e-4) and gap > self.EPS
        verdict = _inf_bisim_check(disc, self.EPS, self.MU, self.ETA)
        assert not verdict.passed
        assert verdict.margin == pytest.approx(-0.0208, abs=1e-4)

    def test_benchmark_parameters_feasible(self, bench_model):
        verdict = _inf_bisim_check(discretize_exact(bench_model, 0.3), 0.25, 0.01, 0.1)
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.01300, abs=1e-5)


class TestSymbolicController:
    def make(self, model, eta=0.1, mu=0.01, x0=(1.5, -1.6)):
        return SymbolicController(SampledModel(model, 0.3), eta=eta, mu=mu, x0=np.array(x0))

    def test_zero_fixed_point(self, bench_model):
        ctrl = self.make(bench_model, x0=(0.0, 0.0))
        assert np.array_equal(ctrl.step(np.zeros(2)), np.zeros(2))

    def test_rejects_off_grid_input(self, bench_model):
        ctrl = self.make(bench_model)
        with pytest.raises(ContractViolationError):
            ctrl.step(np.array([0.013, 0.0]))

    def test_single_step_matches_direct_computation(self, bench_model):
        ctrl = self.make(bench_model, x0=(1.5, -1.6))
        disc = discretize_exact(bench_model, 0.3)
        got = ctrl.step(np.zeros(2))
        assert np.array_equal(got, quantize_nearest(disc.ad @ np.array([1.5, -1.6]), 0.1))

    def test_output_at_grid_state(self, bench_model):
        ctrl = self.make(bench_model, x0=(1.5, -1.6))
        u = quantize(np.array([0.3, -0.2]), 0.01)
        expected = bench_model.c @ ctrl.state + bench_model.d @ u
        assert np.allclose(ctrl.output(u), expected)

    def test_output_does_not_check_the_input_grid(self, bench_model):
        # the mu-grid contract belongs to the transition, checked in step only
        ctrl = self.make(bench_model, x0=(1.5, -1.6))
        u = np.array([0.013, -0.2071])
        assert np.array_equal(ctrl.output(u), ctrl.model.output(ctrl.state, u))

    def test_far_states_do_not_wrap(self):
        # eta-grid coordinates beyond the int64 range (about 9.2e18 * eta)
        unstable = LtiModel(0.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        sampled = SampledModel(unstable, 1.0)
        ctrl = SymbolicController(sampled, eta=0.1, mu=0.01, x0=np.array([1e17, 0.0]))
        for k in range(1, 9):
            state = ctrl.step(np.zeros(2))
            assert state[0] == pytest.approx(1e17 * np.exp(0.5 * k), rel=1e-12)
            assert state[1] == 0.0
        far = np.array([1e18, -1e18])
        ctrl = SymbolicController(sampled, eta=0.1, mu=0.01, x0=far)
        assert np.array_equal(ctrl.state, quantize_nearest(far, 0.1))

    def test_grid_closure_bit_exact(self, bench_model):
        rng = np.random.default_rng(31)
        ctrl = self.make(bench_model, x0=rng.uniform(-2, 2, 2))
        for _ in range(200):
            u = quantize(rng.uniform(-1, 1, 2), 0.01)
            state = ctrl.step(u)
            assert np.array_equal(np.round(state / 0.1) * 0.1, state)

    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.37, 1.0 / 64.0, 2.5])
    def test_grid_verdict_matches_np_round_form(self, mu):
        # on-grid inputs, their one-ulp neighbours, and half-way points, where
        # rounding half to even picks the grid point the test compares with
        k = np.arange(-300.0, 301.0)
        big = 2.0**53 * mu * np.array([1.0, 1.5, 3.0])
        values = np.concatenate([
            k * mu, np.nextafter(k * mu, np.inf), np.nextafter(k * mu, -np.inf),
            (k + 0.5) * mu, big, -big, np.nextafter(big, 0.0), [0.0, -0.0, 5e-324],
        ])
        scalar = LtiModel(-np.eye(1), np.eye(1), np.eye(1), np.zeros((1, 1)))
        ctrl = self.make(scalar, mu=mu, x0=(0.0,))
        verdicts = set()
        for v in values:
            u = np.array([v])
            on_grid = np.array_equal(np.round(u / mu) * mu, u)
            verdicts.add(on_grid)
            if on_grid:
                ctrl.step(u)
            else:
                with pytest.raises(ContractViolationError, match=r"^input must lie on the "):
                    ctrl.step(u)
        assert verdicts == {True, False}

    def test_determinism_and_clone(self, bench_model):
        rng = np.random.default_rng(32)
        inputs = [quantize(rng.uniform(-1, 1, 2), 0.01) for _ in range(50)]
        # two controllers built alike stay bit-identical under equal inputs
        a = self.make(bench_model)
        b = self.make(bench_model)
        for u in inputs:
            assert np.array_equal(a.step(u), b.step(u))

    def test_fine_grid_tracks_unquantized(self, bench_model):
        rng = np.random.default_rng(33)
        disc = discretize_exact(bench_model, 0.3)
        x = np.array([0.5, -0.25])
        ctrl = self.make(bench_model, eta=1e-9, x0=x)
        for _ in range(50):
            u = quantize(rng.uniform(-1, 1, 2), 0.01)
            x = disc.step(x, u)
            sym = ctrl.step(u)
            assert np.max(np.abs(sym - x)) <= 1e-6

    def test_nonlinear_source_supported(self):
        plant = make_cubic_plant()
        ctrl = SymbolicController(
            SampledModel(plant, 0.3), eta=0.05, mu=0.01, x0=np.array([-0.7, -2.0])
        )
        state = ctrl.step(np.zeros(2))
        assert np.array_equal(np.round(state / 0.05) * 0.05, state)


class TestBisimTracking:
    def test_side_by_side_runs_stay_within_eps(self, bench_model):
        # inputs differing by at most mu entrywise, initial states within eps
        bound = lti_delta_iss(bench_model.a, bench_model.b)
        eps, tau, mu, eta = 0.25, 0.3, 0.01, 0.1
        assert check_bisim_params(bound, eps, tau, mu, eta).passed
        disc = discretize_exact(bench_model, tau)
        rng = np.random.default_rng(34)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            ctrl = SymbolicController(SampledModel(bench_model, tau), eta=eta, mu=mu, x0=x)
            assert np.max(np.abs(ctrl.state - x)) <= eps
            for _ in range(100):
                u = rng.uniform(-1, 1, 2)
                uq = quantize(u, mu)
                x = disc.step(x, u)
                sym = ctrl.step(uq)
                assert np.max(np.abs(sym - x)) <= eps


class TestLipschitzOutputBound:
    def test_identity(self):
        model = LtiModel(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert lipschitz_output_bound(model) == pytest.approx(np.sqrt(2.0))

    def test_zero_output(self):
        model = LtiModel([[-1.0]], [[1.0]], [[0.0]], [[0.0]])
        assert lipschitz_output_bound(model) == 0.0

    def test_upper_bounds_sampled_maximum(self, bench_model):
        # the row-sum bound dominates |Cz|_2 over the unit inf-ball; for the
        # identity it is tight, for general C it may be conservative
        lip = lipschitz_output_bound(bench_model)
        rng = np.random.default_rng(35)
        z = rng.uniform(-1.0, 1.0, (100000, 2))
        z[:4] = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        norms = np.linalg.norm(z @ bench_model.c.T, axis=1)
        assert norms.max() <= lip + 1e-12

    def test_nonlinear_requires_user_value(self):
        plant = make_cubic_plant()
        assert lipschitz_output_bound(plant) == pytest.approx(np.hypot(0.4, 0.5))
        bare = make_cubic_plant()
        object.__setattr__(bare, "h1_lipschitz", None)
        with pytest.raises(ParameterError):
            lipschitz_output_bound(bare)
