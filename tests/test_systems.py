import numpy as np
import pytest

from passquant import (
    DimensionError,
    DivergenceError,
    LtiModel,
    NonlinearModel,
    ParameterError,
    SampledModel,
    discretize_exact,
    flow,
    quantize,
    quantize_nearest,
)
from tests.test_linalg import series_expm


def array_rk4(model, x0, u, tau, substeps=64):
    """Reference: the RK4 step on numpy arrays that :func:`flow` reproduces."""
    h = tau / substeps
    x = np.asarray(x0, dtype=float).copy()
    u = np.asarray(u, dtype=float)
    f = model.rhs
    for i in range(substeps):
        k1 = np.asarray(f(x, u), float)
        k2 = np.asarray(f(x + 0.5 * h * k1, u), float)
        k3 = np.asarray(f(x + 0.5 * h * k2, u), float)
        k4 = np.asarray(f(x + h * k3, u), float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"state diverged at substep {i}", step=i)
    return x


def three_pass_quantize(s, mu):
    """Reference: floor/ceil toward zero, then one snap per sign."""
    s = np.asarray(s, dtype=float)
    r = s / mu
    k = np.where(s >= 0, np.floor(r), np.ceil(r))
    k = np.where((s >= 0) & ((k + 1) * mu <= s), k + 1, k)
    k = np.where((s < 0) & ((k - 1) * mu >= s), k - 1, k)
    return k * mu


def same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestQuantize:
    def test_floor_positive(self):
        assert quantize(np.array([0.26]), 0.1) == pytest.approx([0.2])

    def test_ceil_negative(self):
        assert quantize(np.array([-0.26]), 0.1) == pytest.approx([-0.2])

    def test_zero(self):
        assert quantize(np.array([0.0]), 0.37)[0] == 0.0

    def test_rejects_bad_precision(self):
        with pytest.raises(ParameterError):
            quantize(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.37, 1.0 / 64.0, 1e-3, 2.5])
    def test_bit_identical_to_three_pass_form(self, mu):
        rng = np.random.default_rng(12)
        grid = np.arange(-2000, 2001) * mu
        s = np.concatenate([
            rng.uniform(-50.0, 50.0, 20000),
            rng.normal(0.0, 10.0 * mu, 20000),
            grid,
            np.nextafter(grid, np.inf),
            np.nextafter(grid, -np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324],
        ])
        assert same_bits(quantize(s, mu), three_pass_quantize(s, mu))
        assert same_bits(quantize(-0.0, mu), three_pass_quantize(-0.0, mu))

    def test_random_properties(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(-50.0, 50.0, (100000, 3))
        for mu in (0.1, 0.01, 0.37):
            q = quantize(s, mu)
            assert np.max(np.abs(q - s)) <= mu + 1e-12
            assert np.all(
                np.linalg.norm(q, axis=1) <= np.linalg.norm(s, axis=1) + 1e-12
            )
            assert np.array_equal(quantize(q, mu), q)  # idempotent, bit exact


class TestQuantizeNearest:
    def test_nearest(self):
        assert quantize_nearest(np.array([0.26]), 0.1) == pytest.approx([0.3])

    def test_tie_toward_zero(self):
        assert quantize_nearest(np.array([0.05]), 0.1)[0] == 0.0
        assert quantize_nearest(np.array([-0.05]), 0.1)[0] == 0.0

    def test_entrywise(self):
        got = quantize_nearest(np.array([-1.44, 0.98]), 0.1)
        assert got == pytest.approx([-1.4, 1.0])

    def test_half_pitch_bound_and_idempotence(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-20.0, 20.0, (100000, 2))
        for eta in (0.1, 0.05):
            q = quantize_nearest(s, eta)
            assert np.max(np.abs(q - s)) <= eta / 2 + 1e-12
            assert np.array_equal(quantize_nearest(q, eta), q)


class TestDiscretizeExact:
    def test_integrator(self):
        model = LtiModel(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        disc = discretize_exact(model, 0.3)
        assert np.allclose(disc.ad, np.eye(2))
        assert np.allclose(disc.bd, 0.3 * np.eye(2))

    def test_scalar_decoupled(self):
        model = LtiModel(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        disc = discretize_exact(model, 1.0)
        assert np.allclose(disc.ad, np.exp(-1.0) * np.eye(2), rtol=1e-12)
        assert np.allclose(disc.bd, (1.0 - np.exp(-1.0)) * np.eye(2), rtol=1e-12)

    def test_against_series_oracle(self, bench_model):
        disc = discretize_exact(bench_model, 0.3)
        assert np.max(np.abs(disc.ad - series_expm(bench_model.a * 0.3))) <= 1e-9

    def test_semigroup(self, bench_model):
        one = discretize_exact(bench_model, 0.3)
        two = discretize_exact(bench_model, 0.6)
        x = np.array([0.7, -1.1])
        u = np.array([0.3, 0.2])
        twice = one.step(one.step(x, u), u)
        assert np.max(np.abs(twice - two.step(x, u))) <= 1e-8

    def test_rejects_nonpositive_tau(self, bench_model):
        with pytest.raises(ParameterError):
            discretize_exact(bench_model, 0.0)

    def test_quadruple_unpacks(self, bench_model):
        disc = discretize_exact(bench_model, 0.3)
        assert disc.ad.shape == (2, 2) and disc.bd.shape == (2, 2)
        assert np.array_equal(disc.c, bench_model.c) and np.array_equal(disc.d, bench_model.d)


class TestNonlinearModel:
    def test_rejects_nonvanishing_rhs(self):
        with pytest.raises(ParameterError):
            NonlinearModel(1, 1, rhs=lambda x, u: np.array([1.0]), h1=lambda x: x)

    def test_rejects_nonvanishing_output(self):
        with pytest.raises(ParameterError):
            NonlinearModel(1, 1, rhs=lambda x, u: (-x[0],), h1=lambda x: x + 1.0)


class TestSampledModel:
    def test_lti_caches_discretization(self, bench_model):
        sampled = SampledModel(bench_model, 0.3)
        disc = discretize_exact(bench_model, 0.3)
        x = np.array([0.4, -0.9])
        u = np.array([0.1, 0.2])
        assert np.array_equal(sampled.step(x, u), disc.step(x, u))
        assert np.array_equal(sampled.output(x, u), bench_model.output(x, u))

    def test_nonlinear_steps_by_flow(self, cubic_plant):
        sampled = SampledModel(cubic_plant, 0.3)
        x = np.array([-0.7, -2.0])
        u = np.zeros(2)
        assert np.array_equal(sampled.step(x, u), flow(cubic_plant, x, u, 0.3))
        assert (sampled.n, sampled.m) == (2, 2)


class TestFlow:
    def test_constant_rhs_zero(self):
        model = NonlinearModel(2, 1, rhs=lambda x, u: np.zeros(2), h1=lambda x: x[:1])
        x0 = np.array([1.0, -2.0])
        assert np.array_equal(flow(model, x0, np.zeros(1), 0.5), x0)

    def test_scalar_exponential(self):
        model = NonlinearModel(1, 1, rhs=lambda x, u: (-x[0],), h1=lambda x: x)
        got = flow(model, np.array([1.0]), np.zeros(1), 1.0)
        assert got[0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_against_refined_step_oracle(self, cubic_plant):
        x0 = np.array([-0.7, -2.0])
        u = np.zeros(2)
        coarse = flow(cubic_plant, x0, u, 0.3)
        fine = array_rk4(cubic_plant, x0, u, 0.3, substeps=4096)
        assert np.max(np.abs(coarse - fine)) <= 1e-6

    def test_substep_convergence(self, cubic_plant):
        x0 = np.array([-0.7, -2.0])
        u = np.zeros(2)
        a = flow(cubic_plant, x0, u, 0.3)
        b = array_rk4(cubic_plant, x0, u, 0.3, substeps=128)
        assert np.max(np.abs(a - b)) <= 1e-6

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_bit_identical_to_array_form(self, example5_plant, cubic_plant, on_grid):
        # cubic_plant evaluates example5's rhs on numpy scalars, so this also
        # pins the float form of the registered rhs to the array form
        rng = np.random.default_rng(13 if on_grid else 14)
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, 2)
            u = rng.uniform(-2.0, 2.0, 2)
            if on_grid:
                u = quantize(u, 0.01)
            want = array_rk4(cubic_plant, x, u, 0.3)
            assert same_bits(flow(example5_plant, x, u, 0.3), want)
            assert same_bits(flow(cubic_plant, x, u, 0.3), want)

    def test_rhs_receives_float_tuples(self):
        seen = []

        def rhs(x, u):
            seen.append((x, u))
            return (0.0, 0.0)

        model = NonlinearModel(2, 1, rhs=rhs, h1=lambda x: x[:1])
        seen.clear()
        x0 = np.array([1.0, -2.0])
        assert np.array_equal(flow(model, x0, np.zeros(1), 0.5), [1.0, -2.0])
        assert len(seen) == 4 * 64
        for x, u in seen:
            assert type(x) is tuple and len(x) == 2
            assert all(type(a) is float for a in x)
            assert type(u) is tuple and u == (0.0,) and type(u[0]) is float
        # tuples cannot be written, so the rhs cannot change the state
        assert np.array_equal(x0, [1.0, -2.0])

    @pytest.mark.parametrize("wrap", [tuple, list, np.array])
    def test_rhs_return_types_bit_identical(self, example5_plant, wrap):
        model = NonlinearModel(
            2, 2, rhs=lambda x, u: wrap(example5_plant.rhs(x, u)), h1=example5_plant.h1
        )
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, 2)
            u = quantize(rng.uniform(-2.0, 2.0, 2), 0.01)
            assert same_bits(flow(model, x, u, 0.3), flow(example5_plant, x, u, 0.3))

    @pytest.mark.parametrize(
        "x0, u, bad",
        [
            (np.zeros(3), np.zeros(2), r"initial state must have shape \(2,\), got \(3,\)"),
            (np.zeros((2, 1)), np.zeros(2), r"initial state must have shape \(2,\), got \(2, 1\)"),
            (np.zeros(2), np.zeros(3), r"input must have shape \(2,\), got \(3,\)"),
            (np.zeros(2), np.zeros((2, 1)), r"input must have shape \(2,\), got \(2, 1\)"),
        ],
    )
    def test_rejects_wrongly_shaped_state_or_input(self, example5_plant, x0, u, bad):
        with pytest.raises(DimensionError, match=bad):
            flow(example5_plant, x0, u, 0.3)

    def test_rejects_wrongly_sized_rhs(self):
        model = NonlinearModel(2, 1, rhs=lambda x, u: np.zeros(1), h1=lambda x: x[:1])
        with pytest.raises(DimensionError):
            flow(model, np.array([1.0, -2.0]), np.zeros(1), 0.5)

    def test_rejects_wrongly_sized_tuple(self):
        model = NonlinearModel(2, 1, rhs=lambda x, u: (0.0,), h1=lambda x: x[:1])
        with pytest.raises(DimensionError, match=r"got shape \(1,\)"):
            flow(model, np.array([1.0, -2.0]), np.zeros(1), 0.5)

    def test_overflow_in_rhs_is_divergence(self, example5_plant):
        # float ** raises OverflowError where the array form yields inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                flow(example5_plant, np.array([1e110, 0.0]), np.zeros(2), 0.3)
        assert err.value.step == 0

    def test_divergence_reports_step(self):
        model = NonlinearModel(1, 1, rhs=lambda x, u: (x[0] ** 3,), h1=lambda x: x)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            flow(model, np.array([5.0]), np.zeros(1), 10.0)
        assert err.value.step is not None
