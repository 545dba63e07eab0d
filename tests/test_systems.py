import numpy as np
import pytest

from passquant import (
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
            NonlinearModel(
                1, 1, rhs=lambda x, u: -x, h1=lambda x: x + 1.0
            )


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
        assert np.array_equal(sampled.step(x, u), flow(cubic_plant, x, u, 0.3, 64))
        assert (sampled.n, sampled.m) == (2, 2)


class TestFlow:
    def test_constant_rhs_zero(self):
        model = NonlinearModel(2, 1, rhs=lambda x, u: np.zeros(2), h1=lambda x: x[:1])
        x0 = np.array([1.0, -2.0])
        assert np.array_equal(flow(model, x0, np.zeros(1), 0.5), x0)

    def test_scalar_exponential(self):
        model = NonlinearModel(1, 1, rhs=lambda x, u: -x, h1=lambda x: x)
        got = flow(model, np.array([1.0]), np.zeros(1), 1.0)
        assert got[0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_against_refined_step_oracle(self, cubic_plant):
        x0 = np.array([-0.7, -2.0])
        u = np.zeros(2)
        coarse = flow(cubic_plant, x0, u, 0.3, substeps=64)
        fine = flow(cubic_plant, x0, u, 0.3, substeps=4096)
        assert np.max(np.abs(coarse - fine)) <= 1e-6

    def test_substep_convergence(self, cubic_plant):
        x0 = np.array([-0.7, -2.0])
        u = np.zeros(2)
        a = flow(cubic_plant, x0, u, 0.3, substeps=64)
        b = flow(cubic_plant, x0, u, 0.3, substeps=128)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_divergence_reports_step(self):
        model = NonlinearModel(1, 1, rhs=lambda x, u: x**3, h1=lambda x: x)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            flow(model, np.array([5.0]), np.zeros(1), 10.0, substeps=64)
        assert err.value.step is not None
