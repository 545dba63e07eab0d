import numpy as np
import pytest

from passquant import DiscreteLti, LtiModel, NonlinearModel, discretize_exact
from passquant.config import bundled_config_path, load_config


@pytest.fixture(scope="session")
def bench_model() -> LtiModel:
    """Two-input two-output stable system used across the regression tests."""
    return LtiModel(
        a=[[-1.8, -1.3], [1.2, -2.5]],
        b=[[0.2, 0.0], [0.0, 0.3]],
        c=[[0.2, -0.3], [0.3, 0.15]],
        d=[[0.5, 0.0], [0.0, 0.4]],
    )


@pytest.fixture(scope="session")
def bench_discrete(bench_model) -> DiscreteLti:
    return discretize_exact(bench_model, 0.3)


@pytest.fixture(scope="session")
def double_integrator() -> DiscreteLti:
    """x1+ = x2, x2+ = u, y = x1 + u."""
    return DiscreteLti(
        ad=np.array([[0.0, 1.0], [0.0, 0.0]]),
        bd=np.array([[0.0], [1.0]]),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )


def make_cubic_plant() -> NonlinearModel:
    """Passive two-state plant with cubic damping and diagonal state output."""

    def rhs(x, u):
        return np.array(
            [
                -0.7 * x[0] - 0.2 * x[0] ** 3 - 0.5 * x[1] + 0.4 * u[0],
                0.5 * x[0] - 0.3 * x[1] ** 3 + 0.5 * u[1],
            ]
        )

    def h1(x):
        return np.array([0.4 * x[0], 0.5 * x[1]])

    return NonlinearModel(n=2, m=2, rhs=rhs, h1=h1, h1_lipschitz=float(np.hypot(0.4, 0.5)))


@pytest.fixture(scope="session")
def cubic_plant() -> NonlinearModel:
    return make_cubic_plant()


@pytest.fixture(scope="session")
def example5_plant() -> NonlinearModel:
    """The registered nonlinear plant of the bundled example5 configuration."""
    return load_config(bundled_config_path("example5")).plant.model
