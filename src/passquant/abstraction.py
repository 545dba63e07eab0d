"""Incremental-stability bounds and the executable symbolic controller.

A sampled system whose source is incrementally input-to-state stable admits
a state-quantized twin that is approximately bisimilar to it: whenever

    beta1(eps, tau) + beta2(mu) + eta/2 <= eps

holds for the contraction bound ``beta1``, the input-gain bound ``beta2``,
the input pitch ``mu`` and the state pitch ``eta``, trajectories of the two
systems under inputs within ``mu`` stay within ``eps`` of each other.  The
symbolic controller below executes that twin on demand: its state lives
exactly on the grid ``eta * Z^n``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError, ParameterError
from .passivity import Verdict
from .systems import (
    DiscreteLti,
    LtiModel,
    NonlinearModel,
    SampledModel,
    quantize_nearest,
)

__all__ = [
    "DeltaIssBound",
    "SymbolicController",
    "lti_delta_iss",
    "check_bisim_params",
    "lipschitz_output_bound",
]


@dataclass(frozen=True)
class DeltaIssBound:
    """Exponential/linear incremental-stability bound.

    ``beta1(r, t) = scale * exp(-rate * t) * r`` bounds the effect of an
    initial-state mismatch and ``beta2(s) = input_gain * s`` the effect of
    an input mismatch.
    """

    scale: float
    rate: float
    input_gain: float

    def __post_init__(self):
        if self.scale < 1.0:
            raise ParameterError(f"scale must be >= 1, got {self.scale}")
        if self.rate <= 0:
            raise ParameterError(f"decay rate must be positive, got {self.rate}")
        if self.input_gain < 0:
            raise ParameterError(f"input gain must be nonnegative, got {self.input_gain}")

    def beta1(self, r, t):
        return self.scale * math.exp(-self.rate * t) * r

    def beta2(self, s):
        return self.input_gain * s


def lti_delta_iss(a, b) -> DeltaIssBound:
    """Incremental-stability bound for a Hurwitz LTI system.

    Solves ``A'P + PA = -I`` and reads off the standard Lyapunov estimates:
    decay rate ``1/(2 lambda_max(P))``, overshoot
    ``sqrt(lambda_max(P)/lambda_min(P))`` and input gain
    ``scale * ||B||_2 / rate`` from the variation-of-constants convolution.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    p = linalg.lyap(a, np.eye(a.shape[0]))
    eigs = np.linalg.eigvalsh(p)
    rate = 1.0 / (2.0 * eigs[-1])
    scale = math.sqrt(eigs[-1] / eigs[0])
    gain = scale * np.linalg.norm(b, 2) / rate
    return DeltaIssBound(scale=scale, rate=rate, input_gain=gain)


def check_bisim_params(bound: DeltaIssBound, eps, tau, mu, eta) -> Verdict:
    """Feasibility of the (eps, mu)-bisimulation parameter inequality.

    The margin is the slack ``eps - (beta1(eps, tau) + beta2(mu) + eta/2)``;
    nonnegative slack certifies that the sampled system and its
    state-quantized twin are (eps, mu)-approximately bisimilar.
    """
    if min(eps, tau, mu, eta) <= 0:
        raise ParameterError("eps, tau, mu and eta must all be positive")
    slack = eps - (bound.beta1(eps, tau) + bound.beta2(mu) + eta / 2.0)
    return Verdict(passed=bool(slack >= 0.0), margin=float(slack))


def _on_grid(values, pitch):
    values = np.asarray(values, float)
    return bool(np.array_equal(np.round(values / pitch) * pitch, values))


class SymbolicController:
    """State-quantized executable twin of a sampled controller.

    The state is stored as integer grid coordinates, so it remains exactly
    on ``eta * Z^n`` for all time.  Inputs must already lie on the ``mu``
    grid (quantize with the input quantizer first); each step applies the
    exact sampled transition from the grid state and rounds the successor
    to the nearest grid point, which is the tightest admissible choice
    under the half-pitch transition rule.

    Construction does not certify the twin: :func:`check_bisim_params`
    decides whether ``(eps, mu, eta)`` make it approximately bisimilar to
    ``model``.
    """

    def __init__(self, model: SampledModel, eta: float, mu: float, x0):
        if min(eta, mu) <= 0:
            raise ParameterError("eta and mu must be positive")
        self.model = model
        self.eta = float(eta)
        self.mu = float(mu)
        x0 = np.asarray(x0, float)
        if x0.shape != (self.model.n,):
            raise ParameterError(f"initial state must have shape ({self.model.n},)")
        self._coords = np.asarray(
            np.round(quantize_nearest(x0, self.eta) / self.eta), dtype=np.int64
        )

    @property
    def state(self):
        return self._coords * self.eta

    def _require_grid_input(self, u):
        u = np.asarray(u, float)
        if u.shape != (self.model.m,):
            raise ContractViolationError(f"input must have shape ({self.model.m},)")
        if not _on_grid(u, self.mu):
            raise ContractViolationError(
                f"input must lie on the {self.mu} grid; quantize it first"
            )
        return u

    def step(self, u):
        """Advance one sampling period; returns the new grid state."""
        u = self._require_grid_input(u)
        nxt = self.model.step(self.state, u)
        self._coords = np.asarray(
            np.round(quantize_nearest(nxt, self.eta) / self.eta), dtype=np.int64
        )
        return self.state

    def output(self, u):
        """Output map evaluated at the grid state and the grid input."""
        u = self._require_grid_input(u)
        return self.model.output(self.state, u)


def lipschitz_output_bound(model):
    """Bound L with ``|h1(z1) - h1(z2)|_2 <= L |z1 - z2|_inf``.

    For LTI output maps ``h1(x) = Cx`` this is the induced (inf -> 2) norm
    ``sqrt(sum_i (sum_j |C_ij|)^2)``.  Nonlinear models must carry a
    user-supplied ``h1_lipschitz``.
    """
    if isinstance(model, (LtiModel, DiscreteLti)):
        c = model.c
        return float(math.sqrt(float(np.sum(np.abs(c).sum(axis=1) ** 2))))
    if isinstance(model, SampledModel):
        return lipschitz_output_bound(model.source)
    if isinstance(model, NonlinearModel):
        if model.h1_lipschitz is None:
            raise ParameterError(
                "nonlinear models need a user-supplied h1_lipschitz bound"
            )
        return float(model.h1_lipschitz)
    raise ParameterError(f"unsupported model type {type(model).__name__}")
