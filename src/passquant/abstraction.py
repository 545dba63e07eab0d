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
from .errors import (
    ContractViolationError, ParameterError, _array, _finite, _instance, _nonnegative, _positive,
    _ratio)
from .passivity import Verdict
from .systems import LtiModel, NonlinearModel, SampledModel, quantize_nearest

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
        _finite(scale=self.scale)
        if not self.scale >= 1.0:
            raise ParameterError(f"scale must be >= 1, got {self.scale}")
        _positive(rate=self.rate)
        _nonnegative(input_gain=self.input_gain)

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
    b = _array(np.atleast_2d(b), "b", (len(a), None))
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
    _positive(eps=eps, tau=tau, mu=mu, eta=eta)
    slack = eps - (bound.beta1(eps, tau) + bound.beta2(mu) + eta / 2.0)
    return Verdict(passed=bool(slack >= 0.0), margin=float(slack))


def _inf_bisim_check(disc, eps, mu, eta) -> Verdict:
    """The bisimulation parameter inequality in the inf-norm, on the exact
    sampled matrices ``Ad`` and ``Bd`` of ``disc``.

    The margin is the slack ``eps - (|Ad|_inf eps + |Bd|_inf mu + eta/2)``.
    One step maps a state mismatch within ``eps`` and an input mismatch
    within ``mu`` to one within ``|Ad|_inf eps + |Bd|_inf mu``, and the
    twin's rounding adds at most ``eta/2``; so nonnegative slack keeps the
    sampled system and its twin within ``eps`` of each other in the
    inf-norm, by induction over the steps (Pola, Girard and Tabuada,
    Automatica 44(10), 2008).
    """
    _positive(eps=eps, mu=mu, eta=eta)
    gain_a, gain_b = (float(np.linalg.norm(mat, np.inf)) for mat in (disc.ad, disc.bd))
    slack = eps - (gain_a * eps + gain_b * mu + eta / 2.0)
    return Verdict(passed=bool(slack >= 0.0), margin=float(slack))


# the most entries a twin keeps in each of its tables: a run visits a few
# dozen (grid state, input) pairs, and a long-lived twin stays bounded
_TRANSITIONS = 4096


class SymbolicController:
    """State-quantized executable twin of a sampled controller.

    ``state`` is a read-only float array on the grid ``eta * Z^n``: each
    step applies the exact sampled transition from the grid state and
    rounds the successor to the nearest grid point, which is the tightest
    admissible choice under the half-pitch transition rule.  ``step``
    rebinds ``state`` and never writes into it.  Inputs must already lie on
    the ``mu`` grid (quantize with the input quantizer first).

    The twin is a finite transition system, and a run revisits few of its
    transitions, so each successor and each output is computed once and
    kept in a table keyed by the bit patterns of the grid state and the
    input (``-0.0`` and ``0.0`` are different inputs, whose outputs may
    differ in the sign of a zero).  A pair found there skips the grid test,
    the model and the rounding; the returned arrays are read-only, so no
    caller can change an entry.  Each table stops growing at 4 096 entries.
    The model's maps are taken as pure functions, and ``model``, ``eta``
    and ``mu`` as fixed once the twin is built.

    Construction does not certify the twin: :func:`check_bisim_params`
    decides whether ``(eps, mu, eta)`` make it approximately bisimilar to
    ``model``.
    """

    def __init__(self, model: SampledModel, eta: float, mu: float, x0):
        self.model = _instance(model, "model", SampledModel)
        _positive(eta=eta, mu=mu)
        self.eta = float(eta)
        self.mu = float(mu)
        x0 = _array(x0, "x0", (self.model.n,))
        # + 0.0 turns a -0.0 grid value into 0.0
        self.state = quantize_nearest(x0, self.eta) + 0.0
        self.state.flags.writeable = False
        self._successors = {}
        self._outputs = {}

    def _entry(self, table, u, compute):
        """The table's entry for the grid state and the input ``u``, made by
        ``compute(state, u)`` on a miss after the input's grid test."""
        u = _array(u, "u", (self.model.m,))
        key = self.state.tobytes() + u.tobytes()
        value = table.get(key)
        if value is None:
            mu = self.mu
            for v in u.tolist():
                try:
                    k = round(v / mu)  # halves to even, as np.round does
                except OverflowError:  # round refuses the inf of an overflowed ratio
                    k = _ratio(v, v / mu, "u/mu")
                if k * mu != v:
                    raise ContractViolationError(
                        f"input must lie on the {self.mu} grid; quantize it first"
                    )
            value = np.array(compute(self.state, u), float)
            value.flags.writeable = False
            if len(table) < _TRANSITIONS:
                table[key] = value
        return value

    def _successor(self, state, u):
        # + 0.0 turns a -0.0 grid value into 0.0
        return quantize_nearest(self.model.step(state, u), self.eta) + 0.0

    def step(self, u):
        """Advance one sampling period; returns the new grid state."""
        self.state = self._entry(self._successors, u, self._successor)
        return self.state

    def output(self, u):
        """Output map of ``model`` at the grid state."""
        return self._entry(self._outputs, u, self.model.output)


def lipschitz_output_bound(model):
    """Bound L with ``|h1(z1) - h1(z2)|_2 <= L |z1 - z2|_inf``.

    For LTI output maps ``h1(x) = Cx`` this is the induced (inf -> 2) norm
    ``sqrt(sum_i (sum_j |C_ij|)^2)``.  Nonlinear models must carry a
    user-supplied ``h1_lipschitz``.
    """
    _instance(model, "model", LtiModel, NonlinearModel)
    if isinstance(model, LtiModel):
        c = model.c
        return float(math.sqrt(float(np.sum(np.abs(c).sum(axis=1) ** 2))))
    if model.h1_lipschitz is None:
        raise ParameterError("nonlinear models need a user-supplied h1_lipschitz bound")
    return float(model.h1_lipschitz)
