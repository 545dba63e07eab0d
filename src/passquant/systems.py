"""System models, uniform quantizers, ZOH discretization and flow maps."""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg
from .errors import DimensionError, DivergenceError, ParameterError

__all__ = [
    "LtiModel",
    "NonlinearModel",
    "DiscreteLti",
    "SampledModel",
    "quantize",
    "quantize_nearest",
    "discretize_exact",
    "flow",
]


@dataclass(frozen=True)
class LtiModel:
    """Continuous-time LTI system ``dx = Ax + Bu``, ``y = Cx + Du``.

    Input and output have the same dimension; the feedthrough is square.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionError(f"A must be square, got {a.shape}")
        m = b.shape[1]
        if b.shape != (n, m):
            raise DimensionError(f"B must be {n}x{m}, got {b.shape}")
        if c.shape != (m, n):
            raise DimensionError(f"C must be {m}x{n}, got {c.shape}")
        if d.shape != (m, m):
            raise DimensionError(f"feedthrough must be square {m}x{m}, got {d.shape}")
        for name, mat in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(self, name, mat)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    def output(self, x, u):
        return self.c @ np.asarray(x, float) + self.d @ np.asarray(u, float)

    @property
    def strictly_proper(self) -> bool:
        return not np.any(self.d)


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear system ``dx = f(x, u)`` with additive output ``h1(x) + h2(u)``.

    ``rhs(x, u)`` receives the state and the input as tuples of Python
    floats and returns ``n`` numbers (a tuple, a list or a 1-D array);
    ``h1`` and ``h2`` receive float arrays.  ``rhs(0, 0) = 0`` and
    ``h1(0) + h2(0) = 0`` are checked at construction.
    ``h1_lipschitz`` is an optional user-supplied bound ``|h1(z1) - h1(z2)| <=
    L |z1 - z2|_inf`` needed by the symbolic-loop analysis.
    """

    n: int
    m: int
    rhs: Callable[[Tuple[float, ...], Tuple[float, ...]], Sequence[float]]
    h1: Callable[[np.ndarray], np.ndarray]
    h2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h1_lipschitz: Optional[float] = None

    def __post_init__(self):
        f0 = self.rhs((0.0,) * self.n, (0.0,) * self.m)
        if np.max(np.abs(np.asarray(f0, float))) > 1e-9:
            raise ParameterError("rhs(0, 0) must vanish")
        y0 = np.asarray(self.h1(np.zeros(self.n)), float)
        if self.h2 is not None:
            y0 = y0 + np.asarray(self.h2(np.zeros(self.m)), float)
        if np.max(np.abs(y0)) > 1e-9:
            raise ParameterError("output at (0, 0) must vanish")

    def output(self, x, u):
        y = np.asarray(self.h1(np.asarray(x, float)), float)
        if self.h2 is not None:
            y = y + np.asarray(self.h2(np.asarray(u, float)), float)
        return y

    @property
    def strictly_proper(self) -> bool:
        return self.h2 is None


def quantize(s, mu):
    """Uniform quantization toward zero onto the grid ``mu * Z``.

    Entrywise ``trunc(s/mu) * mu`` (floor for nonnegative entries, ceil for
    negative ones), so ``|Q(s) - s|_inf <= mu`` and ``|Q(s)| <= |s|``.  A
    one-cell snap away from zero absorbs floating-point noise when ``s``
    already sits on the grid.
    """
    if mu <= 0:
        raise ParameterError(f"quantizer precision must be positive, got {mu}")
    s = np.asarray(s, dtype=float)
    k = np.trunc(s / mu)
    away = k + np.copysign(1.0, s)
    return np.where(np.abs(away * mu) <= np.abs(s), away, k) * mu


def quantize_nearest(s, eta):
    """Round entrywise to the nearest point of ``eta * Z``, ties toward zero."""
    if eta <= 0:
        raise ParameterError(f"grid pitch must be positive, got {eta}")
    s = np.asarray(s, dtype=float)
    r = s / eta
    k = np.where(s >= 0, np.ceil(r - 0.5), np.floor(r + 0.5))
    return k * eta


@dataclass(frozen=True)
class DiscreteLti:
    """Exact ZOH discretization ``x+ = Ad x + Bd u``, ``y = C x + D u``."""

    ad: np.ndarray
    bd: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.ad.shape[0]

    @property
    def m(self) -> int:
        return self.bd.shape[1]

    def step(self, x, u):
        return self.ad @ np.asarray(x, float) + self.bd @ np.asarray(u, float)

    def output(self, x, u):
        return self.c @ np.asarray(x, float) + self.d @ np.asarray(u, float)


def discretize_exact(model: LtiModel, tau: float) -> DiscreteLti:
    """Exact discretization of an LTI model under a zero-order hold.

    ``Ad = exp(A tau)`` and ``Bd`` come from the exponential of the
    augmented ``(n+m) x (n+m)`` block matrix ``[[A, B], [0, 0]] * tau``;
    the output matrices are unchanged.
    """
    if tau <= 0:
        raise ParameterError(f"sampling time must be positive, got {tau}")
    n, m = model.n, model.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.a * tau
    aug[:n, n:] = model.b * tau
    e = linalg.expm(aug)
    return DiscreteLti(e[:n, :n], e[:n, n:], model.c.copy(), model.d.copy())


def flow(model: NonlinearModel, x0, u, tau: float):
    """State reached at time ``tau`` under the constant input ``u``.

    Classical fourth-order Runge-Kutta with 64 fixed substeps of ``tau/64``
    for determinism.  ``x0`` must have shape ``(n,)`` and ``u`` shape
    ``(m,)`` (else :class:`DimensionError`).  The state and the stages are
    tuples of Python floats, combined entrywise in the order of the array
    form ``x + (h/6) * (k1 + 2 k2 + 2 k3 + k4)``, so the result is
    bit-identical to it.  ``model.rhs`` receives the stage and the input as
    float tuples and must return ``n`` numbers (a tuple, a list or a 1-D
    array).  Raises :class:`DivergenceError` (with the substep index) if the
    state becomes non-finite or the rhs overflows.
    """
    if tau <= 0:
        raise ParameterError(f"flow horizon must be positive, got {tau}")
    n = model.n
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"initial state must have shape ({n},), got {x.shape}")
    v = np.asarray(u, dtype=float)
    if v.shape != (model.m,):
        raise DimensionError(f"input must have shape ({model.m},), got {v.shape}")
    h = tau / 64
    half, sixth = 0.5 * h, h / 6.0
    x, u = tuple(x.tolist()), tuple(v.tolist())
    f = model.rhs

    def rates(stage):
        k = f(stage, u)
        if type(k) is tuple and len(k) == n:
            return k
        k = np.asarray(k, float)
        if k.shape != (n,):
            raise DimensionError(f"rhs must return {n} values, got shape {k.shape}")
        return tuple(k.tolist())

    for i in range(64):
        try:
            k1 = rates(x)
            k2 = rates(tuple([a + half * b for a, b in zip(x, k1)]))
            k3 = rates(tuple([a + half * b for a, b in zip(x, k2)]))
            k4 = rates(tuple([a + h * b for a, b in zip(x, k3)]))
        except OverflowError as exc:
            # float arithmetic raises where the array form yields inf
            raise DivergenceError(f"state diverged at substep {i}", step=i) from exc
        x = tuple([
            a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ])
        if not all(map(math.isfinite, x)):
            raise DivergenceError(f"state diverged at substep {i}", step=i)
    return np.array(x)


@dataclass
class SampledModel:
    """A system behind a zero-order hold and uniform sampler of period ``tau``.

    Provides a uniform discrete ``step``/``output`` interface for LTI and
    nonlinear sources; the LTI case caches its exact discretization, the
    nonlinear case steps by :func:`flow`.
    """

    source: Union[LtiModel, NonlinearModel]
    tau: float
    _disc: Optional[DiscreteLti] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"sampling time must be positive, got {self.tau}")
        if isinstance(self.source, LtiModel):
            self._disc = discretize_exact(self.source, self.tau)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def m(self) -> int:
        return self.source.m

    def step(self, x, u):
        if self._disc is not None:
            return self._disc.step(x, u)
        return flow(self.source, x, u, self.tau)

    def output(self, x, u):
        return self.source.output(x, u)
