"""System models, uniform quantizers, ZOH discretization and flow maps."""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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

    ``rhs(0, 0) = 0`` and ``h1(0) + h2(0) = 0`` are checked at construction.
    ``h1_lipschitz`` is an optional user-supplied bound ``|h1(z1) - h1(z2)| <=
    L |z1 - z2|_inf`` needed by the symbolic-loop analysis.
    """

    n: int
    m: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h1: Callable[[np.ndarray], np.ndarray]
    h2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h1_lipschitz: Optional[float] = None

    def __post_init__(self):
        zx = np.zeros(self.n)
        zu = np.zeros(self.m)
        if np.max(np.abs(np.asarray(self.rhs(zx, zu), float))) > 1e-9:
            raise ParameterError("rhs(0, 0) must vanish")
        y0 = np.asarray(self.h1(zx), float)
        if self.h2 is not None:
            y0 = y0 + np.asarray(self.h2(zu), float)
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

    Entrywise ``floor(s/mu) * mu`` for nonnegative entries and
    ``ceil(s/mu) * mu`` for negative ones, so ``|Q(s) - s|_inf <= mu`` and
    ``|Q(s)| <= |s|``.  A one-cell snap absorbs floating-point noise when
    ``s`` already sits on the grid.
    """
    if mu <= 0:
        raise ParameterError(f"quantizer precision must be positive, got {mu}")
    s = np.asarray(s, dtype=float)
    r = s / mu
    k = np.where(s >= 0, np.floor(r), np.ceil(r))
    k = np.where((s >= 0) & ((k + 1) * mu <= s), k + 1, k)
    k = np.where((s < 0) & ((k - 1) * mu >= s), k - 1, k)
    return k * mu


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


def flow(model: NonlinearModel, x0, u, tau: float, substeps: int = 64):
    """State reached at time ``tau`` under the constant input ``u``.

    Classical fourth-order Runge-Kutta with a fixed substep ``tau/substeps``
    for determinism.  Raises :class:`DivergenceError` (with the substep
    index) if the state becomes non-finite.
    """
    if tau <= 0:
        raise ParameterError(f"flow horizon must be positive, got {tau}")
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


@dataclass
class SampledModel:
    """A system behind a zero-order hold and uniform sampler of period ``tau``.

    Provides a uniform discrete ``step``/``output`` interface for LTI and
    nonlinear sources; the LTI case caches its exact discretization, the
    nonlinear case steps by :func:`flow` with its default substeps.
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
