"""Closed-loop execution with quantized and symbolic controller variants.

The loop wiring follows the sign convention ``u1 = r1 - y2~`` and
``u2~ = r2 + y1``: the plant output feeds the controller through the input
quantizer, the controller output returns through the output quantizer with
negative feedback.  One step evaluates, in order: plant output, controller
input quantization, controller output, output quantization (plus an optional
bounded disturbance), plant input, then both state advances.  This order is
explicit only because the plant is required to be strictly proper; loops
where both sides have feedthrough are rejected rather than iterated.
"""

import csv
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .abstraction import SymbolicController
from .bounds import BoundReport
from .errors import DivergenceError, ParameterError, ToolkitError, WellPosednessError
from .passivity import _quad_values, _storage_matrix
from .systems import LtiModel, NonlinearModel, SampledModel, quantize, quantize_nearest

__all__ = [
    "LoopConfig",
    "Trajectory",
    "AuditResult",
    "SweepPoint",
    "simulate",
    "ultimate_bound_audit",
    "read_csv",
]

# the first mode, the plain quantized controller, is the default
MODES = ("sampled-quantized", "symbolic", "disturbance-injected")

# trajectory CSV column stem -> Trajectory field of each loop signal, in
# column order
_SIGNALS = {"u1": "u1", "u2tilde": "u2_tilde", "u2": "u2", "y1": "y1", "y2": "y2",
            "y2tilde": "y2_tilde"}


def _columns(stem, width):
    return [f"{stem}_{i+1}" for i in range(width)]


@dataclass
class LoopConfig:
    """Full description of one closed-loop run.

    ``r1``/``r2`` may be None (zero) or a constant vector.  Symbolic mode
    needs ``eta`` and ``eps``; :func:`abstraction.check_bisim_params`, not
    the run, certifies them.  The twin starts from ``x2s_0`` (``x2_0`` when
    None) rounded to the ``eta`` grid, which must lie within ``eps`` of
    ``x2_0`` in the inf-norm.  Disturbance mode draws ``w[k]`` uniformly from
    the ball of radius ``disturbance_bound`` using ``seed``.
    """

    plant: Union[LtiModel, NonlinearModel]
    controller: Union[LtiModel, NonlinearModel]
    mode: str
    tau: float
    mu1: float
    mu2: float
    horizon: int
    x1_0: np.ndarray
    x2_0: np.ndarray
    eta: Optional[float] = None
    eps: Optional[float] = None
    x2s_0: Optional[np.ndarray] = None
    r1: Optional[np.ndarray] = None
    r2: Optional[np.ndarray] = None
    disturbance_bound: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.tau <= 0 or self.mu1 <= 0 or self.mu2 <= 0:
            raise ParameterError("tau, mu1 and mu2 must be positive")
        if self.horizon < 1:
            raise ParameterError("horizon must be >= 1")
        if self.plant.m != self.controller.m:
            raise ParameterError("plant and controller must share the signal dimension")
        if self.mode == "symbolic":
            if self.eta is None or self.eps is None:
                raise ParameterError("symbolic mode requires eta and eps")
            if self.eta <= 0 or self.eps <= 0:
                raise ParameterError("eta and eps must be positive")
        if self.mode == "disturbance-injected" and self.disturbance_bound is None:
            raise ParameterError("disturbance mode requires disturbance_bound")
        self.x1_0 = np.asarray(self.x1_0, float)
        self.x2_0 = np.asarray(self.x2_0, float)
        if self.x2s_0 is not None:
            self.x2s_0 = np.asarray(self.x2s_0, float)
        if self.mode == "symbolic":
            # the twin starts from x2s_0 (or x2_0) rounded to the eta grid
            start = quantize_nearest(self.x2_0 if self.x2s_0 is None else self.x2s_0, self.eta)
            if np.max(np.abs(start - self.x2_0)) > self.eps:
                raise ParameterError(
                    "|x2_0 - x2s_0|_inf must not exceed eps once x2s_0 is rounded to the eta grid"
                )


def _reference(r, m, name):
    if r is None:
        return np.zeros(m)
    r = np.asarray(r, float)
    if r.shape != (m,):
        raise ParameterError(f"{name} must have {m} entries")
    return r


@dataclass
class Trajectory:
    """Recorded closed-loop signals.

    State arrays have ``horizon + 1`` rows, signal arrays ``horizon`` rows.
    In symbolic mode ``x2`` holds the shadow exact controller state driven
    by the same quantized inputs and ``x2s`` the grid state actually in the
    loop.
    """

    x1: np.ndarray
    x2: np.ndarray
    u1: np.ndarray
    u2_tilde: np.ndarray
    u2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y2_tilde: np.ndarray
    x2s: Optional[np.ndarray] = None
    y2_tilde_shadow: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None

    @property
    def horizon(self) -> int:
        return self.u1.shape[0]

    def loop_state(self, k):
        """Stacked certified state at step k: (x1, x2s) in symbolic mode."""
        second = self.x2s if self.x2s is not None else self.x2
        return np.concatenate([self.x1[k], second[k]])

    def storage_values(self, storage):
        """``V = x'Px`` at every step for the storage matrix P."""
        states = (self.loop_state(k) for k in range(self.x1.shape[0]))
        return _quad_values(_storage_matrix(storage), states)

    def to_csv(self, path, storage=None):
        """Write one row per step with 17 significant digits.

        Columns: ``k``, plant state, controller (grid) state, then
        ``u1, u2tilde, u2, y1, y2, y2tilde`` and ``V`` when a storage is
        attached.  A final row carries the terminal states.
        """
        m = self.u1.shape[1]
        second = self.x2s if self.x2s is not None else self.x2
        signals = [getattr(self, name) for name in _SIGNALS.values()]
        header = (
            ["k"]
            + _columns("x1", self.x1.shape[1])
            + _columns("x2", second.shape[1])
            + [name for stem in _SIGNALS for name in _columns(stem, m)]
            + ["V"]
        )
        vvals = self.storage_values(storage) if storage is not None else None
        fmt = lambda x: format(float(x), ".17g")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.horizon + 1):
                if k < self.horizon:
                    values = [fmt(v) for sig in signals for v in sig[k]]
                else:
                    values = [""] * (len(_SIGNALS) * m)
                row = (
                    [k]
                    + [fmt(v) for v in self.x1[k]]
                    + [fmt(v) for v in second[k]]
                    + values
                    + ([fmt(vvals[k])] if vvals is not None else [""])
                )
                writer.writerow(row)


def read_csv(path, n1, n2, m):
    """Read back a CSV written by :meth:`Trajectory.to_csv`.

    Returns ``(states, signals)``: the stacked ``(K+1, n1+n2)`` loop states
    and a dict mapping each signal's :class:`Trajectory` field name (``u1``,
    ``u2_tilde``, ``u2``, ``y1``, ``y2``, ``y2_tilde``) to its ``(K, m)``
    array.  Raises :class:`ToolkitError` naming the file, the first missing
    column, the unparsable entry, or the absence of any step.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ToolkitError(f"cannot read trajectory {path}: {exc.strerror}") from exc
    header = reader.fieldnames or []
    if len(rows) < 2:
        raise ToolkitError(f"trajectory {path}: no steps recorded")

    def table(stem, width, records):
        names = _columns(stem, width)
        for name in names:
            if name not in header:
                raise ToolkitError(f"trajectory {path}: missing column {name!r}")
        try:
            return np.array([[float(row[name]) for name in names] for row in records])
        except (TypeError, ValueError) as exc:
            raise ToolkitError(f"trajectory {path}: column {stem}: {exc}") from exc

    states = np.hstack([table("x1", n1, rows), table("x2", n2, rows)])
    signals = {name: table(stem, m, rows[:-1]) for stem, name in _SIGNALS.items()}
    return states, signals


def _check_well_posed(plant):
    if not isinstance(plant, (LtiModel, NonlinearModel)):
        raise ParameterError(f"unsupported plant type {type(plant).__name__}")
    if not plant.strictly_proper:
        raise WellPosednessError(
            "the plant must be strictly proper (no feedthrough); "
            "otherwise the loop contains an algebraic cycle"
        )


def simulate(config: LoopConfig) -> Trajectory:
    """Run the closed loop and record every signal.

    Per step k: plant output ``y1`` (state only), ``u2~ = r2 + y1``, input
    quantization ``u2 = Q1(u2~)``, controller output ``y2`` and its
    quantization ``y2~ = Q2(y2)`` (plus ``w[k]`` in disturbance mode),
    plant input ``u1 = r1 - y2~``, then the plant advances by its flow over
    ``tau`` and the controller by its exact discrete step (or the symbolic
    grid step).  Raises :class:`DivergenceError` if a state leaves the
    finite range.
    """
    _check_well_posed(config.plant)
    plant = SampledModel(config.plant, config.tau)
    ctrl_exact = SampledModel(config.controller, config.tau)
    m = config.plant.m
    r1 = _reference(config.r1, m, "r1")
    r2 = _reference(config.r2, m, "r2")
    ctrl_sym = None
    if config.mode == "symbolic":
        x2s0 = config.x2s_0 if config.x2s_0 is not None else config.x2_0
        ctrl_sym = SymbolicController(ctrl_exact, config.eta, config.mu1, x2s0)
    disturbed = config.mode == "disturbance-injected"
    rng = np.random.default_rng(config.seed)

    # one record per state and one per step; a key absent from the first
    # record leaves its Trajectory field None
    x1, x2 = config.x1_0, config.x2_0
    states = [dict(x1=x1, x2=x2)]
    if ctrl_sym is not None:
        states[0]["x2s"] = ctrl_sym.state
    steps = []
    for k in range(config.horizon):
        y1 = np.asarray(config.plant.h1(x1), float) if isinstance(
            config.plant, NonlinearModel
        ) else config.plant.c @ x1
        u2_tilde = r2 + y1
        u2 = quantize(u2_tilde, config.mu1)
        y2 = ctrl_exact.output(x2, u2) if ctrl_sym is None else ctrl_sym.output(u2)
        y2_tilde = applied = quantize(y2, config.mu2)
        step = dict(u2_tilde=u2_tilde, u2=u2, y1=y1, y2=y2, y2_tilde=y2_tilde)
        if ctrl_sym is not None:
            step["y2_tilde_shadow"] = quantize(ctrl_exact.output(x2, u2), config.mu2)
        if disturbed:
            direction = rng.normal(size=m)
            direction = direction / np.linalg.norm(direction)
            step["w"] = rng.uniform(0.0, config.disturbance_bound) * direction
            applied = y2_tilde + step["w"]
        step["u1"] = r1 - applied
        x1 = plant.step(x1, step["u1"])
        x2 = ctrl_exact.step(x2, u2)
        state = dict(x1=x1, x2=x2)
        if ctrl_sym is not None:
            state["x2s"] = ctrl_sym.step(u2)
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
            raise DivergenceError(f"loop state diverged at step {k}", step=k)
        states.append(state)
        steps.append(step)

    return Trajectory(**{
        name: np.array([record[name] for record in records])
        for records in (states, steps) for name in records[0]
    })


@dataclass(frozen=True)
class AuditResult:
    global_ok: bool
    entry_index: Optional[int]
    post_entry_ok: bool


def ultimate_bound_audit(traj: Trajectory, report: BoundReport, storage) -> AuditResult:
    """Check a trajectory against certified storage levels.

    ``global_ok`` requires ``V(x[k]) <= level_d1`` for every step;
    ``entry_index`` is the first step after which the trajectory never
    leaves ``{V <= level_d2}`` again.
    """
    v = traj.storage_values(storage)
    global_ok = bool(np.all(v <= report.level_d1 + 1e-12))
    above = np.nonzero(v > report.level_d2 + 1e-12)[0]
    if above.size == 0:
        entry = 0
    elif above[-1] + 1 < v.shape[0]:
        entry = int(above[-1] + 1)
    else:
        entry = None
    return AuditResult(global_ok=global_ok, entry_index=entry, post_entry_ok=entry is not None)


@dataclass(frozen=True)
class SweepPoint:
    """Ultimate sup norms of one symbolic run at grid pitch ``eta``.

    A sweep runs the loop once per pitch:
    ``SweepPoint.from_trajectory(eta, simulate(replace(config, eta=eta)))``.
    """

    eta: float
    sup_x1: float
    sup_x2s: float
    sup_combined: float

    @classmethod
    def from_trajectory(cls, eta, traj: Trajectory):
        """Sup of ``|x|_inf`` over the final third of a symbolic run.

        The first two thirds are treated as transient; this is a reporting
        convention, not a certified entry time.
        """
        cut = (traj.x1.shape[0] * 2) // 3
        sup1 = float(np.max(np.abs(traj.x1[cut:])))
        sup2 = float(np.max(np.abs(traj.x2s[cut:])))
        return cls(eta=float(eta), sup_x1=sup1, sup_x2s=sup2, sup_combined=max(sup1, sup2))
