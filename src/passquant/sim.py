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
from math import isfinite
from typing import Optional, Union

import numpy as np

from .abstraction import SymbolicController, lipschitz_output_bound
from .bounds import BoundReport
from .errors import (
    DivergenceError, ParameterError, ToolkitError, WellPosednessError, _array, _count,
    _instance, _nonnegative_integer, _positive)
from .passivity import _ChannelErrors, _quad_values, _storage_matrix
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
    """Full description of one closed-loop run, checked once when built.

    The plant must be a strictly proper :class:`LtiModel` or
    :class:`NonlinearModel`, the controller either of the two; ``x1_0``
    must have ``n1`` entries, ``x2_0`` and ``x2s_0`` ``n2``, ``r1`` and
    ``r2`` ``m`` (absent references are stored as zeros).  Symbolic mode
    needs ``eta`` and ``eps``, which :func:`abstraction.check_bisim_params`,
    not the run, certifies; the twin starts from ``x2s_0`` (``x2_0`` when
    None) rounded to the ``eta`` grid, which must lie within ``eps`` of
    ``x2_0`` in the inf-norm.  Disturbance mode needs ``eps`` and a
    controller Lipschitz bound ``lip``: it draws, with ``seed``, within the
    twin's output gap ``lip*eps + 2 sqrt(m) mu2``.
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
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        _instance(self.plant, "plant", LtiModel, NonlinearModel)
        _instance(self.controller, "controller", LtiModel, NonlinearModel)
        if not self.plant.strictly_proper:
            raise WellPosednessError(
                "the plant must be strictly proper (no feedthrough); "
                "otherwise the loop contains an algebraic cycle"
            )
        _positive(tau=self.tau, mu1=self.mu1, mu2=self.mu2)
        _count(horizon=self.horizon)
        _nonnegative_integer(seed=self.seed)
        m = self.plant.m
        if self.controller.m != m:
            raise ParameterError("plant and controller must share the signal dimension")
        # the twin's constants each twin mode reads
        twin = {"symbolic": ("eta", "eps"), "disturbance-injected": ("eps",)}.get(self.mode, ())
        for name in twin:
            if getattr(self, name) is None:
                raise ParameterError(f"{self.mode} mode requires a positive {name}")
            _positive(**{name: getattr(self, name)})
        if self.mode == "disturbance-injected":
            lipschitz_output_bound(self.controller)  # raises without a bound
        n1, n2 = self.plant.n, self.controller.n
        for name, size in {"x1_0": n1, "x2_0": n2, "x2s_0": n2, "r1": m, "r2": m}.items():
            value = getattr(self, name)
            if value is None and name in ("r1", "r2"):
                value = np.zeros(size)
            elif value is None:
                continue
            setattr(self, name, _array(value, name, (size,)))
        if self.mode == "symbolic":
            # the twin starts from x2s_0 (or x2_0) rounded to the eta grid
            start = quantize_nearest(self.x2_0 if self.x2s_0 is None else self.x2s_0, self.eta)
            if np.max(np.abs(start - self.x2_0)) > self.eps:
                raise ParameterError(
                    "|x2_0 - x2s_0|_inf must not exceed eps once x2s_0 is rounded to the eta grid"
                )


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

    @property
    def horizon(self) -> int:
        return self.u1.shape[0]

    @property
    def loop_states(self):
        """``(horizon + 1, n1 + n2)`` certified loop states: ``(x1, x2s)``
        in symbolic mode, otherwise ``(x1, x2)``."""
        return np.hstack([self.x1, self.x2 if self.x2s is None else self.x2s])

    def storage_values(self, storage):
        """``V = x'Px`` at every step for the storage matrix P."""
        return _quad_values(_storage_matrix(storage, self.loop_states.shape[1]), self.loop_states)

    def to_csv(self, path, storage=None):
        """Write one row per step with 17 significant digits.

        Columns: ``k``, plant state, controller (grid) state, then
        ``u1, u2tilde, u2, y1, y2, y2tilde`` and ``V`` when a storage is
        attached.  A final row carries the terminal states.  Raises
        :class:`ToolkitError` naming the file if it cannot be written.
        """
        m, n1 = self.u1.shape[1], self.x1.shape[1]
        states = self.loop_states
        signals = np.hstack([getattr(self, name) for name in _SIGNALS.values()])
        header = [
            "k", *_columns("x1", n1), *_columns("x2", states.shape[1] - n1),
            *(name for stem in _SIGNALS for name in _columns(stem, m)), "V",
        ]
        # the bytes of csv.writer's default dialect, one "%.17g" per value:
        # empty signal fields on the final row, an empty V field without a
        # storage (v[k:k + 1] is then empty too)
        cells = "%d" + ",%.17g" * states.shape[1]
        v_cell = ",\r\n" if storage is None else ",%.17g\r\n"
        step_row = cells + ",%.17g" * signals.shape[1] + v_cell
        last_row = cells + "," * signals.shape[1] + v_cell
        # V once as Python floats: the same "%.17g" bytes, cheaper than a
        # numpy slice per row
        v = () if storage is None else self.storage_values(storage).tolist()
        try:
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                # row by row: a Python list of the whole trajectory would
                # cost about 0.3 MB per 500 steps and save no time
                for k in range(self.horizon):
                    fh.write(step_row % (k, *states[k].tolist(), *signals[k].tolist(), *v[k:k + 1]))
                k = self.horizon
                fh.write(last_row % (k, *states[k].tolist(), *v[k:k + 1]))
        except OSError as exc:
            raise ToolkitError(f"cannot write trajectory {path}: {exc.strerror}") from exc


def read_csv(path, n1, n2, m):
    """Read back a CSV written by :meth:`Trajectory.to_csv`.

    Returns ``(states, signals)``: the stacked ``(K+1, n1+n2)`` loop states
    and a dict mapping each signal's :class:`Trajectory` field name (``u1``,
    ``u2_tilde``, ``u2``, ``y1``, ``y2``, ``y2_tilde``) to its ``(K, m)``
    array.  Raises :class:`ToolkitError` naming the file, the first missing
    column, the unparsable entry, the absence of any step, or a truncated
    file: a row that lacks a cell, or a last row that carries signal values
    and so is a step row, not the terminal one.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            # an empty file has no header: fieldnames reads it while open
            header = reader.fieldnames or []
            rows = list(reader)
    except OSError as exc:
        raise ToolkitError(f"cannot read trajectory {path}: {exc.strerror}") from exc
    if len(rows) < 2:
        raise ToolkitError(f"trajectory {path}: no steps recorded")
    for line, row in enumerate(rows, start=2):
        # DictReader fills the cells a short row lacks with None
        if None in row.values():
            raise ToolkitError(f"trajectory {path}: line {line} lacks a cell; truncated file")

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
    last = rows[-1]
    if any(last[name] for stem in _SIGNALS for name in _columns(stem, m)):
        raise ToolkitError(
            f"trajectory {path}: the last row carries signal values; truncated file"
        )
    return states, signals


def simulate(config: LoopConfig) -> Trajectory:
    """Run the closed loop and record the signals it runs on.

    Per step k: plant output ``y1`` (state only), ``u2~ = r2 + y1``, input
    quantization ``u2 = Q1(u2~)``, controller output ``y2`` and its
    quantization ``y2~ = Q2(y2)``, plant input ``u1 = r1 - y2~`` (minus a
    drawn disturbance in disturbance mode), then the plant advances by its
    flow over ``tau`` and the controller by its exact discrete step (and
    the symbolic twin by its grid step).  Raises :class:`DivergenceError`
    if a state leaves the finite range, or grows so large after step 0 that
    its ratio to a grid pitch overflows; at step 0 such an overflow is the
    :class:`ParameterError` of the quantizer.
    """
    plant = SampledModel(config.plant, config.tau)
    ctrl_exact = SampledModel(config.controller, config.tau)
    # the one-period maps each SampledModel binds, looked up once
    plant_step, ctrl_step, ctrl_output = plant.step, ctrl_exact.step, ctrl_exact.output
    # the plant is strictly proper, so its output is h1(x) or C x alone: a
    # D u term would add +0.0 and turn a -0.0 output into +0.0
    if isinstance(config.plant, NonlinearModel):
        h1 = config.plant.h1
        plant_output = lambda x: np.asarray(h1(x), float)
    else:
        plant_output = config.plant.c.dot
    r1, r2, m = config.r1, config.r2, config.plant.m
    mu1, mu2 = config.mu1, config.mu2
    ctrl_sym = None
    if config.mode == "symbolic":
        x2s0 = config.x2s_0 if config.x2s_0 is not None else config.x2_0
        ctrl_sym = SymbolicController(ctrl_exact, config.eta, config.mu1, x2s0)
    radius = None
    if config.mode == "disturbance-injected":
        twin = lipschitz_output_bound(config.controller), config.eps
        radius = _ChannelErrors.of(m, mu1, mu2, twin).gap
    rng = np.random.default_rng(config.seed)

    # per state (x1, x2[, x2s]) and per step the signals in _SIGNALS order
    x1, x2 = config.x1_0, config.x2_0
    states = [(x1, x2) if ctrl_sym is None else (x1, x2, ctrl_sym.state)]
    steps = []
    try:
        for k in range(config.horizon):
            y1 = plant_output(x1)
            u2_tilde = r2 + y1
            u2 = quantize(u2_tilde, mu1)
            y2 = ctrl_output(x2, u2) if ctrl_sym is None else ctrl_sym.output(u2)
            y2_tilde = applied = quantize(y2, mu2)
            if radius is not None:
                direction = rng.normal(size=m)
                direction = direction / np.linalg.norm(direction)
                applied = y2_tilde + rng.uniform(0.0, radius) * direction
            u1 = r1 - applied
            x1 = plant_step(x1, u1)
            x2 = ctrl_step(x2, u2)
            # Python floats test faster than a numpy reduction on short vectors
            if not all(map(isfinite, x1.tolist() + x2.tolist())):
                raise DivergenceError(f"loop state diverged at step {k}", step=k)
            states.append((x1, x2) if ctrl_sym is None else (x1, x2, ctrl_sym.step(u2)))
            steps.append((u1, u2_tilde, u2, y1, y2, y2_tilde))
    except ParameterError as exc:
        if not k:
            raise
        # the config is checked before the loop, so a ParameterError after
        # step 0 comes from a signal the loop grew: a finite entry so large
        # that its ratio to a grid pitch overflows, one operation before the
        # state would turn infinite; at step 0 it is the start or the pitch
        raise DivergenceError(f"loop state diverged at step {k}", step=k) from exc

    return Trajectory(**{
        name: np.array(column)
        for names, records in ((("x1", "x2", "x2s"), states), (_SIGNALS.values(), steps))
        for name, column in zip(names, zip(*records))  # no x2s outside symbolic mode
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
        convention, not a certified entry time.  A run in another mode has no
        twin state and is a :class:`ParameterError`.
        """
        if traj.x2s is None:
            raise ParameterError("a sweep point needs a symbolic run (x2s)")
        cut = (traj.x1.shape[0] * 2) // 3
        sup1 = float(np.max(np.abs(traj.x1[cut:])))
        sup2 = float(np.max(np.abs(traj.x2s[cut:])))
        return cls(eta=float(eta), sup_x1=sup1, sup_x2s=sup2, sup_combined=max(sup1, sup2))
