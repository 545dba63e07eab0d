"""System models, uniform quantizers, ZOH discretization and flow maps."""

import ast
import functools
import itertools
import linecache
import weakref
from collections.abc import Callable
from math import ceil, copysign, floor, isfinite, trunc
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg
from .errors import (
    DimensionError, DivergenceError, ParameterError, _array, _instance, _nonnegative,
    _positive, _ratio)

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


def _lti_matrices(model, names, square):
    """Pass the LTI matrices in the fields ``names`` through the array rule:
    with n states, m inputs and p outputs (any p, or m when ``square``) the
    shapes are (n, n), (n, m), (p, n), (p, m); a scalar or vector is a matrix.
    Each is stored C-contiguous, where ``ndarray.dot`` and ``@`` make the
    same BLAS call, so the per-step products take the cheaper ``.dot``."""
    a, b, c, d = (np.atleast_2d(getattr(model, name)) for name in names)
    n, m = a.shape[0], b.shape[1]
    p = m if square else c.shape[0]
    for name, mat, shape in zip(names, (a, b, c, d), ((n, n), (n, m), (p, n), (p, m))):
        object.__setattr__(model, name, np.ascontiguousarray(_array(mat, name, shape)))


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
        _lti_matrices(self, ("a", "b", "c", "d"), square=True)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    def output(self, x, u):
        """``C x + D u``; ``ndarray.dot`` converts a list or an int array."""
        return self.c.dot(x) + self.d.dot(u)

    @property
    def strictly_proper(self) -> bool:
        return not np.any(self.d)


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear system ``dx = f(x, u)`` with additive output ``h1(x) + h2(u)``.

    ``rhs`` is either a callable or a tuple of ``n`` expression strings.  A
    callable ``rhs(x, u)`` receives the state and the input as tuples of
    Python floats and returns ``n`` numbers (a tuple, a list or a 1-D array).
    An expression ``rhs[i]`` gives ``dx_i`` in the names ``x0..x{n-1}`` and
    ``u0..u{m-1}`` and finite int or float literals, combined by
    ``+ - * / // % **`` and unary signs only (``"-x0 ** 3 + 0.5 * u0"``);
    :func:`flow` evaluates the checked expressions inside the model's
    generated RK4 kernel, with no call per stage, each input term bound once
    per call and each int exponent written as a float (see
    :func:`_specialize`), and ``model.rhs`` is then a callable compiled from
    the strings as written.
    Only code supplies expressions: configuration files name registered
    models.
    ``h1`` and ``h2`` receive float arrays and return ``m`` numbers.  Sizes,
    ``rhs(0, 0) = 0`` and ``h1(0) + h2(0) = 0`` are checked at construction.
    ``h1_lipschitz`` is an optional user-supplied bound ``|h1(z1) - h1(z2)| <=
    L |z1 - z2|_inf`` needed by the symbolic-loop analysis.
    """

    n: int
    m: int
    rhs: Union[Callable[[Tuple[float, ...], Tuple[float, ...]], Sequence[float]], Tuple[str, ...]]
    h1: Callable[[np.ndarray], np.ndarray]
    h2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h1_lipschitz: Optional[float] = None
    # the RK4 substep loop flow runs: shared per n for a callable rhs, the
    # model's own with its expressions inlined
    _kernel: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "m"):
            size = getattr(self, name)
            if isinstance(size, bool) or not (isinstance(size, (int, np.integer)) and size > 0):
                raise DimensionError(f"{name} must be a positive integer, got {size!r}")
        _instance(self.rhs, "rhs", Callable, tuple)
        _instance(self.h1, "h1", Callable)
        if self.h2 is not None:
            _instance(self.h2, "h2", Callable)
        if self.h1_lipschitz is not None:
            _nonnegative(h1_lipschitz=self.h1_lipschitz)
        if callable(self.rhs):
            object.__setattr__(self, "_kernel", _call_kernel(self.n))
        else:
            trees = _check_expressions(self.rhs, self.n, self.m)
            serial = next(_serials)
            object.__setattr__(self, "_kernel", _rk4_kernel(self.n, self.m, trees, serial))
            object.__setattr__(self, "rhs", _expression_rhs(self.n, self.m, self.rhs, serial))
        # NaN fails the vanishing tests too
        f0 = _values(self.rhs((0.0,) * self.n, (0.0,) * self.m), self.n, "rhs")
        if not np.max(np.abs(f0)) <= 1e-9:
            raise ParameterError("rhs(0, 0) must vanish")
        y0 = _values(self.h1(np.zeros(self.n)), self.m, "h1")
        if self.h2 is not None:
            y0 = y0 + _values(self.h2(np.zeros(self.m)), self.m, "h2")
        if not np.max(np.abs(y0)) <= 1e-9:
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
    already sits on the grid.  The entries are worked as Python floats,
    cheaper than numpy on the short vectors of a loop step: ``v / mu`` is
    truncated by ``math.trunc``, whose integer ``copysign`` turns back into
    a float with the sign of zero, then snapped; these are the IEEE
    operations of the ``np.trunc``/``np.where`` form in the same order, so
    the bits agree.  ±inf and NaN entries pass through; a finite entry whose
    ratio ``s/mu`` overflows the float range is a :class:`ParameterError`.
    """
    _positive(mu=mu)
    s = np.asarray(s, dtype=float)
    q = []
    for v in s.ravel().tolist():
        r = v / mu
        try:
            k = copysign(trunc(r), r)
        except (OverflowError, ValueError):
            k = _ratio(v, r, "s/mu")
        away = k + copysign(1.0, v)
        q.append((away if abs(away * mu) <= abs(v) else k) * mu)
    q = np.array(q)
    q.shape = s.shape  # in place: a reshaped view would keep a second array object alive
    return q


def quantize_nearest(s, eta):
    """Round entrywise to the nearest point of ``eta * Z``, ties toward zero.

    Entrywise ``ceil(s/eta - 1/2) * eta`` for nonnegative entries and
    ``floor(s/eta + 1/2) * eta`` for negative ones, worked as Python floats
    like :func:`quantize`: ``copysign`` gives the integer of ``math.ceil``
    or ``math.floor`` back the sign of zero that ``np.ceil``/``np.floor``
    keep, so the bits are those of the ``np.where`` form.  ±inf and NaN
    entries pass through; a finite entry whose ratio ``s/eta`` overflows the
    float range is a :class:`ParameterError`.
    """
    _positive(eta=eta)
    s = np.asarray(s, dtype=float)
    q = []
    for v in s.ravel().tolist():
        try:
            if v >= 0:
                t = v / eta - 0.5
                k = copysign(ceil(t), t)
            else:
                t = v / eta + 0.5
                k = copysign(floor(t), t)
        except (OverflowError, ValueError):
            k = _ratio(v, t, "s/eta")
        q.append(k * eta)
    q = np.array(q)
    q.shape = s.shape
    return q


@dataclass(frozen=True)
class DiscreteLti:
    """Exact ZOH discretization ``x+ = Ad x + Bd u``, ``y = C x + D u``."""

    ad: np.ndarray
    bd: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        _lti_matrices(self, ("ad", "bd", "c", "d"), square=False)

    @property
    def n(self) -> int:
        return self.ad.shape[0]

    @property
    def m(self) -> int:
        return self.bd.shape[1]

    def step(self, x, u):
        """``Ad x + Bd u``; ``ndarray.dot`` converts a list or an int array."""
        return self.ad.dot(x) + self.bd.dot(u)

    def output(self, x, u):
        """``C x + D u``; ``ndarray.dot`` converts a list or an int array."""
        return self.c.dot(x) + self.d.dot(u)


def discretize_exact(model: LtiModel, tau: float) -> DiscreteLti:
    """Exact discretization of an LTI model under a zero-order hold.

    ``Ad = exp(A tau)`` and ``Bd`` come from the exponential of the
    augmented ``(n+m) x (n+m)`` block matrix ``[[A, B], [0, 0]] * tau``;
    the output matrices are unchanged.
    """
    _instance(model, "model", LtiModel)
    _positive(tau=tau)
    n, m = model.n, model.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.a * tau
    aug[:n, n:] = model.b * tau
    e = linalg.expm(aug)
    return DiscreteLti(e[:n, :n], e[:n, n:], model.c.copy(), model.d.copy())


def _values(v, n, name):
    """``v`` as a float vector of ``n`` entries, else :class:`DimensionError`."""
    v = np.asarray(v, float)
    if v.shape != (n,):
        raise DimensionError(f"{name} must return {n} values, got shape {v.shape}")
    return v


# the nodes an rhs expression may hold besides x0.., u0.. and int and float
# literals: arithmetic alone, so it also evaluates on arrays or intervals
_ARITHMETIC = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub, ast.Mult,
               ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.UAdd, ast.USub)


def _finite_literal(value):
    """Whether the literal ``value`` converts to a finite float."""
    try:
        return isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_expressions(expressions, n, m):
    """Accept only what :func:`_rk4_kernel` may inline: ``n`` strings (else
    :class:`DimensionError`), each one expression in the allowed names,
    finite literals and operators (else :class:`ParameterError` naming the
    entry).  Returns the body of each parsed expression."""
    if len(expressions) != n:
        raise DimensionError(f"rhs must have {n} expressions, got {len(expressions)}")
    names = {f"x{j}" for j in range(n)} | {f"u{j}" for j in range(m)}
    trees = []
    for i, text in enumerate(expressions):
        entry = f"rhs[{i}]"
        _instance(text, entry, str)
        try:
            tree = compile(text, entry, "eval", ast.PyCF_ONLY_AST)
        except (SyntaxError, ValueError) as exc:  # ValueError: a null byte
            raise ParameterError(f"{entry} is not an expression: {text!r}") from exc
        for node in ast.walk(tree):
            allowed = (
                node.id in names if isinstance(node, ast.Name)
                else type(node.value) in (int, float) if isinstance(node, ast.Constant)
                else isinstance(node, _ARITHMETIC)
            )
            if not allowed:
                raise ParameterError(
                    f"{entry} may use only x0..x{n - 1}, u0..u{m - 1}, numbers and arithmetic,"
                    f" got {ast.get_source_segment(text, node) or type(node).__name__!r}")
            # 1e400 reads as inf, and a huge int fails where it meets a float
            if isinstance(node, ast.Constant) and not _finite_literal(node.value):
                raise ParameterError(f"{entry} has a literal beyond the float range:"
                                     f" {ast.get_source_segment(text, node)!r}")
        trees.append(tree.body)
    return trees


# the operators of an input term: on floats none of them raises
_TERM_OPERATORS = (ast.Add, ast.Sub, ast.Mult)
# the operators whose result is a float when one operand is a float and the
# other a float or a literal
_FLOAT_OPERATORS = _TERM_OPERATORS + (ast.Div, ast.FloorDiv, ast.Mod)


def _literal(node):
    """The value of an int or float literal under its unary signs, else None."""
    sign = 1
    while isinstance(node, ast.UnaryOp):  # a checked expression's only unary ops are signs
        sign = -sign if isinstance(node.op, ast.USub) else sign
        node = node.operand
    return sign * node.value if isinstance(node, ast.Constant) else None


def _specialize(node, terms):
    """``node`` of a checked expression, rewritten for the kernel, as
    ``(node, term, is_float)``.

    ``term`` says that ``node`` is an input term: it names ``u0..`` only,
    with literals, ``+``, ``-``, ``*`` and unary signs, and no operator
    joins two literals (two ints could multiply past the float range).
    Such a term cannot raise on floats, and the input is constant over a
    flow, so each largest one is bound once before the substep loop: it
    is replaced by the local ``w<j>`` that ``terms`` (text -> local) maps
    it to.  ``is_float`` says that ``node`` names a variable and evaluates
    to a float whatever the floats in its names; an int-literal exponent
    |n| <= 2**53 of such a base is written as the equal float, which
    ``float ** float`` raises to on the same doubles, with the same errors,
    as ``float ** int``.  Nothing is reordered."""
    if isinstance(node, ast.Name):
        return node, node.id[0] == "u", True
    if isinstance(node, ast.Constant):
        return node, False, False
    if isinstance(node, ast.UnaryOp):  # a sign
        operand, term, is_float = _specialize(node.operand, terms)
        return ast.UnaryOp(node.op, operand), term, is_float
    left, left_term, left_float = _specialize(node.left, terms)
    right, right_term, right_float = _specialize(node.right, terms)
    left_literal, right_literal = _literal(left) is not None, _literal(right) is not None
    op = node.op
    term = (isinstance(op, _TERM_OPERATORS) and (left_term or right_term)
            and (left_term or left_literal) and (right_term or right_literal))
    is_float = isinstance(op, _FLOAT_OPERATORS) and (
        left_float and (right_float or right_literal) or right_float and left_literal)
    if isinstance(op, ast.Pow) and left_float:
        exponent = _literal(right)
        is_float = type(exponent) is int and abs(exponent) <= 2**53
        if is_float:
            right = ast.Constant(float(exponent))
    if not term:
        left, right = _bound(left, left_term, terms), _bound(right, right_term, terms)
    return ast.BinOp(left, op, right), term, is_float


def _bound(node, term, terms):
    """``node``, or the local its input term is bound to (a bare name stays)."""
    if not term or isinstance(node, ast.Name):
        return node
    return ast.Name(terms.setdefault(ast.unparse(node), f"w{len(terms)}"), ast.Load())


def _define(src, filename, name, namespace):
    """Run the generated ``src`` and return its function ``name``.  The source
    stays registered with linecache for as long as the function lives, so a
    traceback through it shows its lines."""
    exec(compile(src, filename, "exec"), namespace)
    function = namespace[name]
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    weakref.finalize(function, linecache.cache.pop, filename, None)
    return function


# numbers the models built from expressions, whose kernel and rhs each get a
# filename of their own
_serials = itertools.count(1)


_RK4_TEMPLATE = """\
def kernel(f, x, u, h):
    half, sixth = 0.5 * h, h / 6.0
    {s}, = x{inputs}
    for i in range(64):
        try:
{stages}
        except OverflowError as exc:
            # float arithmetic raises where the array form yields inf
            raise DivergenceError(f"state diverged at substep {{i}}", step=i) from exc
{update}
        if not ({finite}):
            raise DivergenceError(f"state diverged at substep {{i}}", step=i)
    return ({s},)
"""


def _rk4_kernel(n, m=0, trees=None, serial=None):
    """The RK4 substep loop of :func:`flow`, unrolled over ``n`` state entries.

    The state and the four stages live in scalar locals, so no substep
    builds a list or walks a ``zip``; each entry is combined exactly as in
    the array form.  With a callable rhs ``f`` each stage calls it on the
    stage point, and the hot path tests only that it returned a tuple; a
    tuple of the wrong size fails where it is unpacked, and the size check
    of :func:`_values` then reports it.  With the checked expression
    ``trees`` of model number ``serial`` (``m`` inputs) ``f`` goes unused:
    the input is bound to ``u0..`` and each input term to its ``w0..``
    once (see :func:`_specialize`), and each stage binds its point to
    ``x0..`` and evaluates the specialized expressions, one line each
    (followed by the checked expression as a comment where they differ),
    with no call.
    """
    s = [f"s{j}" for j in range(n)]
    k1, k2, k3, k4 = ([f"{c}{j}" for j in range(n)] for c in "abcd")

    def shifted(step, k):
        return [f"{sj} + {step} * {kj}" for sj, kj in zip(s, k)]

    inputs = []
    if trees is not None:
        terms, texts = {}, []
        for tree in trees:
            node, term, _ = _specialize(tree, terms)
            text, checked = ast.unparse(_bound(node, term, terms)), ast.unparse(tree)
            # a traceback through the line shows the expression as checked too
            texts.append(text if text == checked else f"{text}  # {checked}")
        inputs = [f"{', '.join(f'u{j}' for j in range(m))}, = u"]
        inputs += [f"{local} = {text}" for text, local in terms.items()]
    stages = []
    for k, point in (
        (k1, s), (k2, shifted("half", k1)), (k3, shifted("half", k2)), (k4, shifted("h", k3))
    ):
        if trees is None:
            stages += [
                f"k = f(({', '.join(point)},), u)",
                "if type(k) is not tuple:",
                f"    k = tuple(values(k, {n}, 'rhs').tolist())",
                "try:",
                f"    {', '.join(k)}, = k",
                "except ValueError:",  # only a tuple of the wrong size gets here
                f"    {', '.join(k)}, = values(k, {n}, 'rhs')",
            ]
        else:
            stages += [f"x{j} = {p}" for j, p in enumerate(point)]
            stages += [f"{kj} = {text}" for kj, text in zip(k, texts)]
    src = _RK4_TEMPLATE.format(
        s=", ".join(s),
        inputs="".join(f"\n    {line}" for line in inputs),
        stages="\n".join(" " * 12 + line for line in stages),
        update="\n".join(
            f"        {sj} = {sj} + sixth * ((({aj} + 2.0 * {bj}) + 2.0 * {cj}) + {dj})"
            for sj, aj, bj, cj, dj in zip(s, k1, k2, k3, k4)
        ),
        finite=" and ".join(f"isfinite({sj})" for sj in s),
    )
    filename = f"<rk4 kernel, n={n}>" if serial is None else f"<rk4 kernel, n={n}, rhs {serial}>"
    namespace = {"values": _values, "isfinite": isfinite, "DivergenceError": DivergenceError}
    return _define(src, filename, "kernel", namespace)


@functools.cache
def _call_kernel(n: int):
    """The kernel of every ``n``-state model with a callable rhs, built once."""
    return _rk4_kernel(n)


def _expression_rhs(n, m, expressions, serial):
    """``rhs(x, u)`` of model number ``serial``: its ``expressions`` in the
    entries of ``x`` and ``u``, as a tuple.  The text goes in as written,
    between parentheses on lines of their own, so its line breaks and
    comments cannot reach the code around it."""
    k = [f"a{j}" for j in range(n)]
    src = "\n".join([
        "def rhs(x, u):",
        f"    {', '.join(f'x{j}' for j in range(n))}, = x",
        f"    {', '.join(f'u{j}' for j in range(m))}, = u",
        *(f"    {line}" for kj, text in zip(k, expressions) for line in (f"{kj} = (", text, ")")),
        f"    return ({', '.join(k)},)",
        "",
    ])
    return _define(src, f"<rhs {serial}, n={n}>", "rhs", {})


def flow(model: NonlinearModel, x0, u, tau: float):
    """State reached at time ``tau`` under the constant input ``u``.

    Classical fourth-order Runge-Kutta with 64 fixed substeps of ``tau/64``
    for determinism.  ``x0`` (shape ``(n,)``) and ``u`` (shape ``(m,)``) go
    through the array rule.  The substep loop is the model's generated
    kernel, unrolled over the entries: the state and the stages are Python
    floats, combined entrywise in the order of the array form
    ``x + (h/6) * (k1 + 2 k2 + 2 k3 + k4)``, so the result is bit-identical
    to it.  A callable ``model.rhs`` receives the stage and the input as
    float tuples and must return ``n`` numbers (a tuple, a list or a 1-D
    array); a model built from expressions evaluates them in the kernel, on
    the same floats, with its input terms evaluated once before the
    substeps and its int exponents written as floats, bit for bit the
    expressions as written.  Raises :class:`DivergenceError` (with the
    substep index) if the state becomes non-finite or the rhs overflows;
    any other error of the rhs propagates unchanged.
    """
    _positive(tau=tau)
    n = model.n
    x = _array(x0, "initial state", (n,))
    v = _array(u, "input", (model.m,))
    kernel = model._kernel
    return np.array(kernel(model.rhs, tuple(x.tolist()), tuple(v.tolist()), tau / 64))


@dataclass(frozen=True)
class SampledModel:
    """A system behind a zero-order hold and uniform sampler of period ``tau``.

    ``step(x, u)`` and ``output(x, u)`` are its one-period maps, bound once
    at construction and called by the loop, the symbolic twin and the
    falsifier alike.  For an LTI source ``step`` is the
    :meth:`DiscreteLti.step` of its exact discretization; for a nonlinear
    source it is :func:`flow` over ``tau``, looked up on every call, so a
    wrapper installed on ``systems.flow`` sees each step.  ``output`` is
    the source's own.  The model is frozen, so the maps stay those of its
    ``source`` and ``tau``.
    """

    source: Union[LtiModel, NonlinearModel]
    tau: float
    step: Callable = field(init=False, repr=False, compare=False)
    output: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _instance(self.source, "source", LtiModel, NonlinearModel)
        _positive(tau=self.tau)
        source, tau = self.source, self.tau
        if isinstance(source, LtiModel):
            step = discretize_exact(source, tau).step
        else:
            step = lambda x, u: flow(source, x, u, tau)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "output", source.output)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def m(self) -> int:
        return self.source.m
