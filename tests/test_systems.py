import dataclasses
import functools
import gc
import linecache
import re
import traceback

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
from passquant import linalg
from passquant.systems import (
    _call_kernel, _check_expressions, _expression_rhs, _rk4_kernel, _serials)
from tests.test_linalg import series_expm

# the registered example5 plant's right-hand side, as expressions and as the
# callable that evaluates them in the same order
EXAMPLE5_EXPRESSIONS = ("-0.7 * x0 - 0.2 * x0 ** 3 - 0.5 * x1 + 0.4 * u0",
                        "0.5 * x0 - 0.3 * x1 ** 3 + 0.5 * u1")


def example5_rhs(x, u):
    x0, x1 = x
    u0, u1 = u
    return (-0.7 * x0 - 0.2 * x0 ** 3 - 0.5 * x1 + 0.4 * u0,
            0.5 * x0 - 0.3 * x1 ** 3 + 0.5 * u1)


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


def where_nearest(s, eta):
    """Reference: round to nearest with ties toward zero, one ``np.where``."""
    s = np.asarray(s, dtype=float)
    r = s / eta
    k = np.where(s >= 0, np.ceil(r - 0.5), np.floor(r + 0.5))
    return k * eta


def same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def same_bits_or_nan(a, b):
    """``same_bits``, with a NaN matching any NaN at the same place."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bits(a[~nan], b[~nan]))


def sized_at_origin(n, value):
    """An rhs that returns ``n`` zeros at the origin, where the model checks
    its size, and ``value`` at every other state."""
    return lambda x, u: value if any(x) else (0.0,) * n


def polynomial_plant(rng, n, wrap=tuple):
    """A random ``n``-state, one-input plant: linear, quadratic and damping
    cubic terms, summed in one fixed order on floats and numpy scalars alike.
    ``wrap`` sets the container the rhs returns."""
    lin = rng.uniform(-1.0, 1.0, (n, n)).tolist()
    gain = rng.uniform(-1.0, 1.0, n).tolist()
    quad = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(-1.0, 1.0)))
            for _ in range(n)]
    damp = rng.uniform(0.5, 1.5, n).tolist()

    def rhs(x, u):
        return wrap([
            sum(lin[i][j] * x[j] for j in range(n)) + gain[i] * u[0]
            + quad[i][2] * x[quad[i][0]] * x[quad[i][1]] - damp[i] * x[i] * x[i] * x[i]
            for i in range(n)
        ])

    return NonlinearModel(n, 1, rhs=rhs, h1=lambda x: x[:1])


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

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_keeps_shape_and_float_dtype(self, shape):
        s = (np.arange(np.prod(shape, dtype=int)) - 2).reshape(shape)  # integer entries
        q = quantize(s, 0.37)
        assert q.shape == shape and q.dtype == np.float64
        assert same_bits(q, three_pass_quantize(s, 0.37))

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

    @pytest.mark.parametrize("eta", [0.1, 0.05, 0.01, 0.37, 1.0 / 64.0, 2.5, 1e3])
    def test_bit_identical_to_where_form(self, eta):
        rng = np.random.default_rng(17)
        grid = np.arange(-2000, 2001)
        ties = (grid + 0.5) * eta
        big = 2.0**53 * eta * np.array([1.0, 1.5, 3.0, 1e3])
        tiny = np.finfo(float).tiny
        s = np.concatenate([
            rng.uniform(-50.0, 50.0, 20000),
            rng.normal(0.0, 10.0 * eta, 20000),
            grid * eta,
            ties,
            np.nextafter(ties, np.inf),
            np.nextafter(ties, -np.inf),
            big, -big, np.nextafter(big, 0.0), np.nextafter(-big, 0.0),
            [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny / 3.0, -tiny / 3.0],
            [np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan],
        ])
        # finite entries whose ratio overflows raise; see test_errors
        with np.errstate(over="ignore"):
            s = s[~np.isfinite(s) | np.isfinite(s / eta)]
        assert same_bits_or_nan(quantize_nearest(s, eta), where_nearest(s, eta))
        for v in (0.0, -0.0, 0.5 * eta, -0.5 * eta, np.inf, np.nan):
            assert same_bits_or_nan(quantize_nearest(v, eta), where_nearest(v, eta))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_keeps_shape_and_float_dtype(self, shape):
        s = (np.arange(np.prod(shape, dtype=int)) - 2).reshape(shape)  # integer entries
        q = quantize_nearest(s, 0.37)
        assert q.shape == shape and q.dtype == np.float64
        assert same_bits(q, where_nearest(s, 0.37))


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


class TestProductLayout:
    """Per-step products go through ``ndarray.dot``; on the C-contiguous
    matrices a model stores it makes the BLAS call of ``@``, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 32])
    def test_dot_is_matmul_on_every_stored_matrix(self, n):
        rng = np.random.default_rng(n)
        for m in range(1, 5):
            given = (rng.normal(size=(n, n)) - 2.0 * np.eye(n), rng.normal(size=(n, m)),
                     rng.normal(size=(m, n)), rng.normal(size=(m, m)))
            for order in "CF":
                model = LtiModel(*(np.asarray(mat, order=order) for mat in given))
                disc = discretize_exact(model, 0.3)
                x, u = rng.normal(size=n), rng.normal(size=m)
                for mat, v in ((model.a, x), (model.b, u), (model.c, x), (model.d, u),
                               (disc.ad, x), (disc.bd, u), (disc.c, x), (disc.d, u)):
                    assert mat.flags.c_contiguous
                    assert same_bits(mat.dot(v), mat @ v)
                # the products of @ on the matrices as given and on the
                # slices of the augmented exponential Ad and Bd are copied from
                aug = np.zeros((n + m, n + m))
                aug[:n, :n], aug[:n, n:] = given[0] * 0.3, given[1] * 0.3
                e = linalg.expm(aug)
                assert same_bits(disc.step(x, u), e[:n, :n] @ x + e[:n, n:] @ u)
                assert same_bits(disc.output(x, u), given[2] @ x + given[3] @ u)
                assert same_bits(model.output(x, u), given[2] @ x + given[3] @ u)
        for y in (rng.normal(size=n), rng.normal(size=(n, 2))[:, 0]):
            assert same_bits(y.dot(y), y @ y)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_lists_and_int_arrays_give_the_bits_of_float_arrays(self, n):
        # the maps leave the conversion to ndarray.dot
        rng = np.random.default_rng(100 + n)
        m = min(n, 4)
        model = LtiModel(rng.normal(size=(n, n)) - 2.0 * np.eye(n), rng.normal(size=(n, m)),
                         rng.normal(size=(m, n)), rng.normal(size=(m, m)))
        disc = discretize_exact(model, 0.3)
        for _ in range(20):
            x, u = rng.integers(-5, 6, n), rng.integers(-5, 6, m)
            fx, fu = x.astype(float), u.astype(float)
            for f in (disc.step, disc.output, model.output):
                want = f(fx, fu)
                for args in ((x, u), (x.tolist(), u.tolist()), (fx.tolist(), fu.tolist())):
                    assert same_bits(f(*args), want)


class TestNonlinearModel:
    @pytest.mark.parametrize(
        "overrides, error, message",
        [
            ({"n": 0}, DimensionError, r"^n must be a positive integer, got 0$"),
            ({"m": 0}, DimensionError, r"^m must be a positive integer, got 0$"),
            ({"n": 2.5}, DimensionError, r"^n must be a positive integer, got 2\.5$"),
            ({"m": True}, DimensionError, r"^m must be a positive integer, got True$"),
            ({"rhs": lambda x, u: (0.0,) * 3}, DimensionError,
             r"^rhs must return 2 values, got shape \(3,\)$"),
            ({"h1": lambda x: np.zeros(3)}, DimensionError,
             r"^h1 must return 2 values, got shape \(3,\)$"),
            ({"h2": lambda u: np.zeros(1)}, DimensionError,
             r"^h2 must return 2 values, got shape \(1,\)$"),
            ({"h1_lipschitz": -1.0}, ParameterError, r"^h1_lipschitz must be nonnegative"),
            ({"h1_lipschitz": float("nan")}, ParameterError, r"^h1_lipschitz must be nonnegative"),
        ],
        ids=["n=0", "m=0", "n=2.5", "m=True", "rhs size", "h1 size", "h2 size",
             "negative lipschitz", "nan lipschitz"],
    )
    def test_rejected_at_construction(self, overrides, error, message):
        kwargs = dict(n=2, m=2, rhs=lambda x, u: tuple(-a for a in x), h1=lambda x: x)
        with pytest.raises(error, match=message):
            NonlinearModel(**{**kwargs, **overrides})

    def test_rejects_nonvanishing_rhs(self):
        with pytest.raises(ParameterError):
            NonlinearModel(1, 1, rhs=lambda x, u: np.array([1.0]), h1=lambda x: x)

    def test_rejects_nonvanishing_output(self):
        with pytest.raises(ParameterError):
            NonlinearModel(1, 1, rhs=lambda x, u: (-x[0],), h1=lambda x: x + 1.0)


class TestExpressionRhs:
    @pytest.mark.parametrize(
        "rhs, error, message",
        [
            (("-x0",), DimensionError, r"^rhs must have 2 expressions, got 1$"),
            (("-x0", "-x1", "0.0"), DimensionError, r"^rhs must have 2 expressions, got 3$"),
            (("-x0", "-x2"), ParameterError,
             r"^rhs\[1\] may use only x0\.\.x1, u0\.\.u0, numbers and arithmetic, got 'x2'$"),
            (("-x0 + u1", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'u1'$"),
            (("-x0", "-y"), ParameterError, r"^rhs\[1\] may use .*, got 'y'$"),
            (("-abs(x0)", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'abs\(x0\)'$"),
            (("-x0.real", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'x0\.real'$"),
            (("-x0", "x1 if x1 < 0 else -x1"), ParameterError, r"^rhs\[1\] may use .*, got 'x1 if"),
            (("-x0 * True", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'True'$"),
            (("-x0", "-x1 * 'a'"), ParameterError, r"^rhs\[1\] may use .*, got \"'a'\"$"),
            (("x0 = 0", "-x1"), ParameterError, r"^rhs\[0\] is not an expression: 'x0 = 0'$"),
            (("-x0", "import os"), ParameterError, r"^rhs\[1\] is not an expression"),
            (("-x0; -x1", "-x1"), ParameterError, r"^rhs\[0\] is not an expression"),
            (("-x0", "-x1\0"), ParameterError, r"^rhs\[1\] is not an expression"),
            (("-x0", ""), ParameterError, r"^rhs\[1\] is not an expression"),
            (("-x0", 1.0), ParameterError, r"^rhs\[1\] must be str, got float$"),
            (("1.0 - x0", "-x1"), ParameterError, r"^rhs\(0, 0\) must vanish$"),
            # an int no float holds, and a float literal read as inf
            (("x0 * " + "9" * 400, "-x1"), ParameterError,
             r"^rhs\[0\] has a literal beyond the float range: '9{400}'$"),
            (("-x0", "1e400 * u0"), ParameterError,
             r"^rhs\[1\] has a literal beyond the float range: '1e400'$"),
            # operators that are not arithmetic, whether or not floats take them
            (("x0 @ u0", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'MatMult'$"),
            (("-x0", "-x0 + (x0 & 1)"), ParameterError, r"^rhs\[1\] may use .*, got 'BitAnd'$"),
            (("~x0", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'Invert'$"),
            (("-x0 << 1", "-x1"), ParameterError, r"^rhs\[0\] may use .*, got 'LShift'$"),
            (("-x0", "-x0 | 0"), ParameterError, r"^rhs\[1\] may use .*, got 'BitOr'$"),
            (("-x0 + (not x0) * 0.0 - (not u0) * 0.0", "-x1"), ParameterError,
             r"^rhs\[0\] may use .*, got 'Not'$"),
        ],
        ids=["one of two", "three of two", "x beyond n", "u beyond m", "unknown name", "call",
             "attribute", "conditional", "bool literal", "string literal", "assignment",
             "import", "two statements", "null byte", "empty", "not a string", "non-vanishing",
             "huge int", "inf literal", "matmul", "bitwise and", "invert", "shift", "bitwise or",
             "not"],
    )
    def test_rejected_at_construction(self, rhs, error, message):
        with pytest.raises(error, match=message):
            NonlinearModel(2, 1, rhs=rhs, h1=lambda x: x[:1])

    def test_bit_identical_to_the_callable(self):
        # the registered plant's expressions against the same arithmetic
        # written as a callable, on 10 000 draws from [-3, 3]
        inline = NonlinearModel(2, 2, rhs=EXAMPLE5_EXPRESSIONS, h1=lambda x: x)
        called = NonlinearModel(2, 2, rhs=example5_rhs, h1=lambda x: x)
        draws = np.random.default_rng(27).uniform(-3.0, 3.0, (10_000, 4))
        got = np.array([flow(inline, d[:2], d[2:], 0.3) for d in draws])
        want = np.array([flow(called, d[:2], d[2:], 0.3) for d in draws])
        assert same_bits(got, want)

    # expressions whose kernel binds input terms at several depths (a whole
    # expression, a negated sum, a factor, a nested sum), keeps in the loop
    # the terms that mix in a state or divide or raise, and writes the int
    # exponents 2, 3 and -1 as floats but 2**53 + 1 (no float) as an int;
    # a model's origin test would divide by u0 = 0, so these are kernels
    SPECIALIZED = {
        "input terms": (
            "-x0 - (u0 - 2.0 * u1) + 0.5 * -(u0 - 2.0 * u1) * x1"
            " - 0.25 * (x0 - (3 * u1 + -u0 * u1))",
            "-(u0 - 2.0 * u1) + u0 * u1"),
        "mixed terms": (
            "-x0 + x0 * u0 + 0.1 / u0 - x1 * 0.4 * u0 + 0.2 * u0 ** 2",
            "-x1 + 0.5 * x0 // 1.0 * u1 - x0 % 2.0 * u0 + u1 / (u0 - 4.0)"),
        "exponents": (
            "-x0 ** 3 - x0 + 0.1 * (x1 + 4.0) ** -1 + 0.2 * u0 ** 2 - 0.3 * x1 ** 2",
            "-x1 ** 3 + 0.1 * x0 ** 2 + (x0 / (1.0 + x0 * x0)) ** 9007199254740993 + u1"),
    }

    @staticmethod
    def kernels(rhs, n=2, m=2):
        """The specialized kernel of the expressions ``rhs``, and the kernel
        of a callable rhs running the same text as written, each as
        ``kernel(x, u, h)``."""
        serial = next(_serials)
        inline = _rk4_kernel(n, m, _check_expressions(rhs, n, m), serial)
        called = functools.partial(_call_kernel(n), _expression_rhs(n, m, rhs, serial))
        return functools.partial(inline, None), called

    def test_specialized_kernels_are_bit_identical(self):
        # 10 000 draws from [-3, 3], spread over the three kernels
        pairs = [self.kernels(rhs) for rhs in self.SPECIALIZED.values()]
        draws = np.random.default_rng(127).uniform(-3.0, 3.0, (10_000, 4)).tolist()
        got, want = [], []
        for i, d in enumerate(draws):
            inline, called = pairs[i % 3]
            x, u = tuple(d[:2]), tuple(d[2:])
            got.append(inline(x, u, 0.3 / 64))
            want.append(called(x, u, 0.3 / 64))
        assert same_bits(got, want)

    def test_kernel_binds_input_terms_once_and_raises_to_float_exponents(self):
        inline, _ = self.kernels(self.SPECIALIZED["input terms"])
        src = "".join(linecache.cache[inline.func.__code__.co_filename][2])
        head, loop = src.split("for i in range(64):")
        assert head.split("u0, u1, = u\n")[1].splitlines() == [
            "    w0 = u0 - 2.0 * u1", "    w1 = 0.5 * -(u0 - 2.0 * u1)",
            "    w2 = 3 * u1 + -u0 * u1", "    w3 = -(u0 - 2.0 * u1) + u0 * u1", "    "]
        # the stage lines read the locals, and each one's comment keeps the
        # expression as checked
        assert not any(re.search(r"\bu\d", line.split("#")[0]) for line in loop.splitlines())
        assert "a1 = w3  # -(u0 - 2.0 * u1) + u0 * u1" in loop
        assert "a0 = -x0 - w0 + w1 * x1 - 0.25 * (x0 - w2)  # " in loop
        inline, _ = self.kernels(self.SPECIALIZED["exponents"])
        src = "".join(linecache.cache[inline.func.__code__.co_filename][2])
        assert "x0 ** 3.0" in src and "u0 ** 2.0" in src and "** -1.0" in src
        assert "** 9007199254740993" in src and "** 9007199254740993.0" not in src
        inline, _ = self.kernels(self.SPECIALIZED["mixed terms"])
        head = "".join(linecache.cache[inline.func.__code__.co_filename][2]).split("for i")[0]
        # only the divisor: a product with a state, a quotient or a power stays
        assert head.split("u0, u1, = u\n")[1] == "    w0 = u0 - 4.0\n    "

    def test_specialized_kernels_diverge_at_the_callables_substep(self):
        def outcome(kernel, x, u):
            try:
                return kernel(x, u, 0.3 / 64)
            except DivergenceError as err:
                return err.step, str(err), type(err.__cause__)

        rng = np.random.default_rng(128)
        steps = []
        for rhs in (self.SPECIALIZED["input terms"], self.SPECIALIZED["exponents"]):
            inline, called = self.kernels(rhs)
            for exponents in ((1.4, 2.0),) * 100 + ((100.0, 103.0),) * 10:
                x = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(*exponents, 2)
                x = tuple(x.tolist())
                u = tuple(rng.uniform(-3.0, 3.0, 2).tolist())
                got = outcome(inline, x, u)
                assert got == outcome(called, x, u)
                steps.append(got[0])
        assert {0, 1, 2} <= set(steps)

    def test_division_by_a_zero_input_raises_in_the_loop(self):
        inline, _ = self.kernels(("-x0 + 1.0 / u0",), 1, 1)
        with pytest.raises(ZeroDivisionError) as err:
            inline((0.5,), (0.0,), 0.3 / 64)
        assert err.value.__cause__ is None
        tb = err.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        # raised at substep 0's first stage, on the expression's own line
        assert tb.tb_frame.f_locals["i"] == 0
        text = "".join(traceback.format_exception(err.value))
        assert "<rk4 kernel, n=1, rhs " in text and "a0 = -x0 + 1.0 / u0" in text

    def test_diverges_at_the_callables_substep(self):
        # starts of about 25 to 100 leave RK4's stability region, and the cube
        # overflows a few substeps later; starts near 1e100 overflow at once
        inline = NonlinearModel(2, 2, rhs=EXAMPLE5_EXPRESSIONS, h1=lambda x: x)
        called = NonlinearModel(2, 2, rhs=example5_rhs, h1=lambda x: x)

        def outcome(model, x, u):
            try:
                return flow(model, x, u, 0.3).tolist()
            except DivergenceError as err:
                return err.step, str(err), type(err.__cause__)

        rng = np.random.default_rng(28)
        steps = []
        for exponents in ((1.4, 2.0),) * 300 + ((100.0, 103.0),) * 20:
            x = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(*exponents, 2)
            u = rng.uniform(-3.0, 3.0, 2)
            got = outcome(inline, x, u)
            assert got == outcome(called, x, u)
            steps.append(got[0])
        assert {0, 1, 2, 3} <= set(steps) and steps.count(0) >= 20

    def test_rhs_is_a_callable_of_the_same_expressions(self):
        model = NonlinearModel(2, 2, rhs=EXAMPLE5_EXPRESSIONS, h1=lambda x: x)
        assert callable(model.rhs)
        rng = np.random.default_rng(29)
        for _ in range(100):
            x, u = rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2)
            assert same_bits(model.rhs(tuple(x), tuple(u)), example5_rhs(tuple(x), tuple(u)))
            # on arrays the entries are numpy scalars, as for the callable
            assert same_bits(model.rhs(x, u), example5_rhs(x, u))

    def test_layout_of_the_text_does_not_matter(self):
        # line breaks, comments and a leading blank line, inlined as written
        rhs = ("\n(-0.7 * x0 - 0.2 * x0 ** 3  # cubic damping\n - 0.5 * x1 + 0.4 * u0)",
               "0.5 * x0 - 0.3 * x1 ** 3 \\\n + 0.5 * u1  # a comment ends the text")
        model = NonlinearModel(2, 2, rhs=rhs, h1=lambda x: x)
        called = NonlinearModel(2, 2, rhs=example5_rhs, h1=lambda x: x)
        rng = np.random.default_rng(30)
        for _ in range(20):
            x, u = rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2)
            assert same_bits(flow(model, x, u, 0.3), flow(called, x, u, 0.3))

    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_at_other_dimensions(self, n):
        # a linear chain with a cubic first entry, as expressions and as a callable
        rhs = ("-x0 ** 3 - x0 + u0",) + tuple(f"x{j - 1} - 2.0 * x{j}" for j in range(1, n))

        def called_rhs(x, u):
            return (-x[0] ** 3 - x[0] + u[0],) + tuple(x[j - 1] - 2.0 * x[j] for j in range(1, n))

        inline = NonlinearModel(n, 1, rhs=rhs, h1=lambda x: x[:1])
        called = NonlinearModel(n, 1, rhs=called_rhs, h1=lambda x: x[:1])
        rng = np.random.default_rng(31 + n)
        for _ in range(50):
            x, u = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, 1)
            assert same_bits(flow(inline, x, u, 0.3), flow(called, x, u, 0.3))

    def test_zero_division_propagates_with_its_source_line(self):
        model = NonlinearModel(1, 1, rhs=("1.0 / (x0 - 1.0) + 1.0",), h1=lambda x: x)
        with pytest.raises(ZeroDivisionError) as err:
            flow(model, [1.0], [0.0], 0.3)
        assert err.value.__cause__ is None
        # the kernel's source is registered, so the traceback shows the expression
        text = "".join(traceback.format_exception(err.value))
        assert "<rk4 kernel, n=1, rhs " in text
        assert "1.0 / (x0 - 1.0) + 1.0" in text

    def test_each_model_owns_its_kernel_for_as_long_as_it_lives(self):
        a, b = (NonlinearModel(2, 2, rhs=EXAMPLE5_EXPRESSIONS, h1=lambda x: x) for _ in "ab")
        assert a._kernel is not b._kernel
        filenames = [m._kernel.__code__.co_filename for m in (a, b)]
        filenames += [m.rhs.__code__.co_filename for m in (a, b)]
        assert len(set(filenames)) == 4 and all(f in linecache.cache for f in filenames)
        del a, b
        gc.collect()
        assert not any(f in linecache.cache for f in filenames)
        # a callable rhs runs the kernel shared by every model of its size
        model = NonlinearModel(2, 2, rhs=example5_rhs, h1=lambda x: x)
        assert model._kernel is _call_kernel(2)
        assert model._kernel.__code__.co_filename in linecache.cache


class TestSampledModel:
    """The maps a SampledModel binds are its source's, bit for bit, on
    seeded draws from [-3, 3]."""

    def test_lti_caches_discretization(self, bench_model):
        sampled = SampledModel(bench_model, 0.3)
        disc = discretize_exact(bench_model, 0.3)
        for x, u in np.random.default_rng(8).uniform(-3.0, 3.0, (200, 2, 2)):
            assert same_bits(sampled.step(x, u), disc.step(x, u))
            assert same_bits(sampled.output(x, u), bench_model.output(x, u))

    def test_nonlinear_steps_by_flow(self, cubic_plant, example5_plant):
        draws = np.random.default_rng(9).uniform(-3.0, 3.0, (100, 2, 2))
        for plant in (cubic_plant, example5_plant):
            sampled = SampledModel(plant, 0.3)
            for x, u in draws:
                assert same_bits(sampled.step(x, u), flow(plant, x, u, 0.3))
                assert same_bits(sampled.output(x, u), plant.output(x, u))
            assert (sampled.n, sampled.m) == (2, 2)

    def test_frozen_so_the_maps_keep_their_tau(self, example5_plant):
        sampled = SampledModel(example5_plant, 0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sampled.tau = 0.6


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
        # the kernel generated for other state dimensions
        for n in (1, 3, 5):
            for _ in range(10):
                model = polynomial_plant(rng, n)
                for _ in range(5):
                    x = rng.uniform(-2.0, 2.0, n)
                    u = rng.uniform(-2.0, 2.0, 1)
                    if on_grid:
                        u = quantize(u, 0.01)
                    assert same_bits(flow(model, x, u, 0.3), array_rk4(model, x, u, 0.3))

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
        model = NonlinearModel(2, 1, rhs=sized_at_origin(2, np.zeros(1)), h1=lambda x: x[:1])
        with pytest.raises(DimensionError):
            flow(model, np.array([1.0, -2.0]), np.zeros(1), 0.5)

    def test_rejects_wrongly_sized_tuple(self):
        model = NonlinearModel(2, 1, rhs=sized_at_origin(2, (0.0,)), h1=lambda x: x[:1])
        with pytest.raises(DimensionError, match=r"got shape \(1,\)"):
            flow(model, np.array([1.0, -2.0]), np.zeros(1), 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("size", [-1, 1])
    @pytest.mark.parametrize("call", [2, 3, 4, 22])
    def test_rejects_wrongly_sized_tuple_at_any_stage(self, n, size, call):
        # calls 2-4 are the later stages of substep 0, call 22 the second of substep 5
        calls = []

        def rhs(x, u):
            if any(x):  # not the model's own check at the origin
                calls.append(x)
            return (0.0,) * (n + size if len(calls) == call else n)

        model = NonlinearModel(n, 1, rhs=rhs, h1=lambda x: x[:1])
        message = rf"^rhs must return {n} values, got shape \({n + size},\)$"
        with pytest.raises(DimensionError, match=message):
            flow(model, np.ones(n), np.zeros(1), 0.5)
        assert len(calls) == call

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    @pytest.mark.parametrize("call", [1, 2, 4, 22])
    def test_rhs_errors_propagate_unchanged(self, error, call):
        raised = error("raised by the rhs")
        calls = []

        def rhs(x, u):
            if any(x):  # not the model's own check at the origin
                calls.append(x)
            if len(calls) == call:
                raise raised
            return (0.0, 0.0)

        model = NonlinearModel(2, 1, rhs=rhs, h1=lambda x: x[:1])
        with pytest.raises(error) as err:
            flow(model, np.ones(2), np.zeros(1), 0.5)
        assert err.value is raised

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [1, 4, 22])
    def test_non_finite_stage_is_divergence_at_its_substep(self, value, call):
        calls = []

        def rhs(x, u):
            if any(x):  # not the model's own check at the origin
                calls.append(x)
            return (value if len(calls) >= call else 0.0, 0.0)

        model = NonlinearModel(2, 1, rhs=rhs, h1=lambda x: x[:1])
        with pytest.raises(DivergenceError) as want:
            array_rk4(model, np.ones(2), np.zeros(1), 0.5)
        calls.clear()
        with pytest.raises(DivergenceError) as err:
            flow(model, np.ones(2), np.zeros(1), 0.5)
        assert err.value.step == want.value.step == (call - 1) // 4
        assert str(err.value) == str(want.value)

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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_rhs_return_types_bit_identical_at_other_dimensions(self, n, wrap):
        rng = np.random.default_rng(16 + n)
        model = polynomial_plant(rng, n)
        wrapped = polynomial_plant(np.random.default_rng(16 + n), n, wrap)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, n)
            u = quantize(rng.uniform(-2.0, 2.0, 1), 0.01)
            assert same_bits(flow(wrapped, x, u, 0.3), flow(model, x, u, 0.3))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("wrap", [tuple, np.array])
    def test_rejects_wrongly_sized_rhs_at_other_dimensions(self, n, wrap):
        rhs = sized_at_origin(n, wrap([0.0] * (n + 1)))
        model = NonlinearModel(n, 1, rhs=rhs, h1=lambda x: x[:1])
        with pytest.raises(DimensionError, match=rf"rhs must return {n} values, got shape \({n + 1},\)"):
            flow(model, np.ones(n), np.zeros(1), 0.5)

    @pytest.mark.parametrize("n", [1, 3])
    def test_overflow_in_rhs_is_divergence_at_other_dimensions(self, n):
        # float ** raises OverflowError in the first stage of substep 0
        model = NonlinearModel(
            n, 1, rhs=lambda x, u: tuple(-(a**3) for a in x), h1=lambda x: x[:1]
        )
        x0 = np.zeros(n)
        x0[-1] = 1e110
        with pytest.raises(DivergenceError, match=r"^state diverged at substep 0$") as err:
            flow(model, x0, np.zeros(1), 0.3)
        assert err.value.step == 0
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("n", [1, 3])
    def test_divergence_step_matches_array_form_at_other_dimensions(self, n):
        # products overflow to inf without raising, so the non-finite check
        # after the substep reports it, at the array form's substep
        def rhs(x, u):
            return (x[0] * x[0] * x[0],) + tuple(-a for a in x[1:])

        model = NonlinearModel(n, 1, rhs=rhs, h1=lambda x: x[:1])
        x0 = np.full(n, 5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as want:
                array_rk4(model, x0, np.zeros(1), 10.0)
            with pytest.raises(DivergenceError) as err:
                flow(model, x0, np.zeros(1), 10.0)
        assert err.value.step == want.value.step and err.value.step > 0
        assert str(err.value) == str(want.value) == f"state diverged at substep {err.value.step}"
