"""Analysis configuration: JSON schema, validation and model construction.

Configurations are plain JSON with the sections ``plant``, ``controller``,
``sampling``, ``quantization``, ``symbolic``, ``lambdas``, ``references``,
``simulation`` and ``storage``.  Unknown keys are rejected, every array is
checked against the dimensions of its system, and every validation error
names the offending path.  Matrices are row-major flat arrays with
declared dimensions: ``{"rows": 2, "cols": 2, "data": [...]}``.

Nonlinear dynamics cannot ride in a data file, so nonlinear systems are
referenced by registered name; user-defined dynamics enter through the
library API instead.
"""

import json
import sys
from dataclasses import dataclass, field, replace
from importlib.resources import files
from typing import Optional

import numpy as np

from .errors import ConfigError, ParameterError
from .passivity import GainCertificate, IndexSet, LambdaChoices, _quadratic_form
from .sim import MODES
from .systems import LtiModel, NonlinearModel

__all__ = [
    "SystemSpec",
    "AnalysisConfig",
    "load_config",
    "parse_config",
    "registered_models",
    "bundled_config_path",
]


def bundled_config_path(name):
    """Filesystem path of one of the packaged example configurations."""
    path = files("passquant").joinpath("configs", f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"no bundled configuration named {name!r}")
    return str(path)


def _example5_plant() -> NonlinearModel:
    def rhs(x, u):
        # flow passes tuples of Python floats, which give the numpy-scalar
        # results bit for bit; their ``**`` raises OverflowError where numpy
        # returns inf, and flow reports that as divergence
        x0, x1 = x
        u0, u1 = u
        return (
            -0.7 * x0 - 0.2 * x0 ** 3 - 0.5 * x1 + 0.4 * u0,
            0.5 * x0 - 0.3 * x1 ** 3 + 0.5 * u1,
        )

    def h1(x):
        return np.array([0.4 * x[0], 0.5 * x[1]])

    # h1 is linear diagonal, so the (inf -> 2) bound is exact
    return NonlinearModel(n=2, m=2, rhs=rhs, h1=h1, h1_lipschitz=float(np.hypot(0.4, 0.5)))


_REGISTRY = {"example5_plant": _example5_plant}


def registered_models():
    """Names of the nonlinear models that configs may reference."""
    return sorted(_REGISTRY)


def _require_keys(section, allowed, required, path):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{path}.{key}: missing required key")


def _read_matrix(value, path, rows=None, cols=None):
    _require_keys(value, {"rows", "cols", "data"}, ("rows", "cols", "data"), path)
    r = _integer(1)(value["rows"], f"{path}.rows")
    c = _integer(1)(value["cols"], f"{path}.cols")
    data = value["data"]
    if not isinstance(data, list) or len(data) != r * c:
        raise ConfigError(f"{path}.data: expected {r * c} entries")
    if rows is not None and r != rows:
        raise ConfigError(f"{path}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ConfigError(f"{path}: expected {cols} cols, got {c}")
    return _numbers(data, f"{path}.data").reshape(r, c)


# Schema parsers take (value, path, dims); ``dims`` maps a dimension name to
# the size fixed by the parsed systems, or None when that system is absent.


def _number(value, path, dims=None):
    """The one rule for every scalar and every array entry: a finite int or
    float that is not a bool, returned as a float.  The bound compares ints
    exactly and fails for NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _numbers(values, path):
    """Float vector of a JSON array, each entry checked as ``path[i]``."""
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(values)])


def _size(dims, dim, path):
    """``dims[dim]``, which is None only when the config has no plant."""
    if dims[dim] is None:
        raise ConfigError(f"{path}: sized by the plant, but the config has no plant section")
    return dims[dim]


def _positive(value, path, dims=None):
    value = _number(value, path)
    if value <= 0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _nonnegative(value, path, dims=None):
    value = _number(value, path)
    if value < 0:
        raise ConfigError(f"{path}: must be nonnegative")
    return value


def _positive_list(value, path, dims=None):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array of numbers")
    return [_positive(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _integer(low):
    def parse(value, path, dims=None):
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ConfigError(f"{path}: must be a {('nonnegative', 'positive')[low]} integer")
        return value

    return parse


def _boolean(value, path, dims=None):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be a boolean")
    return value


def _mode(value, path, dims=None):
    if value not in MODES:
        raise ConfigError(f"{path}: unknown mode {value!r}")
    return value


def _vector(dim):
    """Flat array of numbers with ``dims[dim]`` entries."""

    def parse(value, path, dims):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array of numbers")
        size = _size(dims, dim, path)
        if len(value) != size:
            raise ConfigError(f"{path}: expected {size} entries")
        return _numbers(value, path)

    return parse


def _quadratic(dim, name, definite=False):
    """Square matrix of ``dims[dim]`` rows whose symmetric part is positive
    semidefinite, or positive definite with ``definite``."""

    def parse(value, path, dims):
        size = _size(dims, dim, path)
        matrix = _read_matrix(value, path, size, size)
        try:
            _quadratic_form(matrix, name, definite)
        except ParameterError as exc:  # indefinite
            raise ConfigError(f"{path}: {exc}") from exc
        return matrix

    return parse


def _zero_or(parse):
    """The string ``"zero"`` (parsed as None) or what ``parse`` accepts."""
    return lambda value, path, dims: None if value == "zero" else parse(value, path, dims)


def _parse_section(section, path, schema, dims):
    """Fields of one section; keys are parsed in schema order."""
    required, keys = schema
    _require_keys(section, keys, required, path)
    return {name: parse(section[key], f"{path}.{key}", dims)
            for key, (name, parse) in keys.items() if key in section}


@dataclass
class SystemSpec:
    """One subsystem plus the analysis metadata attached to it."""

    model: object
    indices: Optional[IndexSet] = None
    discrete_indices: Optional[IndexSet] = None
    gain: Optional[GainCertificate] = None
    sd_window: int = 0
    sd_theta: Optional[float] = None
    sd_p: Optional[np.ndarray] = None

    @property
    def is_lti(self) -> bool:
        return isinstance(self.model, LtiModel)


_INDICES = (("nu", "rho"), {"nu": ("nu", _number), "rho": ("rho", _number)})

# subsection of a system -> (required keys, {key: (field, parser)}); the one
# dimension is the system's state size n
_SYSTEM_SCHEMA = {
    "indices": _INDICES,
    "discrete_indices": _INDICES,
    "gain": (("gamma", "beta"), {
        "gamma": ("gamma", _positive), "beta": ("beta_matrix", _quadratic("n", "beta matrix"))}),
    "sd": (("window",), {
        "window": ("sd_window", _integer(0)), "theta": ("sd_theta", _nonnegative),
        "p": ("sd_p", _quadratic("n", "Mp", definite=True))}),
}


def _parse_system(section, path):
    _require_keys(section, {"type", "A", "B", "C", "D", "name", *_SYSTEM_SCHEMA}, ("type",), path)
    kind = section["type"]
    if kind == "lti":
        for key in ("A", "B", "C", "D"):
            if key not in section:
                raise ConfigError(f"{path}.{key}: missing required key for an lti system")
        a = _read_matrix(section["A"], f"{path}.A")
        n = a.shape[0]
        if a.shape[1] != n:
            raise ConfigError(f"{path}.A: expected a square matrix, got {n}x{a.shape[1]}")
        b = _read_matrix(section["B"], f"{path}.B", rows=n)
        m = b.shape[1]
        c = _read_matrix(section["C"], f"{path}.C", rows=m, cols=n)
        d = _read_matrix(section["D"], f"{path}.D", rows=m, cols=m)
        model = LtiModel(a, b, c, d)
    elif kind == "registered":
        if "name" not in section:
            raise ConfigError(f"{path}.name: missing required key for a registered system")
        name = section["name"]
        if name not in _REGISTRY:
            raise ConfigError(
                f"{path}.name: unknown model {name!r}; known: {registered_models()}"
            )
        model = _REGISTRY[name]()
    else:
        raise ConfigError(f"{path}.type: must be 'lti' or 'registered'")

    def sub(key):
        return _parse_section(section[key], f"{path}.{key}", _SYSTEM_SCHEMA[key], {"n": model.n})

    spec = SystemSpec(model=model)
    if "indices" in section:
        spec.indices = IndexSet(**sub("indices"))
    if "discrete_indices" in section:
        spec.discrete_indices = IndexSet(**sub("discrete_indices"))
    if "gain" in section:
        spec.gain = GainCertificate(**sub("gain"))
    if "sd" in section:
        sd = sub("sd")
        if ("sd_theta" in sd) != ("sd_p" in sd):
            raise ConfigError(f"{path}.sd: theta and p must be given together")
        spec = replace(spec, **sd)
    return spec


@dataclass
class AnalysisConfig:
    """Validated configuration; absent sections keep the defaults below."""

    plant: Optional[SystemSpec]
    controller: SystemSpec
    tau: float
    mu1: Optional[float] = None
    mu2: Optional[float] = None
    eta: Optional[float] = None
    eps: Optional[float] = None
    eta_sweep: Optional[list] = None
    lambdas: LambdaChoices = field(default_factory=LambdaChoices)
    nu_hat: Optional[float] = None
    lam: Optional[float] = None
    d3: Optional[float] = None
    c5: Optional[float] = None
    r1: Optional[np.ndarray] = None
    r2: Optional[np.ndarray] = None
    horizon: Optional[int] = None
    x1_0: Optional[np.ndarray] = None
    x2_0: Optional[np.ndarray] = None
    x2s_0: Optional[np.ndarray] = None
    seed: int = 0
    mode: str = MODES[0]
    trials: int = 10000
    storage_plant: Optional[np.ndarray] = None
    storage_controller: Optional[np.ndarray] = None
    storage_tau_scaled: bool = False

    def __post_init__(self):
        # the seed is nonnegative, a mode that runs the symbolic twin's
        # constants needs the symbolic section, and the keys only the
        # symbolic loop reads are rejected in the other modes; this holds
        # for configs built or replaced in code as well
        _integer(0)(self.seed, "simulation.seed")
        if self.mode != MODES[0] and self.eps is None:
            raise ConfigError(f"simulation.mode: {self.mode!r} needs the symbolic section")
        if self.mode != "symbolic":
            for path, name in (("symbolic.eta_sweep", "eta_sweep"), ("simulation.x2s_0", "x2s_0")):
                if getattr(self, name) is not None:
                    raise ConfigError(
                        f"{path}: read only when simulation.mode is 'symbolic', not {self.mode!r}")


_LAMBDAS = ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5")

# section -> (required keys, {key: (AnalysisConfig field, parser)}), in the
# order sections are validated; the λ's are fields of ``lambdas``.  The
# dimensions are n1 (plant state), n2 (controller state) and m (signals).
_SCHEMA = {
    "sampling": (("tau",), {"tau": ("tau", _positive)}),
    "quantization": (("mu1", "mu2"), {"mu1": ("mu1", _positive), "mu2": ("mu2", _positive)}),
    "symbolic": (("eta", "epsilon"), {
        "eta": ("eta", _positive), "epsilon": ("eps", _positive),
        "eta_sweep": ("eta_sweep", _positive_list)}),
    "lambdas": ((), {
        **{key: (key, _positive) for key in _LAMBDAS},
        "nu_hat": ("nu_hat", _number), "lam": ("lam", _number),
        "d3": ("d3", _positive), "c5": ("c5", _positive)}),
    "references": ((), {key: (key, _zero_or(_vector("m"))) for key in ("r1", "r2")}),
    "simulation": ((), {
        "horizon": ("horizon", _integer(1)), "x1_0": ("x1_0", _vector("n1")),
        "x2_0": ("x2_0", _vector("n2")), "x2s_0": ("x2s_0", _vector("n2")),
        "seed": ("seed", _integer(0)), "mode": ("mode", _mode),
        "trials": ("trials", _integer(1))}),
    "storage": ((), {
        "plant": ("storage_plant", _quadratic("n1", "storage matrix")),
        "controller": ("storage_controller", _quadratic("n2", "storage matrix")),
        "tau_scaled": ("storage_tau_scaled", _boolean)}),
}


def parse_config(doc) -> AnalysisConfig:
    """Validate a decoded JSON document and build the analysis objects.

    The systems are parsed first; every other section then goes through
    ``_SCHEMA``, which checks each array against the parsed dimensions;
    ``AnalysisConfig`` then checks the simulation mode against the sections.
    """
    _require_keys(doc, {"plant", "controller", *_SCHEMA}, ("controller", "sampling"), "config")
    plant = _parse_system(doc["plant"], "plant") if "plant" in doc else None
    controller = _parse_system(doc["controller"], "controller")
    if plant is not None and plant.model.m != controller.model.m:
        m1, m2 = plant.model.m, controller.model.m
        raise ConfigError(f"plant: signal size {m1} differs from the controller's {m2}")
    n1 = None if plant is None else plant.model.n
    dims = {"n1": n1, "n2": controller.model.n, "m": controller.model.m}
    fields = {}
    for section, schema in _SCHEMA.items():
        if section in doc:
            fields.update(_parse_section(doc[section], section, schema, dims))
    lambdas = LambdaChoices(**{key: fields.pop(key) for key in _LAMBDAS if key in fields})
    return AnalysisConfig(plant=plant, controller=controller, lambdas=lambdas, **fields)


def load_config(path) -> AnalysisConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(doc)
