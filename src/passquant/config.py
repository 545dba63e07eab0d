"""Analysis configuration: JSON schema, validation and model construction.

Configurations are plain JSON with the sections ``plant``, ``controller``,
``sampling``, ``quantization``, ``symbolic``, ``lambdas``, ``references``,
``simulation`` and ``storage``.  Unknown keys are rejected; every validation
error names the offending path.  Matrices are row-major flat arrays with
declared dimensions: ``{"rows": 2, "cols": 2, "data": [...]}``.

Nonlinear dynamics cannot ride in a data file, so nonlinear systems are
referenced by registered name; user-defined dynamics enter through the
library API instead.
"""

import json
from dataclasses import dataclass
from importlib.resources import files
from typing import Optional

import numpy as np

from .errors import ConfigError
from .passivity import GainCertificate, IndexSet, LambdaChoices
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
        return np.array(
            [
                -0.7 * x[0] - 0.2 * x[0] ** 3 - 0.5 * x[1] + 0.4 * u[0],
                0.5 * x[0] - 0.3 * x[1] ** 3 + 0.5 * u[1],
            ]
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


def _number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _matrix(value, path, rows=None, cols=None):
    _require_keys(value, {"rows", "cols", "data"}, {"rows", "cols", "data"}, path)
    r, c = value["rows"], value["cols"]
    if not isinstance(r, int) or not isinstance(c, int) or r < 1 or c < 1:
        raise ConfigError(f"{path}: rows and cols must be positive integers")
    data = value["data"]
    if not isinstance(data, list) or len(data) != r * c:
        raise ConfigError(f"{path}.data: expected {r * c} entries")
    if rows is not None and r != rows:
        raise ConfigError(f"{path}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ConfigError(f"{path}: expected {cols} cols, got {c}")
    try:
        arr = np.array(data, dtype=float).reshape(r, c)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.data: entries must be numbers") from exc
    return arr


def _vector(value, path, length=None):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array of numbers")
    try:
        vec = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: entries must be numbers") from exc
    if vec.ndim != 1:
        raise ConfigError(f"{path}: expected a flat array")
    if length is not None and vec.shape[0] != length:
        raise ConfigError(f"{path}: expected {length} entries")
    return vec


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


def _parse_indices(section, path):
    _require_keys(section, {"nu", "rho"}, {"nu", "rho"}, path)
    return IndexSet(nu=_number(section["nu"], f"{path}.nu"), rho=_number(section["rho"], f"{path}.rho"))


def _parse_system(section, path):
    allowed = {"type", "A", "B", "C", "D", "name", "indices", "discrete_indices", "gain", "sd"}
    _require_keys(section, allowed, {"type"}, path)
    kind = section["type"]
    if kind == "lti":
        for key in ("A", "B", "C", "D"):
            if key not in section:
                raise ConfigError(f"{path}.{key}: missing required key for an lti system")
        a = _matrix(section["A"], f"{path}.A")
        n = a.shape[0]
        b = _matrix(section["B"], f"{path}.B", rows=n)
        m = b.shape[1]
        c = _matrix(section["C"], f"{path}.C", rows=m, cols=n)
        d = _matrix(section["D"], f"{path}.D", rows=m, cols=m)
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

    spec = SystemSpec(model=model)
    if "indices" in section:
        spec.indices = _parse_indices(section["indices"], f"{path}.indices")
    if "discrete_indices" in section:
        spec.discrete_indices = _parse_indices(
            section["discrete_indices"], f"{path}.discrete_indices"
        )
    if "gain" in section:
        gsec = section["gain"]
        _require_keys(gsec, {"gamma", "beta"}, {"gamma", "beta"}, f"{path}.gain")
        spec.gain = GainCertificate(
            gamma=_number(gsec["gamma"], f"{path}.gain.gamma"),
            beta_matrix=_matrix(gsec["beta"], f"{path}.gain.beta"),
        )
    if "sd" in section:
        ssec = section["sd"]
        _require_keys(ssec, {"window", "theta", "p"}, {"window"}, f"{path}.sd")
        window = ssec["window"]
        if not isinstance(window, int) or window < 0:
            raise ConfigError(f"{path}.sd.window: must be a nonnegative integer")
        spec.sd_window = window
        if ("theta" in ssec) != ("p" in ssec):
            raise ConfigError(f"{path}.sd: theta and p must be given together")
        if "theta" in ssec:
            spec.sd_theta = _number(ssec["theta"], f"{path}.sd.theta")
            spec.sd_p = _matrix(ssec["p"], f"{path}.sd.p")
    return spec


@dataclass
class AnalysisConfig:
    """Validated configuration; absent sections are None."""

    plant: Optional[SystemSpec]
    controller: SystemSpec
    tau: float
    mu1: Optional[float]
    mu2: Optional[float]
    eta: Optional[float]
    eps: Optional[float]
    eta_sweep: Optional[list]
    lambdas: LambdaChoices
    nu_hat: Optional[float]
    lam: Optional[float]
    d3: Optional[float]
    c5: Optional[float]
    r1: Optional[np.ndarray]
    r2: Optional[np.ndarray]
    horizon: Optional[int]
    x1_0: Optional[np.ndarray]
    x2_0: Optional[np.ndarray]
    x2s_0: Optional[np.ndarray]
    seed: int
    mode: str
    trials: int
    storage_plant: Optional[np.ndarray]
    storage_controller: Optional[np.ndarray]
    storage_tau_scaled: bool


_TOP_KEYS = {
    "plant",
    "controller",
    "sampling",
    "quantization",
    "symbolic",
    "lambdas",
    "references",
    "simulation",
    "storage",
}


def parse_config(doc) -> AnalysisConfig:
    """Validate a decoded JSON document and build the analysis objects."""
    _require_keys(doc, _TOP_KEYS, {"controller", "sampling"}, "config")

    plant = _parse_system(doc["plant"], "plant") if "plant" in doc else None
    controller = _parse_system(doc["controller"], "controller")

    _require_keys(doc["sampling"], {"tau"}, {"tau"}, "sampling")
    tau = _number(doc["sampling"]["tau"], "sampling.tau")
    if tau <= 0:
        raise ConfigError("sampling.tau: must be positive")

    mu1 = mu2 = None
    if "quantization" in doc:
        qsec = doc["quantization"]
        _require_keys(qsec, {"mu1", "mu2"}, {"mu1", "mu2"}, "quantization")
        mu1 = _number(qsec["mu1"], "quantization.mu1")
        mu2 = _number(qsec["mu2"], "quantization.mu2")
        if mu1 <= 0 or mu2 <= 0:
            raise ConfigError("quantization: mu1 and mu2 must be positive")

    eta = eps = None
    sweep = None
    if "symbolic" in doc:
        ssec = doc["symbolic"]
        _require_keys(ssec, {"eta", "epsilon", "eta_sweep"}, {"eta", "epsilon"}, "symbolic")
        eta = _number(ssec["eta"], "symbolic.eta")
        eps = _number(ssec["epsilon"], "symbolic.epsilon")
        if "eta_sweep" in ssec:
            sweep = [
                _number(v, f"symbolic.eta_sweep[{i}]") for i, v in enumerate(ssec["eta_sweep"])
            ]

    lam_kwargs = {}
    nu_hat = lam = d3 = c5 = None
    if "lambdas" in doc:
        lsec = doc["lambdas"]
        allowed = {"lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "nu_hat", "lam", "d3", "c5"}
        _require_keys(lsec, allowed, set(), "lambdas")
        for key in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"):
            if key in lsec:
                lam_kwargs[key] = _number(lsec[key], f"lambdas.{key}")
        if "nu_hat" in lsec:
            nu_hat = _number(lsec["nu_hat"], "lambdas.nu_hat")
        if "lam" in lsec:
            lam = _number(lsec["lam"], "lambdas.lam")
        if "d3" in lsec:
            d3 = _number(lsec["d3"], "lambdas.d3")
        if "c5" in lsec:
            c5 = _number(lsec["c5"], "lambdas.c5")
    lambdas = LambdaChoices(**lam_kwargs)

    r1 = r2 = None
    if "references" in doc:
        rsec = doc["references"]
        _require_keys(rsec, {"r1", "r2"}, set(), "references")
        for name in ("r1", "r2"):
            if name in rsec and rsec[name] != "zero":
                vec = _vector(rsec[name], f"references.{name}")
                if name == "r1":
                    r1 = vec
                else:
                    r2 = vec

    horizon = None
    x1_0 = x2_0 = x2s_0 = None
    seed = 0
    mode = MODES[0]
    trials = 10000
    if "simulation" in doc:
        msec = doc["simulation"]
        allowed = {"horizon", "x1_0", "x2_0", "x2s_0", "seed", "mode", "trials"}
        _require_keys(msec, allowed, set(), "simulation")
        if "horizon" in msec:
            horizon = msec["horizon"]
            if not isinstance(horizon, int) or horizon < 1:
                raise ConfigError("simulation.horizon: must be a positive integer")
        if "x1_0" in msec:
            x1_0 = _vector(msec["x1_0"], "simulation.x1_0")
        if "x2_0" in msec:
            x2_0 = _vector(msec["x2_0"], "simulation.x2_0")
        if "x2s_0" in msec:
            x2s_0 = _vector(msec["x2s_0"], "simulation.x2s_0")
        if "seed" in msec:
            seed = msec["seed"]
            if not isinstance(seed, int) or seed < 0:
                raise ConfigError("simulation.seed: must be a nonnegative integer")
        if "mode" in msec:
            mode = msec["mode"]
            if mode not in MODES:
                raise ConfigError(f"simulation.mode: unknown mode {mode!r}")
        if "trials" in msec:
            trials = msec["trials"]
            if not isinstance(trials, int) or trials < 1:
                raise ConfigError("simulation.trials: must be a positive integer")

    storage_plant = storage_controller = None
    tau_scaled = False
    if "storage" in doc:
        vsec = doc["storage"]
        _require_keys(vsec, {"plant", "controller", "tau_scaled"}, set(), "storage")
        if "plant" in vsec:
            storage_plant = _matrix(vsec["plant"], "storage.plant")
        if "controller" in vsec:
            storage_controller = _matrix(vsec["controller"], "storage.controller")
        if "tau_scaled" in vsec:
            if not isinstance(vsec["tau_scaled"], bool):
                raise ConfigError("storage.tau_scaled: must be a boolean")
            tau_scaled = vsec["tau_scaled"]

    return AnalysisConfig(
        plant=plant,
        controller=controller,
        tau=tau,
        mu1=mu1,
        mu2=mu2,
        eta=eta,
        eps=eps,
        eta_sweep=sweep,
        lambdas=lambdas,
        nu_hat=nu_hat,
        lam=lam,
        d3=d3,
        c5=c5,
        r1=r1,
        r2=r2,
        horizon=horizon,
        x1_0=x1_0,
        x2_0=x2_0,
        x2s_0=x2s_0,
        seed=seed,
        mode=mode,
        trials=trials,
        storage_plant=storage_plant,
        storage_controller=storage_controller,
        storage_tau_scaled=tau_scaled,
    )


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
