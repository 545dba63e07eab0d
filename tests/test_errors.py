"""The scalar rule at every call site.

Each case passes one value in place of one scalar parameter, through the
public function or constructor that checks it, with every other argument
valid.  NaN and both infinities must fail with a :class:`ParameterError`
whose message starts with the parameter's name.
"""

import numpy as np
import pytest

from passquant import (
    ComposedIndices,
    DeltaIssBound,
    GainCertificate,
    IndexSet,
    LambdaChoices,
    LoopConfig,
    LtiModel,
    NonlinearModel,
    ParameterError,
    SampledModel,
    SdCertificate,
    SymbolicController,
    check_bisim_params,
    compose_feedback,
    degrade_quantization,
    degrade_sampling,
    discretize_exact,
    flow,
    loop_bounds,
    quantize,
    quantize_nearest,
    sd_falsify,
    single_system_bounds,
    symbolic_quant_bias,
)
from passquant.linalg import quad_sublevel_max

I1 = np.eye(1)
LTI = LtiModel(-I1, I1, I1, np.zeros((1, 1)))
PLANT = NonlinearModel(1, 1, rhs=lambda x, u: (-x[0],), h1=lambda x: x)
CERT = SdCertificate(0, 0.5, I1)
BOUND = DeltaIssBound(1.0, 1.0, 1.0)


def bound_args(**values):
    """``check_bisim_params(BOUND, eps, tau, mu, eta)`` with overrides."""
    args = {"eps": 0.3, "tau": 0.1, "mu": 0.01, "eta": 0.01, **values}
    return check_bisim_params(BOUND, **args)


def loop(**values):
    settings = dict(
        plant=LTI, controller=LTI, mode="symbolic", tau=0.3, mu1=0.01, mu2=0.01, horizon=2,
        x1_0=np.zeros(1), x2_0=np.zeros(1), eta=0.1, eps=0.25,
    )
    return LoopConfig(**{**settings, **values})


def loop_levels(rho=0.5, r_norm=0.0, mu1=0.01, mu2=0.01, d3=None):
    idx = ComposedIndices(nu=0.1, rho=rho, delta=0.0)
    return loop_bounds(idx, CERT, CERT, np.eye(2), r_norm, mu1, mu2, 1, d3=d3)


def quantization(**values):
    args = dict(mu1=0.01, mu2=0.01, m=2, lambda2=20.0, lambda3=20.0, lambda4=20.0,
                lambda5=20.0)
    return degrade_quantization(0.2, 0.9, **{**args, **values})


def sampling(**values):
    return degrade_sampling(0.3, 0.5, **{"gamma": 0.2, "tau": 0.1, "lambda1": 10.0, **values})


# case id -> (parameter name, call with the value in its place)
CASES = {
    "DeltaIssBound.scale": ("scale", lambda v: DeltaIssBound(v, 1.0, 1.0)),
    "DeltaIssBound.rate": ("rate", lambda v: DeltaIssBound(1.0, v, 1.0)),
    "DeltaIssBound.input_gain": ("input_gain", lambda v: DeltaIssBound(1.0, 1.0, v)),
    **{
        f"check_bisim_params.{name}": (name, lambda v, name=name: bound_args(**{name: v}))
        for name in ("eps", "tau", "mu", "eta")
    },
    "SymbolicController.eta": (
        "eta", lambda v: SymbolicController(SampledModel(LTI, 0.3), v, 0.01, [0.0])),
    "SymbolicController.mu": (
        "mu", lambda v: SymbolicController(SampledModel(LTI, 0.3), 0.1, v, [0.0])),
    "loop_bounds.rho": ("rho", lambda v: loop_levels(rho=v)),
    "loop_bounds.r_norm": ("r_norm", lambda v: loop_levels(r_norm=v)),
    "loop_bounds.mu1": ("mu1", lambda v: loop_levels(mu1=v)),
    "loop_bounds.mu2": ("mu2", lambda v: loop_levels(mu2=v)),
    "loop_bounds.d3": ("d3", lambda v: loop_levels(d3=v)),
    "single_system_bounds.u_norm": (
        "u_norm", lambda v: single_system_bounds(IndexSet(0.1, 0.5), CERT, I1, v)),
    "single_system_bounds.c5": (
        "c5", lambda v: single_system_bounds(IndexSet(0.1, 0.5), CERT, I1, 1.0, c5=v)),
    "SdCertificate.theta": ("theta", lambda v: SdCertificate(0, v, I1)),
    "sd_falsify.trials": (
        "trials", lambda v: sd_falsify(discretize_exact(LTI, 0.3), CERT, trials=v)),
    "sd_falsify.seed": ("seed", lambda v: sd_falsify(discretize_exact(LTI, 0.3), CERT, seed=v)),
    "quad_sublevel_max.xi": ("xi", lambda v: quad_sublevel_max(I1, I1, v)),
    "IndexSet.nu": ("nu", lambda v: IndexSet(v, 0.2)),
    "IndexSet.rho": ("rho", lambda v: IndexSet(0.1, v)),
    "IndexSet.delta": ("delta", lambda v: IndexSet(0.1, 0.2, delta=v)),
    "IndexSet.w": ("w", lambda v: IndexSet(0.1, 0.2, w=v)),
    "GainCertificate.gamma": ("gamma", lambda v: GainCertificate(v, I1)),
    **{
        f"LambdaChoices.lambda{i}": (
            f"lambda{i}", lambda v, i=i: LambdaChoices(**{f"lambda{i}": v}))
        for i in range(1, 6)
    },
    **{
        f"degrade_sampling.{name}": (name, lambda v, name=name: sampling(**{name: v}))
        for name in ("tau", "gamma", "lambda1")
    },
    **{
        f"degrade_quantization.{name}": (name, lambda v, name=name: quantization(**{name: v}))
        for name in ("lambda2", "lambda3", "lambda4", "lambda5", "mu1", "mu2", "m")
    },
    "symbolic_quant_bias.lip": (
        "lip", lambda v: symbolic_quant_bias(0.2, 0.9, v, 0.1, 0.01, 0.01, 2)),
    "symbolic_quant_bias.eps": (
        "eps", lambda v: symbolic_quant_bias(0.2, 0.9, 1.0, v, 0.01, 0.01, 2)),
    "compose_feedback.nu_hat": (
        "nu_hat", lambda v: compose_feedback(IndexSet(0.1, 0.2), IndexSet(0.1, 0.2), v)),
    **{
        f"LoopConfig.{name}": (name, lambda v, name=name: loop(**{name: v}))
        for name in ("tau", "mu1", "mu2", "horizon", "seed", "eta", "eps")
    },
    "quantize.mu": ("mu", lambda v: quantize([0.3], v)),
    "quantize_nearest.eta": ("eta", lambda v: quantize_nearest([0.3], v)),
    "discretize_exact.tau": ("tau", lambda v: discretize_exact(LTI, v)),
    "flow.tau": ("tau", lambda v: flow(PLANT, [0.3], [0.0], v)),
    "SampledModel.tau": ("tau", lambda v: SampledModel(LTI, v)),
    "NonlinearModel.h1_lipschitz": (
        "h1_lipschitz",
        lambda v: NonlinearModel(1, 1, rhs=lambda x, u: (0.0,), h1=lambda x: x, h1_lipschitz=v)),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_value_names_the_parameter(case, value):
    name, call = CASES[case]
    with pytest.raises(ParameterError, match=rf"^{name} must be"):
        call(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: SdCertificate(v, 0.5, I1), "window must be a nonnegative integer"),
        (lambda v: single_system_bounds(IndexSet(0.1, 0.5), CERT, I1, 1.0, lam=v),
         "lam must lie in"),
        (lambda v: loop_bounds(ComposedIndices(v, 0.5, 0.0), CERT, CERT, np.eye(2),
                               0.0, 0.01, 0.01, 1),
         "eta1 = "),
    ],
    ids=["SdCertificate.window", "single_system_bounds.lam", "loop_bounds.eta1"],
)
def test_own_rules_reject_non_finite_values(call, message, value):
    # a rule with its own message fails NaN too; ComposedIndices carries an
    # unchecked nu, so a non-finite one reaches the eta1 rule
    with pytest.raises(ParameterError, match=f"^{message}"):
        call(value)
