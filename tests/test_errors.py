"""The scalar, array and type rules at every call site.

Each case passes one value in place of one parameter, through the public
function or constructor that checks it, with every other argument valid.
NaN and both infinities must fail with a :class:`ParameterError` whose
message starts with the parameter's name; an array of the wrong shape must
fail with a :class:`DimensionError` that names it the same way, and a model
of the wrong kind with a :class:`ParameterError` that names it and its type.
A finite value whose square or product overflows fails as a
:class:`ParameterError` naming the quantity being computed.  A scan of the
package source keeps every such test inside the three rules.
"""

import ast
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import passquant
from passquant import (
    ComposedIndices,
    DeltaIssBound,
    DimensionError,
    DiscreteLti,
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
    check_sd_certificate,
    compose_feedback,
    degrade_quantization,
    degrade_sampling,
    discretize_exact,
    dissipation_audit,
    flow,
    lipschitz_output_bound,
    lti_delta_iss,
    lti_sd_certificate,
    loop_bounds,
    margin_check,
    max_index_bisection,
    quantize,
    quantize_nearest,
    sd_falsify,
    simulate,
    single_system_bounds,
    symbolic_loop_bounds,
    symbolic_quant_bias,
    verify_gain_assumption,
    verify_lti_passivity,
)
from passquant.bounds import _split
from passquant.cli import main
from passquant.config import bundled_config_path
from passquant.detectability import observability_stack
from passquant.errors import _SHORT, _array
from passquant.linalg import expm, lyap, max_eig, min_eig, quad_sublevel_max, sym_eig

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


def loop_levels(rho=0.5, r_norm=0.0, mu1=0.01, mu2=0.01, d3=None, m=1):
    idx = ComposedIndices(nu=0.1, rho=rho, delta=0.0)
    return loop_bounds(idx, CERT, CERT, np.eye(2), r_norm, mu1, mu2, m, d3=d3)


def symbolic_loop_levels(**values):
    idx = ComposedIndices(nu=0.1, rho=0.5, delta=0.0)
    args = dict(r_norm=0.0, lip=1.0, eps=0.1, mu1=0.01, mu2=0.01, m=1)
    return symbolic_loop_bounds(idx, CERT, CERT, np.eye(2), **{**args, **values})


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
    **{
        f"ComposedIndices.{name}": (
            name, lambda v, name=name: ComposedIndices(**{"nu": 0.1, "rho": 0.5, "delta": 0.0,
                                                          name: v}))
        for name in ("nu", "rho", "delta", "w1", "w2")
    },
    "verify_lti_passivity.nu": ("nu", lambda v: verify_lti_passivity(LTI, I1, v, 0.1)),
    "verify_lti_passivity.rho": ("rho", lambda v: verify_lti_passivity(LTI, I1, 0.1, v)),
    **{
        f"max_index_bisection.{fixed}": (
            "fixed_value", lambda v, fixed=fixed: max_index_bisection(LTI, I1, fixed, v))
        for fixed in ("nu", "rho")
    },
    "margin_check.eta2": ("eta2", lambda v: margin_check(v, np.eye(2), 0.1, I1, 0.1, I1)),
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
        (lambda v: _split(v, 0.5, None), "eta1 = "),
    ],
    ids=["SdCertificate.window", "single_system_bounds.lam", "loop_bounds.eta1"],
)
def test_own_rules_reject_non_finite_values(call, message, value):
    # a rule with its own message fails NaN too.  IndexSet and
    # ComposedIndices reject a non-finite nu themselves, so the eta1 rule
    # is reached through the split that every bound computation shares
    with pytest.raises(ParameterError, match=f"^{message}"):
        call(value)


# case id -> (count name, call with the value in its place)
COUNTS = {
    "LoopConfig.horizon": ("horizon", lambda v: loop(horizon=v)),
    "sd_falsify.trials": (
        "trials", lambda v: sd_falsify(discretize_exact(LTI, 0.3), CERT, trials=v)),
    "degrade_quantization.m": ("m", lambda v: quantization(m=v)),
    "symbolic_quant_bias.m": (
        "m", lambda v: symbolic_quant_bias(0.2, 0.9, 1.0, 0.1, 0.01, 0.01, v)),
    "loop_bounds.m": ("m", lambda v: loop_levels(m=v)),
    "symbolic_loop_bounds.m": ("m", lambda v: symbolic_loop_levels(m=v)),
}


@pytest.mark.parametrize("value", [1.5, 2.0, True, 0, -1, np.int64(0)], ids=repr)
@pytest.mark.parametrize("case", list(COUNTS))
def test_count_must_be_a_positive_integer(case, value):
    name, call = COUNTS[case]
    with pytest.raises(ParameterError, match=rf"^{name} must be a positive integer, got "):
        call(value)


@pytest.mark.parametrize("value", [1, np.int64(2)], ids=repr)
@pytest.mark.parametrize("case", list(COUNTS))
def test_count_takes_python_and_numpy_integers(case, value):
    COUNTS[case][1](value)


Z1 = np.zeros((1, 1))
DISC = discretize_exact(LTI, 0.3)


def controller(x0=(0.0,)):
    return SymbolicController(SampledModel(LTI, 0.3), 0.1, 0.01, x0)


def audit(states=np.zeros((3, 1)), inputs=np.zeros((2, 1)), outputs=np.zeros((2, 1))):
    return dissipation_audit(states, inputs, outputs, I1, IndexSet(0.1, 0.2))


# case id -> (array name, call with the array in its place, a valid array,
# an array of the wrong shape).  The non-finite arrays are the valid one with
# its first entry replaced.
ARRAYS = {
    "LtiModel.a": ("a", lambda v: LtiModel(v, I1, I1, Z1), -I1, np.zeros((1, 2))),
    "LtiModel.b": ("b", lambda v: LtiModel(-I1, v, I1, Z1), I1, np.zeros((2, 1))),
    "LtiModel.c": ("c", lambda v: LtiModel(-I1, I1, v, Z1), I1, np.zeros((1, 2))),
    "LtiModel.d": ("d", lambda v: LtiModel(-I1, I1, I1, v), Z1, np.zeros((1, 2))),
    # a NaN model must not reach the index LMI, whose eigenvalues look finite
    "verify_lti_passivity.model": (
        "a", lambda v: verify_lti_passivity(LtiModel(v, I1, I1, Z1), I1, 0.1, 0.1), I1,
        np.zeros((2, 1))),
    "DiscreteLti.ad": (
        "ad", lambda v: DiscreteLti(v, np.ones((2, 1)), np.ones((1, 2)), Z1), np.eye(2),
        np.zeros((2, 3))),
    # a wrongly sized input matrix must fail when built, not in a later product
    "DiscreteLti.bd": (
        "bd", lambda v: DiscreteLti(np.eye(2), v, np.ones((1, 2)), Z1), np.ones((2, 1)),
        np.ones((3, 1))),
    "DiscreteLti.c": (
        "c", lambda v: DiscreteLti(np.eye(2), np.ones((2, 1)), v, Z1), np.ones((1, 2)),
        np.ones((1, 3))),
    "DiscreteLti.d": (
        "d", lambda v: DiscreteLti(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), v), Z1,
        np.zeros((2, 2))),
    "flow.x0": ("initial state", lambda v: flow(PLANT, v, [0.0], 0.3), [0.3], [0.3, 0.0]),
    "flow.u": ("input", lambda v: flow(PLANT, [0.3], v, 0.3), [0.0], [0.0, 0.0]),
    # a NaN start must fail when the loop is built, not diverge at step 0
    **{
        f"LoopConfig.{name}": (
            name, lambda v, name=name: simulate(loop(**{name: v})), np.zeros(1), np.zeros(2))
        for name in ("x1_0", "x2_0", "x2s_0", "r1", "r2")
    },
    "Trajectory.storage_values": (
        "storage matrix", lambda v: simulate(loop()).storage_values(v), np.eye(2), np.eye(3)),
    "lti_delta_iss.b": ("b", lambda v: lti_delta_iss(-I1, v), I1, np.ones((2, 1))),
    "SymbolicController.x0": ("x0", lambda v: controller(v), [0.0], [0.0, 0.0]),
    "SymbolicController.step": ("u", lambda v: controller().step(v), [0.0], [0.0, 0.0]),
    "SymbolicController.output": ("u", lambda v: controller().output(v), [0.0], [0.0, 0.0]),
    "verify_lti_passivity.storage": (
        "storage matrix", lambda v: verify_lti_passivity(LTI, v, 0.1, 0.1), I1, np.eye(2)),
    "max_index_bisection.storage": (
        "storage matrix", lambda v: max_index_bisection(LTI, v, "rho", 0.1), I1, np.eye(2)),
    "verify_gain_assumption.beta_matrix": (
        "beta matrix", lambda v: verify_gain_assumption(LTI, GainCertificate(0.2, v)), I1,
        np.eye(2)),
    # a NaN state must not turn into a NaN violation
    "dissipation_audit.states": (
        "states", lambda v: audit(states=v), np.zeros((3, 1)), np.zeros((4, 1))),
    "dissipation_audit.inputs": (
        "inputs", lambda v: audit(inputs=v), np.zeros((2, 1)), np.zeros(2)),
    "dissipation_audit.outputs": (
        "outputs", lambda v: audit(outputs=v), np.zeros((2, 1)), np.zeros((2, 2))),
    "check_sd_certificate.mp": (
        "Mp", lambda v: check_sd_certificate(DISC, SdCertificate(0, 0.5, v)), I1, np.eye(2)),
    "sd_falsify.mp": (
        "Mp", lambda v: sd_falsify(DISC, SdCertificate(0, 0.5, v), trials=1), I1, np.eye(2)),
    "margin_check.mp": (
        "Mp", lambda v: margin_check(0.5, v, 0.1, I1, 0.1, I1), np.eye(2), np.eye(3)),
    "margin_check.mbeta1": (
        "mbeta1", lambda v: margin_check(0.5, np.eye(2), 0.1, v, 0.1, I1), I1,
        np.zeros((1, 1, 1))),
    "margin_check.mbeta2": (
        "mbeta2", lambda v: margin_check(0.5, np.eye(2), 0.1, I1, 0.1, v), I1,
        np.zeros((1, 1, 1))),
    # no NaN matrix may reach an eigenvalue routine
    "min_eig": ("matrix", min_eig, I1, np.zeros((1, 2))),
    "max_eig": ("matrix", max_eig, I1, np.zeros(2)),
    "sym_eig": ("matrix", sym_eig, I1, np.zeros((2, 1))),
    "expm": ("matrix", expm, I1, np.zeros((1, 2))),
    "quad_sublevel_max.m_form": (
        "M", lambda v: quad_sublevel_max(v, I1, 1.0), I1, np.zeros((1, 2))),
    "quad_sublevel_max.p_form": (
        "P", lambda v: quad_sublevel_max(I1, v, 1.0), I1, np.eye(2)),
    "lyap.a": ("A", lambda v: lyap(v, I1), -I1, np.zeros((1, 2))),
    "lyap.q": ("Q", lambda v: lyap(-I1, v), I1, np.eye(2)),
}


@pytest.mark.parametrize("case", list(ARRAYS))
def test_valid_array_is_accepted(case):
    _, call, valid, _ = ARRAYS[case]
    call(valid)


@pytest.mark.parametrize("case", list(ARRAYS))
def test_wrongly_shaped_array_names_the_parameter(case):
    name, call, _, wrong = ARRAYS[case]
    with pytest.raises(DimensionError, match=rf"^{name} must have shape \(.*\), got \("):
        call(wrong)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("case", list(ARRAYS))
def test_non_finite_array_names_the_parameter(case, value):
    name, call, valid, _ = ARRAYS[case]
    array = np.array(valid, dtype=float)
    array.flat[0] = value
    with pytest.raises(ParameterError, match=rf"^{name} must be finite$"):
        call(array)


# case id -> (name, call with the value in its place)
NONNEGATIVE_INTEGERS = {
    "LoopConfig.seed": ("seed", lambda v: loop(seed=v)),
    "sd_falsify.seed": ("seed", lambda v: sd_falsify(DISC, CERT, trials=1, seed=v)),
    "SdCertificate.window": ("window", lambda v: SdCertificate(v, 0.5, I1)),
    "observability_stack.window": ("window", lambda v: observability_stack(DISC, v)),
    "lti_sd_certificate.window": ("window", lambda v: lti_sd_certificate(DISC, v)),
}


@pytest.mark.parametrize("value", [1.5, 2.0, True, -1, np.int64(-1)], ids=repr)
@pytest.mark.parametrize("case", list(NONNEGATIVE_INTEGERS))
def test_nonnegative_integer_rule(case, value):
    name, call = NONNEGATIVE_INTEGERS[case]
    with pytest.raises(ParameterError, match=rf"^{name} must be a nonnegative integer, got "):
        call(value)


@pytest.mark.parametrize("value", [0, 2, np.int64(1)], ids=repr)
@pytest.mark.parametrize("case", list(NONNEGATIVE_INTEGERS))
def test_nonnegative_integer_takes_python_and_numpy_integers(case, value):
    NONNEGATIVE_INTEGERS[case][1](value)


# case id -> (argument name, call with the value in its place, a value of a
# kind the call does not take)
TYPES = {
    "LoopConfig.plant": ("plant", lambda v: loop(plant=v), DISC),
    "LoopConfig.controller": ("controller", lambda v: loop(controller=v), object()),
    "verify_lti_passivity": ("model", lambda v: verify_lti_passivity(v, I1, 0.1, 0.1), PLANT),
    "max_index_bisection": ("model", lambda v: max_index_bisection(v, I1, "rho", 0.1), PLANT),
    "observability_stack": ("system", lambda v: observability_stack(v, 0), LTI),
    "lti_sd_certificate": ("system", lambda v: lti_sd_certificate(v, 0), LTI),
    "check_sd_certificate": ("system", lambda v: check_sd_certificate(v, CERT), LTI),
    "lipschitz_output_bound": ("model", lipschitz_output_bound, DISC),
    "discretize_exact": ("model", lambda v: discretize_exact(v, 0.3), PLANT),
    "verify_gain_assumption": (
        "model", lambda v: verify_gain_assumption(v, GainCertificate(0.2, I1)), DISC),
    "SampledModel": ("source", lambda v: SampledModel(v, 0.3), object()),
    "SymbolicController": ("model", lambda v: SymbolicController(v, 0.1, 0.01, [0.0]), LTI),
    "NonlinearModel.rhs": ("rhs", lambda v: NonlinearModel(1, 1, rhs=v, h1=lambda x: x), None),
    "NonlinearModel.rhs list": (
        "rhs", lambda v: NonlinearModel(1, 1, rhs=v, h1=lambda x: x), ["-x0"]),
    "NonlinearModel.h1": ("h1", lambda v: NonlinearModel(1, 1, rhs=("-x0",), h1=v), None),
    "NonlinearModel.h2": (
        "h2", lambda v: NonlinearModel(1, 1, rhs=("-x0",), h1=lambda x: x, h2=v), 0.5),
}


@pytest.mark.parametrize("case", list(TYPES))
def test_wrong_model_type_names_the_argument(case):
    name, call, wrong = TYPES[case]
    message = rf"^{name} must be \w+( or \w+)*, got {type(wrong).__name__}$"
    with pytest.raises(ParameterError, match=message):
        call(wrong)


# case id -> (quantity the formula computes, call with a finite value whose
# square or product overflows in place of one argument)
HUGE = 1e300
OVERFLOWS = {
    "degrade_sampling.tau": ("nu'", lambda: sampling(tau=HUGE)),
    "degrade_sampling.gamma": ("nu'", lambda: sampling(gamma=HUGE)),
    "degrade_quantization.mu1": ("delta~", lambda: quantization(mu1=HUGE)),
    "degrade_quantization.mu2": ("delta~", lambda: quantization(mu2=HUGE)),
    "symbolic_quant_bias.eps": (
        "delta~", lambda: symbolic_quant_bias(0.2, 0.9, 1.0, HUGE, 0.01, 0.01, 2)),
    "symbolic_quant_bias.mu1": (
        "delta~", lambda: symbolic_quant_bias(0.2, 0.9, 1.0, 0.1, HUGE, 0.01, 2)),
    "single_system_bounds.u_norm": (
        "c2", lambda: single_system_bounds(IndexSet(0.1, 0.5), CERT, I1, HUGE)),
    "loop_bounds.r_norm": ("d1", lambda: loop_levels(r_norm=HUGE)),
    "loop_bounds.mu1": ("d2", lambda: loop_levels(mu1=HUGE)),
    "loop_bounds.mu2": ("d2", lambda: loop_levels(mu2=HUGE)),
    "symbolic_loop_bounds.eps": ("d2", lambda: symbolic_loop_levels(eps=HUGE)),
    "symbolic_loop_bounds.mu1": ("d2", lambda: symbolic_loop_levels(mu1=HUGE)),
    # lip * eps overflows through ``*`` in each caller of the twin radius
    "symbolic_quant_bias.lip": (
        "twin radius", lambda: symbolic_quant_bias(0.2, 0.9, 1e10, HUGE, 0.01, 0.01, 2)),
    "symbolic_loop_bounds.lip": (
        "twin radius", lambda: symbolic_loop_levels(lip=1e10, eps=HUGE)),
    "simulate.eps": ("twin radius", lambda: simulate(loop(
        controller=LtiModel(-I1, I1, 1e10 * I1, np.zeros((1, 1))),
        mode="disturbance-injected", eta=None, eps=HUGE))),
    # a finite entry whose ratio to a grid pitch overflows, through ``/``
    "quantize.mu": ("s/mu", lambda: quantize(np.array([1.0, -0.5]), 1e-310)),
    "quantize.mu.negative": ("s/mu", lambda: quantize(np.array([0.0, -0.5]), 1e-310)),
    "quantize_nearest.eta": ("s/eta", lambda: quantize_nearest(np.array([1.0, -0.5]), 1e-310)),
    "quantize_nearest.eta.negative": (
        "s/eta", lambda: quantize_nearest(np.array([0.0, -0.5]), 1e-310)),
    "SymbolicController.step.mu": ("u/mu", lambda: SymbolicController(
        SampledModel(LTI, 0.3), 0.1, 1e-310, [0.0]).step([1.0])),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_overflow_names_the_quantity(case):
    name, call = OVERFLOWS[case]
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} overflows the float range$"):
        call()


def test_cli_reports_an_overflow(capsys, tmp_path):
    with open(bundled_config_path("example2")) as fh:
        doc = json.load(fh)
    doc["quantization"]["mu1"] = HUGE
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["degrade", "--config", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"] == "delta~ overflows the float range"
    assert report["failures"] == [report["error"]]


@pytest.mark.parametrize("name, section, key, command, quantity", [
    ("loop_a", "quantization", "mu1", "bound", "s/mu"),
    ("loop_a", "quantization", "mu1", "simulate", "s/mu"),
    ("example5", "symbolic", "eta", "simulate", "s/eta"),
])
def test_cli_reports_a_grid_ratio_overflow(capsys, tmp_path, name, section, key, command,
                                           quantity):
    # a tiny pitch passes the scalar rule, and the first quantized sample overflows
    with open(bundled_config_path(name)) as fh:
        doc = json.load(fh)
    doc[section][key] = 1e-310
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(path), "--format", "json", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 1
    assert set(report) == {"command", "error", "failures"}
    assert report["error"] == f"{quantity} overflows the float range"
    assert report["failures"] == [report["error"]]
    assert "Traceback" not in err


# sizes on both sides of the cutoff up to which the array rule tests an
# array's entries as Python floats, in 0, 1 and 2 dimensions
@pytest.mark.parametrize("shape", [(), (1,), (2,), (_SHORT,), (_SHORT + 1,), (64,), (2, 2),
                                   (4, _SHORT // 4), (3, 11), (3, 17)])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_array_rule_finds_a_non_finite_entry_anywhere(shape, value):
    valid = np.arange(-1.0, np.prod(shape) - 1.0).reshape(shape)
    valid.flat[0], valid.flat[-1] = -np.finfo(float).max, np.finfo(float).max  # these pass
    assert np.array_equal(_array(valid, "a", shape), valid)
    for i in range(valid.size):
        array = valid.copy()
        array.flat[i] = value
        with pytest.raises(ParameterError, match=r"^a must be finite$"):
            _array(array, "a", shape)
        with pytest.raises(ParameterError, match=r"^a must be finite$"):
            _array(array.tolist(), "a", shape)


# the hand-written tests the three rules replace: a sign test of a scalar, a
# shape test of an array and a type test of a model
HAND_WRITTEN = re.compile(
    r"if .*(<=? ?0(\.0)?|< ?1(\.0)?)( or|:)|\.shape *(!=|==)|\.ndim|shape\[[01]\] *!="
    r"|if not isinstance\("
    r"|raise \w+Error\(.*(unsupported .*type|must be an? (LtiModel|DiscreteLti|NonlinearModel))"
)
# errors.py holds the rules and config.py its own path-naming parsers; the
# size test of what a model's callback returns stays in systems._values, since
# a non-finite value during integration is divergence, not a bad argument
RULE_FREE = {"errors.py", "config.py"}
CALLBACK_CHECKS = {("systems.py", "_values")}


def _source_lines(path):
    """``(line number, line, names of the functions around it)`` for every
    line of a package module."""
    source = path.read_text(encoding="utf-8")
    functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
    for number, line in enumerate(source.splitlines(), 1):
        yield number, line, {node.name for node in functions
                             if node.lineno <= number <= node.end_lineno}


def test_parameters_are_checked_by_the_rules_only():
    offending = []
    for path in sorted(Path(passquant.__file__).parent.glob("*.py")):
        if path.name in RULE_FREE:
            continue
        for number, line, owners in _source_lines(path):
            if HAND_WRITTEN.search(line) and not {(path.name, f) for f in owners} & CALLBACK_CHECKS:
                offending.append(f"{path.name}:{number}: {line.strip()}")
    assert not offending, "hand-written checks outside errors.py:\n" + "\n".join(offending)


def test_only_sim_decides_what_a_mode_means():
    # sim defines the loop modes: the CLI and the config compare no mode,
    # and the twin's Lipschitz bound is asked for once, in sim._twin
    package = Path(passquant.__file__).parent
    compared = [
        f"{name}:{number}: {line.strip()}" for name in ("cli.py", "config.py")
        for number, line, _ in _source_lines(package / name) if re.search(r"mode *(==|!=)", line)
    ]
    assert not compared, "mode tests outside sim.py:\n" + "\n".join(compared)
    uses = [
        (path.name, line.strip().startswith("def "), owners)
        for path in sorted(package.glob("*.py"))
        for _, line, owners in _source_lines(path) if "lipschitz_output_bound(" in line
    ]
    assert uses == [("abstraction.py", True, {"lipschitz_output_bound"}),
                    ("sim.py", False, {"_twin"})]
