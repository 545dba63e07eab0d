"""Every public name of the package, with the module that defines it.

A name added to or deleted from the public API fails this test until the
table below is edited, where a reviewer sees it.
"""

import importlib
import inspect
import pkgutil

import passquant

# name exported by ``passquant`` -> the module that defines it
EXPORTS = {
    **dict.fromkeys(
        ["DeltaIssBound", "SymbolicController", "check_bisim_params",
         "lipschitz_output_bound", "lti_delta_iss"], "abstraction"),
    **dict.fromkeys(
        ["BoundReport", "loop_bounds", "margin_check", "single_system_bounds",
         "symbolic_loop_bounds"], "bounds"),
    **dict.fromkeys(
        ["AnalysisConfig", "load_config", "parse_config", "registered_models"], "config"),
    **dict.fromkeys(
        ["SdCertificate", "check_sd_certificate", "compose_sd", "lti_sd_certificate",
         "sd_falsify"], "detectability"),
    **dict.fromkeys(
        ["CertificateError", "ConfigError", "ContractViolationError", "DimensionError",
         "DivergenceError", "NotDetectableError", "ParameterError", "ToolkitError",
         "WellPosednessError"], "errors"),
    **dict.fromkeys(
        ["ComposedIndices", "GainCertificate", "IndexSet", "LambdaChoices", "Verdict",
         "choose_nu_hat", "compose_feedback", "degrade_quantization", "degrade_sampling",
         "dissipation_audit", "max_index_bisection", "symbolic_quant_bias",
         "verify_gain_assumption", "verify_lti_passivity"], "passivity"),
    **dict.fromkeys(
        ["LoopConfig", "Trajectory", "simulate", "ultimate_bound_audit"], "sim"),
    **dict.fromkeys(
        ["DiscreteLti", "LtiModel", "NonlinearModel", "SampledModel", "discretize_exact",
         "flow", "quantize", "quantize_nearest"], "systems"),
}


def test_every_export_is_listed_with_its_module():
    found = {
        name: obj.__module__.removeprefix("passquant.")
        for name, obj in vars(passquant).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert found == EXPORTS


def test_every_name_in_a_module_all_exists():
    for info in pkgutil.iter_modules(passquant.__path__):
        module = importlib.import_module(f"passquant.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
