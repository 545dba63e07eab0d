"""Every settable default of the public API, with the caller that sets it.

A parameter with a default that no caller sets is a knob without a caller:
a value that reads as tunable while every run uses the same one. A new
default fails this test until it is added here with the caller that needs it.
"""

import inspect

import passquant

# (function, parameter) -> (default, the caller that sets it)
SETTABLE = {
    ("degrade_sampling", "lambda1"): (10.0, "cli, from config lambdas.lambda1"),
    **{
        (function, f"lambda{i}"): (20.0, f"cli, from config lambdas.lambda{i}")
        for function in ("degrade_quantization", "symbolic_quant_bias")
        for i in (2, 3, 4, 5)
    },
    ("degrade_quantization", "w"): (0.0, "cli, the sampling stage's bias weight"),
    ("degrade_quantization", "twin"): (None, "cli, (lip, eps) of the symbolic twin"),
    ("loop_bounds", "twin"): (None, "cli, (lip, eps) of the symbolic twin"),
    ("dissipation_audit", "bias"): (None, "cli audit, the loop's stacked bias matrix"),
    **{
        (function, "lam"): (None, "cli, from config lambdas.lam")
        for function in ("single_system_bounds", "loop_bounds", "symbolic_loop_bounds")
    },
    **{
        (function, "d3"): (None, "cli, from config lambdas.d3")
        for function in ("loop_bounds", "symbolic_loop_bounds")
    },
    **{
        (function, "v_first"): (None, "cli, storage values of the simulated prefix")
        for function in ("loop_bounds", "symbolic_loop_bounds")
    },
    ("single_system_bounds", "c5"): (None, "cli, from config lambdas.c5"),
    ("single_system_bounds", "p_x0"): (0.0, "cli, Mp at config simulation.x2_0"),
    ("sd_falsify", "trials"): (10000, "cli, from config simulation.trials"),
    ("sd_falsify", "seed"): (0, "cli, from config simulation.seed or --seed"),
}


def test_every_default_is_listed_with_its_caller():
    found = {}
    for name, obj in vars(passquant).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.default is not param.empty:
                found[(name, param.name)] = param.default
    assert found == {key: default for key, (default, _) in SETTABLE.items()}
