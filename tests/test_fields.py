"""The fields of the loop description, the recorded run and the analysis
configuration, each table in declaration order.

A field is a setting someone must be able to set or a signal someone reads.
A new field fails this test until it is added here, where a reviewer sees
it; a recorded signal is listed with what reads it.
"""

import dataclasses

from passquant import AnalysisConfig, LoopConfig, Trajectory

LOOP_CONFIG = (
    "plant", "controller", "mode", "tau", "mu1", "mu2", "horizon", "x1_0", "x2_0",
    "eta", "eps", "x2s_0", "r1", "r2", "seed",
)

# recorded signal -> what reads it
TRAJECTORY = {
    "x1": "loop_states (storage values, CSV, final_state_sup), SweepPoint",
    "x2": "loop_states outside symbolic mode; the shadow state in symbolic mode",
    **dict.fromkeys(
        ["u1", "u2_tilde", "u2", "y1", "y2", "y2_tilde"],
        "to_csv columns, which the audit command reads back",
    ),
    "x2s": "loop_states in symbolic mode, SweepPoint",
}

ANALYSIS_CONFIG = (
    "plant", "controller", "tau", "mu1", "mu2", "eta", "eps", "eta_sweep", "lambdas",
    "nu_hat", "lam", "d3", "c5", "r1", "r2", "horizon", "x1_0", "x2_0", "x2s_0", "seed",
    "mode", "trials", "storage_plant", "storage_controller", "storage_tau_scaled",
)


def names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def test_loop_config_fields():
    assert names(LoopConfig) == LOOP_CONFIG


def test_trajectory_fields():
    assert names(Trajectory) == tuple(TRAJECTORY)


def test_analysis_config_fields():
    assert names(AnalysisConfig) == ANALYSIS_CONFIG


def test_loop_settings_are_analysis_config_fields():
    # the CLI builds a LoopConfig from the AnalysisConfig fields of the same name
    assert set(LOOP_CONFIG) - {"plant", "controller"} <= set(ANALYSIS_CONFIG)
