"""Per-unit counts and looked-up names under the benchmark tracer.

The benchmark's traced run (``perfbench/run.py``) fails when two units of
one kind make different numbers of eigenvalue calls inside
``lti_sd_certificate`` or ``max_index_bisection``, and when a name it
wraps is never called.  These tests install the same tracer
(``perfbench/spans.py``, loaded read-only from its file): on three seeded
n = 32 systems, one unit each, so a search whose work depends on the
system fails here; and around short loop runs and the CLI's ``bound``, so a
loop or a bound pipeline that binds past a wrapped name fails here, not
only in the benchmark's smoke run.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import passquant
from passquant import LtiModel, discretize_exact, load_config
from passquant.cli import _loop_config
from passquant.config import bundled_config_path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_system(seed, n=32, m=8, tau=0.3):
    """The benchmark's draw: ``A = -Q diag(l) Q' + S`` with ``l`` in
    [0.5, 2] and ``S`` skew, ``D = 0.5 I``, and the storage with
    ``Ad' P Ad - P = -I``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.normal(size=(n, n))
    a = -(q * rng.uniform(0.5, 2.0, n)) @ q.T + 0.5 * (s - s.T)
    b = rng.normal(size=(n, m)) / np.sqrt(n)
    c = rng.normal(size=(m, n)) / np.sqrt(n)
    disc = discretize_exact(LtiModel(a, b, c, 0.5 * np.eye(m)), tau)
    return disc, scipy.linalg.solve_discrete_lyapunov(disc.ad.T, np.eye(n))


def test_certificate_counts_agree_across_systems():
    spans = load_spans()
    systems = [random_system(seed) for seed in (40, 41, 42)]
    tracer = spans.Tracer()
    tracer.install("passquant")
    results = []
    try:
        for unit, (disc, p) in enumerate(systems):
            tracer.unit = unit
            # looked up on the modules, where the tracer wraps them
            results.append((
                passquant.passivity.max_index_bisection(disc, p, "rho", 0.0),
                passquant.detectability.lti_sd_certificate(disc, 25).theta,
            ))
    finally:
        tracer.uninstall()
    # interior results: neither search stopped at an end of its range
    assert all(-10.0 < nu < 10.0 and theta > 1e-9 for nu, theta in results)
    counts = spans.unit_counts(tracer.spans)
    assert counts[0] and counts[0] == counts[1] == counts[2]


# the names a loop run looks up, per bundled config: every entry of the
# benchmark's EXPECTED that sim.simulate reaches
SIMULATE_NAMES = {
    "loop_a": {("sim", "simulate"), ("sim", "quantize"), ("sim", "SampledModel"),
               ("systems", "discretize_exact"), ("linalg", "expm")},
    "example5": {("sim", "simulate"), ("sim", "quantize"), ("sim", "SampledModel"),
                 ("systems", "discretize_exact"), ("linalg", "expm"), ("systems", "flow"),
                 ("abstraction", "quantize_nearest"), ("abstraction", "SymbolicController.step"),
                 ("abstraction", "SymbolicController.output")},
}


# the names the CLI's bound pipeline looks up in every loop mode
BOUND_NAMES = {("bounds", "loop_bounds"), ("bounds", "margin_check")}


@pytest.mark.parametrize("name", sorted(SIMULATE_NAMES))
def test_loop_run_looks_up_every_traced_name(name, capsys):
    spans = load_spans()
    expected = set().union(*spans.EXPECTED.values())
    assert SIMULATE_NAMES[name] | BOUND_NAMES <= expected
    path = bundled_config_path(name)
    loop = _loop_config(replace(load_config(path), horizon=20))
    tracer = spans.Tracer()
    tracer.install("passquant")
    try:
        # looked up on the modules, where the tracer wraps them
        passquant.sim.simulate(loop)
        simulate_hits = dict(tracer.hits)
        passquant.cli.main(["bound", "--config", path, "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert sorted(key for key in SIMULATE_NAMES[name] if key not in simulate_hits) == []
    if name == "example5":
        # the twin's table answers behind the traced methods: one call each
        # per step, so the benchmark's per-layer twin counters keep their unit
        twin = [("abstraction", f"SymbolicController.{method}") for method in ("step", "output")]
        assert [simulate_hits[key] for key in twin] == [loop.horizon] * 2
    assert sorted(key for key in BOUND_NAMES if tracer.hits[key] == 0) == []


def test_sampled_model_built_before_the_tracer_steps_through_its_flow():
    # a SampledModel looks flow up on every step, so one built before the
    # tracer is installed still feeds the benchmark's flow counters
    cfg = load_config(bundled_config_path("example5"))
    sampled = passquant.SampledModel(cfg.plant.model, cfg.tau)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install("passquant")
    try:
        for hits, (x, u) in enumerate(np.random.default_rng(3).uniform(-1, 1, (5, 2, 2)), 1):
            sampled.step(x, u)
            assert tracer.hits[("systems", "flow")] == hits
    finally:
        tracer.uninstall()
