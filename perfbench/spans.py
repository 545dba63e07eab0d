"""In-memory span tracer installed around passquant's public functions.

Each wrapper records one span ``(name, start, end, parent, unit)`` per call
and keeps optional per-call counts (RK4 substeps, falsification trials,
simulated steps, ...).  Spans stay in memory and are written out once, when
the run ends.  Wrappers are installed on the module attribute the calling
code looks up, so names bound by ``from .x import y`` are patched in the
importing module as well.
"""

import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _flow_substeps(args, kwargs, result):
    return {"rk4_substeps": int(kwargs.get("substeps", args[4] if len(args) > 4 else 64))}


def _simulate_steps(args, kwargs, result):
    return {"steps": int(result.horizon)}


def _falsify_trials(args, kwargs, result):
    return {"trials": int(kwargs.get("trials", args[2] if len(args) > 2 else 10000))}


def _discretize_key(args, kwargs, result):
    model, tau = args[0], args[1]
    key = (model.a.tobytes(), model.b.tobytes(), float(tau))
    return {"key": hash(key)}


def _bisection_clip(args, kwargs, result):
    return {"clipped": int(result == 10.0)}


def _audit_size(args, kwargs, result):
    # dissipation_audit documents that it audits at most the first 500 steps
    # and builds the (K+1) x (K+1) float64 matrix of window pairs
    k = min(np.asarray(args[1]).shape[0], 500)
    return {"steps_audited": k, "bytes_computed": (k + 1) * (k + 1) * 8}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, per-call counter).  ``module`` is the
# passquant submodule whose namespace the calling code reads; a dotted
# attribute names a method on a class of that module.
PATCHES = [
    ("config", "load_config", "config.load_config", None),
    ("cli", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
    ("systems", "flow", "systems.flow", _flow_substeps),
    ("systems", "discretize_exact", "systems.discretize_exact", _discretize_key),
    ("cli", "discretize_exact", "systems.discretize_exact", _discretize_key),
    ("systems", "quantize", "systems.quantize", None),
    ("sim", "quantize", "systems.quantize", None),
    ("sim", "SampledModel", "systems.SampledModel", None),
    ("abstraction", "quantize_nearest", "abstraction.quantize_nearest", None),
    ("abstraction", "SymbolicController.step", "abstraction.SymbolicController.step", None),
    ("abstraction", "SymbolicController.output", "abstraction.SymbolicController.output", None),
    ("passivity", "max_index_bisection", "passivity.max_index_bisection", _bisection_clip),
    ("passivity", "dissipation_audit", "passivity.dissipation_audit", _audit_size),
    ("detectability", "lti_sd_certificate", "detectability.lti_sd_certificate", None),
    ("detectability", "check_sd_certificate", "detectability.check_sd_certificate", None),
    ("detectability", "sd_falsify", "detectability.sd_falsify", _falsify_trials),
    ("bounds", "loop_bounds", "bounds.loop_bounds", None),
    ("bounds", "margin_check", "bounds.margin_check", None),
    ("sim", "simulate", "sim.simulate", _simulate_steps),
    ("sim", "Trajectory.to_csv", "sim.Trajectory.to_csv", _csv_bytes),
    ("sim", "Trajectory.storage_values", "sim.Trajectory.storage_values", None),
    ("sim", "ultimate_bound_audit", "sim.ultimate_bound_audit", None),
    ("linalg", "sym_eig", "linalg.sym_eig", None),
    ("linalg", "min_eig", "linalg.min_eig", None),
    ("linalg", "max_eig", "linalg.max_eig", None),
    ("linalg", "expm", "linalg.expm", None),
]

# Span names each workload must hit.  A wrapper whose count stays at zero
# where it is expected sits under a name the code no longer looks up.
EXPECTED = {
    "cli-sweep": {
        ("cli", "load_config"), ("cli", "main"), ("systems", "flow"),
        ("systems", "discretize_exact"), ("cli", "discretize_exact"),
        ("sim", "quantize"), ("sim", "SampledModel"),
        ("abstraction", "quantize_nearest"),
        ("abstraction", "SymbolicController.step"),
        ("abstraction", "SymbolicController.output"),
        ("passivity", "dissipation_audit"),
        ("detectability", "lti_sd_certificate"),
        ("detectability", "check_sd_certificate"),
        ("detectability", "sd_falsify"), ("bounds", "loop_bounds"),
        ("bounds", "margin_check"), ("sim", "simulate"),
        ("sim", "Trajectory.to_csv"), ("sim", "Trajectory.storage_values"),
        ("sim", "ultimate_bound_audit"), ("linalg", "sym_eig"),
        ("linalg", "min_eig"), ("linalg", "expm"),
    },
    "symbolic-loop": {
        ("config", "load_config"), ("systems", "flow"),
        ("systems", "discretize_exact"), ("sim", "quantize"),
        ("sim", "SampledModel"), ("abstraction", "quantize_nearest"),
        ("abstraction", "SymbolicController.step"),
        ("abstraction", "SymbolicController.output"),
        ("detectability", "sd_falsify"), ("sim", "simulate"),
        ("sim", "Trajectory.storage_values"), ("sim", "ultimate_bound_audit"),
        ("linalg", "expm"),
    },
    "lti-certify": {
        ("config", "load_config"), ("systems", "discretize_exact"),
        ("sim", "quantize"), ("sim", "SampledModel"),
        ("passivity", "max_index_bisection"), ("passivity", "dissipation_audit"),
        ("detectability", "lti_sd_certificate"),
        ("detectability", "check_sd_certificate"),
        ("detectability", "sd_falsify"), ("bounds", "loop_bounds"),
        ("bounds", "margin_check"), ("sim", "simulate"),
        ("sim", "Trajectory.to_csv"), ("sim", "Trajectory.storage_values"),
        ("sim", "ultimate_bound_audit"), ("linalg", "sym_eig"),
        ("linalg", "max_eig"), ("linalg", "min_eig"), ("linalg", "expm"),
    },
}


class Tracer:
    """Records spans and per-call counts; ``unit`` tags spans with a unit id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, unit, counts]
        self.hits = Counter()  # (module, attribute) -> calls
        self.unit = None
        self._stack = []
        self._restore = []

    def wrap(self, patch_key, name, fn, counter):
        spans, stack, hits = self.spans, self._stack, self.hits

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            hits[patch_key] += 1
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Patch every entry of PATCHES; a missing attribute raises."""
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(f"{package}.{module_name}")
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self.wrap((module_name, attr), name, original, counter))
            self._restore.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def check_expected(self, workload):
        missing = sorted(
            f"{m}.{a}" for m, a in EXPECTED[workload] if self.hits[(m, a)] == 0
        )
        if missing:
            raise RuntimeError(
                f"traced wrappers never called on {workload}: {', '.join(missing)}; "
                "the code no longer looks these names up"
            )

    def extend(self, spans, unit):
        """Append spans recorded by another process, re-tagged with ``unit``."""
        base = len(self.spans)
        for name, start, end, parent, _, counts in spans:
            parent = parent + base if parent >= 0 else parent
            self.spans.append([name, start, end, parent, unit, counts])

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, unit, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit, "counts": counts,
                }) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover, per span."""
    child_time = defaultdict(float)
    for name, start, end, parent, unit, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def nearest_ancestor(spans, idx, name):
    """Index of the nearest ancestor of span ``idx`` called ``name`` or -1."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1


# linalg eigenvalue calls counted against the certificate routine that made them
EIG_OWNERS = {
    "linalg.min_eig": "detectability.lti_sd_certificate.eig_evals",
    "linalg.max_eig": "passivity.max_index_bisection.feasibility_evals",
}


def eig_owner(spans, idx):
    """Counter name for an eig span inside its owning routine, else None."""
    key = EIG_OWNERS.get(spans[idx][0])
    if key and nearest_ancestor(spans, idx, key.rsplit(".", 1)[0]) >= 0:
        return key
    return None


def layer_metrics(spans):
    """Aggregate spans into the per-layer metrics named in BENCHMARK.json."""
    calls = Counter()
    busy = defaultdict(float)
    totals = Counter()
    own = self_times(spans)
    self_busy = defaultdict(float)
    keys = set()
    disc_calls = 0
    for i, (name, start, end, parent, unit, counts) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        self_busy[name] += own[i]
        for key, value in (counts or {}).items():
            if key == "key":
                keys.add(value)
                disc_calls += 1
            else:
                totals[(name, key)] += value

    evals = Counter(eig_owner(spans, i) for i in range(len(spans)))

    sym_calls = calls["abstraction.SymbolicController.step"] + calls["abstraction.SymbolicController.output"]
    m = {
        "config.load_config.calls": (calls["config.load_config"], "count"),
        "config.load_config.busy_s": (busy["config.load_config"], "s"),
        "cli.main.self_s": (self_busy["cli.main"], "s"),
        "systems.flow.calls": (calls["systems.flow"], "count"),
        "systems.flow.busy_s": (busy["systems.flow"], "s"),
        "systems.flow.us_per_call": (
            1e6 * busy["systems.flow"] / calls["systems.flow"] if calls["systems.flow"] else 0.0, "us"),
        "systems.rk4_substeps": (totals[("systems.flow", "rk4_substeps")], "count"),
        "systems.discretize_exact.calls": (disc_calls, "count"),
        "systems.discretize_exact.busy_s": (busy["systems.discretize_exact"], "s"),
        "systems.discretize_exact.distinct_ratio": (
            len(keys) / disc_calls if disc_calls else 0.0, "ratio"),
        "systems.quantize.calls": (calls["systems.quantize"], "count"),
        "systems.quantize.busy_s": (busy["systems.quantize"], "s"),
        "abstraction.SymbolicController.calls": (sym_calls, "count"),
        "abstraction.SymbolicController.step.busy_s": (busy["abstraction.SymbolicController.step"], "s"),
        "abstraction.SymbolicController.output.busy_s": (busy["abstraction.SymbolicController.output"], "s"),
        "abstraction.quantize_nearest.calls": (calls["abstraction.quantize_nearest"], "count"),
        "passivity.max_index_bisection.busy_s": (busy["passivity.max_index_bisection"], "s"),
        "passivity.max_index_bisection.feasibility_evals": (
            evals["passivity.max_index_bisection.feasibility_evals"], "count"),
        "passivity.max_index_bisection.clipped": (
            totals[("passivity.max_index_bisection", "clipped")], "count"),
        "passivity.dissipation_audit.busy_s": (busy["passivity.dissipation_audit"], "s"),
        "passivity.dissipation_audit.steps_audited": (
            totals[("passivity.dissipation_audit", "steps_audited")], "count"),
        "passivity.dissipation_audit.bytes_computed": (
            totals[("passivity.dissipation_audit", "bytes_computed")], "B"),
        "detectability.lti_sd_certificate.busy_s": (busy["detectability.lti_sd_certificate"], "s"),
        "detectability.lti_sd_certificate.eig_evals": (
            evals["detectability.lti_sd_certificate.eig_evals"], "count"),
        "detectability.check_sd_certificate.busy_s": (busy["detectability.check_sd_certificate"], "s"),
        "detectability.sd_falsify.busy_s": (busy["detectability.sd_falsify"], "s"),
        "detectability.sd_falsify.trials": (totals[("detectability.sd_falsify", "trials")], "count"),
        "bounds.loop_bounds.busy_s": (busy["bounds.loop_bounds"], "s"),
        "bounds.margin_check.busy_s": (busy["bounds.margin_check"], "s"),
        "sim.simulate.steps": (totals[("sim.simulate", "steps")], "count"),
        "sim.simulate.busy_s": (busy["sim.simulate"], "s"),
        "sim.simulate.self_s": (self_busy["sim.simulate"], "s"),
        "sim.Trajectory.to_csv.busy_s": (busy["sim.Trajectory.to_csv"], "s"),
        "sim.Trajectory.to_csv.bytes": (totals[("sim.Trajectory.to_csv", "bytes")], "B"),
        "sim.Trajectory.storage_values.busy_s": (busy["sim.Trajectory.storage_values"], "s"),
        "sim.ultimate_bound_audit.busy_s": (busy["sim.ultimate_bound_audit"], "s"),
        "linalg.sym_eig.calls": (calls["linalg.sym_eig"], "count"),
        "linalg.sym_eig.busy_s": (busy["linalg.sym_eig"], "s"),
        "linalg.expm.calls": (calls["linalg.expm"], "count"),
        "linalg.expm.busy_s": (busy["linalg.expm"], "s"),
    }
    return m


def unit_counts(spans):
    """Computed counts per unit id: work that must repeat exactly for the
    same inputs (substeps, eig calls per certificate, steps, audit size)."""
    per_unit = defaultdict(Counter)
    for i, (name, start, end, parent, unit, counts) in enumerate(spans):
        if unit is None:
            continue
        c = per_unit[unit]
        for key, value in (counts or {}).items():
            # the CSV size depends on the simulated values, not only the sizes
            if key != "key" and name != "sim.Trajectory.to_csv":
                c[f"{name}.{key}"] += value
        owner = eig_owner(spans, i)
        if owner:
            c[owner] += 1
        if name in ("detectability.lti_sd_certificate", "passivity.max_index_bisection"):
            c[f"{name}.calls"] += 1
    return per_unit
