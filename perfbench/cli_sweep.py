"""Workload ``cli-sweep``: every CLI command on every bundled config.

Each call is a fresh ``python3 -m passquant.cli --format json`` process
(or, when traced, the benchmark's ``cli_traced.py``).  Pairs that fail only
because the config lacks a section the command needs are left out; pairs
with a real failing verdict (example5 ``bound``) stay in.  Every call's exit
code, ``failures`` list and report fields are compared with the verdicts
recorded from the seed code in ``expected_cli.json``.

Run ``python3 perfbench/cli_sweep.py`` from the repository root to record
``expected_cli.json`` again; do so only when a change of verdict is meant.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_cli.json"

CONFIGS = ["example1", "example2", "example5", "loop_a", "loop_b", "loop_c"]
COMMANDS = ["degrade", "compose", "sd", "bound", "abstract-check", "simulate", "audit"]
# (config, command) pairs whose only failure is a missing config section
MISSING_SECTION = {
    ("example1", "compose"), ("example1", "bound"), ("example1", "abstract-check"),
    ("example1", "simulate"), ("example1", "audit"),
    ("example2", "compose"), ("example2", "abstract-check"),
    ("example2", "simulate"), ("example2", "audit"),
    ("loop_a", "abstract-check"), ("loop_b", "abstract-check"),
    ("loop_c", "abstract-check"),
}
PAIRS = [(c, k) for c in CONFIGS for k in COMMANDS if (c, k) not in MISSING_SECTION]
# report fields that name run-specific paths or depend on the --seed draw
UNCHECKED = {"csv", "trajectory", "worst_ratio"}


def config_path(src, name):
    return str(Path(src) / "passquant" / "configs" / f"{name}.json")


def argv_for(src, out_dir, cfg, cmd, seed):
    argv = [cmd, "--config", config_path(src, cfg), "--format", "json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if cmd == "simulate":
        argv += ["--out", str(Path(out_dir) / cfg)]
    if cmd == "audit":
        argv += ["--trajectory", str(Path(out_dir) / cfg / "trajectory.csv")]
    return argv


def sweep_order(rng):
    """Seeded permutation of PAIRS with each audit after its simulate."""
    order = [PAIRS[i] for i in rng.permutation(len(PAIRS))]
    for cfg in CONFIGS:
        if (cfg, "audit") in order:
            a, s = order.index((cfg, "audit")), order.index((cfg, "simulate"))
            if a < s:
                order[a], order[s] = order[s], order[a]
    return order


def flatten(report, prefix=""):
    out = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif key not in UNCHECKED:
            out[name] = value
    return out


def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def check_call(expected, code, stdout, stderr):
    """Empty string if the call matches its recorded verdict, else why not."""
    if "Traceback" in stderr or code not in (0, 1):
        return f"exit {code}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if report.get("failures") != expected["failures"]:
        return f"failures {report.get('failures')}, expected {expected['failures']}"
    got = flatten(report)
    for key, want in expected["report"].items():
        if key not in got or not _same(got[key], want):
            return f"{key} = {got.get(key)!r}, expected {want!r}"
    if not _falsifier_ok(report):
        return "sd falsifier found a counterexample"
    return ""


def _falsifier_ok(report):
    def walk(node):
        if isinstance(node, dict):
            if "worst_ratio" in node and node["worst_ratio"] > 1.0 + 1e-9:
                return False
            return all(walk(v) for v in node.values())
        return True

    return walk(report)


def steps_simulated(report):
    """Closed-loop steps a ``simulate`` report accounts for: the main run and
    each eta-sweep run (the short bound prefix is not counted)."""
    return report["horizon"] * (1 + len(report.get("eta_sweep", [])))


def run_calls(ctx, order, traced, result):
    """Run one sweep; append per-call records to ``result``."""
    src = ctx.src
    for cfg, cmd in order:
        seed = int(ctx.rng.integers(0, 2**31 - 1))
        argv = argv_for(src, ctx.out_dir, cfg, cmd, seed)
        trace_file = None
        if traced:
            trace_file = Path(ctx.out_dir) / f"trace-{len(result.units)}.json"
            full = [sys.executable, str(HERE / "cli_traced.py"), src, str(trace_file)] + argv
        else:
            full = [sys.executable, "-m", "passquant.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(full, env=ctx.child_env, cwd=ctx.root,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        why = check_call(ctx.expected[f"{cfg} {cmd}"], proc.returncode, proc.stdout, proc.stderr)
        unit = len(result.units)
        result.add_unit(f"{cfg} {cmd}", wall, why)
        if cmd == "simulate" and not why:
            steps = steps_simulated(json.loads(proc.stdout))
            result.sim.append((f"{cfg} {cmd}", steps, wall))
            result.add_counts(f"{cfg} {cmd}", {"simulated_steps": steps})
        if cmd == "sd" and cfg in ctx.nonlinear_configs:
            result.falsify.append((f"{cfg} {cmd}", ctx.trials[cfg], wall))
        if traced:
            data = json.loads(trace_file.read_text())
            trace_file.unlink()
            result.tracer.extend(data["spans"], unit)
            for m, a, n in data["hits"]:
                result.tracer.hits[(m, a)] += n
            result.imports.append(data["imports"])


def run(ctx, result, traced, seconds):
    """Whole sweeps until ``seconds`` have passed (at least one sweep)."""
    start = time.perf_counter()
    while True:
        run_calls(ctx, sweep_order(ctx.rng), traced, result)
        if time.perf_counter() - start >= seconds:
            break
    result.elapsed += time.perf_counter() - start


def prepare(ctx):
    ctx.expected = json.loads(EXPECTED_PATH.read_text())
    ctx.nonlinear_configs = set()
    ctx.trials = {}
    for cfg in CONFIGS:
        doc = json.loads(Path(config_path(ctx.src, cfg)).read_text())
        if doc.get("plant", {}).get("type") == "registered":
            ctx.nonlinear_configs.add(cfg)
            ctx.trials[cfg] = doc.get("simulation", {}).get("trials", 10000)
    ctx.setup_configs = [config_path(ctx.src, c) for c in CONFIGS]


def record_expected(root):
    """Run every pair once with the configured seeds and store the verdicts."""
    from run import THREAD_VARS

    src = str(root / "src")
    out_dir = root / ".perfbench_out" / "record"
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    expected = {}
    try:
        for cfg, cmd in PAIRS:
            argv = argv_for(src, out_dir, cfg, cmd, None)
            proc = subprocess.run([sys.executable, "-m", "passquant.cli"] + argv, env=env,
                                  cwd=root, capture_output=True, text=True, check=False)
            if proc.returncode not in (0, 1):
                raise SystemExit(f"{cfg} {cmd} crashed:\n{proc.stderr}")
            report = json.loads(proc.stdout)
            expected[f"{cfg} {cmd}"] = {
                "exit": proc.returncode,
                "failures": report["failures"],
                "report": flatten(report),
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_expected(HERE.parent)
