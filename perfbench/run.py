"""passquant benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {cli-sweep,symbolic-loop,lti-certify}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

One client drives the program in a closed loop: the next unit starts when
the previous one has finished.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half with span
wrappers installed, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs every workload at minimal
length in both modes and asserts that every metric named in
BENCHMARK.json is emitted with its unit.  See README.md beside this file.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is imported, here and in children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-sweep", "symbolic-loop", "lti-certify")
SETUP_PROBES = 7
# printed beside the JSON record with --trace 0, without a bound
INFO_METRICS = ("turnaround_p50_s", "units_per_s", "sim_step_us", "falsify_trials_per_s")


class Result:
    """Everything one measured phase produced."""

    def __init__(self, tracer=None):
        self.units = []  # (kind, seconds, failure or "", notes)
        self.sim = []  # (kind, steps, seconds)
        self.falsify = []  # (kind, trials, seconds)
        self.side_failures = []
        self.counts = {}
        self.count_mismatches = []
        self.elapsed = 0.0
        self.tracer = tracer
        self.imports = []

    def set_unit(self, unit):
        if self.tracer is not None:
            self.tracer.unit = unit

    def add_unit(self, kind, seconds, why, notes=None):
        self.units.append((kind, seconds, why, notes or {}))

    def add_counts(self, kind, counts):
        first = self.counts.setdefault(kind, counts)
        if first != counts:
            self.count_mismatches.append(f"{kind}: {counts} != {first}")

    @property
    def failed(self):
        return sum(1 for _, _, why, _ in self.units if why)


class Context:
    def __init__(self, workload, seed, out_dir):
        import numpy as np

        self.workload = workload
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.root = str(ROOT)
        self.src = str(SRC)
        self.out_dir = str(out_dir)
        self.child_env = dict(os.environ, PYTHONPATH=self.src)


def tail(values):
    """Value at the highest percentile leaving at least ten samples beyond
    it, with that percentile; with fewer than 11 samples, the smallest."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def setup_probes(ctx, configs, count):
    """Median set-up time over ``count`` fresh interpreters, after one
    warm-up probe that fills the bytecode cache."""
    samples, splits = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), ctx.src] + configs,
            env=ctx.child_env, cwd=ctx.root, capture_output=True, text=True,
            timeout=120, check=True)
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if not data["passquant_file"].startswith(ctx.src):
            raise RuntimeError(f"probe imported passquant from {data['passquant_file']}")
        if i:
            samples.append(data["ready"] - t0)
            splits.append(data)
    return statistics.median(samples), splits


def make_workload(ctx, pq):
    import inproc

    if ctx.workload == "symbolic-loop":
        return inproc.SymbolicLoop(pq, ctx.src, ctx.rng)
    return inproc.LtiCertify(pq, ctx.src, ctx.rng, ctx.out_dir)


def measure(ctx, seconds, traced):
    """Run the workload for ``seconds``; a traced run builds its workload
    (config loads and certificate set-up included) under the tracer."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    result = Result(tracer)
    if ctx.workload == "cli-sweep":
        import cli_sweep

        cli_sweep.run(ctx, result, traced, seconds)
        return result

    import inproc
    import passquant as pq

    if traced:
        tracer.install("passquant")
    try:
        workload = make_workload(ctx, pq)
        inproc.run(workload, result, seconds)
    finally:
        if traced:
            tracer.uninstall()
    return result


def end_to_end(ctx, result, setup_s):
    """The metrics BENCHMARK.json bounds, and the run-wide statistics
    printed beside them (see README.md for why those are not bounded)."""
    walls = [s for _, s, _, _ in result.units]
    tail_s, pct = tail(walls)
    # cli-sweep runs the program in children; the largest one is reported
    who = resource.RUSAGE_CHILDREN if ctx.workload == "cli-sweep" else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss / 1024.0
    sim_steps = sum(n for _, n, _ in result.sim)
    trials = sum(n for _, n, _ in result.falsify)
    metrics = {
        "setup_s": (setup_s, "s"),
        "turnaround_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "turnaround_p50_s": (statistics.median(walls), "s"),
        "units_per_s": (len(walls) / result.elapsed, "1/s"),
        "sim_step_us": (1e6 * sum(s for _, _, s in result.sim) / sim_steps, "us"),
        "falsify_trials_per_s": (trials / sum(s for _, _, s in result.falsify), "1/s"),
    }
    extra = {
        "turnaround_tail_s": f"p{pct:.1f} of {len(walls)} units",
        "sim_step_us": f"{sim_steps} steps",
        "falsify_trials_per_s": f"{trials} trials",
        "peak_rss_mb": "children" if ctx.workload == "cli-sweep" else "own process",
    }
    return metrics, info, extra


def per_layer(ctx, untraced, traced, splits):
    from spans import layer_metrics

    traced.tracer.check_expected(ctx.workload)
    metrics = layer_metrics(traced.tracer.spans)
    imports = traced.imports or splits
    for key in ("import.numpy_s", "import.scipy_s", "import.passquant_self_s"):
        metrics[key] = (statistics.median(d[key] for d in imports), "s")
    p50 = lambda r: statistics.median(s for _, s, _, _ in r.units)  # noqa: E731
    metrics["trace.overhead_ratio"] = (p50(traced) / p50(untraced), "ratio")
    return metrics


def unit_count_mismatches(result):
    """Computed counts per unit (from spans) must agree across units of one kind."""
    from spans import unit_counts

    per_unit = unit_counts(result.tracer.spans)
    first, bad = {}, []
    for unit, (kind, _, _, _) in enumerate(result.units):
        counts = dict(per_unit.get(unit, {}))
        if first.setdefault(kind, counts) != counts:
            bad.append(f"{kind}: {counts} != {first[kind]}")
    return first, bad


def environment(ctx, result):
    import numpy as np
    import scipy

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except Exception:  # numpy without dict-mode config: record what we can
        blas = {"name": "unknown"}
    units = {}
    for kind, *_ in result.units:
        units[kind] = units.get(kind, 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": ctx.workload,
        "seed": ctx.seed,
        "units_run": units,
        "load": "closed loop, 1 client, serial",
    }


def run_benchmark(workload, seed, seconds, trace):
    if not (SRC / "passquant" / "__init__.py").is_file():
        print(f"passquant sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(workload, seed, out_dir)
        if workload == "cli-sweep":
            import cli_sweep

            cli_sweep.prepare(ctx)
            configs = ctx.setup_configs
        else:
            import inproc

            names = inproc.SymbolicLoop.configs if workload == "symbolic-loop" else inproc.LtiCertify.configs
            configs = [inproc.config_path(ctx.src, n) for n in names]
        setup_s, splits = setup_probes(ctx, configs, SETUP_PROBES)

        if trace:
            untraced = measure(ctx, seconds / 2.0, traced=False)
            result = measure(ctx, seconds / 2.0, traced=True)
            metrics = per_layer(ctx, untraced, result, splits)
            info, extra = {}, {}
            span_counts, bad = unit_count_mismatches(result)
            result.count_mismatches += bad
            result.tracer.dump(out_root / f"trace-{workload}-seed{seed}.jsonl")
        else:
            result = measure(ctx, seconds, traced=False)
            metrics, info, extra = end_to_end(ctx, result, setup_s)
            span_counts = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(ctx, result)
    print("env " + json.dumps(env, sort_keys=True))
    for i, (kind, secs, why, notes) in enumerate(result.units):
        note = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in notes.items() if v is not None)
        print(f"unit {i} {kind} {secs:.6f}s {'FAIL ' + why if why else 'ok'} {note}".rstrip())
    for kind, steps, secs in result.sim:
        print(f"sim {kind.replace(' ', '/')} {steps} {secs:.6f}s")
    for kind, trials, secs in result.falsify:
        print(f"falsify {kind.replace(' ', '/')} {trials} {secs:.6f}s")
    print("counts " + json.dumps(result.counts, sort_keys=True))
    if span_counts is not None:
        print("span_counts " + json.dumps(span_counts, sort_keys=True))
    for why in result.side_failures + result.count_mismatches:
        print(f"FAIL {why}")
    attempted, failed = len(result.units), result.failed
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{name} {value!r} {unit}" + (f"  [{extra[name]}]" if name in extra else ""))
    record = {
        "correct": failed == 0 and not result.side_failures and not result.count_mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_root / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, **record}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


def smoke():
    """Every workload at minimal length, both modes; every named metric
    must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                record = json.loads(proc.stdout.strip().splitlines()[-1])
                got = record["metrics"]
                for m in spec[section]:
                    if m["name"] not in got:
                        problems.append(f"missing {m['name']}")
                    elif got[m["name"]]["unit"] != m["unit"]:
                        problems.append(f"{m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
                printed = ("failed_ratio",) + (INFO_METRICS if trace == 0 else ())
                for name in printed:
                    if not any(line.startswith(name + " ") for line in proc.stdout.splitlines()):
                        problems.append(f"missing {name}")
                if record["attempted"] < 1 or not record["correct"]:
                    problems.append(f"correct={record['correct']} attempted={record['attempted']}")
            ok &= not problems
            print(f"smoke {workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
