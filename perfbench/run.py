"""wilsonindex benchmark.

    python3 perfbench/run.py --workload index-d4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one process.  It sets up (imports, inputs from the seed, one
small warm-up operation), then runs passes of the workload's operations
until --seconds have passed, checking every result independently.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ops, "failed": ops, "metrics": {...}}

--trace 0 reports the end-to-end metrics:

    wall_s       median wall time of one pass (checks excluded)
    op_p50_s     median operation latency
    peak_rss_mb  ru_maxrss of this process
    cpu_s        median user+sys CPU time of one pass (getrusage)
    setup_s      median over three fresh processes of process start,
                 imports, input generation and the warm-up operation

--trace 1 wraps the package's public functions (tracing.py) and reports
per-layer self times, call counts and work counts, each per pass, plus
trace.wall_s, the traced pass time; the tracing overhead is trace.wall_s
minus the untraced wall_s.  The line before the result holds the details:
op sample count and tail percentile, fail_ratio (failed / attempted),
each failed check, the host record and, when traced, the per-function
table.  --workload all runs every workload untraced and traced, one
process each, and prints a table.

Workloads and why each exists: see workloads.py.
"""

from __future__ import annotations

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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3
THREAD_VARS = ("WILSON_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "cpu_s": "s", "setup_s": "s"}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# host record


def host_record() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# the measured loop


class Stats:
    """Op outcomes of one run.  An op that raises or fails its check counts
    as attempted and failed; nothing is dropped."""

    def __init__(self):
        self.latencies = []
        self.by_op = {}
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()

    def run_op(self, op):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op failure is a measurement, not a crash
            elapsed = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            problems = None
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if problems is None:
            try:
                problems = op.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        self.latencies.append(elapsed)
        self.by_op.setdefault(op.name, []).append(elapsed)
        if problems:
            self.failed += 1
            for p in problems:
                self.problems[f"{op.name}: {p}"] += 1
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        return elapsed, cpu


def tail_percentile(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    fit = [p for p in PERCENTILES if len(samples) * (1 - p / 100) >= 10]
    if not fit:
        return None
    q = statistics.quantiles(samples, n=1000, method="inclusive")
    return {"percentile": fit[-1], "value_s": q[round(fit[-1] * 10) - 1]}


def measure(wl, wi, state, seconds, stats):
    pass_wall, pass_cpu = [], []
    start = time.perf_counter()
    k = 0
    while True:
        wall = cpu = 0.0
        for op in wl.ops(wi, state, k):
            w, c = stats.run_op(op)
            wall += w
            cpu += c
        pass_wall.append(wall)
        pass_cpu.append(cpu)
        k += 1
        if time.perf_counter() - start >= seconds:
            return pass_wall, pass_cpu


def setup_samples(args) -> list:
    """Wall time of SETUP_REPEATS fresh processes that only set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def layer_metrics(tracer, passes: int, trace_wall: float) -> dict:
    per = 1.0 / passes
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}
    for module in ("spectral", "gauge", "wilson", "ktheory", "formats", "cli"):
        m[f"{module}.self_s"] = tracer.module_self_s(module) * per
    for fn in ("spectral.min_abs_eigenvalue", "spectral.inertia_bunch_kaufman",
               "spectral.inertia", "cli.main", "gauge.constant_flux_field",
               "gauge.perturb_field", "gauge.estimate_curvature_norm",
               "gauge.gauge_transform", "gauge.shift_unitaries", "gauge.plaquette",
               "wilson.assemble",
               "ktheory.symbol_degree", "ktheory.acm_invariant",
               "ktheory.bott_index_tuple", "ktheory.lattice_index"):
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0) * per
    m["spectral.min_abs_eigenvalue.calls"] = calls.get("spectral.min_abs_eigenvalue", 0) * per
    m["gauge.plaquette.calls"] = calls.get("gauge.plaquette", 0) * per
    m["spectral.calls"] = sum(v for k, v in calls.items() if k.startswith("spectral.")) * per
    iterative = counts.get("spectral.gap_iterative_calls", 0)
    fallbacks = counts.get("spectral.gap_fallbacks", 0)
    m["spectral.gap_fallbacks"] = fallbacks * per
    # 0 when no shift-invert gap ran; spectral.min_abs_eigenvalue.calls tells
    m["spectral.gap_converged_ratio"] = (iterative - fallbacks) / iterative if iterative else 0.0
    m["spectral.dim_max"] = counts.get("spectral.dim_max", 0)
    m["cli.rows"] = counts.get("cli.rows", 0) * per
    m["gauge.links"] = counts.get("gauge.links", 0) * per
    m["wilson.dim"] = counts.get("wilson.dim", 0)
    m["wilson.nnz"] = counts.get("wilson.nnz", 0) * per
    m["ktheory.newton_seeds"] = counts.get("ktheory.newton_seeds", 0) * per
    m["formats.read.self_s"] = tracer.function_self_s(
        "formats.read_gauge_field", "formats.read_unitary_tuple") * per
    m["formats.write.self_s"] = tracer.function_self_s(
        "formats.write_gauge_field", "formats.write_unitary_tuple") * per
    m["formats.bytes"] = counts.get("formats.bytes", 0) * per
    m["trace.wall_s"] = trace_wall
    return m


def function_table(tracer) -> dict:
    return {name: {"calls": tracer.calls[name],
                   "total_s": round(tracer.total_s[name], 6),
                   "self_s": round(tracer.self_s[name], 6)}
            for name in sorted(tracer.calls)}


def run_one(args) -> int:
    import wilsonindex as wi

    from workloads import WORKLOADS

    if Path(wi.__file__).resolve().parent != (SRC / "wilsonindex").resolve():
        print(f"error: imported wilsonindex from {wi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = wl.setup(wi, args.seed, workdir)
        wl.warmup(wi, state)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        stats = Stats()
        try:
            pass_wall, pass_cpu = measure(wl, wi, state, args.seconds, stats)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = [] if args.trace else setup_samples(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    wall = statistics.median(pass_wall)
    if tracer is None:
        values = {"wall_s": wall,
                  "op_p50_s": statistics.median(stats.latencies),
                  "peak_rss_mb": peak_rss_mb,
                  "cpu_s": statistics.median(pass_cpu),
                  "setup_s": statistics.median(setup)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        units = per_layer_units()
        values = layer_metrics(tracer, len(pass_wall), wall)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(pass_wall),
        "op_samples": len(stats.latencies),
        "op_tail": tail_percentile(stats.latencies),
        "op_p50_by_name_s": {k: statistics.median(v) for k, v in stats.by_op.items()},
        "fail_ratio": stats.failed / stats.attempted,
        "failures": dict(stats.problems),
        "setup_samples_s": setup,
        "host": host_record(),
    }
    if tracer is not None:
        detail["functions"] = function_table(tracer)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one process each


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[(name, trace)] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))

    print(f"{'workload':<12} {'metric':<14} {'value':>12} unit")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        detail, res = results[(name, 0)]
        traced = results[(name, 1)][1]["metrics"]
        rows = dict(res["metrics"])
        rows["fail_ratio"] = {"value": detail["fail_ratio"], "unit": "ratio"}
        rows["trace_overhead_s"] = {
            "value": traced["trace.wall_s"]["value"] - rows["wall_s"]["value"], "unit": "s"}
        for metric, v in rows.items():
            print(f"{name:<12} {metric:<14} {v['value']:>12.4f} {v['unit']}")
            summary["metrics"][f"{name}.{metric}"] = v
        print(f"{name:<12} op samples {detail['op_samples']}, tail {detail['op_tail']}")
        for problem, count in detail["failures"].items():
            print(f"{name:<12} FAILED x{count}: {problem}")
        for key, v in traced.items():
            summary["metrics"][f"{name}.{key}"] = v
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    print(json.dumps({"host": host_record()}))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "wilsonindex" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
