#!/usr/bin/env python3
"""Benchmark for apsk_shaper.

    python3 perfbench/run.py --workload quad_sweep --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
run is one process that drives one workload (see workloads.py) closed-loop
through the package's public functions, checks every output, and prints one
JSON line of details (seed, machine record, failures) followed by the result
line {"correct", "attempted", "failed", "metrics"} as the last line.

--trace 0 reports the end-to-end metrics of END_TO_END. --trace 1 runs one
plain pass and then one traced pass, checks that their outputs are equal,
writes the spans to perfbench/out/ and reports the per-layer metrics of
tracing.PER_LAYER.

--seconds is turned into a whole number of passes through each workload's
pass budget (see README.md), so every commit measured with the same
settings does the same work.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("quad_sweep", "mc_crosscheck", "design_io")

BLAS_THREADS = "1"
# cold starts per run whose median is setup_s
SETUP_PROBES = 20
# the tail percentile is the highest whole one with this many operations beyond it
TAIL_BEYOND = 10

END_TO_END = (
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def bootstrap():
    """Pin BLAS threads and import the package from the checkout's src/.

    Runs before numpy is imported. Exits non-zero when there is no package
    source next to the benchmark.
    """
    if not (SRC / "apsk_shaper" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'apsk_shaper'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import apsk_shaper

    if Path(apsk_shaper.__file__).resolve().parent != SRC / "apsk_shaper":
        raise SystemExit(f"error: apsk_shaper imported from {apsk_shaper.__file__}, not {SRC}")


def load_references():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read reference values: {exc}") from None


def tail_percentile(count):
    """Highest whole percentile with TAIL_BEYOND samples beyond it, never below 50."""
    return max(50, 100 * (count - TAIL_BEYOND) // count) if count else 50


def run_pass(workload) -> dict:
    """One pass: every operation in order, then the workload's per-pass steps."""
    op_s, outs, problems = [], [], []
    failed = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    for op in workload.ops:
        t0 = time.perf_counter()
        out, bad = None, []
        try:
            out = workload.run_op(op)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            bad = [f"raised {type(exc).__name__}: {exc}"]
        op_s.append(time.perf_counter() - t0)
        if not bad:
            try:
                bad = workload.check_op(op, out)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        outs.append(out)
        if bad:
            failed += 1
            problems += [f"{workload.key(op)}: {p}" for p in bad]
    try:
        steps = workload.run_steps(outs)
        step_problems = workload.check_steps(steps)
    except Exception as exc:
        steps = None
        step_problems = {name: [f"raised {type(exc).__name__}: {exc}"] for name in workload.steps}
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    for name, bad in step_problems.items():
        if bad:
            failed += 1
            problems += [f"{name}: {p}" for p in bad]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "op_s": op_s,
        "outs": outs,
        "steps": steps,
        "attempted": len(workload.ops) + len(workload.steps),
        "failed": failed,
        "problems": problems,
    }


def setup_samples(args, count):
    """Cold-start times: spawn to 'ready' of a fresh process doing only set-up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, args, passes):
    # cold starts before each pass and after the last, so their median
    # samples the machine's speed over the whole run, as wall_s does; a cold
    # start between two operations made the next one noisier
    setup, logs = [], []
    for i in range(passes + 1):
        setup += setup_samples(args, (i + 1) * SETUP_PROBES // (passes + 1) - len(setup))
        if i < passes:
            logs.append(run_pass(workload))
    op_ms = [s * 1e3 for log in logs for s in log["op_s"]]
    tail_q = tail_percentile(len(op_ms))
    # linear interpolation between order statistics, as numpy's default
    cuts = statistics.quantiles(op_ms, n=100, method="inclusive")
    values = {
        "wall_s": statistics.median(log["wall_s"] for log in logs),
        "op_ms.p50": cuts[49],
        "op_ms.tail": cuts[tail_q - 1],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    info = {
        "passes": passes,
        "pass_wall_s": [log["wall_s"] for log in logs],
        "pass_cpu_s": [log["cpu_s"] for log in logs],
        "op_count": len(op_ms),
        "op_ms_by_key": {
            workload.key(op): [log["op_s"][i] * 1e3 for log in logs]
            for i, op in enumerate(workload.ops)
        },
        "tail_percentile": tail_q,
        "setup_samples_s": setup,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return logs, metrics, info


def measure_traced(workload, args):
    from apsk_shaper import numerics
    from tracing import Tracer, layer_metrics

    # plain pass first, so the traced pass is not the one paying for cold
    # pages; the node cache is emptied so hit_ratio still counts a cold cache
    plain = run_pass(workload)
    numerics.gauss_hermite_2d.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        bindings = sorted(f"{module}.{attr}" for module, attr, _ in tracer.bindings)
        traced = run_pass(workload)
    finally:
        tracer.uninstall()
    mismatched = [
        workload.key(op) for op, a, b in zip(workload.ops, traced["outs"], plain["outs"]) if a != b
    ]
    if traced["steps"] != plain["steps"]:
        mismatched.append("per-pass steps")
    plain["failed"] += len(mismatched)
    plain["problems"] += [f"{key}: traced output differs from untraced" for key in mismatched]
    overhead = traced["wall_s"] - plain["wall_s"]
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "bindings": bindings,
                   "spans": tracer.span_records()}, fh)
    info = {
        "passes": 1,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "trace_file": str(trace_file.relative_to(HERE.parent)),
        "bindings": bindings,
    }
    return [plain, traced], layer_metrics(tracer.spans, overhead), info


def execute(args, references=None, size="full"):
    """Run one benchmark invocation; returns (details, result) as printed.

    `size` picks the workload grid; "tiny" is for the benchmark's own tests.
    """
    from machine import machine_record
    from workloads import WORKLOADS

    refs = load_references() if references is None else references
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = cls(args.seed, refs, size, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return None, None
        if args.trace:
            logs, metrics, info = measure_traced(workload, args)
        else:
            passes = max(1, int(args.seconds // workload.pass_budget_s))
            logs, metrics, info = measure(workload, args, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(log["attempted"] for log in logs)
    failed = sum(log["failed"] for log in logs)
    problems = [p for log in logs for p in log["problems"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "ops_per_pass": len(workload.ops),
        "fail_frac": failed / attempted,
        "problems": problems[:20],
        "machine": machine_record(),
        **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return details, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**64) and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    details, result = execute(args)
    if result is not None:
        print(json.dumps({"details": details}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
