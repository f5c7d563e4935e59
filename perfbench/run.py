"""The repository benchmark: one workload per run, metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics
instead.  The metric names and units are the ones ``BENCHMARK.json``
declares.  Human-readable lines (the environment record, every metric
with its unit, and the workload's extra report) come first; the last
line of standard output is one JSON object.  The exit code is 1 when
any output failed verification and 2 when the program cannot be
imported or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-sweep", "serve-cold", "serve-warm")
#: set-up is repeated this many times per run; setup_s uses the median
SETUP_REPEATS = 3
#: units of the metrics that are reported but not gated (see README.md)
REPORT_UNITS = {
    "fail_frac": "ratio",
    "latency_p99_ms": "ms",
    "step_latency_p50_us": "us",
    "step_latency_p99_us": "us",
    "energy_savings_pct": "%",
    "perf_degradation_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def import_seconds(module: str) -> float:
    """Median time a fresh interpreter takes to import ``module``.

    ``module`` is a workload module of this directory; importing it
    imports every part of the program that the workload uses.
    """
    code = (
        "import sys, time; started = time.perf_counter(); "
        f"sys.path[:0] = {[HERE, os.path.join(ROOT, 'src')]!r}; "
        f"import {module}; print(time.perf_counter() - started)"
    )
    timings = [
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(timings)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def run_workload(args, workers, workdir, tally):
    """Set up and run one workload; returns (metrics, report)."""
    import serveload
    import sweepload

    if args.workload == "eval-sweep":
        if args.trace:
            return sweepload.traced(workers, args.seed, workdir, tally), {}
        timings = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            engine = sweepload.setup(workers)
            timings.append(time.perf_counter() - started)
        metrics, report = sweepload.measure(engine, args.seed, args.seconds, tally)
        module = "sweepload"
    else:
        service, timings = None, []
        try:
            for _ in range(1 if args.trace else SETUP_REPEATS):
                if service is not None:
                    service.remove()
                started = time.perf_counter()
                service = serveload.Service(args.workload, args.seed, workers, workdir)
                service.start(tally)
                timings.append(time.perf_counter() - started)
            if args.trace:
                return serveload.traced(service, args.seconds, tally), {}
            metrics, report = serveload.measure(service, args.seconds, tally)
            module = "serveload"
        finally:
            if service is not None:
                service.remove()
    # before import_seconds, whose interpreters would count as children
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = import_seconds(module) + statistics.median(timings)
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    # a stray core selection in the caller's environment must not change
    # what is measured; pool workers inherit the cleared environment
    os.environ.pop("REPRO_SIMCORE", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import serveload  # noqa: F401 -- imports the program under test
        import sweepload  # noqa: F401
        from repro.simcore import resolve_core
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        end_to_end, per_layer = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    from checks import Tally

    workers = cpu_count()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "simcore": resolve_core(),
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tally = Tally()
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        metrics, report = run_workload(args, workers, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(scratch)

    if args.trace:
        declared = per_layer
        unknown = sorted(set(metrics) - set(per_layer))
        if unknown:
            print(f"perfbench: undeclared per-layer metrics {unknown}", file=sys.stderr)
            return 2
        # a layer this workload does not run reads 0 (see README.md)
        metrics = {name: float(metrics.get(name, 0.0)) for name in per_layer}
    else:
        declared = end_to_end
        for name in sorted(set(metrics) - set(end_to_end)):
            report[name] = metrics.pop(name)
        missing = sorted(set(end_to_end) - set(metrics))
        if missing:
            print(f"perfbench: no value for {missing}", file=sys.stderr)
            return 2
        report["fail_frac"] = tally.fail_frac

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {declared[name]}")
    for name, value in report.items():
        unit = REPORT_UNITS.get(name, "count")
        print(f"{args.workload} {name} = {value:.6g} {unit} (reported, not gated)")
    for reason in tally.reasons:
        print(f"verification failure: {reason}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
