"""The traced pass: the workload's job list, layer by layer.

Every workload's traced pass runs its job list three ways:

* once through a :class:`repro.engine.SweepEngine` with a span recorder,
  for the scheduler's wall, busy time and utilization, and the reference
  results;
* once per job layer by layer (:func:`run_layers`), each public call in a
  span of :mod:`spans`::

      workloads.generate   repro.workloads.generate_trace
      simcore.build        harness.experiment.build_controllers + simcore.create_processor
      simcore.run          processor.run()
      persistence.*        harness.persistence.result_to_dict / result_from_dict
      cache.put / get      engine.cache.ResultCache.put, then .get of the same job

  and once more without spans, so the difference between the two walls is
  the cost of the spans themselves;
* at one seed-chosen adaptive point for the phase profiler, the batch
  core against the fast core at width 8, and full-trace observability
  against none on one pre-generated trace.

The layer pass's results must equal the engine's exactly.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from checks import Tally
from spans import NULL_TRACER, Tracer
from summary import median

from repro.engine import EngineConfig, ResultCache, SweepEngine, SweepJob, run_job
from repro.harness.comparison import aggregate, comparison_from_runs
from repro.harness.experiment import build_controllers
from repro.harness.persistence import result_from_dict, result_to_dict
from repro.mcd.domains import MachineConfig
from repro.mcd.processor import SimulationResult
from repro.obs.facade import ObsConfig
from repro.obs.spans import SpanRecorder
from repro.simcore import create_processor, results_identical, run_batch
from repro.workloads.generator import generate_trace

#: lanes of the batch-versus-fast point: ServeConfig.max_batch's default
BATCH_WIDTH = 8
#: adaptive jobs re-run under the phase profiler for the sample-path share
PROFILED_JOBS = 4
#: alternating repeats of each side of the observability overhead point
OBS_REPEATS = 3


def _build(job: SweepJob, trace):
    """Controllers and processor exactly as ``run_experiment`` builds them."""
    spec = job.benchmark
    controllers = build_controllers(
        job.scheme,
        machine=job.machine or MachineConfig(),
        pid_interval_ns=job.pid_interval_ns,
        adaptive_overrides=dict(job.adaptive_overrides)
        if job.adaptive_overrides
        else None,
    )
    return create_processor(
        trace=trace,
        config=job.machine or MachineConfig(),
        controllers=controllers,
        seed=spec.seed if job.seed is None else job.seed,
        record_history=job.record_history,
        history_stride=job.history_stride,
        benchmark=spec.name,
        scheme=job.scheme,
        obs=job.obs,
        simcore=job.simcore,
    )


def run_layers(
    job: SweepJob, index: int, tracer, cache: ResultCache
) -> SimulationResult:
    """One job with each layer a separate call; returns the result."""
    with tracer.span("job", trace=f"job{index}"):
        with tracer.span("workloads.generate"):
            trace = generate_trace(
                job.benchmark, max_instructions=job.max_instructions, seed=job.seed
            )
        with tracer.span("simcore.build"):
            processor = _build(job, trace)
        with tracer.span("simcore.run") as span:
            result = processor.run()
            span.attrs["instructions"] = result.instructions
            span.attrs["sim_ns"] = result.time_ns
        with tracer.span("persistence.serialize") as span:
            blob = json.dumps(
                result_to_dict(result, include_history=job.record_history)
            )
            span.attrs["bytes"] = len(blob)
        with tracer.span("persistence.deserialize"):
            result_from_dict(json.loads(blob))
        with tracer.span("cache.put"):
            cache.put(job, result)
        with tracer.span("cache.get") as span:
            span.attrs["hit"] = cache.get(job) is not None
    return result


def traced_pass(
    jobs: Sequence[SweepJob], workdir: str, tally: Tally
) -> "tuple[Dict[str, float], List[SimulationResult]]":
    """Each job untraced and traced, back to back; per-layer metrics.

    The two runs of a job alternate which goes first, so warm-up favours
    neither side; each side writes its own fresh cache under ``workdir``,
    and every result put must read back.
    """
    tracer = Tracer()
    caches = {
        side: ResultCache(tempfile.mkdtemp(prefix="layers-", dir=workdir))
        for side in (False, True)
    }
    walls = {False: 0.0, True: 0.0}
    results = []
    for index, job in enumerate(jobs):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            started = time.perf_counter()
            result = run_layers(
                job, index, tracer if traced else NULL_TRACER, caches[traced]
            )
            walls[traced] += time.perf_counter() - started
            if traced:
                results.append(result)
    wall, untraced_wall = walls[True], walls[False]
    for hit in tracer.attr_values("cache.get", "hit"):
        tally.check(hit, "a result put into the cache did not read back")

    job_total = sum(tracer.durations("job"))
    generate = tracer.durations("workloads.generate")
    run_s = tracer.durations("simcore.run")
    metrics = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.unattributed_share": max(0.0, 1.0 - tracer.covered() / wall),
        "workloads.generate_s": median(generate),
        "workloads.generate_share": sum(generate) / job_total,
        "simcore.build_s": median(tracer.durations("simcore.build")),
        "simcore.run_s": median(run_s),
        "simcore.instr_per_s": (
            sum(tracer.attr_values("simcore.run", "instructions")) / sum(run_s)
        ),
        "simcore.sim_ns_per_host_s": (
            sum(tracer.attr_values("simcore.run", "sim_ns")) / sum(run_s)
        ),
        "persistence.serialize_s": median(tracer.durations("persistence.serialize")),
        "persistence.deserialize_s": median(
            tracer.durations("persistence.deserialize")
        ),
        "persistence.result_bytes": median(
            tracer.attr_values("persistence.serialize", "bytes")
        ),
        "cache.put_s": median(tracer.durations("cache.put")),
        "cache.get_s": median(tracer.durations("cache.get")),
        "dvfs.freq_steps": sum(len(r.step_events) for r in results),
        "dvfs.transitions": sum(sum(r.transitions.values()) for r in results),
    }
    return metrics, results


def model_metrics(jobs: Sequence[SweepJob], results: Sequence[SimulationResult]):
    """The paper's headline numbers for the adaptive scheme over a grid.

    ``jobs`` hold, per benchmark, the full-speed baseline followed by the
    compared schemes (the order :func:`repro.harness.comparison.sweep` uses).
    """
    groups: Dict[str, List[SimulationResult]] = defaultdict(list)
    specs = {}
    for job, result in zip(jobs, results):
        groups[job.benchmark.name].append(result)
        specs[job.benchmark.name] = job.benchmark
    comparisons = [
        comparison_from_runs(specs[name], runs[0], runs[1:])
        for name, runs in groups.items()
    ]
    headline = aggregate(comparisons, "adaptive")
    return {
        "model.energy_savings_pct": headline["energy_savings_pct"],
        "model.perf_degradation_pct": headline["perf_degradation_pct"],
    }


def sample_path_share(jobs: Sequence[SweepJob], rng: random.Random) -> float:
    """Share of profiled run time spent in the sampling path.

    Re-runs up to :data:`PROFILED_JOBS` seed-chosen adaptive jobs with the
    :class:`repro.obs.PhaseProfiler` on (``ObsConfig(profile=True)``, no
    trace ring) and divides the four sample phases' time by the profiled
    ``run()`` wall.
    """
    adaptive = [job for job in jobs if job.scheme == "adaptive"]
    picked = rng.sample(adaptive, min(PROFILED_JOBS, len(adaptive)))
    phase_s = wall_s = 0.0
    for job in picked:
        result = run_job(replace(job, obs=ObsConfig(trace=False, profile=True)))
        profile = result.probe_summary["profile"]
        wall_s += profile["wall_s"]
        phase_s += sum(p["wall_s"] for p in profile["phases"].values())
    return phase_s / wall_s


def batch_vs_fast(job: SweepJob, tally: Tally) -> Dict[str, float]:
    """``run_batch`` on the batch core against the fast core, 8 seeds.

    The ratio is fast seconds over batch seconds (above 1: batch is
    faster); its base, the fast core's seconds, is reported beside it.
    Every lane must be bit-identical across the two cores.
    """
    seeds = [job.seed + lane for lane in range(BATCH_WIDTH)]
    timed = {}
    results = {}
    for core in ("fast", "batch"):
        started = time.perf_counter()
        results[core] = run_batch(
            job.benchmark,
            scheme=job.scheme,
            seeds=seeds,
            max_instructions=job.max_instructions,
            simcore=core,
        )
        timed[core] = time.perf_counter() - started
    for lane, (fast, batch) in enumerate(zip(results["fast"], results["batch"])):
        tally.check(
            results_identical(fast, batch),
            f"batch lane {lane} of {job.job_id} differs from the fast core",
        )
    return {
        "simcore.batch_vs_fast_w8": timed["fast"] / timed["batch"],
        "simcore.fast_w8_s": timed["fast"],
    }


def full_trace_overhead(job: SweepJob, tally: Tally) -> float:
    """``processor.run()`` with full-trace observability over none.

    Both sides run the same pre-generated trace and time only the
    ``run()`` call, so the ratio has a single denominator.  Sides
    alternate; each side's median is used.
    """
    trace = generate_trace(
        job.benchmark, max_instructions=job.max_instructions, seed=job.seed
    )
    timings: Dict[str, List[float]] = {"off": [], "full": []}
    outcomes = set()
    for _ in range(OBS_REPEATS):
        for side, obs in (("off", None), ("full", ObsConfig())):
            processor = _build(replace(job, obs=obs), trace)
            started = time.perf_counter()
            result = processor.run()
            timings[side].append(time.perf_counter() - started)
            outcomes.add((result.time_ns, result.energy.total, result.instructions))
    tally.check(
        len(outcomes) == 1,
        f"observability changed the outcome of {job.job_id}",
    )
    return median(timings["full"]) / median(timings["off"])


def engine_pass(
    jobs: Sequence[SweepJob], workers: int, tally: Tally
) -> "tuple[Dict[str, float], List[Optional[SimulationResult]]]":
    """The job list on the worker pool, with the engine's span recorder.

    Busy time sums the worker-side job spans: an outcome's ``wall_s``
    counts from submission, and the engine submits every job at once.
    """
    recorder = SpanRecorder()
    engine = SweepEngine(EngineConfig(workers=workers), tracer=recorder)
    started = time.perf_counter()
    outcomes = engine.run(jobs)
    wall = time.perf_counter() - started
    for outcome in outcomes:
        tally.check(outcome.ok, f"{outcome.job.job_id}: {outcome.error}")
    busy = sum(
        span["dur_ns"] for span in recorder.spans() if "pid" in span["attrs"]
    ) / 1e9
    summary = engine.telemetry.summary()
    metrics = {
        "engine.wall_s": wall,
        "engine.busy_s": busy,
        "engine.pool_utilization": busy / (wall * min(workers, len(jobs))),
        "engine.failed": summary["failures"],
        "engine.retries": summary["retries"],
    }
    return metrics, [outcome.result for outcome in outcomes]


def traced_job_list(
    jobs: Sequence[SweepJob], workers: int, workdir: str, seed: int, tally: Tally
) -> "tuple[Dict[str, float], List[SimulationResult]]":
    """Every per-layer measurement the job list gives, for any workload."""
    metrics, reference = engine_pass(jobs, workers, tally)
    layer_metrics, results = traced_pass(jobs, workdir, tally)
    metrics.update(layer_metrics)
    for job, expected, result in zip(jobs, reference, results):
        tally.check(
            expected is not None and results_identical(expected, result),
            f"{job.job_id}: layer-by-layer result differs from the engine's",
        )
    rng = random.Random(seed)
    metrics["simcore.sample_path_share"] = sample_path_share(jobs, rng)
    point = rng.choice([job for job in jobs if job.scheme == "adaptive"])
    metrics.update(batch_vs_fast(point, tally))
    metrics["obs.full_trace_overhead"] = full_trace_overhead(point, tally)
    return metrics, results
