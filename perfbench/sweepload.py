"""``eval-sweep``: the paper's Fig. 9/10 grid through the sweep engine.

Every Table-2 benchmark (all three suites, ``mcf`` and ``epic-decode``
among them) runs under the full-speed baseline and the three compared
schemes via :func:`repro.harness.comparison.sweep` on a
:class:`repro.engine.SweepEngine` with one worker per CPU and the result
cache off.  The workload seed chooses the trace seed of the grid and the
job that is re-simulated on the reference core for verification.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Dict, List

import layers
import serveload
from checks import Tally, verify_payload
from summary import latency_summary

from repro.engine import EngineConfig, JobOutcome, SweepEngine, SweepJob, run_job
from repro.harness.comparison import aggregate, sweep
from repro.harness.persistence import result_to_dict
from repro.simcore import results_identical
from repro.workloads.suite import MEDIABENCH, SPEC2000_FP, SPEC2000_INT

SCHEMES = ("adaptive", "attack-decay", "pid")
#: Table 2 in suite order; the order is fixed so pool scheduling is too
BENCHMARKS = MEDIABENCH + SPEC2000_INT + SPEC2000_FP
#: instructions per benchmark: every phase of every benchmark is kept,
#: proportionally shortened, so a grid takes seconds rather than hours
WINDOW = 3000
#: whole sweeps continue past --seconds until p90 latency is reportable
MIN_LATENCY_SAMPLES = 100


class RecordingEngine(SweepEngine):
    """A sweep engine that keeps the outcomes of its latest run."""

    last_outcomes: List[JobOutcome]

    def run(self, jobs):
        self.last_outcomes = super().run(jobs)
        return self.last_outcomes


def trace_seed(seed: int) -> int:
    return random.Random(seed).randrange(1, 2**31)


def grid_jobs(seed: int) -> List[SweepJob]:
    """The sweep's job list, in the order ``sweep`` submits it."""
    return [
        SweepJob(benchmark=spec, scheme=scheme, max_instructions=WINDOW,
                 seed=trace_seed(seed))
        for spec in BENCHMARKS
        for scheme in ("full-speed",) + SCHEMES
    ]


def _sweep(engine: SweepEngine, seed: int):
    return sweep(
        BENCHMARKS,
        schemes=SCHEMES,
        max_instructions=WINDOW,
        seed=trace_seed(seed),
        engine=engine,
        on_failure="skip",
    )


def _count_outcomes(outcomes: List[JobOutcome], tally: Tally) -> None:
    for outcome in outcomes:
        tally.check(outcome.ok, f"{outcome.job.job_id}: {outcome.error}")


def setup(workers: int) -> RecordingEngine:
    """Build the engine (the pool itself starts with each sweep)."""
    return RecordingEngine(EngineConfig(workers=workers))


def measure(engine: RecordingEngine, seed: int, seconds: float, tally: Tally):
    """Whole sweeps within ``seconds``; end-to-end metrics plus a report."""
    latencies: List[float] = []
    instructions = 0
    headline = None
    sweeps = 0
    started = time.perf_counter()
    last = 0.0
    # a sweep starts only if one as long as the last still ends in time
    while (
        time.perf_counter() - started + last <= seconds
        or len(latencies) < MIN_LATENCY_SAMPLES
    ):
        sweep_started = time.perf_counter()
        comparisons = _sweep(engine, seed)
        last = time.perf_counter() - sweep_started
        sweeps += 1
        outcomes = engine.last_outcomes
        _count_outcomes(outcomes, tally)
        latencies.extend(o.wall_s for o in outcomes if o.ok)
        instructions += sum(o.result.instructions for o in outcomes if o.ok)
        result = aggregate(comparisons, "adaptive")
        if headline is None:
            headline = result
        else:
            tally.check(result == headline, "a repeated sweep changed the results")
    wall = time.perf_counter() - started

    verify_on_ref(engine.last_outcomes, seed, tally)
    metrics = {
        "runs_per_s": len(latencies) / wall,
        "instr_per_s": instructions / wall,
        **latency_summary(latencies, "latency_{}_ms", 1e3),
    }
    report = {
        "energy_savings_pct": headline["energy_savings_pct"],
        "perf_degradation_pct": headline["perf_degradation_pct"],
        "sweeps": sweeps,
        "latency_samples": len(latencies),
    }
    return metrics, report


def verify_on_ref(outcomes: List[JobOutcome], seed: int, tally: Tally) -> None:
    """Re-simulate one seed-chosen grid job on the reference core."""
    outcome = random.Random(seed + 1).choice(outcomes)
    if not outcome.ok:
        return  # already counted as failed
    reference = run_job(replace(outcome.job, simcore="ref"))
    tally.check(
        results_identical(reference, outcome.result),
        f"{outcome.job.job_id}: swept result differs from the ref core",
    )


def traced(workers: int, seed: int, workdir: str, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics: the grid served as one sweep, then its layers."""
    jobs = grid_jobs(seed)
    metrics, payloads = serveload.traced_sweep(jobs, seed, workers, tally)
    layer_metrics, results = layers.traced_job_list(
        jobs, workers, workdir, seed + 2, tally
    )
    metrics.update(layer_metrics)
    metrics.update(layers.model_metrics(jobs, results))
    for job, fetched, result in zip(jobs, payloads, results):
        expected = result_to_dict(result, include_history=False)
        expected["sha"] = fetched.get("sha")
        verify_payload(tally, fetched, expected, f"served {job.job_id}")
    return metrics
