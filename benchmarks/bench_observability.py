"""Observability perf tracking: samples/sec, phase split, disabled overhead.

Runs one mid-size adaptive simulation three ways -- observability off,
metrics-only, and full tracing -- and records simulator throughput
(sampling periods per wall-second of ``processor.run()``, the same
denominator for all three) plus the per-phase wall-time split reported by
the :class:`~repro.obs.PhaseProfiler`.  Every configuration, and both
engine runs, start from an empty :mod:`repro.simcore.inputs` memo, so none
of them reuses a trace or jitter stream another one drew.

Besides the usual human-readable table, this bench writes
``benchmarks/results/BENCH_obs.json`` so successive PRs can diff the
perf trajectory mechanically (the ``samples_per_s`` and ``phases``
keys are the tracked series; ``overhead_ratio`` guards the no-op path).
"""

from __future__ import annotations

import json
import os
import time

from conftest import RESULTS_DIR, emit, run_once

from repro.engine import SweepEngine
from repro.engine.jobs import SweepJob
from repro.harness.experiment import build_controllers
from repro.harness.persistence import result_to_dict
from repro.harness.reporting import format_table
from repro.obs import SAMPLE_PHASES, ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.simcore import create_processor, inputs
from repro.workloads.suite import get_benchmark

BENCHMARK = "adpcm-encode"
INSTRUCTIONS = 50_000
ENGINE_INSTRUCTIONS = 10_000
ENGINE_SEEDS = (1, 2, 3, 4)


def _timed_run(obs):
    """One cold-memo run; times ``processor.run()`` only."""
    inputs.clear()
    spec = get_benchmark(BENCHMARK)
    processor = create_processor(
        trace=inputs.trace_for(spec, max_instructions=INSTRUCTIONS),
        controllers=build_controllers("adaptive"),
        seed=spec.seed,
        record_history=False,
        benchmark=BENCHMARK,
        scheme="adaptive",
        obs=obs,
    )
    started = time.perf_counter()
    result = processor.run()
    return result, time.perf_counter() - started


def _engine_jobs():
    return [
        SweepJob.make(
            BENCHMARK,
            scheme="adaptive",
            seed=seed,
            max_instructions=ENGINE_INSTRUCTIONS,
        )
        for seed in ENGINE_SEEDS
    ]


def _canonical(outcomes):
    return json.dumps(
        [result_to_dict(o.result) for o in outcomes], sort_keys=True
    )


def _measure_engine():
    """Engine-level metrics overhead plus the byte-identical guard.

    The same job list runs through a default (metrics-off) engine and a
    fully metered one; the simulation payloads must serialize to the
    same bytes -- observability may never perturb results -- and the
    wall-time ratio tracks what turning metrics on costs per run.
    """
    inputs.clear()
    started = time.perf_counter()
    plain = SweepEngine().run(_engine_jobs())
    disabled_s = time.perf_counter() - started

    inputs.clear()
    started = time.perf_counter()
    metered = SweepEngine(
        metrics=MetricsRegistry(), tracer=SpanRecorder()
    ).run(_engine_jobs())
    metrics_s = time.perf_counter() - started

    assert all(o.ok for o in plain) and all(o.ok for o in metered)
    assert _canonical(plain) == _canonical(metered), (
        "metered engine run produced different simulation payloads"
    )
    return {"engine_disabled_s": disabled_s, "engine_metrics_s": metrics_s}


def _measure():
    _, disabled_s = _timed_run(obs=None)
    _, metrics_s = _timed_run(obs=ObsConfig(trace=False, profile=True))
    traced_result, traced_s = _timed_run(obs=ObsConfig())
    data = {
        "disabled_s": disabled_s,
        "metrics_s": metrics_s,
        "traced_s": traced_s,
        "traced_profile": traced_result.probe_summary["profile"],
        "traced_counters": traced_result.probe_summary["counters"],
    }
    data.update(_measure_engine())
    return data


def test_observability_overhead(benchmark):
    data = run_once(benchmark, _measure)

    profile = data["traced_profile"]
    samples = profile["samples"]
    payload = {
        "benchmark": BENCHMARK,
        "instructions": INSTRUCTIONS,
        "samples": samples,
        "samples_per_s": {
            "disabled": samples / data["disabled_s"],
            "metrics_only": samples / data["metrics_s"],
            "full_trace": samples / data["traced_s"],
        },
        "overhead_ratio": {
            "metrics_only": data["metrics_s"] / data["disabled_s"],
            "full_trace": data["traced_s"] / data["disabled_s"],
            "engine_metrics": data["engine_metrics_s"]
            / data["engine_disabled_s"],
        },
        "engine_runs_per_s": {
            "disabled": len(ENGINE_SEEDS) / data["engine_disabled_s"],
            "metrics": len(ENGINE_SEEDS) / data["engine_metrics_s"],
        },
        "phases": profile["phases"],
        "events": data["traced_counters"].get("events.sample", 0)
        + data["traced_counters"].get("events.fsm_transition", 0)
        + data["traced_counters"].get("events.freq_step", 0),
    }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_obs.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        ["disabled", f"{payload['samples_per_s']['disabled']:,.0f}", "1.00"],
        [
            "metrics only",
            f"{payload['samples_per_s']['metrics_only']:,.0f}",
            f"{payload['overhead_ratio']['metrics_only']:.2f}",
        ],
        [
            "full trace",
            f"{payload['samples_per_s']['full_trace']:,.0f}",
            f"{payload['overhead_ratio']['full_trace']:.2f}",
        ],
        [
            "engine (metrics off)",
            f"{payload['engine_runs_per_s']['disabled']:.2f} runs/s",
            "1.00",
        ],
        [
            "engine (metered)",
            f"{payload['engine_runs_per_s']['metrics']:.2f} runs/s",
            f"{payload['overhead_ratio']['engine_metrics']:.2f}",
        ],
    ]
    for phase in SAMPLE_PHASES:
        stats = profile["phases"][phase]
        rows.append(
            [
                f"  phase {phase}",
                f"{stats['wall_s'] * 1e3:.1f} ms",
                f"{stats['share']:.0%} of run",
            ]
        )
    table = format_table(
        ["configuration", "samples/s (or phase wall)", "vs disabled"],
        rows,
        title=(
            f"Observability overhead ({BENCHMARK}, "
            f"{INSTRUCTIONS:,} instructions, {samples:,} samples)"
        ),
    )
    emit("observability_overhead", table + f"\n[json written to {json_path}]")

    # sanity on the tracked series, generous enough for shared CI boxes
    assert samples > 0
    assert payload["samples_per_s"]["full_trace"] > 0
    assert payload["overhead_ratio"]["full_trace"] < 10.0
    # the engine-level registry path is per-job, not per-sample: its cost
    # must stay in the noise (the 1.02x acceptance bar lives in the
    # baseline gate; this in-bench bound only catches gross regressions)
    assert payload["overhead_ratio"]["engine_metrics"] < 1.25
