"""Simulator-core throughput: reference loop vs fast path vs SoA batch.

Times ``processor.run()`` for both scalar cores on the same pre-generated
trace (gzip, 60k instructions, adaptive control) and records
instructions/sec, samples/sec, and the fast core's per-phase wall-time
split.  The fast core reads its clock jitter from the per-process memo of
:mod:`repro.simcore.inputs`, so it is timed two ways: ``cores.fast`` is
the first run of the seed (memo emptied before every round, as a
fresh-seed request meets it), ``fast_warm`` a repeat run of the same seed
(jitter streams already drawn, as every scheme after the first of a sweep
meets them).  A second section times a 64-seed batch through
:class:`repro.simcore.soa.BatchSimulator` against the same 64 lanes run
serially on the reference core, reporting aggregate instructions/sec and
``batch_speedup_64``.  Trace generation and controller/processor
construction happen outside the timed regions -- identical work for every
core and not part of simulator throughput.

Measured reality of the batch section (honest numbers, not the
aspiration): only the DVFS control plane (observe / FSM / reconcile /
slew / energy, ~40% of a run) is vectorized across lanes; per-lane
instruction stepping is still Python, so the aggregate lands near the
fast core's throughput -- about 1.8x over the reference aggregate on an
idle box, far short of the 10x the SoA layout would deliver if lane
stepping were itself array code.  The committed baseline records the
measured value and the +-25% gate tracks it; the floor assert below only
catches collapse.

Writes ``benchmarks/results/BENCH_simcore.json`` so successive PRs can
diff the perf trajectory mechanically; the CI perf-regression job compares
a fresh run of this bench against the committed baseline (the
``instr_per_s``, ``speedup``, and ``batch_*`` keys are the tracked
series).  Both sections re-check bit-identity on the measured runs, so a
speedup bought by divergence fails here before it ever reaches the golden
suite.
"""

from __future__ import annotations

import json
import os
import time

from conftest import RESULTS_DIR, emit, run_once

from repro.harness.experiment import build_controllers, run_experiment
from repro.harness.reporting import format_table
from repro.obs import ObsConfig
from repro.simcore import create_processor, inputs, results_identical
from repro.workloads.generator import generate_trace
from repro.workloads.suite import get_benchmark

BENCHMARK = "gzip"
INSTRUCTIONS = 60_000
SCHEME = "adaptive"
SEED = 1
#: timing repetitions per core; best-of is reported (shared CI boxes)
ROUNDS = 3

#: batch section: one vectorized batch of this many seeds...
BATCH_SEEDS = 64
#: ...at this window per lane (64 x 6k keeps the ref serial leg ~30 s)
BATCH_INSTRUCTIONS = 6_000


def _timed_run(trace, core):
    """One simulation on ``core``; returns (result, wall seconds)."""
    controllers = build_controllers(SCHEME)
    processor = create_processor(
        trace=trace,
        controllers=controllers,
        seed=SEED,
        benchmark=BENCHMARK,
        scheme=SCHEME,
        simcore=core,
    )
    started = time.perf_counter()
    result = processor.run()
    return result, time.perf_counter() - started


def _measure():
    spec = get_benchmark(BENCHMARK)
    trace = generate_trace(spec, max_instructions=INSTRUCTIONS, seed=SEED)

    results = {}
    walls = {}
    for core in ("ref", "fast"):
        best = None
        for _ in range(ROUNDS):
            inputs.clear()  # every round is the seed's first run
            result, wall_s = _timed_run(trace, core)
            best = wall_s if best is None or wall_s < best else best
        results[core] = result
        walls[core] = best
    # the last cold round left the seed's jitter streams in the memo
    results["fast_warm"], walls["fast_warm"] = min(
        (_timed_run(trace, "fast") for _ in range(ROUNDS)), key=lambda rw: rw[1]
    )

    # per-phase wall split of the fast core's sample path (PhaseProfiler)
    profiled = run_experiment(
        BENCHMARK,
        scheme=SCHEME,
        max_instructions=INSTRUCTIONS,
        seed=SEED,
        record_history=False,
        obs=ObsConfig(trace=False, profile=True),
        simcore="fast",
    )
    return results, walls, profiled.probe_summary["profile"]


def test_simcore_throughput(benchmark):
    results, walls, profile = run_once(benchmark, _measure)

    identical = results_identical(
        results["ref"], results["fast"]
    ) and results_identical(results["ref"], results["fast_warm"])
    instructions = results["fast"].instructions
    samples = profile["samples"]
    speedup = walls["ref"] / walls["fast"]

    def throughput(core):
        return {
            "wall_s": walls[core],
            "instr_per_s": instructions / walls[core],
            "samples_per_s": samples / walls[core],
        }

    payload = {
        "benchmark": BENCHMARK,
        "instructions": instructions,
        "scheme": SCHEME,
        "seed": SEED,
        "samples": samples,
        "cores": {core: throughput(core) for core in ("ref", "fast")},
        "fast_warm": throughput("fast_warm"),
        "speedup": speedup,
        "warm_speedup": walls["fast"] / walls["fast_warm"],
        "identical": identical,
        "phases": profile["phases"],
    }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_simcore.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        [
            core,
            f"{walls[core]:.3f} s",
            f"{instructions / walls[core]:,.0f}",
            f"{samples / walls[core]:,.0f}",
        ]
        for core in ("ref", "fast", "fast_warm")
    ]
    rows.append(["speedup", f"{speedup:.2f}x", "", ""])
    rows.append(["warm_speedup", f"{payload['warm_speedup']:.2f}x", "", ""])
    for phase, stats in sorted(profile["phases"].items()):
        rows.append(
            [
                f"  fast phase {phase}",
                f"{stats['wall_s'] * 1e3:.1f} ms",
                "",
                f"{stats['share']:.0%} of run",
            ]
        )
    table = format_table(
        ["core", "wall", "instructions/s", "samples/s"],
        rows,
        title=(
            f"Simulator core throughput ({BENCHMARK}, {INSTRUCTIONS:,} "
            f"instructions, {SCHEME})"
        ),
    )
    emit("simcore_throughput", table + f"\n[json written to {json_path}]")

    assert identical, "fast core diverged from the reference on the bench run"
    assert instructions == INSTRUCTIONS
    # the committed baseline records the real speedup (>=2x on an idle box);
    # this floor only exists to fail loud on a catastrophic regression while
    # staying robust to noisy shared CI runners -- the +-25% gate against
    # the baseline is the actual tracking mechanism
    assert speedup >= 1.5, f"fast core speedup collapsed: {speedup:.2f}x"


def _batch_lanes(traces, core):
    """One processor per seed, built outside the timed region."""
    return [
        create_processor(
            trace=traces[seed],
            controllers=build_controllers(SCHEME),
            seed=seed,
            record_history=False,
            benchmark=BENCHMARK,
            scheme=SCHEME,
            simcore=core,
        )
        for seed in sorted(traces)
    ]


def _measure_batch():
    from repro.simcore.soa import BatchSimulator

    spec = get_benchmark(BENCHMARK)
    seeds = list(range(1, BATCH_SEEDS + 1))
    traces = {
        seed: generate_trace(
            spec, max_instructions=BATCH_INSTRUCTIONS, seed=seed
        )
        for seed in seeds
    }

    lanes = _batch_lanes(traces, "batch")
    started = time.perf_counter()
    batch_results = BatchSimulator(lanes).run()
    batch_wall = time.perf_counter() - started

    ref_lanes = _batch_lanes(traces, "ref")
    started = time.perf_counter()
    ref_results = [lane.run() for lane in ref_lanes]
    ref_wall = time.perf_counter() - started

    return batch_results, ref_results, batch_wall, ref_wall


def test_batch_throughput(benchmark):
    batch_results, ref_results, batch_wall, ref_wall = run_once(
        benchmark, _measure_batch
    )

    identical = all(
        results_identical(ref, got)
        for ref, got in zip(ref_results, batch_results)
    )
    aggregate = BATCH_SEEDS * BATCH_INSTRUCTIONS
    speedup = ref_wall / batch_wall

    json_path = os.path.join(RESULTS_DIR, "BENCH_simcore.json")
    try:
        with open(json_path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {}  # standalone invocation: batch section only
    payload.update(
        {
            "batch_seeds": BATCH_SEEDS,
            "batch_instructions_per_lane": BATCH_INSTRUCTIONS,
            "batch_aggregate_instructions": aggregate,
            "batch_cores": {
                "batch": {
                    "wall_s": batch_wall,
                    "instr_per_s": aggregate / batch_wall,
                },
                "ref": {
                    "wall_s": ref_wall,
                    "instr_per_s": aggregate / ref_wall,
                },
            },
            "batch_speedup_64": speedup,
            "batch_identical": identical,
        }
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        [
            core,
            f"{wall:.3f} s",
            f"{aggregate / wall:,.0f}",
        ]
        for core, wall in (("ref (serial)", ref_wall), ("batch", batch_wall))
    ]
    rows.append([f"batch_speedup_{BATCH_SEEDS}", f"{speedup:.2f}x", ""])
    table = format_table(
        ["core", "wall", "aggregate instructions/s"],
        rows,
        title=(
            f"Batch-core aggregate throughput ({BENCHMARK}, "
            f"{BATCH_SEEDS} seeds x {BATCH_INSTRUCTIONS:,} instructions, "
            f"{SCHEME})"
        ),
    )
    emit("simcore_batch_throughput", table + f"\n[json written to {json_path}]")

    assert identical, "batch lanes diverged from the reference on the bench"
    # measured honestly at ~1.8x (see module docstring): the control plane
    # vectorizes, the Python lane stepper does not, and Amdahl holds.  The
    # floor exists to catch collapse (e.g. every lane silently degrading
    # to a 1-lane group); the +-25% baseline gate tracks the real value.
    assert speedup >= 1.2, f"batch aggregate speedup collapsed: {speedup:.2f}x"
