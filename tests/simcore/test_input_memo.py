"""The per-process memo of seed-determined inputs (``repro.simcore.inputs``).

The golden suite alone cannot catch a corrupted shared entry: ``ref`` and
``fast`` runs of one ``run_experiment`` call read the same memoized trace.
These tests hold warm-memo runs to processors built on a freshly generated
trace with the memo bypassed (the reference core on a new list, which
draws its own jitter), under reuse, under threads and under eviction.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.harness.experiment import build_controllers, run_experiment
from repro.mcd.domains import FU_LATENCY_CYCLES, execution_domain
from repro.mcd.processor import _EDGE_TAG
from repro.simcore import assert_results_identical, create_processor, inputs
from repro.simcore.fast import build_columns
from repro.workloads.generator import generate_trace
from repro.workloads.instructions import Instruction
from repro.workloads.instructions import InstructionKind as K
from repro.workloads.suite import get_benchmark

_INSTRUCTIONS = 1500
_SEED = 11


@pytest.fixture(autouse=True)
def cold_memo():
    inputs.clear()
    yield
    inputs.clear()


def _run_threads(target, count: int = 4) -> None:
    """``target(slot)`` on ``count`` threads (more than CI's cores)."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a worker thread hung"


def _bypassed(benchmark: str, scheme: str, seed: int = _SEED):
    """The reference core on a fresh trace: no memoized input at all."""
    trace = generate_trace(
        get_benchmark(benchmark), max_instructions=_INSTRUCTIONS, seed=seed
    )
    return create_processor(
        trace=trace,
        controllers=build_controllers(scheme),
        seed=seed,
        benchmark=benchmark,
        scheme=scheme,
        simcore="ref",
    ).run()


class TestWarmMemo:
    def test_warm_grid_matches_bypassed_processors(self):
        schemes = ("full-speed", "adaptive", "attack-decay", "pid")
        points = [(b, s) for b in ("adpcm-encode", "gzip") for s in schemes]
        expected = {point: _bypassed(*point) for point in points}
        for sweep in ("cold", "warm"):
            for benchmark, scheme in points:
                got = run_experiment(
                    benchmark,
                    scheme=scheme,
                    max_instructions=_INSTRUCTIONS,
                    seed=_SEED,
                    simcore="fast",
                )
                assert_results_identical(
                    expected[(benchmark, scheme)],
                    got,
                    context=f"{sweep} {benchmark}/{scheme}",
                )

    def test_repeated_lookup_shares_one_immutable_trace(self):
        spec = get_benchmark("gzip")
        first = inputs.trace_for(spec, max_instructions=_INSTRUCTIONS, seed=_SEED)
        again = inputs.trace_for(spec, max_instructions=_INSTRUCTIONS, seed=_SEED)
        assert again is first
        assert isinstance(first, tuple)
        assert list(first) == generate_trace(
            spec, max_instructions=_INSTRUCTIONS, seed=_SEED
        )

    def test_spec_content_not_identity_is_the_key(self):
        spec = get_benchmark("gzip")
        copy = spec.scaled(1.0)  # equal content, a different object
        assert copy is not spec
        window = _INSTRUCTIONS
        trace = inputs.trace_for(spec, max_instructions=window, seed=_SEED)
        assert inputs.trace_for(copy, max_instructions=window, seed=_SEED) is trace
        other = inputs.trace_for(spec, max_instructions=window, seed=_SEED + 1)
        assert other is not trace

    def test_default_seed_and_explicit_spec_seed_share_an_entry(self):
        spec = get_benchmark("gzip")
        implicit = inputs.trace_for(spec, max_instructions=_INSTRUCTIONS)
        assert inputs.trace_for(
            spec, max_instructions=_INSTRUCTIONS, seed=spec.seed
        ) is implicit


class TestThreads:
    def test_concurrent_same_seed_runs_each_match_serial_ref(self):
        expected = _bypassed("gzip", "adaptive")
        barrier = threading.Barrier(4)
        results = [None] * 4
        errors = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                results[slot] = run_experiment(
                    "gzip",
                    scheme="adaptive",
                    max_instructions=_INSTRUCTIONS,
                    seed=_SEED,
                    simcore="fast",
                )
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        _run_threads(worker)
        assert not errors, errors
        for slot, result in enumerate(results):
            assert_results_identical(expected, result, context=f"thread {slot}")

    def test_concurrent_readers_never_interleave_draws(self):
        oracle = random.Random(5)
        expected = [oracle.gauss(0.0, 0.01) for _ in range(2000)]
        stream = inputs.jitter_stream(random.Random(5), 0.01)
        barrier = threading.Barrier(4)
        seen = [None] * 4

        def worker(slot: int) -> None:
            read = stream.reader()
            barrier.wait()
            seen[slot] = [read() for _ in range(len(expected))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-chunk as often as possible
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert all(values == expected for values in seen)


class TestBounds:
    def test_trace_memo_stays_at_its_bound(self):
        spec = get_benchmark("adpcm-encode")
        for seed in range(inputs._TRACE_SLOTS + 3):
            inputs.trace_for(spec, max_instructions=200, seed=seed)
            assert len(inputs._TRACES) <= inputs._TRACE_SLOTS
        assert len(inputs._TRACES) == inputs._TRACE_SLOTS

    def test_stream_memo_stays_at_its_bound(self):
        for seed in range(inputs._STREAM_SLOTS + 3):
            inputs.jitter_stream(random.Random(seed), 0.01)
            assert len(inputs._STREAMS) <= inputs._STREAM_SLOTS
        assert len(inputs._STREAMS) == inputs._STREAM_SLOTS

    def test_runs_past_the_bound_stay_bit_identical(self):
        # each run inserts one trace and four streams, evicting older ones
        for seed in range(inputs._TRACE_SLOTS + 2):
            got = run_experiment(
                "adpcm-encode",
                scheme="adaptive",
                max_instructions=_INSTRUCTIONS,
                seed=seed,
                simcore="fast",
            )
            assert_results_identical(
                _bypassed("adpcm-encode", "adaptive", seed), got, context=f"seed {seed}"
            )
        assert len(inputs._TRACES) == inputs._TRACE_SLOTS
        assert len(inputs._STREAMS) == inputs._STREAM_SLOTS

    def test_recently_used_entry_survives_eviction(self):
        spec = get_benchmark("adpcm-encode")
        kept = inputs.trace_for(spec, max_instructions=200, seed=0)
        for seed in range(1, inputs._TRACE_SLOTS + 2):
            assert inputs.trace_for(spec, max_instructions=200, seed=0) is kept
            inputs.trace_for(spec, max_instructions=200, seed=seed)
        assert inputs.trace_for(spec, max_instructions=200, seed=0) is kept


class TestJitterStream:
    @pytest.mark.parametrize("drawn_before", [0, 1, 2])
    def test_stream_is_the_gauss_sequence_from_the_current_state(self, drawn_before):
        # an odd number of earlier draws leaves gauss's cached second
        # variate in the state; the stream must start with it
        rng = random.Random(9)
        for _ in range(drawn_before):
            rng.gauss(0.0, 0.01)
        oracle = random.Random()
        oracle.setstate(rng.getstate())
        count = 3 * inputs._STREAM_CHUNK + 7  # crosses chunk boundaries
        read = inputs.jitter_stream(rng, 0.01).reader()
        assert [read() for _ in range(count)] == [
            oracle.gauss(0.0, 0.01) for _ in range(count)
        ]

    def test_clock_rng_is_not_advanced(self):
        rng = random.Random(3)
        state = rng.getstate()
        read = inputs.jitter_stream(rng, 0.01).reader()
        for _ in range(10):
            read()
        assert rng.getstate() == state

    def test_key_includes_sigma_and_state(self):
        a = inputs.jitter_stream(random.Random(1), 0.01)
        assert inputs.jitter_stream(random.Random(1), 0.01) is a
        assert inputs.jitter_stream(random.Random(1), 0.02) is not a
        assert inputs.jitter_stream(random.Random(2), 0.01) is not a

    def test_streams_grow_by_chunks_on_demand(self):
        stream = inputs.jitter_stream(random.Random(4), 0.01)
        assert len(stream) == 0
        read = stream.reader()
        read()
        assert len(stream) == inputs._STREAM_CHUNK
        for _ in range(inputs._STREAM_CHUNK):
            read()
        assert len(stream) == 2 * inputs._STREAM_CHUNK


class TestColumns:
    @staticmethod
    def _per_instruction(trace):
        """The column build as the fast core once did it, per instruction."""
        muldiv = {K.INT_MUL, K.INT_DIV, K.FP_MUL, K.FP_DIV, K.FP_SQRT}
        pipelined = {K.INT_ALU, K.BRANCH, K.FP_ADD, K.FP_MUL, K.INT_MUL}
        n = 1 + max(inst.index for inst in trace)
        cols = [[0] * n for _ in range(6)]
        for inst in trace:
            i, kind = inst.index, inst.kind
            lat = FU_LATENCY_CYCLES[kind]
            cols[0][i] = lat
            cols[1][i] = 1 if kind in pipelined else lat
            cols[2][i] = _EDGE_TAG[execution_domain(kind)]
            cols[3][i] = 1 if kind in muldiv else 0
            cols[4][i] = 1 if kind is K.STORE else 0
            cols[5][i] = 1 if kind is K.BRANCH else 0
        return [list(c) for c in cols]

    def test_table_build_matches_per_instruction_build(self):
        trace = generate_trace(get_benchmark("epic-decode"), max_instructions=3000)
        # no Table-2 benchmark issues every kind (none divides integers)
        trace += [
            Instruction(index=len(trace) + i, kind=kind, pc=0, addr=0)
            for i, kind in enumerate(K)
        ]
        built = build_columns(trace)
        assert [list(c) for c in built] == self._per_instruction(trace)

    def test_sparse_indexes_leave_zero_rows(self):
        trace = [
            Instruction(index=0, kind=K.FP_DIV, pc=0),
            Instruction(index=3, kind=K.STORE, pc=4, addr=64),
        ]
        built = build_columns(trace)
        assert [list(c) for c in built] == self._per_instruction(trace)
        assert built.latency[1] == built.tag[2] == 0
