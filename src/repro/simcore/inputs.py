"""Per-process memo of the seed-determined inputs of a simulation.

A sweep runs every benchmark under several schemes on the *same* trace
with the *same* seed, yet two inputs of each run are pure functions of
``(spec, max_instructions, seed)`` or of a clock's RNG state:

* the **trace** -- :func:`trace_for` returns it as a tuple (so no caller
  can corrupt a shared entry), keyed on the spec's phases,
  ``max_instructions`` and the effective seed;
* the **clock jitter** -- :func:`jitter_stream` keys each clock's stream
  of ``rng.gauss(0.0, sigma)`` variates on the RNG's starting state and
  sigma, and draws it in chunks of :data:`_STREAM_CHUNK` on demand.

Both memos are least-recently-used maps of a few entries, guarded by a
lock: serve runs share a process on several threads.  A chunk is drawn
under its stream's lock, so concurrent readers never interleave draws;
a reader consumes the stream from its first variate in order, which is
exactly the sequence the reference core's ``clock.advance()`` draws.
Eviction only drops the memo's reference: a run that holds an entry
keeps using it.
"""

from __future__ import annotations

import random
import threading
from array import array
from dataclasses import fields
from itertools import chain, count
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.workloads.generator import generate_trace
from repro.workloads.instructions import Instruction
from repro.workloads.phases import BenchmarkSpec, PhaseSpec

#: traces kept per process: a sweep worker walks the grid benchmark by
#: benchmark, so two entries catch every scheme of one
_TRACE_SLOTS = 2
#: jitter streams kept per process: one per clock, four clocks per seed
_STREAM_SLOTS = 8
#: variates drawn per stream extension: a fresh seed overdraws < 1 chunk
_STREAM_CHUNK = 256

Trace = Tuple[Instruction, ...]
_V = TypeVar("_V")


class _Memo(Generic[_V]):
    """A least-recently-used map of at most ``slots`` entries, thread-safe."""

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self._entries: Dict[Hashable, _V] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get(self, key: Hashable, build: Callable[[], _V]) -> _V:
        """The entry for ``key``, built (outside the lock) on a miss."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry  # most recently used goes last
                return entry
        built = build()
        with self._lock:
            # a racing builder may have won; every caller shares its entry
            entry = self._entries.setdefault(key, built)
            while len(self._entries) > self.slots:
                del self._entries[next(iter(self._entries))]
        return entry


_TRACES: "_Memo[Trace]" = _Memo(_TRACE_SLOTS)
_STREAMS: "_Memo[JitterStream]" = _Memo(_STREAM_SLOTS)


def clear() -> None:
    """Empty both memos, so the next run of any seed starts cold."""
    _TRACES.clear()
    _STREAMS.clear()


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def _phase_key(phase: PhaseSpec) -> tuple:
    # the mix keeps its order: generation zips the mix items in order
    return tuple(
        tuple(value.items()) if isinstance(value, dict) else value
        for value in (getattr(phase, f.name) for f in fields(phase))
    )


def _trace_key(
    spec: BenchmarkSpec, max_instructions: Optional[int], seed: Optional[int]
) -> tuple:
    # what generation reads: the phases (truncated to the window) and seed
    return (
        tuple(_phase_key(phase) for phase in spec.phases),
        max_instructions,
        spec.seed if seed is None else seed,
    )


def trace_for(
    spec: BenchmarkSpec,
    max_instructions: Optional[int] = None,
    seed: Optional[int] = None,
) -> Trace:
    """``generate_trace(spec, max_instructions, seed)`` as a shared tuple."""

    def build() -> Trace:
        return tuple(
            generate_trace(spec, max_instructions=max_instructions, seed=seed)
        )

    return _TRACES.get(_trace_key(spec, max_instructions, seed), build)



# ----------------------------------------------------------------------
# clock jitter
# ----------------------------------------------------------------------


class JitterStream:
    """The ``rng.gauss(0.0, sigma)`` variates of one clock, drawn once.

    The stream owns a copy of the clock RNG taken at its starting state;
    the clock's own RNG is never touched.
    """

    def __init__(self, state: tuple, sigma: float) -> None:
        self._rng = random.Random(0)
        self._rng.setstate(state)
        self._sigma = sigma
        self._chunks: List["array[float]"] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Variates drawn so far."""
        return len(self._chunks) * _STREAM_CHUNK

    def _chunk(self, index: int) -> "array[float]":
        with self._lock:
            while len(self._chunks) <= index:
                gauss = self._rng.gauss
                sigma = self._sigma
                self._chunks.append(
                    array("d", [gauss(0.0, sigma) for _ in range(_STREAM_CHUNK)])
                )
            return self._chunks[index]

    def reader(self) -> Callable[[], float]:
        """A zero-argument callable returning the variates in order."""
        return chain.from_iterable(map(self._chunk, count())).__next__


def jitter_stream(rng: random.Random, sigma: float) -> JitterStream:
    """The shared stream of ``rng``'s jitter variates from its current state."""
    state = rng.getstate()
    return _STREAMS.get((state, sigma), lambda: JitterStream(state, sigma))


__all__ = [
    "JitterStream",
    "Trace",
    "clear",
    "jitter_stream",
    "trace_for",
]
