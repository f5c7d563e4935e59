"""Tag-indexed event wheel and wake scheduler for the fast core.

The reference processor keeps its wake/sleep bookkeeping in three
``Dict[DomainId, ...]`` maps (``_sleeping``, ``_timer_target``,
``_wake_gen``): every wake, sleep, and timer check pays an enum hash.  The
fast core replaces them with flat lists indexed by the integer edge tag
(FE=0, INT=1, FP=2, LS=3), sharing the same heapq event queue and sequence
counter as the reference so heap tie-breaking -- and therefore event order --
is bit-identical.

The megaloop in :mod:`repro.simcore.fast` manipulates these lists directly
(bound to locals); the methods here exist for the cold paths -- setup, the
processor's overridden callbacks when poked outside ``run()``, and tests.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional, Tuple

#: heap entry: (time_ns, tag, seq, payload) -- same shape as the reference
Event = Tuple[float, int, int, int]

#: timer event tag for edge tag t (INT 1->5, FP 2->6, LS 3->7)
TIMER_TAG_OFFSET = 4


class EventWheel:
    """Heap-backed event queue plus tag-indexed wake state."""

    __slots__ = ("heap", "seq", "sleeping", "timer_target", "wake_gen")

    def __init__(self) -> None:
        self.heap: List[Event] = []
        self.seq = 0
        #: index = edge tag; slot 0 (front end) is tracked separately by the
        #: processor's ``_fe_sleeping`` backpressure flag
        self.sleeping: List[bool] = [False, False, False, False]
        self.timer_target: List[Optional[float]] = [None, None, None, None]
        self.wake_gen: List[int] = [0, 0, 0, 0]

    # ------------------------------------------------------------------

    def push(self, time_ns: float, tag: int, payload: int = 0) -> None:
        """Schedule one event; seq strictly increases so ties pop FIFO."""
        self.seq += 1
        heappush(self.heap, (time_ns, tag, self.seq, payload))

    def sleep(self, tag: int, timer_ns: Optional[float]) -> None:
        """Gate a domain; with a timer, schedule the generation-stamped wake."""
        self.sleeping[tag] = True
        self.timer_target[tag] = timer_ns
        self.wake_gen[tag] += 1
        if timer_ns is not None:
            self.push(timer_ns, tag + TIMER_TAG_OFFSET, self.wake_gen[tag])

    def wake(self, tag: int) -> None:
        """Clear a domain's sleep state and invalidate pending timers.

        The caller is responsible for skipping the domain clock forward and
        pushing its next edge (the wake time is clock business, not wheel
        business).
        """
        self.sleeping[tag] = False
        self.timer_target[tag] = None
        self.wake_gen[tag] += 1
