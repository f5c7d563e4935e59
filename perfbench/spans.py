"""In-memory spans for the traced pass, recorded around public calls.

Each span has a name, start and end (``perf_counter`` seconds), the span
that caused it and the identifier of the request or job it belongs to.
Spans stay in memory; :mod:`layers` turns them into per-layer metrics
when the pass ends.  :data:`NULL_TRACER` takes the same calls and
records nothing, so the untraced pass runs the identical code.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    trace: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span list; nesting is tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, trace: str = "") -> Iterator[Span]:
        """Time the body as span ``name``; yields the (open) span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and not trace:
            trace = self.spans[parent].trace
        record = Span(name, trace, parent, time.perf_counter())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def attr_values(self, name: str, key: str) -> List[Any]:
        return [s.attrs[key] for s in self.spans if s.name == name and key in s.attrs]

    def covered(self) -> float:
        """Seconds covered by layer spans: the direct children of roots.

        Layer spans never overlap within one thread, so their durations
        add up; a root's remaining self time is unattributed.
        """
        roots = {i for i, s in enumerate(self.spans) if s.parent is None}
        return sum(s.duration for s in self.spans if s.parent in roots)


class _NullTracer:
    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, trace: str = "") -> Iterator[Span]:
        yield Span(name, trace, None, 0.0)


NULL_TRACER = _NullTracer()
