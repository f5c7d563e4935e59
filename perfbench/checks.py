"""Operation accounting and output verification.

Every operation a workload attempts is counted once in a :class:`Tally`;
an operation that errors, is refused, or returns output that fails
verification counts as failed.  ``fail_frac`` is ``failed / attempted``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List


class Tally:
    """Thread-safe attempted/failed counters plus the first few reasons."""

    MAX_REASONS = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> bool:
        """Count one verified operation; returns ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def plain(payload: Dict[str, Any]) -> Any:
    """``payload`` as it reads after one JSON round trip."""
    return json.loads(json.dumps(payload))


def verify_payload(
    tally: Tally, fetched: Dict[str, Any], expected: Dict[str, Any], label: str
) -> bool:
    """Compare a served result payload with the in-process one.

    ``expected`` is :func:`repro.harness.persistence.result_to_dict` of the
    same job run in-process, plus the ``sha`` the server adds.  Any
    difference, however small, is one failed operation.
    """
    want = plain(expected)
    diffs = sorted(
        key for key in set(fetched) | set(want) if fetched.get(key) != want.get(key)
    )
    return tally.check(not diffs, f"{label}: served payload differs in {diffs[:4]}")
