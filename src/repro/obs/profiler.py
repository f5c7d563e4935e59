"""Wall-time profiling of the simulator's sampling-loop phases.

The processor's 4 ns sampling event does four things -- latch queue
occupancies, let the controllers observe (and command steps), slew the
regulators/clocks, and record history + metrics.  When profiling is
enabled those four phases are timed with ``perf_counter`` every sample,
and the whole ``run()`` is timed end to end, yielding per-phase wall
time, phase shares, and samples/second.  The repository benchmark reads
the run-wide share of the sample path from it (perfbench's
``simcore.sample_path_share``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

#: The sampling-loop phases, in execution order.
SAMPLE_PHASES = ("latch", "observe", "slew", "record")


class PhaseProfiler:
    """Accumulates per-phase wall time and overall run throughput."""

    def __init__(self) -> None:
        self.phase_s: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        self.wall_s = 0.0
        self.samples = 0
        self._run_started: Optional[float] = None

    # -- hot-loop API --------------------------------------------------

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``phase``."""
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1

    # -- run lifecycle -------------------------------------------------

    def run_started(self) -> None:
        self._run_started = perf_counter()

    def run_finished(self, samples: int = 0) -> None:
        if self._run_started is not None:
            self.wall_s += perf_counter() - self._run_started
            self._run_started = None
        self.samples += samples

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.wall_s if self.wall_s > 0 else 0.0

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict:
        """Plain JSON-compatible profile: totals, per-phase breakdown."""
        wall = self.wall_s
        phases = {}
        for phase in sorted(set(self.phase_s) | set(SAMPLE_PHASES)):
            seconds = self.phase_s.get(phase, 0.0)
            phases[phase] = {
                "wall_s": seconds,
                "calls": self.phase_calls.get(phase, 0),
                "share": seconds / wall if wall > 0 else 0.0,
            }
        return {
            "wall_s": wall,
            "samples": self.samples,
            "samples_per_s": self.samples_per_s,
            "phases": phases,
        }
