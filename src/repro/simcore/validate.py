"""Bit-identity comparison between simulation results.

The fast core's contract is *bit*-identity, not tolerance-based closeness:
every float in a :class:`repro.mcd.processor.SimulationResult` produced by
the fast core must equal the reference core's float exactly.  The golden
equivalence suite and the repository benchmark's verification (perfbench
re-simulates a swept job on ``ref``) both use these helpers, and
``assert_results_identical`` reports the first diverging field with both
values in full ``repr`` precision so a contract break is immediately
actionable.

Comparison goes through :func:`repro.harness.persistence.result_to_dict`
(with history) so it automatically covers every field the repo's own
persistence layer considers part of a result -- a new result field that
reaches the artifact format is compared here without this module changing.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.harness.persistence import result_to_dict
from repro.mcd.processor import SimulationResult

#: Wall-clock measurements inside ``probe_summary["profile"]``.  They differ
#: between *any* two runs (including two reference runs), so they are outside
#: the bit-identity contract; deterministic profile fields (``samples``,
#: per-phase ``calls``) are still compared.
_WALL_CLOCK_KEYS = frozenset({"wall_s", "samples_per_s", "share"})


def _scrub_wall_clock(value: Any) -> Any:
    """Drop wall-clock keys from a profile subtree, recursively."""
    if isinstance(value, dict):
        return {
            k: _scrub_wall_clock(v)
            for k, v in value.items()
            if k not in _WALL_CLOCK_KEYS
        }
    return value


def _comparable(result: SimulationResult) -> Any:
    data = result_to_dict(result, include_history=True)
    summary = data.get("probe_summary")
    if isinstance(summary, dict) and "profile" in summary:
        summary = dict(summary)
        summary["profile"] = _scrub_wall_clock(summary["profile"])
        data = dict(data)
        data["probe_summary"] = summary
    return data


def _walk_diffs(a: Any, b: Any, path: str) -> Iterator[Tuple[str, Any, Any]]:
    """Yield ``(path, left, right)`` for every leaf where ``a != b``.

    Floats are compared with ``==`` (exact; +-0.0 aside, equal floats are
    bit-equal), never with a tolerance.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a:
                yield (f"{path}.{key}", "<missing>", b[key])
            elif key not in b:
                yield (f"{path}.{key}", a[key], "<missing>")
            else:
                yield from _walk_diffs(a[key], b[key], f"{path}.{key}")
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            yield (f"{path}.len", len(a), len(b))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _walk_diffs(x, y, f"{path}[{i}]")
        return
    # Exact leaf comparison; type mismatches (e.g. 0 vs 0.0) also count.
    if a != b or type(a) is not type(b):
        yield (path, a, b)


def result_diffs(
    ref: SimulationResult, other: SimulationResult
) -> "list[Tuple[str, Any, Any]]":
    """All leaf-level differences between two results (empty = identical)."""
    return list(_walk_diffs(_comparable(ref), _comparable(other), "result"))


def results_identical(ref: SimulationResult, other: SimulationResult) -> bool:
    """True when every field of both results matches exactly."""
    return not result_diffs(ref, other)


def assert_results_identical(
    ref: SimulationResult, other: SimulationResult, context: str = ""
) -> None:
    """Raise ``AssertionError`` naming the first diverging fields.

    ``context`` prefixes the message (e.g. ``"gzip/adaptive seed=7"``).
    """
    diffs = result_diffs(ref, other)
    if not diffs:
        return
    shown = "\n".join(
        f"  {path}: ref={left!r} other={right!r}"
        for path, left, right in diffs[:10]
    )
    suffix = "" if len(diffs) <= 10 else f"\n  ... and {len(diffs) - 10} more"
    prefix = f"{context}: " if context else ""
    raise AssertionError(
        f"{prefix}results diverge in {len(diffs)} field(s):\n{shown}{suffix}"
    )
