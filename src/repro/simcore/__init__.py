"""Selectable simulation cores: reference, fast scalar, and SoA batch.

Three interchangeable cores execute every simulation:

* ``ref`` -- :class:`repro.mcd.processor.MCDProcessor`, the straight-line
  reference implementation;
* ``fast`` -- :class:`repro.simcore.fast.FastMCDProcessor`, the
  profile-guided megaloop that is bit-identical by contract (same
  ``SimulationResult``, same ``FrequencyStepEvent`` sequence, same
  probe-event stream) and >=2x faster;
* ``batch`` -- :class:`repro.simcore.batchcore.BatchMCDProcessor`, the
  structure-of-arrays core (PR 9): many seeds/configs simulate as one
  lock-step batch whose DVFS control plane is vectorized with NumPy
  (:mod:`repro.simcore.soa`), still bit-identical per lane.  Requires
  numpy; without it the core degrades to the fast megaloop with a
  one-time warning.

``fast`` is the default; ``REPRO_SIMCORE=ref`` is the escape hatch that
forces the reference core everywhere (CLI, sweeps, pool workers -- the
environment variable is inherited across process boundaries).  Sweep cache
keys include the resolved core, so results produced under different cores
never alias even though they are byte-identical by contract.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from typing import TYPE_CHECKING, Any, Optional, Tuple, Type

from repro.simcore.batch import run_batch
from repro.simcore.tables import SimTables, tables_for
from repro.simcore.validate import assert_results_identical, results_identical
from repro.simcore.wheel import EventWheel

if TYPE_CHECKING:
    from repro.mcd.processor import MCDProcessor

#: environment variable selecting the simulation core
SIMCORE_ENV = "REPRO_SIMCORE"
#: recognised core names
CORES: Tuple[str, ...] = ("ref", "fast", "batch")
#: core used when neither an explicit choice nor the env var is given
DEFAULT_CORE = "fast"

__all__ = [
    "CORES",
    "DEFAULT_CORE",
    "SIMCORE_ENV",
    "EventWheel",
    "SimTables",
    "assert_results_identical",
    "batch_available",
    "create_processor",
    "processor_class",
    "reset_degradation_warning",
    "resolve_core",
    "results_identical",
    "run_batch",
    "tables_for",
]


def resolve_core(choice: Optional[str] = None) -> str:
    """Resolve a core selection: explicit choice > env var > default.

    Raises ``ValueError`` for unknown names so a typo in ``REPRO_SIMCORE``
    fails loudly instead of silently simulating with the wrong core.
    """
    selected = choice if choice is not None else os.environ.get(SIMCORE_ENV)
    if selected is None or selected == "":
        return DEFAULT_CORE
    if selected not in CORES:
        raise ValueError(
            f"unknown simcore {selected!r} (from "
            f"{'argument' if choice is not None else SIMCORE_ENV}); "
            f"expected one of {CORES}"
        )
    return selected


def batch_available() -> bool:
    """Is the vectorized control plane usable (numpy importable)?"""
    return importlib.util.find_spec("numpy") is not None


#: Whether the batch->fast degradation warning has fired this process.
#: Sweeps resolve the core once per job, so an unguarded warn would spam
#: one line per lane; tests reset the guard to observe the warning again.
_degradation_warned = False


def reset_degradation_warning() -> None:
    """Re-arm the one-shot degradation warning (test isolation hook)."""
    global _degradation_warned
    _degradation_warned = False


def _warn_degraded() -> None:
    global _degradation_warned
    if _degradation_warned:
        return
    _degradation_warned = True
    warnings.warn(
        "REPRO_SIMCORE=batch requested but numpy is not installed; "
        "simulating with the bit-identical 'fast' core instead",
        RuntimeWarning,
        stacklevel=3,
    )


def processor_class(choice: Optional[str] = None) -> Type["MCDProcessor"]:
    """The processor class implementing the resolved core."""
    core = resolve_core(choice)
    if core == "ref":
        from repro.mcd.processor import MCDProcessor

        return MCDProcessor
    if core == "batch":
        # BatchMCDProcessor itself is numpy-free; without numpy its run()
        # degrades lane by lane to the (bit-identical) fast megaloop.
        if not batch_available():
            _warn_degraded()
        from repro.simcore.batchcore import BatchMCDProcessor

        return BatchMCDProcessor
    from repro.simcore.fast import FastMCDProcessor

    return FastMCDProcessor


def create_processor(
    *args: Any, simcore: Optional[str] = None, **kwargs: Any
) -> "MCDProcessor":
    """Instantiate the selected core with MCDProcessor's constructor args."""
    return processor_class(simcore)(*args, **kwargs)
