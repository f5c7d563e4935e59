"""Determinism rule: the invariant behind "same spec, same bits".

Every simulation result is cached content-addressed and compared across
process-pool and serial execution, so any nondeterminism -- a shared
global RNG above all -- silently corrupts sweeps rather than failing
loudly.  DET001 pushes all randomness through injected, seeded
``random.Random`` / ``numpy`` Generator instances.  (A host-clock read
that reaches a result is caught at run time by the same-seed hash test,
and a cache key that depends on iteration order by the two-hash-seed
test in ``tests/engine/test_engine_cache.py``.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutil import import_map, resolve_call
from repro.statcheck.engine import Rule, SourceFile
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register

#: Packages whose code runs inside (or decides for) the simulated machine.
SIMULATION_SCOPE = ("repro.mcd", "repro.core", "repro.dvfs", "repro.simcore")

#: Module-level functions of ``random`` that draw from (or reseed) the
#: interpreter-global RNG.  ``random.Random(seed)`` constructs an owned,
#: seeded instance and is the sanctioned alternative.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` attributes that do NOT touch the legacy global state.
_NUMPY_RANDOM_OK = frozenset(
    {"Generator", "RandomState", "SeedSequence", "default_rng"}
)

@register
class UnseededRandomRule(Rule):
    """DET001: module-level RNG calls make runs irreproducible."""

    id = "DET001"
    description = (
        "no global random/np.random calls in simulation or controller "
        "code; inject a seeded random.Random / numpy Generator instead"
    )
    scope = SIMULATION_SCOPE

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        assert file.tree is not None
        imports = import_map(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(node.func, imports)
            if resolved is None:
                continue
            if (
                resolved.startswith("random.")
                and resolved.split(".", 1)[1] in _GLOBAL_RANDOM_FUNCS
            ):
                yield self.finding(
                    file,
                    node,
                    f"call to global RNG {resolved}() is unseeded shared "
                    "state; draw from an injected seeded random.Random",
                )
            elif (
                resolved.startswith("numpy.random.")
                and resolved.rsplit(".", 1)[1] not in _NUMPY_RANDOM_OK
            ):
                yield self.finding(
                    file,
                    node,
                    f"call to legacy global {resolved}() is unseeded shared "
                    "state; use numpy.random.default_rng(seed)",
                )
