"""Determinism rules: the invariants behind "same spec, same bits".

Every simulation result is cached content-addressed and compared across
process-pool and serial execution, so any nondeterminism -- a shared
global RNG, hashing in set-iteration order -- silently corrupts sweeps
rather than failing loudly.  These rules push all randomness through
injected, seeded ``random.Random`` / ``numpy`` Generator instances and
keep cache-key hashing order-independent.  (A host-clock read that
reaches a result is caught at run time by the same-seed hash test.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutil import (
    import_map,
    iter_scopes,
    resolve_call,
    walk_scope,
)
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

#: Hash entry points whose inputs must be deterministically ordered.
_HASH_FUNCS = frozenset(
    {
        "hash",
        "hashlib.blake2b",
        "hashlib.blake2s",
        "hashlib.md5",
        "hashlib.new",
        "hashlib.sha1",
        "hashlib.sha224",
        "hashlib.sha256",
        "hashlib.sha384",
        "hashlib.sha512",
    }
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


@register
class UnorderedHashRule(Rule):
    """DET003: set iteration order must never feed a hash or cache key."""

    id = "DET003"
    description = (
        "no iteration over unordered sets in functions that compute hashes "
        "or cache keys; wrap the iterable in sorted(...)"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        assert file.tree is not None
        imports = import_map(file.tree)
        for scope in iter_scopes(file.tree):
            if not self._scope_hashes(scope, imports):
                continue
            for node in walk_scope(scope):
                iterables = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(node, ast.comprehension):
                    iterables.append(node.iter)
                for iterable in iterables:
                    if self._is_unordered(iterable, imports):
                        yield self.finding(
                            file,
                            iterable,
                            "iteration over an unordered set inside "
                            "hash/cache-key derivation; iteration order is "
                            "not deterministic -- wrap in sorted(...)",
                        )

    @staticmethod
    def _scope_hashes(scope: ast.AST, imports: "dict[str, str]") -> bool:
        for node in walk_scope(scope):
            if isinstance(node, ast.Call):
                if resolve_call(node.func, imports) in _HASH_FUNCS:
                    return True
        return False

    @staticmethod
    def _is_unordered(node: ast.AST, imports: "dict[str, str]") -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return resolve_call(node.func, imports) in ("set", "frozenset")
        return False
