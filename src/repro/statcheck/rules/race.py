"""RACE001: shared-state writes in pool-worker-reachable code.

The sweep engine fans jobs out over a ``ProcessPoolExecutor``.  A
function that runs inside a worker and mutates a module-level container
(``CACHE[key] = ...``, ``RESULTS.append(...)``, ``global COUNT``) is a
latent correctness bug twice over: under the pool each worker mutates
its *own copy* so the write silently vanishes from the parent, and under
the engine's serial fallback the same code suddenly *does* share state
-- two execution modes, two behaviours.

This rule combines the semantic layer's pieces: the
:class:`~repro.statcheck.semantic.SymbolTable` knows which module-level
names are mutable containers, the
:class:`~repro.statcheck.callgraph.CallGraph` knows which functions are
reachable from pool submissions (``executor.submit(fn, ...)``,
``pool.map(fn, ...)``).  Any mutation of a
module-level mutable inside a worker-reachable function is flagged,
with the worker entry point it is reachable from named in the message.

Names rebound locally (parameters, plain local assignments without a
``global`` declaration) shadow the global and are not flagged; imported
globals (``from repro.engine.state import CACHE``) resolve through the
import map.  Unresolvable call targets contribute no reachability, so
the rule fails open on dynamic dispatch.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.statcheck.callgraph import CallGraph
from repro.statcheck.engine import Project, Rule
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register
from repro.statcheck.semantic import FunctionInfo, SymbolTable

#: methods that mutate their receiver in place
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


def _local_bindings(fn: FunctionInfo) -> Tuple[Set[str], Set[str]]:
    """Names bound locally in ``fn`` and names declared ``global``."""
    declared_global: Set[str] = set()
    bound: Set[str] = set()
    args = fn.node.args
    for param in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(param.arg)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
    return bound - declared_global, declared_global


class _GlobalResolver:
    """Resolve a bare name in a function to a module-level mutable."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table

    def resolve(self, fn: FunctionInfo, name: str) -> Optional[str]:
        """Dotted ``module.NAME`` of the mutable global, or ``None``."""
        module = self.table.modules.get(fn.module)
        if module is None:
            return None
        if name in module.mutable_globals:
            return f"{fn.module}.{name}"
        imported = module.imports.get(name)
        if imported is None or "." not in imported:
            return None
        src_module, _, attr = imported.rpartition(".")
        src = self.table.modules.get(src_module)
        if src is not None and attr in src.mutable_globals:
            return f"{src_module}.{attr}"
        return None


def _mutations(fn: FunctionInfo) -> Iterator[Tuple[str, ast.AST, str]]:
    """Yield ``(name, node, how)`` for candidate shared-state mutations."""
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, node, "item assignment"
                elif isinstance(target, ast.Name) and isinstance(
                    node, (ast.Assign, ast.AugAssign)
                ):
                    # only a race when the name is declared global;
                    # the caller filters on that
                    yield target.id, node, "rebinding"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, node, "item deletion"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr in _MUTATING_METHODS
        ):
            yield node.func.value.id, node, f".{node.func.attr}() call"


@register
class PoolSharedStateRule(Rule):
    """No module-level mutable state mutated from pool workers."""

    id = "RACE001"
    description = (
        "functions reachable from pool-worker entry points (executor/pool "
        "submissions) must not mutate module-level mutable "
        "containers: worker processes mutate private copies, and the "
        "serial fallback silently changes the sharing semantics"
    )
    scope = ()  # cross-module

    def check_project(self, project: Project) -> Iterator[Finding]:
        table = SymbolTable.build(project)
        graph = CallGraph.build(table)
        in_worker = graph.worker_reachable()
        if not in_worker:
            return
        resolver = _GlobalResolver(table)
        for qualname in sorted(in_worker):
            fn = table.functions.get(qualname)
            if fn is None:
                continue
            entry = in_worker[qualname]
            local, declared_global = _local_bindings(fn)
            seen: Set[Tuple[str, int]] = set()
            for name, node, how in _mutations(fn):
                if name in local:
                    continue
                if how == "rebinding" and name not in declared_global:
                    continue
                target = resolver.resolve(fn, name)
                if target is None and how == "rebinding":
                    # ``global`` rebinding races even on immutable values
                    module = table.modules.get(fn.module)
                    if module is not None:
                        target = f"{fn.module}.{name}"
                if target is None:
                    continue
                key = (target, getattr(node, "lineno", 0))
                if key in seen:
                    continue
                seen.add(key)
                via = (
                    ""
                    if entry == qualname
                    else f" (reachable from worker entry {entry})"
                )
                noun = "name" if how == "rebinding" else "mutable"
                yield self.finding(
                    fn.file,
                    node,
                    f"{how} on module-level {noun} {target} inside "
                    f"pool-worker code {qualname}{via}; worker processes "
                    "see private copies and the serial fallback shares it",
                )
