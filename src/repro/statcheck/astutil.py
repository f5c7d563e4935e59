"""Shared AST helpers used by the statcheck rules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

#: AST nodes that open a new function scope.
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE_NODES = FUNCTION_NODES + (ast.Lambda,)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``; None otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the fully-qualified thing they are bound to.

    ``import numpy as np`` yields ``np -> numpy``; ``from time import
    perf_counter as pc`` yields ``pc -> time.perf_counter``.  Relative and
    star imports are ignored (nothing in this codebase uses them, and the
    rules fail open: an unresolvable name is simply not matched).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def resolve_call(func: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted name of a call target, through the imports.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; a bare builtin like ``set`` resolves to
    ``"set"``.  Returns ``None`` for dynamic targets (subscripts, calls).
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved_head = imports.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function (or module) body without descending into nested
    function scopes -- for rules whose invariants are per-scope."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPE_NODES):
            todo.extend(ast.iter_child_nodes(node))


def location(node: ast.AST) -> Tuple[int, int]:
    """(line, col) of a node, tolerating synthetic nodes without one."""
    return (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))


#: Executor/pool methods whose first argument is the remote callable.
#: Used by the call graph's worker-entry detection.
SUBMIT_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "submit",
    }
)

#: Receiver-name fragments that identify a worker pool.  Matching on the
#: receiver (``executor.submit``, ``self._pool.map``) rather than the
#: type keeps the detection purely syntactic; ``list.map``-style false
#: positives are impossible because ``map`` is never a method of a
#: non-pool object in this codebase.
POOL_HINTS = ("pool", "executor")


def is_pool_receiver(func: ast.Attribute) -> bool:
    """Whether an attribute call's receiver looks like a process pool."""
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    last = receiver.rsplit(".", 1)[-1].lower()
    return any(hint in last for hint in POOL_HINTS)


def is_pool_submit(node: ast.Call) -> bool:
    """Whether a call hands its first argument to a pool worker process."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in SUBMIT_METHODS
        and is_pool_receiver(func)
    )
