"""SPAN001: span start/end pairing.

A span obtained from ``*.spans.start(...)`` (or a ``Span(...)``
constructor) must reach ``end()`` on the paths that complete normally,
unless it *escapes* the function -- returned, stored on ``self``/a
container, passed to another callable, or managed by a ``with`` block.
A span that is started, held in a local, and silently dropped never
records its duration and leaks an open entry in the recorder.

The check runs the shared :class:`~repro.statcheck.dataflow.
ForwardWalker` with span identities as the abstract value, using the
``on_return`` hook to watch every exit path.  Merges of distinct states
(a span started in only one branch -- the coalescer's conditional
flush-span pattern) mark the span escaped, so the rule under-approximates
and fails open.  (That span ids stay out of the sweep cache key is a
test, ``TestCacheKey`` in ``tests/engine/test_engine_cache.py``.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.statcheck.astutil import (
    FUNCTION_NODES,
    dotted_name,
    import_map,
    resolve_call,
    walk_scope,
)
from repro.statcheck.dataflow import Env, ForwardWalker
from repro.statcheck.engine import Rule, SourceFile
from repro.statcheck.findings import Finding
from repro.statcheck.registry import register

#: method names that start a span on a recorder-ish receiver
_START_ATTRS = frozenset({"start", "start_span"})

#: method names that finish a span
_END_ATTRS = frozenset({"end", "finish"})


class _SpanState:
    """Identity of one span-start site, with lifecycle flags that are
    shared across all control-flow paths (fail-open unioning)."""

    __slots__ = ("line", "label", "ended", "escaped")

    def __init__(self, line: int, label: str) -> None:
        self.line = line
        self.label = label
        self.ended = False
        self.escaped = False


class _SpanWalker(ForwardWalker[_SpanState]):
    def __init__(self, imports: Dict[str, str], with_exprs: Set[int]) -> None:
        self.imports = imports
        #: ids of Call nodes used as ``with`` context expressions --
        #: their __exit__ ends the span
        self.with_exprs = with_exprs
        self.created: List[_SpanState] = []

    # -- domain ---------------------------------------------------------

    def merge(self, a: _SpanState, b: _SpanState) -> _SpanState:
        if a is not b:
            # a name holding different spans (or a span on only one
            # path): give up tracking rather than invent a finding
            a.escaped = True
            b.escaped = True
        return a

    def infer(
        self, node: ast.expr, env: "Env[_SpanState]"
    ) -> Optional[_SpanState]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Await):
            return self.infer(node.value, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Lambda):
            return None  # separate scope
        if isinstance(node, ast.Attribute):
            # reading span.context / span.attrs is not an escape
            self.infer(node.value, env)
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                value = self.infer(child, env)
                if value is not None:
                    # span flows into a container/expression we cannot
                    # track: assume it reaches an owner that ends it
                    value.escaped = True
        return None

    def _call(
        self, node: ast.Call, env: "Env[_SpanState]"
    ) -> Optional[_SpanState]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _END_ATTRS:
            receiver = self.infer(func.value, env)
            if receiver is not None:
                receiver.ended = True
                self._mark_arguments(node, env)
                return None
        if self._is_span_start(node):
            state = _SpanState(
                line=getattr(node, "lineno", 1),
                label=dotted_name(func) or "span",
            )
            if id(node) in self.with_exprs:
                state.ended = True  # with-managed: __exit__ ends it
            self.created.append(state)
            self._mark_arguments(node, env)
            return state
        if isinstance(func, ast.Attribute):
            self.infer(func.value, env)
        self._mark_arguments(node, env)
        return None

    def _mark_arguments(
        self, node: ast.Call, env: "Env[_SpanState]"
    ) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            value = self.infer(arg, env)
            if value is not None:
                value.escaped = True

    def _is_span_start(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _START_ATTRS:
            receiver = dotted_name(func.value)
            if receiver is not None:
                last = receiver.rsplit(".", 1)[-1].lower()
                if "span" in last or "tracer" in last:
                    return True
        resolved = resolve_call(func, self.imports)
        return resolved is not None and (
            resolved == "Span" or resolved.endswith(".Span")
        )

    # -- hooks ----------------------------------------------------------

    def store_hook(
        self,
        target: ast.expr,
        value: Optional[_SpanState],
        env: "Env[_SpanState]",
    ) -> None:
        if value is not None:
            value.escaped = True  # stored on self/container: owner ends it

    def on_return(
        self, stmt: ast.Return, env: "Env[_SpanState]"
    ) -> None:
        if stmt.value is not None:
            value = self.infer(stmt.value, env)
            if value is not None:
                value.escaped = True  # returned: the caller owns it


@register
class SpanPairingRule(Rule):
    """Started spans end (or escape to an owner)."""

    id = "SPAN001"
    description = (
        "a started span must reach end() on completing paths or escape "
        "to an owner (returned, stored, passed on, with-managed): a "
        "dropped open span never records its duration"
    )
    scope = ()

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        assert file.tree is not None
        imports = import_map(file.tree)
        for fn in ast.walk(file.tree):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            yield from self._check_pairing(file, fn, imports)

    def _check_pairing(
        self,
        file: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: Dict[str, str],
    ) -> Iterator[Finding]:
        with_exprs: Set[int] = set()
        for node in walk_scope(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
        walker = _SpanWalker(imports, with_exprs)
        walker.run(fn.body)
        for state in walker.created:
            if state.ended or state.escaped:
                continue
            site = ast.Pass(lineno=state.line, col_offset=0)
            yield self.finding(
                file,
                site,
                f"span started by {state.label}(...) in {fn.name} never "
                "reaches end() and never escapes to an owner; close it "
                "in a finally block or use it as a context manager",
            )
