"""Tests for the semantic layer: symbol table, dataflow, call graph."""

import ast

from conftest import IN_SCOPE

from repro.statcheck.callgraph import CallGraph
from repro.statcheck.dataflow import def_use
from repro.statcheck.engine import Project, SourceFile
from repro.statcheck.semantic import SymbolTable


def _project(*named_sources):
    files = [
        SourceFile.from_source(source, path=f"{module}.py", module=module)
        for module, source in named_sources
    ]
    return Project(files=files)


class TestSymbolTable:
    def test_indexes_functions_methods_and_classes(self):
        table = SymbolTable.build(
            _project(
                (
                    "pkg.mod",
                    "def helper():\n"
                    "    return 1\n"
                    "class Widget:\n"
                    "    def render(self):\n"
                    "        return helper()\n",
                )
            )
        )
        assert "pkg.mod.helper" in table.functions
        assert "pkg.mod.Widget.render" in table.functions
        assert "pkg.mod.Widget" in table.classes
        widget = table.classes["pkg.mod.Widget"]
        assert "render" in widget.methods

    def test_resolves_imported_alias(self):
        table = SymbolTable.build(
            _project(
                ("lib.util", "def run_job(job):\n    return job\n"),
                (
                    "app.main",
                    "from lib.util import run_job as rj\n"
                    "def go(job):\n"
                    "    return rj(job)\n",
                ),
            )
        )
        resolved = table.resolve_function("app.main", "rj")
        assert resolved is not None
        assert resolved.qualname == "lib.util.run_job"

    def test_mutable_globals_detection(self):
        table = SymbolTable.build(
            _project(
                (
                    "state",
                    "import collections\n"
                    "CACHE = {}\n"
                    "QUEUE = collections.deque()\n"
                    "LIMIT = 5\n"
                    "NAME = 'x'\n",
                )
            )
        )
        info = table.modules["state"]
        assert set(info.mutable_globals) == {"CACHE", "QUEUE"}

    def test_mro_methods_walks_project_bases(self):
        table = SymbolTable.build(
            _project(
                (
                    "base",
                    "class Ref:\n"
                    "    def step(self):\n"
                    "        return 0\n",
                ),
                (
                    "fast",
                    "from base import Ref\n"
                    "class Quick(Ref):\n"
                    "    pass\n",
                ),
            )
        )
        quick = table.classes["fast.Quick"]
        found = table.mro_methods(quick, "step")
        assert [fn.qualname for fn in found] == ["base.Ref.step"]


class TestDefUse:
    def _func(self, source):
        tree = ast.parse(source)
        return tree.body[0]

    def test_parameter_reaches_first_use(self):
        result = def_use(self._func("def f(x):\n    return x\n"))
        (use,) = [u for u in result.uses if u.name == "x"]
        assert use.reaching == frozenset({1})

    def test_straight_line_redefinition_replaces(self):
        result = def_use(
            self._func(
                "def f():\n"
                "    x = 1\n"
                "    x = 2\n"
                "    return x\n"
            )
        )
        assert result.definitions["x"] == [2, 3]
        assert result.reaching("x", 4) == frozenset({3})

    def test_branches_merge_reaching_sets(self):
        result = def_use(
            self._func(
                "def f(flag):\n"
                "    if flag:\n"
                "        x = 1\n"
                "    else:\n"
                "        x = 2\n"
                "    return x\n"
            )
        )
        assert result.reaching("x", 6) == frozenset({3, 5})

    def test_loop_body_definition_reaches_after_loop(self):
        result = def_use(
            self._func(
                "def f(items):\n"
                "    x = 0\n"
                "    for item in items:\n"
                "        x = item\n"
                "    return x\n"
            )
        )
        # both the pre-loop and in-loop definitions can reach the return
        assert result.reaching("x", 5) == frozenset({2, 4})


class TestCallGraph:
    def test_direct_call_edge(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def callee():\n"
                    "    return 1\n"
                    "def caller():\n"
                    "    return callee()\n",
                )
            )
        )
        graph = CallGraph.build(table)
        kinds = {
            (e.caller, e.callee): e.kind for e in graph.edges
        }
        assert kinds[("m.caller", "m.callee")] == "direct"

    def test_method_call_edge_through_self(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "class C:\n"
                    "    def a(self):\n"
                    "        return self.b()\n"
                    "    def b(self):\n"
                    "        return 1\n",
                )
            )
        )
        graph = CallGraph.build(table)
        kinds = {(e.caller, e.callee): e.kind for e in graph.edges}
        assert kinds[("m.C.a", "m.C.b")] == "method"

    def test_pool_submitted_callable_is_worker_entry(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def work(x):\n"
                    "    return x\n"
                    "def fan_out(executor, items):\n"
                    "    return [executor.submit(work, i) for i in items]\n",
                )
            )
        )
        graph = CallGraph.build(table)
        assert "m.work" in graph.worker_entries
        kinds = {(e.caller, e.callee): e.kind for e in graph.edges}
        assert kinds[("m.fan_out", "m.work")] == "pool"

    def test_worker_reachability_is_transitive(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def leaf():\n"
                    "    return 1\n"
                    "def work(x):\n"
                    "    return leaf()\n"
                    "def fan_out(pool, items):\n"
                    "    return pool.map(work, items)\n",
                )
            )
        )
        graph = CallGraph.build(table)
        reachable = graph.worker_reachable()
        assert reachable == {"m.work": "m.work", "m.leaf": "m.work"}

    def test_unresolvable_targets_contribute_nothing(self):
        table = SymbolTable.build(
            _project(
                (
                    "m",
                    "def fan_out(executor, handlers):\n"
                    "    return [executor.submit(h) for h in handlers]\n",
                )
            )
        )
        graph = CallGraph.build(table)
        assert graph.worker_entries == set()


def test_in_scope_module_constant_matches_fixture_layout():
    # the conftest virtual module must stay inside the semantic rules'
    # scope, or every fixture above silently tests nothing
    assert IN_SCOPE.startswith("repro.")
