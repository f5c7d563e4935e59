"""`statcheck`: AST-based invariant analysis for this repository.

The paper's headline numbers are only reproducible if every simulation
run is bit-deterministic and every sweep-cache hit is genuinely
equivalent to a recompute.  Invariants such as seeded randomness, pool
workers that share no module state, schema'd probe events and a serve
loop that never blocks are exactly the kind of thing a conventional
linter cannot express, so this package ships a small static-analysis
framework with 12 codebase-specific rules (``repro-dvfs check
--list-rules`` prints the catalog).  The sweep cache key itself is
guarded by a test, not a rule: ``TestCacheKey`` in
``tests/engine/test_engine_cache.py`` perturbs every ``SweepJob`` field
and recomputes a job grid under two hash seeds.

========================  ==============================================
rules                     invariant family
========================  ==============================================
DET001                    determinism: seeded randomness
CTL001                    no float ``==`` / ``!=`` in controller/FSM code
RACE001                   pool-reachable code does not mutate
                          module-level state
OBS001                    probe event kinds and schemas match both ways
PY002                     no swallowed exceptions
UNIT001                   no mixed physical units (ns / GHz / V / nJ)
ASYNC001-003, LOCK001     the serve event loop: no blocking calls, no
                          dropped tasks, loop-confined objects stay on
                          the loop, cross-context writes hold a lock
MET001, SPAN001           bounded metric-label cardinality; every
                          started span ends or escapes to an owner
========================  ==============================================

``UNIT001``/``RACE001`` and the concurrency rules are built on
the semantic layer (:mod:`~repro.statcheck.semantic` symbol table,
:mod:`~repro.statcheck.dataflow` def-use walker,
:mod:`~repro.statcheck.callgraph` call graph,
:mod:`~repro.statcheck.concurrency` execution-context model).  The
engine itself emits ``E001`` for files that fail to parse and
``SUP001`` for suppressions that are unjustified or name no registered
rule.

Findings can be suppressed inline, always with a reason::

    risky_call()  # statcheck: disable=DET001 -- justification here

or for a whole file with ``# statcheck: disable-file=RULE -- reason`` on
any line; a pragma without ``-- reason``, or one naming a rule that is
not registered, is itself a ``SUP001`` finding.
Run it as ``repro-dvfs check [paths]`` or ``python -m repro.statcheck``;
exit status is 0 (clean), 1 (findings), or 2 (usage error or analyzer
crash), so CI can tell a red build from a broken analyzer.
"""

from repro.statcheck.engine import (
    AnalysisReport,
    Analyzer,
    Project,
    Rule,
    SourceFile,
)
from repro.statcheck.findings import Finding, Severity
from repro.statcheck.registry import all_rules, get_rule, register

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "Project",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "get_rule",
    "register",
]
