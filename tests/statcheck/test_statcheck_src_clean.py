"""End-to-end gate: the analyzer must exit clean on the real source tree.

This is the same invocation CI runs (`repro-dvfs check src`), so a
failure here means a rule regressed or new code introduced a finding.
The tree is analyzed cold once, into a temporary cache, and the tests
that need the whole of ``src`` share that pass.
"""

import os

import pytest

from repro.statcheck import Analyzer, all_rules
from repro.statcheck.cli import EXIT_CLEAN, main
from repro.statcheck.incremental import IncrementalAnalyzer

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture(scope="module")
def src_pass(tmp_path_factory):
    """(cache file, report) of one cold incremental pass over ``src``."""
    cache = str(tmp_path_factory.mktemp("statcheck") / "cache.json")
    report = IncrementalAnalyzer(Analyzer(), cache_path=cache).analyze_paths(
        [SRC]
    )
    return cache, report


def test_src_tree_is_clean(src_pass):
    cache, _ = src_pass
    assert main([SRC, "--cache-file", cache]) == EXIT_CLEAN


def test_concurrency_rules_are_registered():
    ids = {rule.id for rule in all_rules()}
    expected = {
        "ASYNC001", "ASYNC002", "ASYNC003",
        "LOCK001", "MET001", "SPAN001", "SPAN002",
    }
    assert expected <= ids


def test_report_covers_whole_tree(src_pass):
    _, report = src_pass
    assert report.files_scanned >= 60
    assert report.findings == []
    # the known, justified LOCK001 (4) and CACHE001 (1) suppressions
    assert report.suppressed >= 5


def test_analyzer_is_clean_on_its_own_source():
    statcheck_dir = os.path.join(SRC, "repro", "statcheck")
    report = Analyzer().analyze_paths([statcheck_dir])
    assert report.findings == []


def test_warm_incremental_run_hits_cache(src_pass):
    """A no-change rerun over src must serve >=80% of files from cache
    (in fact 100%: the project-level entry replays wholesale)."""
    cache, _ = src_pass
    report = IncrementalAnalyzer(Analyzer(), cache_path=cache).analyze_paths(
        [SRC]
    )
    assert report.incremental is not None
    assert report.incremental["hit_ratio"] >= 0.8
