"""End-to-end gate: the analyzer must exit clean on the real source tree.

This is the analysis CI runs (`repro-dvfs check src`), so a failure
here means a rule regressed or new code introduced a finding.  The tree
is analyzed once, and the tests that need the whole of ``src`` share
that pass.
"""

import os

import pytest

from repro.statcheck import Analyzer, all_rules

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture(scope="module")
def src_report():
    """The report of one full analysis of ``src``."""
    return Analyzer().analyze_paths([SRC])


def test_src_tree_is_clean(src_report):
    assert src_report.ok, [f.format_text() for f in src_report.findings]


def test_concurrency_rules_are_registered():
    ids = {rule.id for rule in all_rules()}
    expected = {
        "ASYNC001", "ASYNC002", "ASYNC003", "LOCK001", "MET001", "SPAN001",
    }
    assert expected <= ids


def test_report_covers_whole_tree(src_report):
    assert src_report.files_scanned >= 60
    assert src_report.findings == []
    # the known, justified LOCK001 suppressions
    assert src_report.suppressed >= 4


def test_analyzer_is_clean_on_its_own_source():
    statcheck_dir = os.path.join(SRC, "repro", "statcheck")
    report = Analyzer().analyze_paths([statcheck_dir])
    assert report.findings == []
