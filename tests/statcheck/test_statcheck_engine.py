"""Engine-level tests: suppressions, scoping, parse errors, rule selection."""

import pytest

from conftest import IN_SCOPE, load_fixture

from repro.statcheck import Analyzer, SourceFile
from repro.statcheck.engine import PARSE_ERROR_RULE, SUPPRESSION_RULE


def analyze(files, **kwargs):
    return Analyzer(**kwargs).analyze(files)


class TestSuppressions:
    def test_line_pragma_suppresses_exact_line(self):
        report = analyze([load_fixture("suppressed.py")])
        assert report.findings == []
        assert report.suppressed == 3

    def test_pragma_on_wrong_line_does_not_suppress(self):
        source = (
            "import random\n"
            "# statcheck: disable=DET001 -- jitter is the point\n"
            "def f():\n"
            "    return random.random()\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.suppressed == 0

    def test_file_pragma_suppresses_whole_file(self):
        source = (
            "# statcheck: disable-file=DET001 -- jitter is the point\n"
            "import random\n"
            "def f():\n"
            "    return random.random() + random.randint(1, 6)\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert report.findings == []
        assert report.suppressed == 2

    def test_pragma_inside_string_literal_is_ignored(self):
        source = (
            "import random\n"
            "def f():\n"
            '    note = "# statcheck: disable=DET001"\n'
            "    return random.random(), note\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_disable_all_wildcard(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:  # statcheck: disable=all -- any failure means 0\n"
            "        return 0\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_pragma_naming_an_unregistered_rule_is_sup001(self):
        """A pragma for a rule the registry does not know -- a typo, or
        the deleted DET002 -- is reported instead of silently accepted."""
        source = (
            "x = 1  # statcheck: disable=NOPE001 -- stale\n"
            "# statcheck: disable-file=DET002 -- the rule was deleted\n"
        )
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)]
        )
        assert [(f.rule, f.line) for f in report.findings] == [
            (SUPPRESSION_RULE, 1),
            (SUPPRESSION_RULE, 2),
        ]
        assert "NOPE001" in report.findings[0].message
        assert "DET002" in report.findings[1].message

    def test_pragma_for_an_unselected_rule_stays_quiet(self):
        source = "x = 1  # statcheck: disable=DET001 -- not selected here\n"
        report = analyze(
            [SourceFile.from_source(source, path="x.py", module=IN_SCOPE)],
            select=["PY002"],
        )
        assert report.findings == []


class TestParseErrors:
    def test_syntax_error_yields_e001(self):
        bad = SourceFile.from_source("def f(:\n", path="bad.py")
        report = analyze([bad])
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert not report.ok

    def test_parse_error_does_not_abort_other_files(self):
        bad = SourceFile.from_source("def f(:\n", path="bad.py")
        good = SourceFile.from_source(
            "import random\ndef f():\n    return random.random()\n",
            path="good.py",
            module=IN_SCOPE,
        )
        report = analyze([bad, good])
        assert sorted(f.rule for f in report.findings) == [
            "DET001",
            PARSE_ERROR_RULE,
        ]


class TestRuleSelection:
    def test_select_runs_only_named_rules(self):
        report = analyze([load_fixture("py002_fires.py")], select=["DET001"])
        assert report.findings == []
        assert report.rules == ["DET001"]

    def test_ignore_removes_named_rules(self):
        report = analyze([load_fixture("py002_fires.py")], ignore=["PY002"])
        assert "PY002" not in report.rules
        assert report.findings == []

    @pytest.mark.parametrize("kwargs", [
        {"select": ["NOPE999"]},
        {"ignore": ["NOPE999"]},
    ])
    def test_unknown_rule_id_raises(self, kwargs):
        with pytest.raises(ValueError, match="NOPE999"):
            Analyzer(**kwargs)


class TestReportShape:
    def test_findings_are_sorted_and_counted(self):
        report = analyze([
            load_fixture("py002_fires.py"),
            load_fixture("det001_fires.py"),
        ])
        assert report.files_scanned == 2
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)
        assert report.ok is False

    def test_clean_report_is_ok(self):
        report = analyze([load_fixture("py002_clean.py")])
        assert report.ok is True
        assert report.findings == []
