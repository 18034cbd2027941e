"""Framework-level tests: pragma parsing, suppression scope, reports, CLI."""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_paths,
    analyze_source,
    parse_pragmas,
    render_human,
)
from repro.analysis.cli import main
from repro.analysis.framework import MALFORMED_PRAGMA, all_rules


class TestPragmaParsing:
    def test_basic_pragma(self):
        src = "x = 1  # detlint: allow[DET001] — bench harness is wall-clock\n"
        (pragma,) = parse_pragmas(src)
        assert pragma.rules == ("DET001",)
        assert pragma.reason == "bench harness is wall-clock"
        assert pragma.line == 1
        assert not pragma.standalone

    def test_multiple_rule_ids(self):
        src = "x = 1  # detlint: allow[DET001, HOT001] — shared justification\n"
        (pragma,) = parse_pragmas(src)
        assert pragma.rules == ("DET001", "HOT001")

    def test_hyphen_separators_accepted(self):
        for sep in ("—", "--", "-"):
            src = f"x = 1  # detlint: allow[DET001] {sep} why\n"
            (pragma,) = parse_pragmas(src)
            assert pragma.reason == "why", sep

    def test_standalone_pragma_detected(self):
        src = "# detlint: allow[DET002] — fixture\nx = 1\n"
        (pragma,) = parse_pragmas(src)
        assert pragma.standalone
        assert pragma.covers(1) and pragma.covers(2)
        assert not pragma.covers(3)

    def test_docstring_mention_is_not_a_pragma(self):
        src = '"""Example: # detlint: allow[DET001] — not real."""\nx = 1\n'
        assert parse_pragmas(src) == []

    def test_missing_reason_is_a_problem(self):
        src = "x = 1  # detlint: allow[DET001]\n"
        (pragma,) = parse_pragmas(src)
        known = frozenset({"DET001"})
        assert any("missing reason" in p for p in pragma.problems(known))

    def test_unknown_rule_is_a_problem(self):
        src = "x = 1  # detlint: allow[DET999] — whatever\n"
        (pragma,) = parse_pragmas(src)
        assert any("unknown rule" in p for p in pragma.problems(frozenset({"DET001"})))

    def test_empty_rule_list_is_a_problem(self):
        src = "x = 1  # detlint: allow[] — whatever\n"
        (pragma,) = parse_pragmas(src)
        assert any("empty rule list" in p for p in pragma.problems(frozenset()))


class TestSuppression:
    def test_same_line_pragma_suppresses(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: allow[DET001] — test fixture needs real time\n"
        )
        findings = analyze_source(src, "core/example.py")
        flagged = [f for f in findings if f.rule == "DET001"]
        assert flagged and all(f.suppressed for f in flagged)
        assert flagged[0].reason == "test fixture needs real time"

    def test_line_above_pragma_suppresses(self):
        src = (
            "import time\n"
            "# detlint: allow[DET001] — fixture\n"
            "t = time.time()\n"
        )
        findings = analyze_source(src, "core/example.py")
        assert all(f.suppressed for f in findings if f.rule == "DET001")

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: allow[DET002] — wrong rule id\n"
        )
        findings = analyze_source(src, "core/example.py")
        assert any(f.rule == "DET001" and not f.suppressed for f in findings)

    def test_malformed_pragma_is_det000_and_does_not_suppress(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: allow[DET001]\n"
        )
        findings = analyze_source(src, "core/example.py")
        rules = {f.rule for f in findings}
        assert MALFORMED_PRAGMA in rules
        assert any(f.rule == "DET001" and not f.suppressed for f in findings)

    def test_det000_cannot_be_suppressed(self):
        src = "x = 1  # detlint: allow[DET000] — trying to waive the waiver rule\n"
        findings = analyze_source(src, "core/example.py")
        assert any(
            f.rule == MALFORMED_PRAGMA and not f.suppressed for f in findings
        )

    def test_syntax_error_reports_instead_of_raising(self):
        findings = analyze_source("def broken(:\n", "core/example.py")
        assert findings and findings[0].rule == MALFORMED_PRAGMA
        assert "does not parse" in findings[0].message


class TestReports:
    def _findings(self):
        src = (
            "import time\n"
            "a = time.time()\n"
            "b = time.perf_counter()  # detlint: allow[DET001] — waived for the test\n"
        )
        return analyze_source(src, "core/example.py")

    def test_human_report_lists_live_and_counts_suppressed(self):
        text = render_human(self._findings(), files_scanned=1)
        assert "DET001" in text
        assert "1 finding(s), 1 suppressed" in text

    def test_human_verbose_lists_waivers(self):
        text = render_human(self._findings(), files_scanned=1, verbose=True)
        assert "waived for the test" in text


class TestRegistryAndPaths:
    def test_all_five_rules_plus_framework_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["DET001", "DET002", "DET003", "DET004", "HOT001"]

    def test_analyze_paths_maps_package_relpath(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "sample.py"
        target.write_text("import time\nt = time.time()\n")
        findings, scanned = analyze_paths([tmp_path])
        assert scanned == 1
        assert findings and findings[0].relpath == "core/sample.py"
        assert findings[0].rule == "DET001"


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nt = time.time()\n")
        assert main([str(target)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "HOT001"):
            assert rule_id in out

    def test_missing_tree_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize("flag", ["--verbose"])
    def test_verbose_shows_waivers(self, tmp_path, capsys, flag):
        target = tmp_path / "repro" / "core" / "waived.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n"
            "t = time.time()  # detlint: allow[DET001] — demo waiver\n"
        )
        assert main([flag, str(target)]) == 0
        assert "demo waiver" in capsys.readouterr().out
