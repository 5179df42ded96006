"""Framework mechanics: waiver parsing/scoping, report gating, CLI
exit codes."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.core import Project, SourceFile, run_lint

from tests.analysis.conftest import rules_of


class TestWaivers:
    def test_inline_waiver_suppresses_same_line(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "import time\n"
            "t = time.time()  # lint: allow[determinism] wall clock is the subject here\n"
        )
        report = run_lint([f], root=tmp_path)
        assert report.ok
        assert len(report.waived) == 1
        assert report.waived[0].reason.startswith("wall clock")

    def test_comment_only_line_waives_next_line(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "import time\n"
            "# lint: allow[determinism] measured interval, not replay input\n"
            "t = time.time()\n"
        )
        report = run_lint([f], root=tmp_path)
        assert report.ok and len(report.waived) == 1

    def test_trailing_comment_does_not_waive_next_line(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "import time\n"
            "x = 1  # lint: allow[determinism] anchored to this line only\n"
            "t = time.time()\n"
        )
        report = run_lint([f], root=tmp_path)
        assert not report.ok

    def test_file_scope_waiver(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "# lint: file-allow[determinism] this module is wall-clock by design\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        report = run_lint([f], root=tmp_path)
        assert report.ok and len(report.waived) == 2

    def test_waiver_without_reason_is_a_finding_and_inert(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "import time\n"
            "t = time.time()  # lint: allow[determinism]\n"
        )
        report = run_lint([f], root=tmp_path)
        rules = {x.rule for x in report.unwaived}
        assert "determinism" in rules  # not suppressed
        assert "waiver-syntax" in rules  # and the bare waiver is flagged

    def test_waiver_only_covers_listed_rules(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text(
            "import time\n"
            "t = time.time()  # lint: allow[lock-order] wrong rule id\n"
        )
        report = run_lint([f], root=tmp_path)
        assert [x.rule for x in report.unwaived] == ["determinism"]

    def test_marker_inside_string_is_not_a_waiver(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text('MSG = "# lint: allow[x]"\nDOC = """# lint: nope"""\n')
        src = SourceFile(f)
        assert src.waivers == []
        assert src.bad_waivers == []

    def test_unparseable_file_reports_parse_finding(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        report = run_lint([f], root=tmp_path)
        assert [x.rule for x in report.unwaived] == ["parse"]


class TestProject:
    def test_display_paths_relative_to_root(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        f = tmp_path / "pkg" / "m.py"
        f.write_text("x = 1\n")
        project = Project.load([tmp_path], root=tmp_path)
        assert [s.display for s in project] == ["pkg/m.py"]
        assert project.find("pkg/m.py") is not None


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "chaos.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "determinism" in out and "chaos.py:2" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        assert main([str(tmp_path / "absent")]) == 2

    def test_exit_two_on_unknown_rule(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--rules", "no-such-rule"]) == 2

    def test_rule_filter_limits_passes(self, tmp_path):
        f = tmp_path / "chaos.py"
        f.write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path), "--rules", "lock-order"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "lock-order",
            "blocking-under-lock",
            "protocol-conformance",
            "error-conventions",
            "determinism",
            "metric-catalogue",
        ):
            assert rule in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "chaos.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path), "--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["findings"][0]["line"] == 2
