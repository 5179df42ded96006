"""Self-gate: the shipped src/ tree lints clean, and every waiver in it
carries a written reason (the same gate CI runs via ``fanstore-lint``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import run_lint

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    """One lint of the whole tree, shared by both checks below."""
    return run_lint([REPO / "src"], root=REPO)


def test_src_tree_has_no_unwaived_findings(report):
    assert report.ok, "\n".join(f.render() for f in report.unwaived)
    assert report.files_scanned > 50  # the whole tree, not a subset


def test_every_waiver_states_its_reason(report):
    for finding in report.waived:
        assert finding.reason.strip(), finding.render()
