"""Fixture helpers for the lint/lockdep suite: write snippet trees and
lint them in isolation."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.core import LintReport, run_lint

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` files under a scratch root and lint
    them with the full pass registry rooted there."""

    def _run(files: dict[str, str], rules=None) -> LintReport:
        for rel, text in files.items():
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
        return run_lint([tmp_path], root=tmp_path, rules=rules)

    return _run


def rules_of(report: LintReport, rule: str):
    return [f for f in report.findings if f.rule == rule]


def lint_mutant(
    tmp_path: Path, module: str, site: str, mutant: str, rule: str
) -> LintReport:
    """A pass's self-gate on the shipped tree: lint a copy of ``src/``
    with ``site`` — which must still be in ``repro/<module>`` — replaced
    once by ``mutant``, under ``rule`` alone. A clean verdict on the
    real tree is worth something only while the pass sees the mutant."""
    shutil.copytree(REPO / "src", tmp_path / "src")
    target = tmp_path / "src" / "repro" / module
    text = target.read_text(encoding="utf-8")
    assert site in text, f"the mutated site left {module}"
    target.write_text(text.replace(site, mutant, 1), encoding="utf-8")
    return run_lint([tmp_path / "src"], root=tmp_path, rules=[rule])
