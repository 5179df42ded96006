"""``fanstore-lint``: run the project-invariant passes from the shell.

Exit codes: 0 — no unwaived findings; 1 — unwaived findings (or a file
that does not parse); 2 — usage error. Waived findings never gate but
are listed under ``--show-waived`` so silenced rules stay visible in
review.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.core import run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanstore-lint",
        description=(
            "AST lint for FanStore's project invariants: lock order, "
            "blocking-under-lock, protocol conformance, error "
            "conventions, determinism, metric catalogue. See "
            "docs/static-analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root, for display paths and docs lookups (default: cwd)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also list findings suppressed by inline waivers",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule ids and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.analysis.passes import all_passes

    passes = all_passes()
    if args.list_rules:
        for p in passes:
            print(f"{p.rule}: {p.title}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"fanstore-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        known = {p.rule for p in passes}
        unknown = sorted(set(rules) - known)
        if unknown:
            print(
                f"fanstore-lint: unknown rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2

    report = run_lint(args.paths, root=Path(args.root), rules=rules, passes=passes)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "summary": report.summary(),
                    "findings": [
                        f.to_dict()
                        for f in report.findings
                        if not f.waived or args.show_waived
                    ],
                },
                indent=2,
            )
        )
    else:
        for f in report.unwaived:
            print(f.render())
        if args.show_waived:
            for f in report.waived:
                print(f.render())
        print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
