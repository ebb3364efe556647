"""CLI for the repro static analyzer.

Usage (from the repository root)::

    python -m repro.analysis src/                 # text report
    python -m repro.analysis src --format=json    # machine-readable
    python -m repro.analysis --list-rules

Exit codes: 0 — no error-severity finding, 1 — error findings,
2 — usage/configuration problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import (
    all_rules,
    get_rule,
    load_project,
    render_json,
    render_text,
    run_rules,
)
from repro.analysis import rules as _rules  # noqa: F401  (registration)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST invariant analyzer for the repro stack",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="NAME[,NAME...]",
        help="run only the named rules (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    options = _parser().parse_args(argv)

    if options.list_rules:
        for entry in all_rules():
            print(f"{entry.name}  [{entry.severity}]  {entry.summary}")
        return 0

    if options.rules:
        try:
            selected = [get_rule(name) for name in options.rules.split(",") if name]
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        selected = None

    paths = [Path(p) for p in options.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    project = load_project(paths)
    findings = run_rules(project, selected)
    render = render_json if options.format == "json" else render_text
    print(render(findings, len(project.files)))
    failing = [finding for finding in findings if finding.severity == "error"]
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
