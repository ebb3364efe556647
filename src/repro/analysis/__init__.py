"""Static analysis for the repro stack: ``python -m repro.analysis``.

An AST-based analyzer (stdlib only) that machine-checks the invariants
this codebase otherwise keeps in prose: lock discipline, the typed
exception taxonomy, codec boundaries, one response per request, retry
discipline, and harness determinism.  See ARCHITECTURE.md's "Static
analysis" section for the rule catalogue.
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    ParsedFile,
    Project,
    Rule,
    all_rules,
    load_project,
    rule,
    run_rules,
)
from repro.analysis import rules  # noqa: F401  (registers the built-in rules)

__all__ = [
    "Finding",
    "ParsedFile",
    "Project",
    "Rule",
    "all_rules",
    "load_project",
    "rule",
    "run_rules",
]
