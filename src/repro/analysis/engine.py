"""Rule engine for the repro static analyzer.

The analyzer machine-checks invariants that previously lived only in
prose (ARCHITECTURE.md, code comments): lock discipline, the
exception taxonomy, codec boundaries, one response per request,
and harness determinism.  Everything here is stdlib-only (``ast``).

Structure:

* :class:`Finding` — one violation, anchored to ``file:line``;
* :class:`ParsedFile` / :class:`Project` — the scanned tree handed to
  every rule;
* :func:`rule` — registration decorator; a rule is a generator over
  ``(file, line, message)`` triples and the engine stamps severity on.

Every error finding fails the run: it is fixed at its site, or a broad
``except`` carries ``# noqa: BLE001 - <reason>``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "ParsedFile",
    "Project",
    "Rule",
    "all_rules",
    "dotted_name",
    "load_project",
    "render_json",
    "render_text",
    "rule",
    "run_rules",
    "walk_shallow",
]

SEVERITIES = ("error", "warning")

#: Pseudo-rule name attached to files the parser rejects outright.
SYNTAX_RULE = "syntax-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a ``file:line``."""

    rule: str
    severity: str
    path: str  # posix path as scanned (relative to cwd when possible)
    line: int
    message: str
    source: str  # the stripped source line

    @property
    def anchor(self) -> str:
        return f"{self.path}:{self.line}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "source": self.source,
        }


@dataclass
class ParsedFile:
    """One scanned source file: raw text, line table, and AST."""

    path: Path
    relpath: str
    source: str
    lines: list[str]
    tree: ast.Module | None
    parse_error: str | None = None
    parse_error_line: int = 1

    @property
    def name(self) -> str:
        return self.path.name

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.relpath.split("/"))

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


@dataclass
class Project:
    """The full scanned tree, shared by every rule invocation."""

    files: list[ParsedFile]

    def named(self, filename: str) -> list[ParsedFile]:
        return [pf for pf in self.files if pf.name == filename]

    def under(self, directory: str) -> list[ParsedFile]:
        return [pf for pf in self.files if directory in pf.parts[:-1]]


CheckFn = Callable[[Project], Iterable[tuple[ParsedFile, int, str]]]


@dataclass(frozen=True)
class Rule:
    name: str
    severity: str
    summary: str
    check: CheckFn


_RULES: dict[str, Rule] = {}


def rule(name: str, *, severity: str = "error") -> Callable[[CheckFn], CheckFn]:
    """Register a check function under ``name``.

    The check receives a :class:`Project` and yields
    ``(ParsedFile, lineno, message)`` triples; the engine turns them
    into :class:`Finding` records stamped with the rule's severity.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(func: CheckFn) -> CheckFn:
        if name in _RULES:
            raise ValueError(f"duplicate rule name {name!r}")
        doc = (func.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        _RULES[name] = Rule(name, severity, summary, func)
        return func

    return register


def all_rules() -> list[Rule]:
    return [_RULES[name] for name in sorted(_RULES)]


def get_rule(name: str) -> Rule:
    try:
        return _RULES[name]
    except KeyError:
        raise ValueError(f"unknown rule {name!r}") from None


# ----------------------------------------------------------------------
# Loading the tree.
# ----------------------------------------------------------------------


def _relative(path: Path) -> str:
    """Posix path relative to cwd when inside it, else as given."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_file(path: Path) -> ParsedFile:
    source = path.read_text(encoding="utf-8")
    parsed = ParsedFile(
        path=path,
        relpath=_relative(path),
        source=source,
        lines=source.splitlines(),
        tree=None,
    )
    try:
        parsed.tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        parsed.parse_error = error.msg or "syntax error"
        parsed.parse_error_line = error.lineno or 1
    return parsed


def load_project(paths: Iterable[Path]) -> Project:
    seen: set[Path] = set()
    files: list[ParsedFile] = []
    for root in paths:
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or candidate.suffix != ".py":
                continue
            seen.add(resolved)
            files.append(parse_file(candidate))
    return Project(files=files)


# ----------------------------------------------------------------------
# Running rules.
# ----------------------------------------------------------------------


def run_rules(project: Project, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run every (or the given) registered rule over the project."""
    findings: list[Finding] = []
    for parsed in project.files:
        if parsed.parse_error is not None:
            findings.append(
                Finding(
                    rule=SYNTAX_RULE,
                    severity="error",
                    path=parsed.relpath,
                    line=parsed.parse_error_line,
                    message=f"file does not parse: {parsed.parse_error}",
                    source=parsed.line(parsed.parse_error_line),
                )
            )
    for entry in rules if rules is not None else all_rules():
        for parsed, lineno, message in entry.check(project):
            findings.append(
                Finding(
                    rule=entry.name,
                    severity=entry.severity,
                    path=parsed.relpath,
                    line=lineno,
                    message=message,
                    source=parsed.line(lineno),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def render_text(findings: list[Finding], files_scanned: int) -> str:
    lines = [
        f"{finding.anchor}: [{finding.rule}] {finding.severity}: {finding.message}"
        for finding in findings
    ]
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"{files_scanned} files scanned: {errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(findings: list[Finding], files_scanned: int) -> str:
    payload = {
        "files_scanned": files_scanned,
        "rules": [
            {"name": r.name, "severity": r.severity, "summary": r.summary}
            for r in all_rules()
        ],
        "findings": [finding.to_json() for finding in findings],
    }
    return json.dumps(payload, indent=2)


# ----------------------------------------------------------------------
# Shared AST helpers for rule modules.
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``"threading.Lock"`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk descendants without entering nested function/lambda bodies.

    Code inside a nested ``def``/``lambda`` runs later (often on an
    executor thread or after a lock is released), so rules about "while
    the lock is held" or "inside this except handler" must not see it.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
