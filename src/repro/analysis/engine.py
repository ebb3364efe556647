"""Rule engine for the repro static analyzer.

The analyzer machine-checks invariants that previously lived only in
prose (ARCHITECTURE.md, code comments): lock discipline, the
exception taxonomy, codec boundaries, one response per request,
and harness determinism.  Everything here is stdlib-only (``ast``).

Structure:

* :class:`Finding` — one violation, anchored to ``file:line``, with a
  content-based fingerprint so baseline entries survive line drift;
* :class:`ParsedFile` / :class:`Project` — the scanned tree handed to
  every rule;
* :func:`rule` — registration decorator; a rule is a generator over
  ``(file, line, message)`` triples and the engine stamps severity and
  fingerprints on;
* baseline load/apply/write — accepted pre-existing findings live in a
  committed JSON file and never block CI, while new findings do.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ParsedFile",
    "Project",
    "Rule",
    "all_rules",
    "dotted_name",
    "load_baseline",
    "load_project",
    "render_json",
    "render_text",
    "rule",
    "run_rules",
    "walk_shallow",
    "write_baseline",
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
    source: str  # the stripped source line (fingerprint input)

    @property
    def fingerprint(self) -> str:
        """Content-based identity: rule + path + stripped source line.

        Line numbers are deliberately left out so unrelated edits above
        a baselined site do not void its baseline entry.
        """
        payload = f"{self.rule}\n{self.path}\n{self.source}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

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
            "fingerprint": self.fingerprint,
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
    """Posix path relative to cwd when inside it, else as given.

    CI and the documented workflow run the analyzer from the repo root,
    which keeps baseline fingerprints stable (they hash this path).
    """
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
# Baseline: accepted pre-existing findings.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineEntry:
    fingerprint: str
    rule: str
    path: str
    reason: str

    def to_json(self) -> dict[str, str]:
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "reason": self.reason,
        }


@dataclass
class Baseline:
    entries: list[BaselineEntry]

    def split(
        self, findings: Iterable[Finding]
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """Partition findings into (active, suppressed) + stale entries.

        A finding is suppressed when its fingerprint matches a baseline
        entry; entries matching nothing are *stale* — reported so the
        baseline shrinks as sites get fixed, but never a failure.
        """
        by_print = {entry.fingerprint: entry for entry in self.entries}
        active: list[Finding] = []
        suppressed: list[Finding] = []
        used: set[str] = set()
        for finding in findings:
            if finding.fingerprint in by_print:
                used.add(finding.fingerprint)
                suppressed.append(finding)
            else:
                active.append(finding)
        stale = [entry for entry in self.entries if entry.fingerprint not in used]
        return active, suppressed, stale


def load_baseline(path: Path) -> Baseline:
    """Load and validate the committed baseline file.

    Every entry must carry a non-empty one-line justification; a
    baseline that silences findings without saying why is rejected.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"unreadable baseline {path}: {error}") from error
    entries_raw = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries_raw, list):
        raise ValueError(f"baseline {path} must be an object with an 'entries' list")
    entries: list[BaselineEntry] = []
    for index, item in enumerate(entries_raw):
        if not isinstance(item, dict):
            raise ValueError(f"baseline entry #{index} is not an object")
        try:
            entry = BaselineEntry(
                fingerprint=str(item["fingerprint"]),
                rule=str(item["rule"]),
                path=str(item["path"]),
                reason=str(item["reason"]),
            )
        except KeyError as missing:
            raise ValueError(
                f"baseline entry #{index} is missing key {missing}"
            ) from None
        if not entry.reason.strip():
            raise ValueError(
                f"baseline entry #{index} ({entry.rule} in {entry.path}) "
                "has an empty reason; every accepted finding needs a "
                "one-line justification"
            )
        entries.append(entry)
    return Baseline(entries=entries)


def write_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write the current findings out as a fresh baseline skeleton."""
    entries = [
        {
            "fingerprint": finding.fingerprint,
            "rule": finding.rule,
            "path": finding.path,
            "reason": "TODO: one-line justification",
        }
        for finding in findings
    ]
    payload = {
        "comment": (
            "Accepted findings for `python -m repro.analysis`. Each entry "
            "needs a one-line justification; stale entries are reported "
            "and should be deleted. See ARCHITECTURE.md 'Static analysis'."
        ),
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return len(entries)


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def render_text(
    active: list[Finding],
    suppressed: list[Finding],
    stale: list[BaselineEntry],
    files_scanned: int,
) -> str:
    lines: list[str] = []
    for finding in active:
        lines.append(
            f"{finding.anchor}: [{finding.rule}] "
            f"{finding.severity}: {finding.message}"
        )
    for entry in stale:
        lines.append(
            f"note: stale baseline entry {entry.fingerprint} "
            f"({entry.rule} in {entry.path}) matched nothing — delete it"
        )
    errors = sum(1 for finding in active if finding.severity == "error")
    warnings = len(active) - errors
    lines.append(
        f"{files_scanned} files scanned: {errors} error(s), "
        f"{warnings} warning(s), {len(suppressed)} baselined, "
        f"{len(stale)} stale baseline entr(y/ies)"
    )
    return "\n".join(lines)


def render_json(
    active: list[Finding],
    suppressed: list[Finding],
    stale: list[BaselineEntry],
    files_scanned: int,
) -> str:
    payload = {
        "files_scanned": files_scanned,
        "rules": [
            {"name": r.name, "severity": r.severity, "summary": r.summary}
            for r in all_rules()
        ],
        "findings": [finding.to_json() for finding in active],
        "baselined": [finding.to_json() for finding in suppressed],
        "stale_baseline": [entry.to_json() for entry in stale],
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
