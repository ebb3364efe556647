"""Rule 3 — exception taxonomy.

Two halves:

* **Raise sites** in the wire layers (``server.py``, ``client.py``,
  ``backends/``) must raise the typed taxonomy — ``StorageError`` or a
  subclass — so the server can map classes to HTTP statuses and the
  client can re-raise the exact class in-process callers would see.
  Bare ``raise`` re-raises, raising a captured variable, ``SystemExit``
  (CLI mains), ``NotImplementedError`` (abstract seams), and local
  factory helpers annotated ``-> StorageError`` (``_wire_error``) are
  all fine.  The class set is parsed from the scanned ``errors.py``
  (``StorageError`` + descendants), so growing the taxonomy never
  requires touching this rule.
* **Broad handlers** everywhere: ``except Exception`` (or broader)
  must re-raise somewhere in its body or carry the repo's justified
  suppression form ``# noqa: BLE001 - <reason>`` on the except line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import ParsedFile, Project, dotted_name, rule, walk_shallow

_RAISE_SCOPE_NAMES = frozenset({"server.py", "client.py"})
_STDLIB_OK = frozenset({"SystemExit", "NotImplementedError"})
#: Used when the scan does not include an errors.py defining StorageError
#: (fixture trees); the real tree always parses the live taxonomy.
_FALLBACK_TYPED = frozenset({"StorageError", "EntryNotFound", "DuplicateEntry"})
_BROAD_NAMES = frozenset({"Exception", "BaseException"})
_NOQA_RE = re.compile(r"#\s*noqa:\s*BLE001\s*-\s*\S")

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("exception-taxonomy")
def check(project: Project) -> Found:
    """wire layers raise StorageError subclasses; broad excepts re-raise
    or carry a justified '# noqa: BLE001 - <reason>' comment."""
    typed = _typed_errors(project)
    for parsed in project.files:
        if parsed.tree is None:
            continue
        if _in_raise_scope(parsed):
            yield from _raise_sites(parsed, typed)
        yield from _broad_handlers(parsed)


def _in_raise_scope(parsed: ParsedFile) -> bool:
    return parsed.name in _RAISE_SCOPE_NAMES or "backends" in parsed.parts[:-1]


def _typed_errors(project: Project) -> frozenset[str]:
    """StorageError and its descendants, parsed from the scanned tree."""
    for parsed in project.named("errors.py"):
        if parsed.tree is None:
            continue
        bases: dict[str, list[str]] = {}
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    base
                    for base in (dotted_name(b) for b in node.bases)
                    if base is not None
                ]
        if "StorageError" not in bases:
            continue
        typed = {"StorageError"}
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name not in typed and any(p.split(".")[-1] in typed for p in parents):
                    typed.add(name)
                    changed = True
        return frozenset(typed)
    return _FALLBACK_TYPED


def _error_factories(tree: ast.Module, typed: frozenset[str]) -> frozenset[str]:
    """Module-level helpers that demonstrably produce typed errors.

    Either the return annotation names a typed class (``_wire_error(...)
    -> StorageError``) or every ``return`` returns a typed construction.
    """
    factories: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        annotation = dotted_name(node.returns) if node.returns is not None else None
        if annotation is not None and annotation.split(".")[-1] in typed:
            factories.add(node.name)
            continue
        returns = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
        if returns and all(_returns_typed(r, typed) for r in returns):
            factories.add(node.name)
    return frozenset(factories)


def _returns_typed(node: ast.Return, typed: frozenset[str]) -> bool:
    if not isinstance(node.value, ast.Call):
        return False
    name = dotted_name(node.value.func)
    return name is not None and name.split(".")[-1] in typed


def _raise_sites(parsed: ParsedFile, typed: frozenset[str]) -> Found:
    factories = _error_factories(parsed.tree, typed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc
        if exc is None:
            continue  # bare `raise` re-raises the active exception
        if isinstance(exc, ast.Name):
            # `raise error` re-raises a captured variable; an uncalled
            # CapitalizedClass must still be in the taxonomy.
            name = exc.id
            if name[:1].islower() or name in typed or name in _STDLIB_OK:
                continue
            yield parsed, node.lineno, _untyped(name)
            continue
        if isinstance(exc, ast.Call):
            name = dotted_name(exc.func)
            if name is None:
                yield (
                    parsed,
                    node.lineno,
                    "raised class cannot be statically resolved; raise a "
                    "named StorageError subclass",
                )
                continue
            leaf = name.split(".")[-1]
            if leaf in typed or leaf in _STDLIB_OK or name in factories:
                continue
            yield parsed, node.lineno, _untyped(name)
            continue
        yield (
            parsed,
            node.lineno,
            "raise of a non-name expression; raise a named StorageError "
            "subclass so the wire can transmit the class",
        )


def _untyped(name: str) -> str:
    return (
        f"raises {name}, which is not a StorageError subclass; wire "
        "layers must raise the typed taxonomy (see repro/core/errors.py)"
    )


def _broad_handlers(parsed: ParsedFile) -> Found:
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node.type):
            continue
        if _has_raise(node):
            continue
        if _NOQA_RE.search(parsed.line(node.lineno)):
            continue
        yield (
            parsed,
            node.lineno,
            "broad except neither re-raises nor carries the justified "
            "suppression form '# noqa: BLE001 - <reason>'",
        )


def _is_broad(node: ast.expr | None) -> bool:
    if node is None:
        return True  # bare `except:`
    if isinstance(node, ast.Tuple):
        return any(_is_broad(element) for element in node.elts)
    name = dotted_name(node)
    return name is not None and name.split(".")[-1] in _BROAD_NAMES


def _has_raise(handler: ast.ExceptHandler) -> bool:
    for statement in handler.body:
        if isinstance(statement, ast.Raise):
            return True
        for node in walk_shallow(statement):
            if isinstance(node, ast.Raise):
                return True
    return False
