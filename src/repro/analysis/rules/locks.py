"""Rule 1 — lock discipline.

Two invariants from the concurrency layer:

* raw ``threading.Lock``/``RLock`` objects are constructed in
  ``concurrency.py`` only (everything else uses ``concurrency.Mutex``
  or ``ReadWriteLock``), so there is exactly one module to audit when
  reasoning about lock ordering;
* in ``service.py``, a plain mutex (``with self._mutex:``-style bare
  attribute) is never held across a ``self.service.*``/``self.backend.*``
  call — the PR-4 eviction-race invariant ("capture state under the
  lock, call outside").
  ``ReadWriteLock``'s ``read_locked()``/``write_locked()`` context
  managers are *calls*, not bare attributes, and are deliberately not
  matched: the service design does hold the RW lock across backend
  writes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    ParsedFile,
    Project,
    dotted_name,
    rule,
    walk_shallow,
)

_LOCK_CONSTRUCTORS = frozenset({"threading.Lock", "threading.RLock"})
_LOCK_NAMES = frozenset({"Lock", "RLock"})
_GUARDED_FILES = frozenset({"service.py"})
_SERVICE_ROOTS = ("self.service.", "self.backend.", "self._service.", "self._backend.")

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("lock-discipline")
def check(project: Project) -> Found:
    """threading locks live in concurrency.py; mutexes are never held
    across service/backend calls in service.py."""
    for parsed in project.files:
        if parsed.tree is None:
            continue
        if parsed.name != "concurrency.py":
            yield from _constructions(parsed)
        if parsed.name in _GUARDED_FILES:
            yield from _held_across_calls(parsed)


def _threading_aliases(tree: ast.Module) -> frozenset[str]:
    """Local names bound to threading.Lock/RLock via from-imports."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            for name in node.names:
                if name.name in _LOCK_NAMES:
                    aliases.add(name.asname or name.name)
    return frozenset(aliases)


def _constructions(parsed: ParsedFile) -> Found:
    aliases = _threading_aliases(parsed.tree)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _LOCK_CONSTRUCTORS or name in aliases:
            yield (
                parsed,
                node.lineno,
                f"{name}() constructed outside concurrency.py; use "
                "repro.repository.concurrency.Mutex so every lock in the "
                "stack is declared in one module",
            )


def _is_plain_mutex(expr: ast.AST) -> bool:
    """``self._mutex``-style bare attribute whose name says lock/mutex."""
    if not isinstance(expr, ast.Attribute):
        return False
    name = dotted_name(expr)
    if name is None or not name.startswith("self."):
        return False
    attr = expr.attr.lower()
    return "lock" in attr or "mutex" in attr


def _held_across_calls(parsed: ParsedFile) -> Found:
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.With):
            continue
        if not any(_is_plain_mutex(item.context_expr) for item in node.items):
            continue
        # Deferred callables built under the lock run after release:
        # walk_shallow skips nested def/lambda bodies.
        for statement in node.body:
            for inner in _statement_nodes(statement):
                if not isinstance(inner, ast.Call):
                    continue
                name = dotted_name(inner.func) or ""
                if name.startswith(_SERVICE_ROOTS):
                    yield (
                        parsed,
                        inner.lineno,
                        f"{name}() called while a mutex is held; capture "
                        "state under the lock and make the call after "
                        "releasing it (PR-4 eviction-race invariant)",
                    )


def _statement_nodes(statement: ast.stmt) -> Iterator[ast.AST]:
    yield statement
    yield from walk_shallow(statement)
