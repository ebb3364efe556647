"""Rule 9 — one response per request.

Once a status line is on its way, the server's handler sets
``_response_started`` (``_send_message`` does for every answer the
handler builds, ``send_response_only`` for a ``send_error``); a second
response after that lands inside the first one's body and desyncs the
connection.  An ``except`` block is where a second response hides: the
failure may have come after the first one started.  So in
``server.py`` every ``self._send_*``, ``self.send_response`` or
``self.send_error`` call inside an ``except`` block must either sit
under an ``if not self._response_started:`` guard or follow, in the
same block, an ``if self._response_started: ... return`` early exit.

Nested ``def``/``lambda`` bodies are skipped: they do not run inside
the handler.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedFile, Project, rule, walk_shallow

_SEND_NAMES = frozenset({"send_response", "send_error"})

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("response-once")
def check(project: Project) -> Found:
    """in server.py, a response sent from an except block is guarded by
    ``self._response_started``."""
    for parsed in project.named("server.py"):
        if parsed.tree is None:
            continue
        lines: set[int] = set()
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ExceptHandler):
                lines.update(_unguarded_sends(node.body))
        for line in sorted(lines):
            yield (
                parsed,
                line,
                "response sent from an except block without a "
                "self._response_started guard; once the status line is "
                "out, a second response corrupts the first",
            )


def _unguarded_sends(body: list[ast.stmt]) -> Iterator[int]:
    """Lines of the send calls in ``body`` that no started-guard covers."""
    for statement in body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(statement, ast.If) and _is_started(statement.test):
            yield from _unguarded_sends(statement.body)
            yield from _unguarded_sends(statement.orelse)
            if statement.body and isinstance(statement.body[-1], ast.Return):
                return  # the rest of the block runs only before a response
            continue
        if (
            isinstance(statement, ast.If)
            and isinstance(statement.test, ast.UnaryOp)
            and isinstance(statement.test.op, ast.Not)
            and _is_started(statement.test.operand)
        ):
            yield from _unguarded_sends(statement.orelse)
            continue
        for _field, value in ast.iter_fields(statement):
            yield from _sends_in(value)


def _sends_in(value) -> Iterator[int]:
    """Send calls in one field of a statement: nested blocks recurse."""
    items = value if isinstance(value, list) else [value]
    if items and isinstance(items[0], ast.stmt):
        yield from _unguarded_sends(items)
        return
    for item in items:
        if isinstance(item, ast.ExceptHandler):
            yield from _unguarded_sends(item.body)
        elif isinstance(item, ast.AST) and not isinstance(item, ast.Lambda):
            for node in (item, *walk_shallow(item)):
                if isinstance(node, ast.Call) and _is_send(node.func):
                    yield node.lineno


def _is_send(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and (func.attr.startswith("_send_") or func.attr in _SEND_NAMES)
    )


def _is_started(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Attribute)
        and isinstance(test.value, ast.Name)
        and test.value.id == "self"
        and test.attr == "_response_started"
    )
