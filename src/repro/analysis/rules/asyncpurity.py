"""Rule 2 — async purity.

``AsyncRepositoryService`` (``aservice.py``) is a thin async facade:
every blocking operation — sync service calls, sqlite, sockets, file
I/O, sleeps, executor shutdowns — must reach the event loop only
through executor submission (``self._read(lambda: ...)`` /
``self._write(lambda: ...)`` / ``loop.run_in_executor``).  A direct
blocking call inside an ``async def`` body stalls every coroutine on
the loop; this rule catches the pattern statically.

Callables *built* inside the body (lambdas, nested defs) are exempt:
they execute later on an executor thread, which is exactly the
sanctioned route.  One service call is sanctioned by exact name:
``self.service.enqueue_write``, which only appends to the facade's
write queue, so async writes queue on the loop thread in submission
order and then wait for their group commit on the writer thread.
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

_BLOCKING_EXACT = frozenset({"time.sleep"})
_BLOCKING_PREFIXES = ("sqlite3.", "socket.")
_SERVICE_PREFIXES = ("self.service.", "self._service.")
#: Service calls that never block: they take no lock but a queue mutex.
_NONBLOCKING_SERVICE_CALLS = frozenset({"self.service.enqueue_write"})

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("async-purity")
def check(project: Project) -> Found:
    """async def bodies in aservice.py reach blocking work only through
    executor submission, never by calling it directly."""
    for parsed in project.named("aservice.py"):
        if parsed.tree is None:
            continue
        for func in ast.walk(parsed.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from _blocking_calls(parsed, func)


def _blocking_calls(parsed: ParsedFile, func: ast.AsyncFunctionDef) -> Found:
    for node in walk_shallow(func):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        message = _diagnose(name, func.name)
        if message is not None:
            yield parsed, node.lineno, message


def _diagnose(name: str, where: str) -> str | None:
    if name in _BLOCKING_EXACT or name.startswith(_BLOCKING_PREFIXES):
        return (
            f"blocking call {name}() directly inside async def {where}; "
            "submit it to an executor instead"
        )
    if name == "open":
        return (
            f"blocking file I/O open() directly inside async def {where}; "
            "submit it to an executor instead"
        )
    if name.startswith(_SERVICE_PREFIXES) and name not in _NONBLOCKING_SERVICE_CALLS:
        return (
            f"direct sync service call {name}() inside async def {where}; "
            "route it through self._read/self._write executor submission"
        )
    if name.endswith(".shutdown"):
        return (
            f"{name}() blocks until queued work drains; inside async def "
            f"{where} it stalls the event loop — run it in an executor"
        )
    return None
