"""Rule 8 — transaction (group-commit) discipline.

PR 10 added the group-commit seam: ``StorageBackend.write_group()`` is
a no-op default, ``SQLiteBackend`` overrides it with one real
transaction, ``FileBackend`` with fsync-batching — and the conformance
suite holds every backend to the *same* observable semantics (one
logical change per group, per-entry events).  That uniformity is easy
to erode: the next backend grows a ``begin_group()`` of its own, or a
durable layer silently misses the override and quietly commits N times
per "group".  Two invariants:

* **the seam is declared on the base.**  A group-commit method
  (``write_group`` / ``begin_group`` / ``commit_group`` /
  ``abort_group``) defined on a concrete backend under ``backends/``
  must also exist on ``StorageBackend`` in ``base.py`` — otherwise the
  API exists on one layer only and nothing (conformance suite, the
  facade's group commit) can rely on it;
* **the durable layers stay in lockstep.**  If one of the persistent
  backends (``sqlite.py``, ``file.py``) overrides ``write_group`` and
  the other does not, the one without it still pays one commit unit
  per write inside a "group" — exactly one finding, anchored at the
  lagging backend class.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedFile, Project, rule

#: The group-commit API surface; any of these names on a backend class
#: marks that layer as speaking the group protocol.
_GROUP_API = frozenset({
    "write_group", "begin_group", "commit_group", "abort_group",
})

#: The persistent layers whose commit units cost real I/O — the ones
#: group commit exists for, and the ones that must not drift apart.
_DURABLE_LAYERS = ("sqlite.py", "file.py")

_BASE_FILE = "base.py"

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("txn-discipline")
def check(project: Project) -> Found:
    """The group-commit seam is declared on StorageBackend and the
    durable backends (sqlite/file) both override write_group."""
    backends = project.under("backends")
    if not backends:
        return
    base_seen = False
    base_methods: set[str] = set()
    for parsed in backends:
        if parsed.name == _BASE_FILE:
            base_seen = True
            base_methods |= _group_methods(parsed).keys()
    for parsed in backends:
        if parsed.name == _BASE_FILE or parsed.tree is None:
            continue
        for name, line in sorted(_group_methods(parsed).items()):
            if base_seen and name not in base_methods:
                yield (
                    parsed,
                    line,
                    f"{name}() defined on a concrete backend but not "
                    "declared on StorageBackend in base.py; hoist the "
                    "group-commit seam so every layer (and the "
                    "conformance suite) shares one API",
                )
    yield from _durable_parity(project)


def _durable_parity(project: Project) -> Found:
    layers: dict[str, ParsedFile] = {}
    for parsed in project.under("backends"):
        if parsed.name in _DURABLE_LAYERS and parsed.name not in layers:
            layers[parsed.name] = parsed
    if len(layers) < 2:
        return  # nothing to compare (partial tree under scan)
    overriding = {name for name, parsed in layers.items()
                  if "write_group" in _group_methods(parsed)}
    if not overriding or overriding == set(layers):
        return
    for name in sorted(set(layers) - overriding):
        parsed = layers[name]
        yield (
            parsed,
            _class_line(parsed),
            f"{name} has no write_group() override while "
            f"{', '.join(sorted(overriding))} batches commits; this "
            "backend pays one commit unit per write inside a group — "
            "add the override (one counter window, one flush) to keep "
            "the durable layers in lockstep",
        )


def _group_methods(parsed: ParsedFile) -> dict[str, int]:
    """Group-API method names defined on any class in ``parsed``."""
    methods: dict[str, int] = {}
    if parsed.tree is None:
        return methods
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            if (isinstance(statement,
                           (ast.FunctionDef, ast.AsyncFunctionDef))
                    and statement.name in _GROUP_API):
                methods.setdefault(statement.name, statement.lineno)
    return methods


def _class_line(parsed: ParsedFile) -> int:
    if parsed.tree is not None:
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef):
                return node.lineno
    return 1
