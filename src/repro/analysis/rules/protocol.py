"""Rule 5 — protocol/route drift.

``service.API_METHODS`` is the wire contract: the conformance suites
assume every name appears on the protocol class, the sync facade and
the HTTP client, and (where it crosses the wire) has a dispatch route
on the server.  A half-wired endpoint — added to the service but not
the client, or routed but with no handler — survives unit tests and
dies in production.  This rule cross-checks those three layers and the
server from the AST alone.

The API-name → server-route mapping is declared in ``_ROUTE_OF`` below;
adding a name to ``API_METHODS`` without extending the mapping is
itself a finding, which is what forces the mapping to stay current.
Layers whose file is absent from the scan are skipped (fixture trees);
the committed CI invocation scans all of ``src/`` so every layer is
always checked there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.engine import ParsedFile, Project, dotted_name, rule

#: API method -> server route handler name (as it appears in
#: ``server._ROUTES`` and as a ``_handle_<name>`` method).  ``None``
#: marks client/service-local lifecycle methods with no wire route.
_ROUTE_OF: dict[str, str | None] = {
    "identifiers": "list_entries",
    "versions": "versions",
    "versions_many": "batch_versions",
    "has": "has",
    "entry_count": "counter",
    "get": "get_entry",
    "get_many": "batch_get",
    "add": "add",
    "add_version": "add_version",
    "replace_latest": "replace_latest",
    "add_many": "add",
    "query": "query",
    "execute_query": "query",
    "query_stats": "query_stats",
    "change_counter": "counter",
    "change_token": "counter",
    "cache_stats": "stats",
    "close": None,
}

#: The three API layers: (file the class lives in, class name).
_LAYERS = (
    ("service.py", "RepositoryAPI"),
    ("service.py", "RepositoryService"),
    ("client.py", "HTTPBackend"),
)

Found = Iterator[tuple[ParsedFile, int, str]]


@dataclass
class _ClassInfo:
    parsed: ParsedFile
    lineno: int
    bases: list[str]
    methods: set[str] = field(default_factory=set)


@rule("protocol-drift")
def check(project: Project) -> Found:
    """every service.API_METHODS name exists on all three API layers and
    has a live dispatch route + handler in server.py."""
    methods = _api_methods(project)
    if methods is None:
        return
    api_names, api_file, api_line = methods
    classes = _collect_classes(project)
    for file_name, class_name in _LAYERS:
        if not project.named(file_name):
            continue  # fixture tree without this layer
        info = classes.get(class_name)
        if info is None:
            yield (
                api_file,
                api_line,
                f"class {class_name} (expected in {file_name}) was not "
                "found; the API layer itself has drifted",
            )
            continue
        available = _method_closure(class_name, classes)
        for name in api_names:
            if name not in available:
                yield (
                    info.parsed,
                    info.lineno,
                    f"API method {name!r} from service.API_METHODS is "
                    f"missing on {class_name}",
                )
    yield from _check_server(project, api_names, api_file, api_line)


def _api_methods(
    project: Project,
) -> tuple[list[str], ParsedFile, int] | None:
    for parsed in project.named("service.py"):
        if parsed.tree is None:
            continue
        for node in parsed.tree.body:
            target = _assign_target(node)
            if target != "API_METHODS":
                continue
            value = node.value
            if isinstance(value, (ast.Tuple, ast.List)):
                names = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
                return names, parsed, node.lineno
    return None


def _assign_target(node: ast.stmt) -> str | None:
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        return target.id if isinstance(target, ast.Name) else None
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _collect_classes(project: Project) -> dict[str, _ClassInfo]:
    classes: dict[str, _ClassInfo] = {}
    for parsed in project.files:
        if parsed.tree is None:
            continue
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(
                parsed=parsed,
                lineno=node.lineno,
                bases=[
                    base.split(".")[-1]
                    for base in (dotted_name(b) for b in node.bases)
                    if base is not None
                ],
            )
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods.add(child.name)
            classes.setdefault(node.name, info)
    return classes


def _method_closure(class_name: str, classes: dict[str, _ClassInfo]) -> set[str]:
    """Own methods plus those inherited through scanned base classes."""
    available: set[str] = set()
    pending = [class_name]
    visited: set[str] = set()
    while pending:
        current = pending.pop()
        if current in visited:
            continue
        visited.add(current)
        info = classes.get(current)
        if info is None:
            continue
        available.update(info.methods)
        pending.extend(info.bases)
    return available


def _check_server(
    project: Project,
    api_names: list[str],
    api_file: ParsedFile,
    api_line: int,
) -> Found:
    servers = [p for p in project.named("server.py") if p.tree is not None]
    if not servers:
        return
    server = servers[0]
    routed = _route_handlers(server)
    handlers = _handler_methods(server)
    for name in api_names:
        if name not in _ROUTE_OF:
            yield (
                api_file,
                api_line,
                f"API method {name!r} has no declared route mapping; add "
                "it to _ROUTE_OF in repro/analysis/rules/protocol.py and "
                "wire server._ROUTES",
            )
            continue
        target = _ROUTE_OF[name]
        if target is None:
            continue
        if target not in routed:
            yield (
                server,
                1,
                f"route {target!r} (serving API method {name!r}) is "
                "missing from server._ROUTES",
            )
        if f"_handle_{target}" not in handlers:
            yield (
                server,
                1,
                f"handler _handle_{target} (serving API method {name!r}) "
                "is missing from the server request handler",
            )


def _route_handlers(server: ParsedFile) -> set[str]:
    """Handler names appearing as the second element of _ROUTES pairs."""
    routed: set[str] = set()
    for node in server.tree.body:
        if _assign_target(node) != "_ROUTES":
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        for value in node.value.values:
            if not isinstance(value, (ast.List, ast.Tuple)):
                continue
            for pair in value.elts:
                if isinstance(pair, ast.Tuple) and pair.elts:
                    last = pair.elts[-1]
                    if isinstance(last, ast.Constant) and isinstance(last.value, str):
                        routed.add(last.value)
    return routed


def _handler_methods(server: ParsedFile) -> set[str]:
    methods: set[str] = set()
    for node in ast.walk(server.tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name.startswith(
                    "_handle_"
                ):
                    methods.add(child.name)
    return methods
