"""The HTTP wire contract, declared once for both ends.

Every endpoint of the repository's HTTP API is one :class:`Route` row in
:data:`ROUTES`.  The server (:mod:`repro.repository.server`) compiles
the rows into its dispatch table, and the client
(:class:`~repro.repository.client.HTTPBackend`) builds every request
path from the same rows, so the two ends cannot disagree on a method or
a path.  A row's ``name`` is also its ``/stats`` request counter key
(``"GET get_entry"``, ``"POST add"``, ...).

Plain rows carry ``serve(repository, body, **operands) -> (status,
payload)``: the server decodes the JSON body (``None`` for a GET),
calls it and sends the payload as JSON.  Special rows have no ``serve``;
the server dispatches them to its hand-written ``_handle_<name>``
method, because they need more than a JSON answer: validators and
stored bytes, NDJSON streams, a text body or the cache merge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable
from urllib.parse import quote

from repro.core.errors import StorageError
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    plan_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.repository.schema import wire

__all__ = ["ROUTES", "Route", "field"]

#: The one operand a path template may hold.
_OPERAND = "{identifier}"


@dataclass(frozen=True)
class Route:
    """One endpoint: counter name, HTTP method, path template, server."""

    name: str
    method: str
    path: str
    serve: Callable[..., tuple[int, dict]] | None = None

    def url(self, identifier: str | None = None) -> str:
        """The request path, with ``identifier`` quoted into one segment."""
        if identifier is None:
            return self.path
        return self.path.replace(_OPERAND, quote(identifier, safe=""))

    def pattern(self) -> re.Pattern:
        """The path template as a regex over the *encoded* request path."""
        template = re.escape(self.path).replace(
            re.escape(_OPERAND), "(?P<identifier>[^/]+)"
        )
        return re.compile(f"^{template}$")


def field(body: dict, name: str, kind: type) -> object:
    """One request body field, type-checked."""
    value = body.get(name)
    if not isinstance(value, kind):
        raise StorageError(
            f"request body field {name!r} must be "
            f"{kind.__name__}, got {type(value).__name__}"
        )
    return value


def _entry_for(body: dict, identifier: str) -> ExampleEntry:
    """Decode the body entry and pin it to the URL's identifier."""
    entry = ExampleEntry.from_dict(field(body, "entry", dict))
    if entry.identifier != identifier:
        raise StorageError(
            f"entry identifier {entry.identifier!r} does not match "
            f"the request path ({identifier!r})"
        )
    return entry


def _list_entries(repository, body):
    return 200, {"identifiers": repository.identifiers()}


def _versions(repository, body, identifier):
    versions = repository.versions(identifier)
    return 200, {"versions": [str(v) for v in versions]}


def _has(repository, body, identifier):
    return 200, {"has": repository.has(identifier)}


def _counter(repository, body):
    # The cheap subset of /stats, behind the client's entry_count() and
    # change_counter(): /stats would also merge every cache's counters.
    return 200, {
        "entry_count": repository.entry_count(),
        "change_counter": repository.change_counter(),
    }


def _add(repository, body):
    if "entries" in body:
        entries = [
            ExampleEntry.from_dict(data) for data in field(body, "entries", list)
        ]
        return 200, {"count": repository.add_many(entries)}
    entry = ExampleEntry.from_dict(field(body, "entry", dict))
    repository.add(entry)
    return 201, {"identifier": entry.identifier}


def _add_version(repository, body, identifier):
    entry = _entry_for(body, identifier)
    repository.add_version(entry)
    return 201, {"version": str(entry.version)}


def _replace_latest(repository, body, identifier):
    entry = _entry_for(body, identifier)
    repository.replace_latest(entry)
    return 200, {"version": str(entry.version)}


def _query(repository, body):
    plan = plan_from_dict(field(body, "plan", dict))
    stats = body.get("stats")
    if stats is not None:
        stats = stats_from_dict(stats)
    return 200, result_to_dict(repository.execute_query(plan, stats))


_, _terms_from_dict = wire(tuple[str, ...], "query stats terms", StorageError)


def _query_stats(repository, body):
    terms = _terms_from_dict(body.get("terms"))
    return 200, stats_to_dict(repository.query_stats(terms))


#: Every endpoint, by name.  The server matches a method's rows in this
#: order; all bodies are JSON unless noted.
ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        # all identifiers
        Route("list_entries", "GET", "/entries", _list_entries),
        # one entry snapshot (?version= for an older one), with an ETag
        Route("get_entry", "GET", "/entries/{identifier}"),
        # the entry's version list
        Route("versions", "GET", "/entries/{identifier}/versions", _versions),
        # existence probe (never 404s)
        Route("has", "GET", "/entries/{identifier}/has", _has),
        # entry count, change counter, every cache counter on the read path
        Route("stats", "GET", "/stats"),
        # just entry count and change counter
        Route("counter", "GET", "/counter", _counter),
        # the entry's wikidot page, as text, with the entry's digest as ETag
        Route("wiki", "GET", "/wiki/{identifier}"),
        # add one {"entry": ...} or bulk-load {"entries": [...]}
        Route("add", "POST", "/entries", _add),
        # append a version
        Route("add_version", "POST", "/entries/{identifier}/versions", _add_version),
        # get_many: {"requests": [[id, v?], ...]}, NDJSON on request
        Route("batch_get", "POST", "/batch/get"),
        # versions_many: {"identifiers": [...]}, NDJSON on request
        Route("batch_versions", "POST", "/batch/versions"),
        # execute a full Q-AST plan ({"plan": ..., "stats": ...|null})
        Route("query", "POST", "/query", _query),
        # corpus stats for terms (the ranker's N + df)
        Route("query_stats", "POST", "/stats/query", _query_stats),
        # replace_latest
        Route("replace_latest", "PUT", "/entries/{identifier}", _replace_latest),
    )
}
