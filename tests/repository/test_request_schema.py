"""Every value of a request body is type-checked.

A valid body for ``POST /query``, ``/stats/query``, ``/batch/get`` and
``/batch/versions`` with one value replaced, at any depth, by a JSON
value of another type or by a bad number gets a typed 400, or the answer
the served service gives in process to the same input: never a 5xx.  So
does a write body (``add`` of one entry or of many, ``add_version``,
``replace_latest``): every such edit is a typed 400, and the unedited
body lands and reads back as sent.  The autouse guard in
``tests/conftest.py`` also fails any test during which the server logs
an internal error.

The filter tree is bounded (``MAX_QUERY_DEPTH``/``MAX_QUERY_NODES``) so
that every backend runs every tree a plan takes: each shape at the
bound answers alike on memory, file and SQLite, and one past it is a
typed error in process and a typed 400 over HTTP.
"""

from __future__ import annotations

import copy
import http.client
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import errors
from repro.core.errors import BxError, StorageError
from repro.repository.backends import MemoryBackend, SQLiteBackend
from repro.repository.codec import encode_entry
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    MAX_QUERY_DEPTH,
    MAX_QUERY_NODES,
    And,
    HasProperty,
    Not,
    Or,
    Q,
    QueryPlan,
    QueryStats,
    plan,
    plan_to_dict,
    query_to_dict,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.repository.routes import ROUTES
from repro.repository.server import RepositoryServer, _error_status, _Handler
from repro.repository.service import RepositoryService
from repro.repository.template import EntryType
from tests.repository.test_entry import minimal_entry
from tests.repository.test_entry_schema import (
    JSON_VALUES,
    VALID,
    at,
    call,
    json_type,
    value_paths,
)
from tests.repository.test_query_conformance import (
    assert_same_result,
    make_backend,
    populate,
)

CORPUS = [
    minimal_entry(title=f"DEMO {index}", overview=f"Demo {index} on trees.",
                  authors=(("Ann", "Bob")[index % 2],))
    for index in range(3)
]

WHERE = ((Q.text("demo trees") & ~Q.author("Bob") & Q.type(EntryType.PRECISE))
         | (Q.property("correct", holds=True) & Q.provisional())
         | (Q.property("undoable") & Q.all()))

#: One valid body per route that reads one; every op and field occurs.
BODIES = {
    "query": {
        "plan": plan_to_dict(plan(WHERE, sort="identifier", offset=1,
                                  limit=2)),
        "stats": stats_to_dict(QueryStats(10, {"demo": 3, "trees": 2})),
    },
    "query_stats": {"terms": ["demo", "trees", "none"]},
    "batch_get": {"requests": ["demo-0", ["demo-1", "0.1"], ["demo-2", None]]},
    "batch_versions": {"identifiers": ["demo-0", "demo-2"]},
}

#: Numbers a numeric field may be sent instead of its own.
BAD_NUMBERS = (st.integers() | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-1, -5, 1.7, 1 << 63, -(1 << 63) - 1,
                                  10 ** 400]))


def replacements(body: dict, path: tuple) -> st.SearchStrategy:
    original = at(body, path)
    other_type = JSON_VALUES.filter(
        lambda value: json_type(value) != json_type(original))
    if json_type(original) == "number":
        return other_type | BAD_NUMBERS
    return other_type


#: One route, one value of its valid body, and what to send instead.
ONE_EDIT = st.sampled_from([
    (route, path) for route, body in BODIES.items()
    for path in value_paths(body)
]).flatmap(lambda target: st.tuples(
    st.just(target[0]), st.just(target[1]),
    replacements(BODIES[target[0]], target[1])))


def edited(route: str, path: tuple, value) -> dict:
    body = copy.deepcopy(BODIES[route])
    at(body, path[:-1])[path[-1]] = value
    return body


def loaded_service() -> RepositoryService:
    service = RepositoryService(MemoryBackend())
    service.add_many(CORPUS)
    return service


def in_process(service: RepositoryService, route: str, body: dict):
    """The served service's answer to one body, as ``(status, payload)``,
    or ``(status, error type)`` for a typed error."""
    try:
        serve = ROUTES[route].serve
        if serve is not None:
            status, payload = serve(service, body)
        elif route == "batch_get":
            # The buffered body splices each entry's codec payload.
            entries = service.get_many(_Handler._parse_get_requests(body))
            status, payload = 200, {"entries": [json.loads(encode_entry(entry))
                                                for entry in entries]}
        else:
            listing = service.versions_many(body["identifiers"])
            status, payload = 200, {"versions": {
                identifier: [str(version) for version in versions]
                for identifier, versions in listing.items()}}
    except BxError as error:
        return _error_status(error), type(error).__name__
    return status, json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def server():
    with RepositoryServer(loaded_service(), close_service=True) as server:
        yield server


def post(server, route: str, body) -> tuple[int, dict]:
    status, answer = call(server.port, ROUTES[route].method,
                          ROUTES[route].path, body)
    return status, json.loads(answer)


def typed_error(answer: dict) -> str:
    name = answer["error"]["type"]
    assert issubclass(getattr(errors, name), BxError), answer
    return name


@settings(max_examples=300, deadline=None)
@example(edit=("query", ("stats", "document_count"), -5))
@example(edit=("query", ("stats", "document_frequency"), []))
@example(edit=("query", ("stats", "document_frequency", "demo"), 1.7))
@given(edit=ONE_EDIT)
def test_an_edited_body_is_a_typed_400_or_the_in_process_answer(server, edit):
    route, path, value = edit
    body = edited(route, path, value)
    status, answer = post(server, route, body)
    assert status < 500, answer
    if status == 400:
        typed_error(answer)
        return
    if status != 200:
        answer = typed_error(answer)
    assert (status, answer) == in_process(server.service, route, body)


def entry_dict(title: str, version: str) -> dict:
    """An entry with every nested record and list, as the wire sends it."""
    return {**copy.deepcopy(VALID), "title": title, "version": version}


#: Write -> its route, its target path, and a valid body given a serial
#: that keeps every body landing on the module's server: new titles for
#: ``add``, a rising version for ``add_version``.
WRITES = {
    "add": ("add", "/entries",
            lambda serial: {"entry": entry_dict(f"NEW {serial}", "0.1")}),
    "add-entries": ("add", "/entries", lambda serial: {"entries": [
        entry_dict(f"BULK {serial} {index}", "0.1") for index in range(2)]}),
    "add_version": ("add_version", "/entries/demo-2/versions",
                    lambda serial: {"entry": entry_dict("DEMO 2",
                                                        f"1.{serial}")}),
    "replace_latest": ("replace_latest", "/entries/demo-1",
                       lambda serial: {"entry": entry_dict("DEMO 1", "0.1")}),
}

SERIALS = itertools.count(1)

#: One write, one value of its valid body, and what to send instead.
WRITE_EDIT = st.sampled_from([
    (write, path) for write, (_route, _target, build) in WRITES.items()
    for path in value_paths(build(0))
]).flatmap(lambda target: st.tuples(
    st.just(target[0]), st.just(target[1]),
    replacements(WRITES[target[0]][2](0), target[1])))


def send_write(server, write: str, edit=None) -> tuple[int, bytes, dict]:
    """One write with a fresh valid body, ``edit`` (a path and a value)
    applied to it first."""
    route, target, build = WRITES[write]
    body = build(next(SERIALS))
    if edit is not None:
        path, value = edit
        at(body, path[:-1])[path[-1]] = value
    status, answer = call(server.port, ROUTES[route].method, target, body)
    return status, answer, body


@pytest.mark.parametrize("write", sorted(WRITES))
def test_an_unedited_write_lands_and_reads_back(server, write):
    status, answer, body = send_write(server, write)
    assert status in (200, 201), answer
    for data in [body["entry"]] if "entry" in body else body["entries"]:
        identifier = ExampleEntry.from_dict(copy.deepcopy(data)).identifier
        status, answer = call(server.port, "GET", f"/entries/{identifier}")
        stored = json.loads(answer)["entry"]
        stored.pop("_codec")
        assert stored == data


@settings(max_examples=300, deadline=None)
@example(edit=("add-entries", ("entries", 1), "junk"))
@example(edit=("add_version", ("entry", "models", 0, "description"), []))
@given(edit=WRITE_EDIT)
def test_an_edited_write_is_a_typed_400(server, edit):
    """No entry field takes a value of another JSON type, so every
    edit is refused, and the body is otherwise one that would land."""
    write, path, value = edit
    status, answer, _body = send_write(server, write, (path, value))
    assert status == 400, answer
    typed_error(json.loads(answer))


@pytest.mark.parametrize("path, value", [
    (("stats", "document_count"), -5),
    (("stats", "document_frequency"), []),
    (("stats", "document_frequency", "demo"), 1.7),
    (("stats", "document_frequency", "demo"), 11),
    (("stats", "document_count"), 10 ** 400),
    (("stats",), {"document_count": -5, "document_frequency": {}}),
], ids=["negative-count", "list-frequencies", "fractional-frequency",
        "frequency-above-count", "huge-count", "negative-count-alone"])
def test_bad_stats_are_a_typed_400(server, path, value):
    status, answer = post(server, "query", edited("query", path, value))
    assert status == 400
    assert answer["error"]["type"] == "StorageError"
    with pytest.raises(StorageError):
        stats_from_dict(edited("query", path, value)["stats"])


class WriteAfterEachStatement:
    """A read connection after each of whose statements another
    connection adds an entry holding the term "demo"."""

    def __init__(self, conn, writer):
        self.conn, self.writer, self.added = conn, writer, 0

    def execute(self, *args):
        rows = Rows(self.conn.execute(*args).fetchall())
        self.added += 1
        self.writer.add(minimal_entry(title=f"DEMO LATE {self.added}"))
        self.writer.query_stats([])  # indexes the new entry
        return rows


class Rows(list):
    def fetchone(self):
        return self[0]


def test_sqlite_stats_come_from_one_snapshot(tmp_path):
    """A write landing between reading the count and the frequencies
    would break ``0 <= df <= document_count``."""
    reader = SQLiteBackend(tmp_path / "repo.db")
    writer = SQLiteBackend(tmp_path / "repo.db")
    try:
        reader.add_many(CORPUS)
        assert reader.query_stats(["demo"]) == QueryStats(3, {"demo": 3})
        stats = reader._run_read(lambda conn: reader._stats_on(
            WriteAfterEachStatement(conn, writer), ["demo"]))
        assert stats.document_count == stats.document_frequency["demo"]
    finally:
        writer.close()
        reader.close()


@pytest.mark.parametrize("path, value", [
    (("total",), "3"),
    (("hits", 0, "score"), "1.5"),
    (("hits", 0, "identifier"), 5),
    (("facets",), []),
], ids=["total", "score", "identifier", "facets"])
def test_a_junk_result_is_refused_by_the_client(path, value):
    data = result_to_dict(loaded_service().execute_query(plan("demo")))
    assert result_from_dict(copy.deepcopy(data)).total == 3
    at(data, path[:-1])[path[-1]] = value
    with pytest.raises(StorageError, match="malformed query result"):
        result_from_dict(data)


# ----------------------------------------------------------------------
# The filter-tree bound.
# ----------------------------------------------------------------------

ATOM = HasProperty("correct", True)


def nest(depth: int, *wraps):
    """A tree ``depth`` nodes deep: ``wraps`` applied in turn to ``ATOM``."""
    tree = ATOM
    for level in range(depth - 1):
        tree = wraps[level % len(wraps)](tree)
    return tree


def wide_or(nodes: int):
    """An ``Or`` of atoms, ``nodes`` nodes in all."""
    return Or(tuple(HasProperty(f"claim {index}", True)
                    for index in range(nodes - 2)) + (ATOM,))


#: Shape -> the tree at the bound, given the bound.  The right-nested
#: ``Or`` costs SQLite's parser the most stack per level.
SHAPES = {
    "not-chain": lambda depth: nest(depth, Not),
    "not-and-pairs": lambda depth: nest(
        depth, lambda tree: And((tree, Q.text("tree"))), Not),
    "right-nested-or": lambda depth: nest(
        depth, lambda tree: Or((Q.text("tree"), tree))),
    "and-chain": lambda depth: nest(
        depth, lambda tree: And((tree, Q.provisional()))),
}

BOUNDED = [(name, build(MAX_QUERY_DEPTH), build(MAX_QUERY_DEPTH + 1))
           for name, build in SHAPES.items()]
BOUNDED.append(("wide-or", wide_or(MAX_QUERY_NODES),
                wide_or(MAX_QUERY_NODES + 1)))


@pytest.mark.parametrize("name, at_bound, _past", BOUNDED,
                         ids=[name for name, *_trees in BOUNDED])
def test_a_tree_at_the_bound_answers_alike_on_every_backend(
        tmp_path, name, at_bound, _past):
    query_plan = QueryPlan(at_bound)
    answers = []
    for kind in ("memory", "file", "sqlite"):
        backend = make_backend(kind, tmp_path)
        try:
            populate(backend)
            answers.append(backend.execute_query(query_plan))
        finally:
            backend.close()
    for answer in answers[1:]:
        assert_same_result(answer, answers[0], name)


@pytest.mark.parametrize("name, _at_bound, past", BOUNDED,
                         ids=[name for name, *_trees in BOUNDED])
def test_a_tree_past_the_bound_is_a_typed_400(server, name, _at_bound, past):
    with pytest.raises(StorageError, match="query tree"):
        QueryPlan(past)
    status, answer = post(server, "query",
                          {"plan": {"where": query_to_dict(past)}})
    assert status == 400, answer
    assert answer["error"]["type"] == "StorageError"
    assert "query tree" in answer["error"]["message"]


def test_a_body_too_deep_to_decode_is_a_typed_400(server):
    """A 400-deep ``and`` chain is within ``json.loads``' limit but past
    the interpreter's recursion limit for the walk."""
    depth = 400
    where = '{"op": "and", "parts": [' * depth + '{"op": "all"}' + "]}" * depth
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=10)
    try:
        connection.request("POST", "/query",
                            body=('{"plan": {"where": ' + where + "}}"),
                            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        status, answer = response.status, json.loads(response.read())
    finally:
        connection.close()
    assert status == 400, answer
    assert answer["error"]["type"] == "StorageError"
