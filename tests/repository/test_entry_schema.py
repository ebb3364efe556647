"""Every value of an entry dict is type-checked, at every depth.

A valid entry dict with one value replaced by a JSON value of another
type is refused as a typed error (``TemplateError``; ``VersioningError``
for the version) or round-trips exactly, in process and over HTTP.  Over
HTTP that means a typed 400, or a 201 after which the entry, its wiki
page and a query over it all answer 200: a stored entry never breaks a
later read.
"""

from __future__ import annotations

import copy
import http.client
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import TemplateError, VersioningError
from repro.repository.backends import MemoryBackend
from repro.repository.entry import (
    Artefact,
    Comment,
    ExampleEntry,
    Reference,
    Variant,
)
from repro.repository.export import render_wikidot
from repro.repository.query import plan, plan_to_dict
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry

#: One of every nested record and list, so every leaf type occurs.
VALID = minimal_entry(
    version=Version(1, 0),
    variants=(Variant("v1", "Choice one."),),
    references=(Reference("Some paper.", doi="10.1/x", note="origin"),),
    reviewers=("Rex",),
    comments=(Comment("Bob", "2014-03-28", "Nice."),),
    artefacts=(Artefact("code", "code", "pkg.mod", "the bx"),),
).to_dict()


def value_paths(value, path=()):
    """The path of every value below ``value``: leaves, lists, objects."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for step, child in children:
        yield path + (step,)
        yield from value_paths(child, path + (step,))


PATHS = list(value_paths(VALID))


def json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


def at(data, path):
    for step in path:
        data = data[step]
    return data


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6)

#: One value of the valid dict, and a JSON value of another type for it.
ONE_EDIT = st.sampled_from(PATHS).flatmap(lambda path: st.tuples(
    st.just(path),
    JSON_VALUES.filter(
        lambda value: json_type(value) != json_type(at(VALID, path)))))

#: A nested string that is a list, and a list item that is a number.
REPRODUCER = ((("models", 0, "description"), []), (("authors", 0), 5))


def edited(edits, title: str = "DEMO EXAMPLE") -> dict:
    data = copy.deepcopy(VALID)
    data["title"] = title
    for path, value in edits:
        at(data, path[:-1])[path[-1]] = value
    return data


def refusals(edits) -> tuple[str, ...]:
    """The typed errors an edit may be refused with."""
    if any(path == ("version",) for path, _value in edits):
        return ("TemplateError", "VersioningError")
    return ("TemplateError",)


@settings(max_examples=300, deadline=None)
@example(edits=REPRODUCER)
@given(edits=st.tuples(ONE_EDIT))
def test_an_edited_dict_is_refused_or_round_trips_in_process(edits):
    data = edited(edits)
    try:
        entry = ExampleEntry.from_dict(copy.deepcopy(data))
    except (TemplateError, VersioningError) as error:
        assert type(error).__name__ in refusals(edits)
        return
    assert entry.to_dict() == data
    with RepositoryService(MemoryBackend()) as service:
        service.add(entry)
        assert service.get(entry.identifier) == entry
        assert render_wikidot(service.get(entry.identifier))
        assert service.query(entry.title).identifiers == [entry.identifier]


@pytest.fixture(scope="module")
def server():
    service = RepositoryService(MemoryBackend())
    with RepositoryServer(service, close_service=True) as server:
        yield server


def call(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body).encode("utf-8"),
            headers={} if body is None else {
                "Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


TITLES = (f"SCHEMA {index}" for index in itertools.count())


@settings(max_examples=100, deadline=None)
@example(edits=REPRODUCER)
@given(edits=st.tuples(ONE_EDIT))
def test_an_edited_post_is_a_typed_400_or_reads_back_intact(server, edits):
    data = edited(edits, title=next(TITLES))
    status, body = call(server.port, "POST", "/entries", {"entry": data})
    if status == 400:
        assert json.loads(body)["error"]["type"] in refusals(edits)
        return
    assert status == 201, body
    identifier = json.loads(body)["identifier"]
    status, body = call(server.port, "GET", f"/entries/{identifier}")
    assert status == 200, body
    stored = json.loads(body)["entry"]
    stored.pop("_codec")
    assert stored == data
    status, body = call(server.port, "GET", f"/wiki/{identifier}")
    assert status == 200, body
    status, body = call(server.port, "POST", "/query",
                        {"plan": plan_to_dict(plan(data["title"]))})
    assert status == 200, body
