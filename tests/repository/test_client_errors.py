"""The client rebuilds a server error as the class the server named.

``_error_payload`` (server side) and ``_remote_error`` (client side)
are the two halves of the wire's error format.  These tests run one
through the other without a socket: every error the server names
comes back as the same class, with its message and its structured
arguments, and anything the client cannot read degrades to a plain
``StorageError`` that the caller still catches.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    BackendUnavailableError,
    CircuitOpenError,
    CurationError,
    DeadlineExceeded,
    DuplicateEntry,
    EntryNotFound,
    StorageError,
    TemplateError,
    VersioningError,
    WikiSyncError,
)
from repro.repository.client import _remote_error
from repro.repository.server import _error_payload, _error_status


ROUND_TRIPS = [
    EntryNotFound("demo-example"),
    EntryNotFound("demo-example", "0.2"),
    DuplicateEntry("demo-example"),
    CircuitOpenError("breaker is open", retry_after=2.0),
    BackendUnavailableError("draining", retry_after=0.5),
    BackendUnavailableError("draining"),
    StorageError("disk full"),
    VersioningError("0.1 is not after 0.2"),
    TemplateError("unknown field"),
    CurationError("needs review"),
    WikiSyncError("page moved"),
    DeadlineExceeded("deadline expired"),
]


@pytest.mark.parametrize(
    "original", ROUND_TRIPS,
    ids=lambda error: type(error).__name__,
)
def test_server_error_comes_back_as_the_same_class(original):
    rebuilt = _remote_error(_error_status(original), _error_payload(original))
    assert type(rebuilt) is type(original)
    assert str(rebuilt) == str(original)
    for field in ("identifier", "version", "retry_after"):
        assert getattr(rebuilt, field, None) == getattr(original, field, None)


def test_unknown_type_degrades_to_storage_error():
    payload = {"error": {"type": "MartianError", "message": "beep"}}
    rebuilt = _remote_error(500, payload)
    assert type(rebuilt) is StorageError
    assert str(rebuilt) == "beep"


@pytest.mark.parametrize(
    "payload",
    [None, "internal error", ["error"], {}, {"error": "flat string"}],
    ids=["none", "text", "list", "empty-dict", "flat-error"],
)
def test_payload_without_detail_degrades_to_storage_error(payload):
    rebuilt = _remote_error(502, payload)
    assert type(rebuilt) is StorageError
    assert "HTTP 502 with no error detail" in str(rebuilt)


def test_missing_message_names_the_status():
    rebuilt = _remote_error(409, {"error": {"type": "VersioningError"}})
    assert type(rebuilt) is VersioningError
    assert str(rebuilt) == "HTTP 409"


def test_missing_identifier_is_a_placeholder():
    rebuilt = _remote_error(404, {"error": {"type": "EntryNotFound"}})
    assert isinstance(rebuilt, EntryNotFound)
    assert rebuilt.identifier == "?"
    assert rebuilt.version is None
