"""Per-layer figures for the traced run.

Three sources, each measured where the work happens:

* **Spans** (from :mod:`drive`): an ``op.<kind>`` span per request with
  an ``http.exchange`` child around each wire round trip.  The op's
  self time is the client library's own work (encode, decode, ETag
  cache); the exchange is wire plus server.
* **Server counters**: ``GET /stats`` before and after the timed window;
  the deltas give what the entry reads cost each cache behind the wire.
* **The layer ladder**: one read stream replayed by a single client at
  each depth of the stack -- raw SQLite backend, ``RepositoryService``,
  HTTP to a server in this process, HTTP to a server process -- over
  the database the timed window left behind, so a layer's cost is the
  difference between two rows.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time
from itertools import islice
from urllib.parse import urlsplit

from repro.repository.backends import SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService
from stack import ServerProcess

#: Timed reads per ladder row, after half as many untimed ones.
LADDER_OPS = 1000
#: Reads the four ladder rows make together.
LADDER_READS = 4 * (LADDER_OPS + LADDER_OPS // 2)


def server_stats(url: str) -> dict:
    split = urlsplit(url)
    connection = http.client.HTTPConnection(split.hostname, split.port,
                                            timeout=30)
    try:
        connection.request("GET", "/stats")
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"GET /stats: {response.status}")
    return json.loads(body)


def _delta(before: dict, after: dict, *path: str) -> int:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return (after or 0) - (before or 0)


def counter_metrics(before: dict, after: dict) -> dict:
    """What the entry GETs of the timed window cost the server.

    Each figure is a count per entry GET, so it is defined on every
    workload: a GET answered 304 from its validator looks nothing up,
    so a lost 304 shows as more cache misses, not as a better ratio.
    """
    gets = _delta(before, after, "server", "requests", "GET get_entry")
    if gets <= 0:
        raise RuntimeError("the window served no entry GET")
    return {
        "not_modified_per_get": _delta(
            before, after, "server", "conditional", "not_modified") / gets,
        "entry_cache_misses_per_get": _delta(
            before, after, "cache", "entry_cache", "misses") / gets,
        "decode_misses_per_get": _delta(
            before, after, "cache", "decode_memo", "misses") / gets,
    }


def span_metrics(spans: list[tuple]) -> dict:
    """Median client self time and wire round trip per GET, in µs."""
    ops: dict[int, tuple] = {}
    child_ns: dict[int, int] = {}
    for request, span_id, parent, name, start, end in spans:
        if "warm" in request:
            continue
        if parent is None:
            ops[span_id] = (name, end - start)
        else:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    self_us, trips = [], []
    for span_id, (name, duration) in ops.items():
        if name == "op.get":
            wire = child_ns.get(span_id, 0)
            self_us.append((duration - wire) / 1000)
            trips.append(wire / 1000)
    return {
        "get_client_self_us": statistics.median(self_us),
        "get_round_trip_us": statistics.median(trips),
    }


def _time_row(read, keys, expected) -> float:
    """Median µs of ``read(identifier)`` over the next LADDER_OPS keys."""
    for identifier in islice(keys, LADDER_OPS // 2):
        read(identifier)
    samples = []
    for identifier in islice(keys, LADDER_OPS):
        started = time.perf_counter()
        entry = read(identifier)
        samples.append(time.perf_counter() - started)
        if entry != expected[identifier]:
            raise RuntimeError(f"ladder read of {identifier} is wrong")
    return statistics.median(samples) * 1e6


def _time_http_row(url: str, keys, expected) -> float:
    client = HTTPBackend(url)
    try:
        return _time_row(client.get, keys, expected)
    finally:
        client.close()


def ladder(db_path, keys, expected: dict) -> dict:
    """Replay ``keys`` (an endless identifier stream) at every depth.

    Every row starts with empty caches in the layers it adds and
    continues the stream where the previous row stopped, so a stream
    whose first ``LADDER_READS`` keys are distinct stays cold in every
    row, although the first three rows share one backend and its decode
    memo.  The database at ``db_path`` must have no server.

    A ``*_cost_us`` row is the difference between adjacent depths: what
    the layer adds per read, negative where its cache saves more than
    the layer costs.
    """
    backend = SQLiteBackend(db_path)
    try:
        rows = {"ladder_backend_get_us": _time_row(backend.get, keys,
                                                   expected)}
        service = RepositoryService(backend)
        rows["ladder_service_get_us"] = _time_row(service.get, keys,
                                                  expected)
        with RepositoryServer(service) as local:
            rows["ladder_inproc_get_us"] = _time_http_row(local.url, keys,
                                                          expected)
    finally:
        backend.close()
    server = ServerProcess(db_path)
    try:
        rows["ladder_outproc_get_us"] = _time_http_row(server.url, keys,
                                                       expected)
    finally:
        server.stop()
    rows["service_cost_us"] = (rows["ladder_service_get_us"]
                               - rows["ladder_backend_get_us"])
    rows["http_cost_us"] = (rows["ladder_inproc_get_us"]
                            - rows["ladder_service_get_us"])
    rows["process_cost_us"] = (rows["ladder_outproc_get_us"]
                               - rows["ladder_inproc_get_us"])
    return rows
