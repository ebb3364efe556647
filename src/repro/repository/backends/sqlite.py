"""SQLite backend: one indexed database file, transactional batch writes.

The first scaling step past directory-of-JSON: snapshots live in a
single ``entries`` table keyed (and therefore indexed) by
``(identifier, major, minor)``, so point lookups and existence checks
are index probes instead of directory scans, and ``add_many`` commits a
whole bulk load in one transaction instead of one rename per snapshot.

``":memory:"`` (the default) gives an ephemeral database useful for
tests and benchmarks; any path gives a durable single-file store in WAL
mode.

Every write commits through :meth:`SQLiteBackend.write_group`: a write
outside any group is a group of one (one transaction, one counter
bump), and a write inside an open group on the same thread joins that
group's transaction.

Each snapshot row keeps its canonical codec ``payload`` and, written
by the same statement, that payload's ``digest``
(:func:`~repro.repository.codec.entry_digest`, the HTTP entry
validator).  A trigger clears the digest whenever an update changes
the payload without writing a new digest — a build from before the
column sharing the file, a hand edit — so a stored digest is always
its row's.  :meth:`SQLiteBackend.get_payload`, the entry GET's read,
therefore serves a canonical row that has a digest as stored: no
``json.loads``, no ``from_dict``, no re-hash.  Any other row (one
written before the column existed, or one rewritten behind its
digest) is decoded first, exactly as :meth:`get` decodes it, so a
corrupt or newer-codec row stays a typed error and a stale digest can
never validate.  Opening a database from before the column adds it,
NULL for the old rows, and the trigger.

Query pushdown — the backend natively executes
:class:`~repro.repository.query.QueryPlan` trees
(``supports_native_query = True``).  Alongside the snapshots it
maintains a set of **latest-version metadata tables**:

* ``latest`` — one row per identifier (its latest major/minor and
  review flag), the base relation queries filter;
* ``latest_types`` / ``latest_properties`` / ``latest_authors`` —
  indexed structured metadata;
* ``latest_terms`` — an FTS-style terms table holding the
  field-boosted term weights of
  :func:`repro.repository.query.entry_terms`.

``execute_query`` compiles the filter AST to SQL over these tables
(``EXISTS`` probes combined with ``AND``/``OR``/``NOT``), computes
facets and ranking-term weights from the metadata tables alone, and
decodes JSON payloads **only for the page of hits it returns** — which
is what makes a selective query over a big store cheap.

Metadata maintenance is **deferred with precise dirty tracking**: each
write transaction records the written identifier in a ``dirty`` table
(one tiny insert, so bulk loads keep their bulk-load speed) and every
query path first re-indexes exactly the dirty identifiers.  The marks
commit with the write, so a crash can never lose index maintenance —
at worst the next query redoes it.  A ``meta`` table carries the
durable change counter, which the server reports as
``GET /counter``.  Databases
written before these tables existed are adopted on open by marking
their unindexed identifiers dirty.

Thread safety — the backend is safe to share across threads, which the
sharded fan-out path relies on:

* **durable databases** use one *write* connection serialised on an
  internal lock plus a pool of read-only connections
  (``PRAGMA query_only=ON``).  Each read borrows an idle reader and
  hands it back, so the pool grows only to the number of *concurrent*
  reads — never to the number of threads that ever read, which under
  a thread-per-connection server is every client connection ever
  accepted.  WAL mode lets those readers run genuinely in parallel
  with each other and with the single writer, and a reader can never
  observe an uncommitted transaction because it never shares the
  writer's connection;
* **":memory:" databases** exist only on their one connection, so every
  operation — reads included — serialises on the internal lock, as
  before.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.errors import (
    DuplicateEntry,
    EntryNotFound,
    StorageError,
)
from repro.repository.backends.base import StorageBackend, _split_request
from repro.repository.codec import (
    CANONICAL_PREFIX,
    DecodeMemo,
    decode_entry,
    encode_entry,
    entry_digest,
)
from repro.repository.concurrency import Mutex
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    All,
    And,
    ByAuthor,
    HasProperty,
    IsReviewed,
    Not,
    Or,
    QueryPlan,
    QueryResult,
    QueryStats,
    SearchHit,
    Text,
    TypeIs,
    collect_positive_terms,
    empty_facets,
    entry_terms,
    property_facet_label,
    review_facet_label,
    score_entry,
)
from repro.repository.versioning import Version

__all__ = ["SQLiteBackend"]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    identifier TEXT    NOT NULL,
    major      INTEGER NOT NULL,
    minor      INTEGER NOT NULL,
    payload    TEXT    NOT NULL,
    digest     TEXT,
    PRIMARY KEY (identifier, major, minor)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS latest (
    identifier TEXT PRIMARY KEY,
    major      INTEGER NOT NULL,
    minor      INTEGER NOT NULL,
    reviewed   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS latest_types (
    identifier TEXT NOT NULL,
    type       TEXT NOT NULL,
    PRIMARY KEY (identifier, type)
);
CREATE INDEX IF NOT EXISTS latest_types_by_type
    ON latest_types (type, identifier);
CREATE TABLE IF NOT EXISTS latest_properties (
    identifier TEXT    NOT NULL,
    name       TEXT    NOT NULL,
    holds      INTEGER NOT NULL,
    PRIMARY KEY (identifier, name, holds)
);
CREATE INDEX IF NOT EXISTS latest_properties_by_name
    ON latest_properties (name, holds, identifier);
CREATE TABLE IF NOT EXISTS latest_authors (
    identifier TEXT NOT NULL,
    author     TEXT NOT NULL,
    PRIMARY KEY (identifier, author)
);
CREATE INDEX IF NOT EXISTS latest_authors_by_author
    ON latest_authors (author, identifier);
CREATE TABLE IF NOT EXISTS latest_terms (
    identifier TEXT NOT NULL,
    term       TEXT NOT NULL,
    weight     REAL NOT NULL,
    PRIMARY KEY (term, identifier)
);
CREATE INDEX IF NOT EXISTS latest_terms_by_identifier
    ON latest_terms (identifier);
CREATE TABLE IF NOT EXISTS dirty (
    identifier TEXT PRIMARY KEY
);
"""

#: Clears the digest of a row whose payload an update changed without
#: writing a new digest.  Stored in the database, so it fires for every
#: build that writes the file, those from before the column included.
_DIGEST_TRIGGER = """
CREATE TRIGGER IF NOT EXISTS entries_digest_follows_payload
AFTER UPDATE OF payload ON entries
WHEN NEW.digest IS OLD.digest AND NEW.payload IS NOT OLD.payload
BEGIN
    UPDATE entries SET digest = NULL
    WHERE identifier = NEW.identifier
    AND major = NEW.major AND minor = NEW.minor;
END
"""

_AUX_TABLES = (
    "latest",
    "latest_types",
    "latest_properties",
    "latest_authors",
    "latest_terms",
)


class SQLiteBackend(StorageBackend):
    """Versioned entry storage in a single SQLite database."""

    supports_native_query = True

    def __init__(self, path: str | Path = ":memory:",
                 durability: str = "normal") -> None:
        if durability not in ("normal", "full"):
            raise StorageError(
                f"durability must be 'normal' or 'full', not {durability!r}")
        self.path = str(path)
        self._memory = self.path == ":memory:"
        #: ``"normal"`` rides WAL's synchronous=NORMAL (commits survive
        #: application crashes, not power loss); ``"full"`` fsyncs every
        #: commit — the configuration where group commit earns its keep,
        #: because N grouped writes pay one fsync instead of N.
        self.durability = durability
        self._lock = Mutex()
        #: The thread owning the open write group (None: no group).
        self._group_owner: int | None = None
        self._closed = False
        self._memo = DecodeMemo()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        #: Idle read-only connections; reads borrow one and hand it back.
        self._idle_readers: list[sqlite3.Connection] = []
        self._readers_lock = Mutex()
        if not self._memory:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous=FULL" if durability == "full"
                else "PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) "
                "VALUES ('change_counter', 0)"
            )
            self._migrate_digest_column()
            self._migrate_latest_tables()

    def _migrate_digest_column(self) -> None:
        """Adopt a database written before rows kept their digest.

        Adds the nullable ``digest`` column and its trigger; the old rows
        keep NULL and are served through the decode until a write
        replaces them.  Runs inside the opening transaction, whose insert
        above already holds the write lock, so two processes adopting one
        file cannot both add the column.
        """
        columns = {row[1] for row in self._conn.execute("PRAGMA table_info(entries)")}
        if "digest" not in columns:
            self._conn.execute("ALTER TABLE entries ADD COLUMN digest TEXT")
        self._conn.execute(_DIGEST_TRIGGER)

    def _migrate_latest_tables(self) -> None:
        """Adopt a pre-pushdown database: mark unindexed rows dirty.

        A database written before the query tables existed has
        snapshots but no ``latest`` rows; marking those identifiers
        dirty folds the migration into the ordinary deferred-indexing
        flush — the first query re-indexes them.  A no-op for
        databases this version has maintained.
        """
        self._conn.execute(
            "INSERT OR REPLACE INTO dirty "
            "SELECT DISTINCT identifier FROM entries e "
            "WHERE NOT EXISTS ("
            "  SELECT 1 FROM latest l WHERE l.identifier = e.identifier)"
        )

    # ------------------------------------------------------------------
    # Read plumbing.  Durable databases: a pool of read-only connections
    # (WAL readers run in parallel with the writer).  ":memory:"
    # databases exist only on the write connection, so reads serialise
    # on the lock there.
    # ------------------------------------------------------------------

    def _read_conn(self) -> sqlite3.Connection:
        """Borrow an idle read-only connection, opening one if none is
        idle; the borrower hands it back with :meth:`_release_read_conn`."""
        with self._readers_lock:
            if self._closed:
                raise StorageError(f"backend for {self.path!r} is closed")
            if self._idle_readers:
                return self._idle_readers.pop()
        # check_same_thread=False: a reader serves whichever thread
        # borrows it next, and close() may run from any thread.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        conn.execute("PRAGMA query_only=ON")
        return conn

    def _release_read_conn(self, conn: sqlite3.Connection) -> None:
        with self._readers_lock:
            if not self._closed:
                self._idle_readers.append(conn)
                return
        conn.close()  # the backend closed while this read ran

    def _in_own_group(self) -> bool:
        return self._group_owner == threading.get_ident()

    def _run_read(self, operation):
        """Run ``operation`` on a read connection.

        A stored TEXT value that is not UTF-8 (a row written behind the
        backend's back) fails sqlite3's decode of the fetched row; that
        is a typed :class:`StorageError`, like any other corrupt payload.
        """
        try:
            if self._in_own_group():
                # The thread owning an open write group already holds the
                # lock; read on the open transaction (and see the group's
                # own staged writes).  For durable databases a pooled WAL
                # reader could not see the uncommitted transaction; for
                # ":memory:" taking the lock again would deadlock.
                return operation(self._conn)
            if self._memory:
                with self._lock:
                    return operation(self._conn)
            conn = self._read_conn()
            try:
                return operation(conn)
            finally:
                self._release_read_conn(conn)
        except sqlite3.OperationalError as error:
            if str(error).startswith("Could not decode to UTF-8"):
                raise StorageError(f"stored text is not UTF-8: {error}") from error
            raise

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def identifiers(self) -> list[str]:
        rows = self._run_read(
            lambda conn: conn.execute(
                "SELECT DISTINCT identifier FROM entries ORDER BY identifier"
            ).fetchall()
        )
        return [identifier for (identifier,) in rows]

    def versions(self, identifier: str) -> list[Version]:
        rows = self._run_read(
            lambda conn: conn.execute(
                "SELECT major, minor FROM entries WHERE identifier = ? "
                "ORDER BY major, minor",
                (identifier,),
            ).fetchall()
        )
        if not rows:
            raise EntryNotFound(identifier)
        return [Version(major, minor) for major, minor in rows]

    def get(self, identifier: str, version: Version | None = None) -> ExampleEntry:
        def fetch(conn) -> ExampleEntry:
            return self._hydrate(self._get_row(conn, identifier, version)[2])

        return self._run_read(fetch)

    def get_payload(
        self, identifier: str, version: Version | None = None
    ) -> tuple[str, str]:
        """The stored payload and digest, from one row read.

        A canonical row with a digest is served as stored, with no
        decode (the trigger keeps that digest its payload's); any other
        row is decoded (through the memo) and answered as :meth:`get`
        would be.
        """
        _major, _minor, payload, digest = self._run_read(
            lambda conn: self._get_row(conn, identifier, version)
        )
        if digest is not None and payload.startswith(CANONICAL_PREFIX):
            return payload, digest
        entry = self._hydrate(payload)
        return encode_entry(entry), entry_digest(entry)

    def get_many(self, requests) -> list[ExampleEntry]:
        """Resolve many entries with one latest-version query.

        Latest-version requests are answered by a single correlated
        query per chunk of identifiers instead of one SELECT each;
        explicit-version requests fall back to point lookups.  Each
        snapshot hydrates through the decode memo, so a payload this
        process has already seen (or written) is never JSON-decoded
        again.
        """
        split = [_split_request(request) for request in requests]
        latest_wanted = sorted(
            {identifier for identifier, version in split if version is None}
        )

        def fetch(conn) -> list[ExampleEntry]:
            latest = self._latest_payloads(conn, latest_wanted)
            results = []
            for identifier, version in split:
                if version is None:
                    row = latest.get(identifier)
                    if row is None:
                        raise EntryNotFound(identifier)
                else:
                    row = self._get_row(conn, identifier, version)
                results.append(self._hydrate(row[2]))
            return results

        return self._run_read(fetch)

    def has(self, identifier: str) -> bool:
        return self._run_read(lambda conn: self._has(conn, identifier))

    def entry_count(self) -> int:
        (count,) = self._run_read(
            lambda conn: conn.execute(
                "SELECT COUNT(DISTINCT identifier) FROM entries"
            ).fetchone()
        )
        return count

    def change_counter(self) -> int:
        """Durable write counter (bumped once per write transaction)."""
        return self._run_read(self._counter_on)

    def _counter_on(self, conn: sqlite3.Connection) -> int:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'change_counter'"
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def _hydrate(self, payload: str) -> ExampleEntry:
        """Decode one payload through the payload-keyed memo.

        Decoding is a pure function of the stored string, so a hit is
        never stale and needs no counter read — and a write to one entry
        leaves every other entry's memoised snapshot alive.
        """
        cached = self._memo.get(payload)
        if cached is not None:
            return cached
        entry = decode_entry(payload)
        self._memo.put(payload, entry)
        return entry

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return {"decode_memo": self._memo.stats()}

    # ------------------------------------------------------------------
    # Query pushdown.
    # ------------------------------------------------------------------

    def query_stats(self, terms: Sequence[str]) -> QueryStats:
        """N and per-term df straight from the terms table."""
        self._flush_index()
        return self._run_read(lambda conn: self._stats_on(conn, terms))

    def execute_query(
        self, plan: QueryPlan, stats: QueryStats | None = None
    ) -> QueryResult:
        """Compile the plan to SQL; decode payloads only for the page.

        Flushes deferred index maintenance first, then the compiled
        filter runs exactly once (one scan of ``latest`` with indexed
        ``EXISTS`` probes); facet counts and ranking-term weights are
        gathered with chunked ``IN`` probes over the matched
        identifiers, and the JSON snapshots are decoded exactly
        ``len(hits)`` times.
        """
        self._flush_index()
        where_sql, where_params = _compile(plan.where)
        positive_terms = collect_positive_terms(plan.where)

        def fetch(conn) -> QueryResult:
            ranking_stats = stats
            if ranking_stats is None:
                ranking_stats = self._stats_on(conn, positive_terms)
            match_rows = conn.execute(
                f"SELECT m.identifier, m.reviewed FROM latest m WHERE {where_sql}",
                where_params,
            ).fetchall()
            matched = [identifier for identifier, _reviewed in match_rows]
            facets = self._facets_on(conn, match_rows)
            weights = self._term_weights_on(conn, positive_terms, matched)
            scored = [
                (
                    score_entry(
                        positive_terms, ranking_stats, weights.get(identifier, {})
                    ),
                    identifier,
                )
                for identifier in matched
            ]
            if plan.sort == "identifier":
                scored.sort(key=lambda item: item[1])
            else:
                scored.sort(key=lambda item: (-item[0], item[1]))
            page = scored[plan.offset : plan.page_end()]
            payloads = self._latest_payloads(
                conn, [identifier for _score, identifier in page]
            )
            hits = tuple(
                SearchHit(identifier, score,
                          self._hydrate(payloads[identifier][2]))
                for score, identifier in page
            )
            return QueryResult(hits=hits, total=len(matched), facets=facets)

        return self._run_read(fetch)

    def _stats_on(self, conn, terms: Sequence[str]) -> QueryStats:
        # One statement reads one snapshot, so a write from another
        # connection cannot land between the count and the frequencies.
        unique = list(dict.fromkeys(terms))
        frequency = dict.fromkeys(unique, 0)
        marks = ",".join("?" * len(unique))
        for term, found in conn.execute(
            "SELECT NULL, COUNT(*) FROM latest UNION ALL "
            "SELECT term, COUNT(*) FROM latest_terms "
            f"WHERE term IN ({marks}) GROUP BY term",
            unique,
        ):
            if term is None:
                count = found
            else:
                frequency[term] = found
        return QueryStats(count, frequency)

    def _facets_on(self, conn, match_rows: list) -> dict[str, dict[str, int]]:
        facets = empty_facets()
        review = facets["review"]
        for _identifier, reviewed in match_rows:
            label = review_facet_label(bool(reviewed))
            review[label] = review.get(label, 0) + 1
        matched = [identifier for identifier, _reviewed in match_rows]
        for chunk in _chunks(matched):
            marks = ",".join("?" * len(chunk))
            bucket = facets["type"]
            for value, count in conn.execute(
                "SELECT type, COUNT(*) FROM latest_types "
                f"WHERE identifier IN ({marks}) GROUP BY type",
                chunk,
            ):
                bucket[value] = bucket.get(value, 0) + count
            bucket = facets["property"]
            for name, holds, count in conn.execute(
                "SELECT name, holds, COUNT(*) FROM latest_properties "
                f"WHERE identifier IN ({marks}) GROUP BY name, holds",
                chunk,
            ):
                label = property_facet_label(name, bool(holds))
                bucket[label] = bucket.get(label, 0) + count
            bucket = facets["author"]
            for author, count in conn.execute(
                "SELECT author, COUNT(*) FROM latest_authors "
                f"WHERE identifier IN ({marks}) GROUP BY author",
                chunk,
            ):
                bucket[author] = bucket.get(author, 0) + count
        return facets

    def _term_weights_on(
        self, conn, terms: Sequence[str], matched: list
    ) -> dict[str, dict[str, float]]:
        """Per-entry weights of the scoring terms, matching rows only."""
        unique = list(dict.fromkeys(terms))
        if not unique:
            return {}
        term_marks = ",".join("?" * len(unique))
        weights: dict[str, dict[str, float]] = {}
        for chunk in _chunks(matched):
            marks = ",".join("?" * len(chunk))
            for identifier, term, weight in conn.execute(
                "SELECT identifier, term, weight FROM latest_terms "
                f"WHERE term IN ({term_marks}) AND identifier IN ({marks})",
                [*unique, *chunk],
            ):
                weights.setdefault(identifier, {})[term] = weight
        return weights

    def _latest_payloads(
        self, conn, identifiers: Sequence[str]
    ) -> dict[str, tuple[int, int, str]]:
        """Latest ``(major, minor, payload)`` per identifier, in chunked
        bulk queries."""
        wanted = list(identifiers)
        latest: dict[str, tuple[int, int, str]] = {}
        for chunk_start in range(0, len(wanted), 400):
            chunk = wanted[chunk_start : chunk_start + 400]
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                "SELECT e.identifier, e.major, e.minor, e.payload "
                "FROM entries e "
                f"WHERE e.identifier IN ({marks}) AND NOT EXISTS ("
                "  SELECT 1 FROM entries f "
                "  WHERE f.identifier = e.identifier "
                "  AND (f.major > e.major OR "
                "       (f.major = e.major AND f.minor > e.minor)))",
                chunk,
            ).fetchall()
            latest.update(
                (identifier, (major, minor, payload))
                for identifier, major, minor, payload in rows
            )
        return latest

    # ------------------------------------------------------------------
    # Writes (serialised).  Every write commits through write_group():
    # a standalone write is a group of one, and a write inside an open
    # group on the same thread joins it.
    # ------------------------------------------------------------------

    @contextmanager
    def write_group(self) -> Iterator["SQLiteBackend"]:
        """Group commit: every write in the block shares one transaction.

        The one commit path: each write method runs inside it, so a
        write outside any group is a group of one.  The group takes the
        writer lock once, stages each write's
        inserts and dirty marks in a single transaction and bumps the
        change counter once at exit.  A write that fails
        mid-group (duplicate identifier, non-increasing version) raises
        before touching the database and poisons only itself — the
        rest of the group still commits.  If the block itself raises,
        the whole transaction rolls back; the payloads its writes
        primed into the decode memo are then stored nowhere, so they
        can never be served.  Re-entering on the owning thread joins
        the open group.
        """
        if self._in_own_group():
            yield self
            return
        with self._lock:
            self._group_owner = threading.get_ident()
            try:
                with self._conn:
                    yield self
                    self._bump_counter()
            finally:
                self._group_owner = None

    def add(self, entry: ExampleEntry) -> None:
        with self.write_group():
            if self._has(self._conn, entry.identifier):
                raise DuplicateEntry(entry.identifier)
            self._insert(entry)
            self._mark_dirty([entry.identifier])

    def add_version(self, entry: ExampleEntry) -> None:
        with self.write_group():
            latest = self._latest_row(entry.identifier)
            if latest is None:
                raise EntryNotFound(entry.identifier)
            if entry.version <= Version(*latest):
                raise StorageError(
                    f"version {entry.version} does not increase on "
                    f"{Version(*latest)} for {entry.identifier!r}"
                )
            self._insert(entry)
            self._mark_dirty([entry.identifier])

    def replace_latest(self, entry: ExampleEntry) -> None:
        with self.write_group():
            latest = self._latest_row(entry.identifier)
            if latest is None:
                raise EntryNotFound(entry.identifier)
            if entry.version != Version(*latest):
                raise StorageError(
                    "replace_latest must keep the version "
                    f"({Version(*latest)}), got {entry.version}"
                )
            payload = encode_entry(entry)
            self._conn.execute(
                "UPDATE entries SET payload = ?, digest = ? "
                "WHERE identifier = ? AND major = ? AND minor = ?",
                (
                    payload,
                    entry_digest(entry),
                    entry.identifier,
                    entry.version.major,
                    entry.version.minor,
                ),
            )
            self._mark_dirty([entry.identifier])
            self._memo.put(payload, entry)

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        """Bulk-load brand-new entries in a single transaction.

        All-or-nothing: if any entry's identifier already exists (in the
        store or earlier in the batch), nothing is stored.  Inside an
        open write group the batch joins the group's transaction
        instead (and a clash then poisons only this batch, not the
        group).
        """
        batch = list(entries)
        with self.write_group():
            seen: set[str] = set()
            for entry in batch:
                if entry.identifier in seen:
                    raise DuplicateEntry(entry.identifier)
                seen.add(entry.identifier)
            ordered = sorted(seen)
            for chunk_start in range(0, len(ordered), 400):
                chunk = ordered[chunk_start : chunk_start + 400]
                marks = ",".join("?" * len(chunk))
                clash = self._conn.execute(
                    "SELECT identifier FROM entries "
                    f"WHERE identifier IN ({marks}) LIMIT 1",
                    chunk,
                ).fetchone()
                if clash is not None:
                    raise DuplicateEntry(clash[0])
            self._conn.executemany(
                "INSERT INTO entries "
                "(identifier, major, minor, payload, digest) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        entry.identifier,
                        entry.version.major,
                        entry.version.minor,
                        encode_entry(entry),
                        entry_digest(entry),
                    )
                    for entry in batch
                ],
            )
            self._mark_dirty([entry.identifier for entry in batch])
            for entry in batch:
                self._memo.put(encode_entry(entry), entry)
        return len(batch)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._readers_lock:
            self._closed = True
            readers, self._idle_readers = self._idle_readers, []
        for conn in readers:
            conn.close()
        self._conn.close()

    # ------------------------------------------------------------------
    # Internals (writers hold the lock and pass the write connection;
    # readers pass the connection they borrowed).
    # ------------------------------------------------------------------

    def _has(self, conn: sqlite3.Connection, identifier: str) -> bool:
        row = conn.execute(
            "SELECT 1 FROM entries WHERE identifier = ? LIMIT 1",
            (identifier,),
        ).fetchone()
        return row is not None

    def _get_row(
        self, conn: sqlite3.Connection, identifier: str, version: Version | None
    ) -> tuple[int, int, str, str | None]:
        if version is None:
            row = conn.execute(
                "SELECT major, minor, payload, digest FROM entries "
                "WHERE identifier = ? "
                "ORDER BY major DESC, minor DESC LIMIT 1",
                (identifier,),
            ).fetchone()
            if row is None:
                raise EntryNotFound(identifier)
        else:
            row = conn.execute(
                "SELECT major, minor, payload, digest FROM entries "
                "WHERE identifier = ? AND major = ? AND minor = ?",
                (identifier, version.major, version.minor),
            ).fetchone()
            if row is None:
                if not self._has(conn, identifier):
                    raise EntryNotFound(identifier)
                raise EntryNotFound(identifier, str(version))
        return row

    def _insert(self, entry: ExampleEntry) -> None:
        """Insert one snapshot row and prime the memo with its payload."""
        payload = encode_entry(entry)
        self._conn.execute(
            "INSERT INTO entries (identifier, major, minor, payload, digest) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                entry.identifier,
                entry.version.major,
                entry.version.minor,
                payload,
                entry_digest(entry),
            ),
        )
        self._memo.put(payload, entry)

    def _latest_row(self, identifier: str) -> tuple[int, int] | None:
        return self._conn.execute(
            "SELECT major, minor FROM entries WHERE identifier = ? "
            "ORDER BY major DESC, minor DESC LIMIT 1",
            (identifier,),
        ).fetchone()

    def _mark_dirty(self, identifiers: Sequence[str]) -> None:
        """Record identifiers whose metadata rows are now stale.

        Runs inside the caller's write transaction, so a write and its
        dirty mark commit (or roll back) together — the deferred flush
        can never miss a committed write, even across a crash.
        """
        self._conn.executemany(
            "INSERT OR REPLACE INTO dirty (identifier) VALUES (?)",
            [(identifier,) for identifier in identifiers],
        )

    def _flush_index(self) -> None:
        """Re-index every dirty identifier's latest-version metadata.

        The deferred half of index maintenance: writes only mark
        identifiers dirty (a single tiny insert, so bulk loads stay
        bulk-load fast); the first query pays the indexing cost for
        whatever accumulated, in one transaction.  Idempotent and
        crash-safe — dirty marks clear only when their rows commit.

        Multi-process safety: the transaction's *first* statement
        deletes exactly the marks being flushed — never a blanket
        ``DELETE FROM dirty`` — so a mark committed by another process
        after our snapshot of the list survives to the next flush.
        That first delete also takes SQLite's single-writer lock, so
        the payloads indexed below cannot be superseded by a foreign
        commit before ours lands (a writer that is blocked on us will
        re-mark its identifier dirty when it proceeds).
        """
        if self._in_own_group():
            # A query issued by the thread owning an open write group:
            # flush inside the group's transaction (the lock is already
            # held; the marks commit or roll back with the group).
            rows = self._conn.execute("SELECT identifier FROM dirty").fetchall()
            self._flush_rows([identifier for (identifier,) in rows])
            return
        with self._lock:
            rows = self._conn.execute("SELECT identifier FROM dirty").fetchall()
            dirty = [identifier for (identifier,) in rows]
            if not dirty:
                return
            with self._conn:
                self._flush_rows(dirty)

    def _flush_rows(self, dirty: list) -> None:
        """Re-index the given identifiers on the open write connection."""
        if not dirty:
            return
        for chunk in _chunks(dirty):
            marks = ",".join("?" * len(chunk))
            self._conn.execute(
                f"DELETE FROM dirty WHERE identifier IN ({marks})",
                chunk,
            )
            for table in _AUX_TABLES:
                self._conn.execute(
                    f"DELETE FROM {table} WHERE identifier IN ({marks})",
                    chunk,
                )
        payloads = self._latest_payloads(self._conn, dirty)
        self._index_latest_batch(
            [self._hydrate(row[2]) for row in payloads.values()]
        )

    def _index_latest_batch(self, batch: Sequence[ExampleEntry]) -> None:
        """Insert metadata rows for entries with no current rows —
        one statement per table (callers delete stale rows first)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO latest "
            "(identifier, major, minor, reviewed) VALUES (?, ?, ?, ?)",
            [
                (
                    entry.identifier,
                    entry.version.major,
                    entry.version.minor,
                    1 if entry.version.is_reviewed else 0,
                )
                for entry in batch
            ],
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO latest_types (identifier, type) VALUES (?, ?)",
            [
                (entry.identifier, entry_type.value)
                for entry in batch
                for entry_type in entry.types
            ],
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO latest_properties "
            "(identifier, name, holds) VALUES (?, ?, ?)",
            [
                (entry.identifier, claim.name, 1 if claim.holds else 0)
                for entry in batch
                for claim in entry.properties
            ],
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO latest_authors (identifier, author) "
            "VALUES (?, ?)",
            [
                (entry.identifier, author)
                for entry in batch
                for author in entry.authors
            ],
        )
        self._conn.executemany(
            "INSERT INTO latest_terms (identifier, term, weight) VALUES (?, ?, ?)",
            [
                (entry.identifier, term, weight)
                for entry in batch
                for term, weight in entry_terms(entry).items()
            ],
        )

    def _bump_counter(self) -> None:
        self._conn.execute(
            "UPDATE meta SET value = value + 1 WHERE key = 'change_counter'"
        )


def _chunks(items: list, size: int = 400):
    """Slices sized for SQLite's bound-parameter limit."""
    for start in range(0, len(items), size):
        yield items[start : start + size]


# ----------------------------------------------------------------------
# Compiling the filter AST to SQL over the latest-version tables.
# ----------------------------------------------------------------------


def _compile(query) -> tuple[str, list]:
    """One WHERE fragment (over alias ``m`` on ``latest``) + params."""
    if isinstance(query, All):
        return "1=1", []
    if isinstance(query, Text):
        unique = list(dict.fromkeys(query.terms))
        if not unique:
            return "0=1", []  # all-stopword text matches nothing
        marks = ",".join("?" * len(unique))
        return (
            "EXISTS (SELECT 1 FROM latest_terms t "
            "WHERE t.identifier = m.identifier "
            f"AND t.term IN ({marks}))",
            unique,
        )
    if isinstance(query, TypeIs):
        return (
            "EXISTS (SELECT 1 FROM latest_types ty "
            "WHERE ty.identifier = m.identifier AND ty.type = ?)",
            [query.entry_type.value],
        )
    if isinstance(query, HasProperty):
        if query.holds is None:
            return (
                "EXISTS (SELECT 1 FROM latest_properties p "
                "WHERE p.identifier = m.identifier AND p.name = ?)",
                [query.name],
            )
        return (
            "EXISTS (SELECT 1 FROM latest_properties p "
            "WHERE p.identifier = m.identifier AND p.name = ? "
            "AND p.holds = ?)",
            [query.name, 1 if query.holds else 0],
        )
    if isinstance(query, ByAuthor):
        return (
            "EXISTS (SELECT 1 FROM latest_authors a "
            "WHERE a.identifier = m.identifier AND a.author = ?)",
            [query.author],
        )
    if isinstance(query, IsReviewed):
        return "m.reviewed = ?", [1 if query.reviewed else 0]
    if isinstance(query, (And, Or)):
        if not query.parts:
            return ("1=1", []) if isinstance(query, And) else ("0=1", [])
        fragments, params = [], []
        for part in query.parts:
            fragment, part_params = _compile(part)
            fragments.append(f"({fragment})")
            params.extend(part_params)
        glue = " AND " if isinstance(query, And) else " OR "
        return glue.join(fragments), params
    if isinstance(query, Not):
        fragment, params = _compile(query.part)
        return f"NOT ({fragment})", params
    raise StorageError(f"cannot compile query node {type(query).__name__}")
