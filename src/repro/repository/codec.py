"""The canonical entry codec: one encode/decode pair for every backend.

Before this module each durable backend serialised entries its own way
(``FileBackend`` re-encoded ``entry.to_dict()`` with ``indent=2`` on
every write; ``SQLiteBackend`` had its own ``json.dumps`` calls), and
every read re-ran ``json.load`` + ``ExampleEntry.from_dict`` even for
bytes the same process had just produced.  Now:

* :func:`encode_entry` produces the single **compact wire format** —
  no indentation, sorted keys, a ``"_codec"`` version tag — used by the
  file and sqlite backends alike.  The tag rides *inside* the entry
  dict (``ExampleEntry.from_dict`` ignores unknown keys), so the file
  layout the seed pinned down (``entries/<id>/<version>.json`` holding
  the entry dict) is unchanged;
* **the bytes travel with the entry**: entries are frozen value
  objects, so an entry object has exactly one payload.
  :func:`encode_entry` computes it once per object and keeps it there,
  and :func:`decode_entry` keeps the canonical payload it decoded, so
  bytes a backend stored are never re-encoded; :func:`entry_digest`,
  the HTTP validator, is kept beside it.  Every backend's point
  read, batch read and HTTP body therefore serves the payload of the
  entry object ``get`` returned — one representation, no second cache.
  The entry GET reads ``StorageBackend.get_payload`` instead, which
  SQLite answers from the stored row: it keeps the digest beside the
  payload and serves a row that carries one without decoding it;
* :func:`decode_entry` hydrates any payload this library ever wrote:
  tagged compact payloads and legacy untagged ones (indented seed-era
  files, pre-codec sqlite rows) decode identically.  A payload tagged
  with a *newer* codec version fails loudly instead of guessing;
* :class:`DecodeMemo` is the **decode fast path**: a bounded LRU of
  hydrated entries consulted before every decode.  SQLite keys it by
  the stored payload (a hit can never be stale), files by
  ``(identifier, version, change_counter)`` (a hit also skips the file
  read).  Backends prime it on their own writes with the entry object
  they just encoded;
* :class:`LineMemo` is its mirror on the client: raw NDJSON line bytes
  mapped to the hydrated entry.  The codec is deterministic (sorted
  keys, fixed separators), so identical bytes always denote the same
  snapshot — a repeated bulk read pays one dict probe per line instead
  of ``json.loads`` + ``from_dict``.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

from repro.core.errors import StorageError
from repro.repository.concurrency import Mutex
from repro.repository.entry import ExampleEntry

__all__ = [
    "CANONICAL_PREFIX",
    "CODEC_VERSION",
    "DecodeMemo",
    "GZIP_LEVEL",
    "GZIP_MIN_BYTES",
    "LineMemo",
    "NDJSON_TYPE",
    "decode_entry",
    "encode_entry",
    "entry_digest",
    "entry_from_dict",
]

#: Wire-format version; bump when the payload layout changes shape.
CODEC_VERSION = 1

#: Sized wire bodies below this skip compression.  It is one
#: Ethernet-MSS segment: a body that fits in one segment needs no fewer
#: packets or round trips for shrinking, and the bytes gzip would save
#: are cheap against its CPU.  A 1157-byte entry body shrinks by ~550
#: bytes (~4 us to send at 1 Gb/s) for ~24 us of level-1 compression
#: and ~15 us of inflating (2-core x86 VM).  Shared by the server
#: (responses) and the client (request bodies).
GZIP_MIN_BYTES = 1460
#: Fast compression: level 1 already shrinks JSON ~4-5x, and the wire
#: layer optimises latency, not archive density.
GZIP_LEVEL = 1
#: The streamed-batch content type clients opt into via Accept.
NDJSON_TYPE = "application/x-ndjson"

#: The tag key carried inside the payload dict.  Underscore-prefixed so
#: it can never collide with a template field name.
_TAG_KEY = "_codec"
#: How every payload :func:`encode_entry` writes begins: sorted keys put
#: the underscore-prefixed tag first.  A stored payload with this prefix
#: is already canonical and can be served as stored.
CANONICAL_PREFIX = f'{{"{_TAG_KEY}":{CODEC_VERSION},'


#: Where an entry object keeps ``(payload, digest-or-None)``.  Not a
#: dataclass field, so equality, hashing, ``repr`` and
#: ``dataclasses.replace`` (which builds a fresh object) ignore it.
#: One attribute, not two: a second new key would grow every entry's
#: instance dict by ~0.8 KB.
_KEPT_ATTR = "_codec_kept"


def encode_entry(entry: ExampleEntry) -> str:
    """Serialise one entry to the compact, tagged wire format.

    Deterministic (sorted keys, fixed separators), so identical entries
    encode to identical bytes on every backend — which is also what
    keeps replicated copies byte-comparable.  Computed once per entry
    object and kept on it: entries are frozen, so it cannot go stale.
    """
    kept = entry.__dict__.get(_KEPT_ATTR)
    if kept is not None:
        return kept[0]
    data = entry.to_dict()
    data[_TAG_KEY] = CODEC_VERSION
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    object.__setattr__(entry, _KEPT_ATTR, (payload, None))
    return payload


def entry_digest(entry: ExampleEntry) -> str:
    """A 128-bit BLAKE2b hex digest of the entry's UTF-8 payload.

    The HTTP server's entry validator.  Computed once per entry object,
    like the payload, so revalidating a large entry never re-hashes it.
    """
    payload = encode_entry(entry)
    digest = entry.__dict__[_KEPT_ATTR][1]
    if digest is None:
        digest = hashlib.blake2b(payload.encode("utf-8"),
                                 digest_size=16).hexdigest()
        object.__setattr__(entry, _KEPT_ATTR, (payload, digest))
    return digest


def decode_entry(payload: str | bytes) -> ExampleEntry:
    """Hydrate one entry from any payload this library ever wrote.

    Accepts the tagged compact format and legacy untagged payloads
    (seed-era indented files, pre-codec database rows).  A payload
    tagged with a codec version newer than this build understands
    raises :class:`~repro.core.errors.StorageError` rather than
    decoding a shape it cannot vouch for.  A canonical ``str`` payload
    (one that opens with :data:`CANONICAL_PREFIX`; trailing newlines
    dropped) stays on the entry, so :func:`encode_entry` returns it as
    stored; a legacy one is re-encoded canonical on first use.  A
    payload that is not JSON (a cut-short row, bytes that are not
    UTF-8) raises :class:`~repro.core.errors.StorageError` too; JSON of
    the wrong shape raises the :class:`~repro.core.errors.TemplateError`
    of ``ExampleEntry.from_dict``, which checks every value at every
    depth.
    """
    try:
        data = json.loads(payload)
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise StorageError(f"entry payload is not JSON: {error}") from error
    if not isinstance(data, dict):
        raise StorageError(
            f"entry payload is not an object: {type(data).__name__}")
    entry = entry_from_dict(data)
    if isinstance(payload, str) and payload.startswith(CANONICAL_PREFIX):
        object.__setattr__(entry, _KEPT_ATTR, (payload.rstrip("\n"), None))
    return entry


def entry_from_dict(data: dict) -> ExampleEntry:
    """Hydrate one decoded entry dict, checking its codec tag.

    The one gate every entry dict passes, whether it came from storage
    or off the wire (an entry body carries the stored payload, tag
    included).  Pops the tag from ``data``; a tag naming a codec newer
    than this build raises :class:`~repro.core.errors.StorageError`.
    """
    tag = data.pop(_TAG_KEY, None)
    if tag is not None and (not isinstance(tag, int) or tag > CODEC_VERSION):
        raise StorageError(
            f"entry payload uses codec version {tag!r}; this build "
            f"understands up to {CODEC_VERSION}")
    return ExampleEntry.from_dict(data)


class _KeyedLRU:
    """The one locked LRU of the repository layer, generic over keys.

    Every memo on the read path is a thin subclass: the backends'
    :class:`DecodeMemo`, the client-side :class:`LineMemo` keyed by the
    raw line bytes, and the client's validation cache.  Encoded bytes
    need no memo: they live on the entry object itself.  Internally
    locked — backends and services are shared across threads, and
    recency bookkeeping mutates state even on a hit.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._mutex = Mutex()
        self._data: OrderedDict = OrderedDict()

    def _get(self, key):
        with self._mutex:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def _put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        with self._mutex:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._mutex:
            self._data.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._data)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters for ``cache_stats()`` reporting."""
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "currsize": len(self._data),
                "maxsize": self.maxsize,
            }


class DecodeMemo(_KeyedLRU):
    """Hydrated entries keyed by whatever pins their stored bytes.

    Entries are immutable value objects, so a memoised snapshot is safe
    to share; the key decides when a hit may be served:

    * :class:`~repro.repository.backends.SQLiteBackend` keys by the
      stored **payload string** itself.  Decoding is a pure function of
      the payload, so a hit can never be stale — no counter read, no
      invalidation, and hot entries survive writes to other entries;
    * :class:`~repro.repository.backends.FileBackend` keys by
      ``(identifier, version, change_counter)``, because a hit there
      also skips reading the entry file, so the key must be known
      before the bytes are.  Any write — a foreign process's included —
      bumps the counter and orphans every older key; orphans age out
      through the LRU bound.  A write must leave its final counter
      value unseen by any reader who could still fetch the pre-write
      bytes, which is why ``FileBackend.write_group`` bumps once more
      after the content renames.

    Backends prime the memo on their own writes with the entry object
    they just encoded, so bytes this process produced are never parsed.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)

    def get(self, key) -> ExampleEntry | None:
        return self._get(key)

    def put(self, key, entry: ExampleEntry) -> None:
        self._put(key, entry)


class LineMemo(_KeyedLRU):
    """Hydrated entries keyed by the raw wire line that encoded them.

    The client side of the cheap wire: :func:`encode_entry` is
    deterministic, so byte-identical NDJSON lines always denote the
    same entry snapshot, and an immutable hydrated entry can be shared
    freely.  A warm bulk read therefore costs one dict probe per line
    instead of ``json.loads`` + ``from_dict`` — no invalidation
    protocol needed, because changed entries arrive as *different*
    bytes and stale lines age out through the LRU bound.
    """

    def __init__(self, maxsize: int = 8192) -> None:
        super().__init__(maxsize)

    def get(self, line: bytes) -> ExampleEntry | None:
        return self._get(line)

    def put(self, line: bytes, entry: ExampleEntry) -> None:
        self._put(line, entry)
