"""The canonical entry codec: wire format, legacy decode, decode memo.

The codec is the single serialisation seam of the read path (see
``repro/repository/codec.py``): every durable backend writes through
``encode_entry`` and hydrates through ``decode_entry`` + a
``DecodeMemo`` (payload-keyed on SQLite, change-counter-keyed on
files).  These tests pin the wire format, the legacy-payload tolerance
the conformance suite relies on, the payload each entry object keeps,
and the memo's coherence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.errors import StorageError
from repro.repository.backends import FileBackend, SQLiteBackend
from repro.repository.codec import (
    CANONICAL_PREFIX,
    CODEC_VERSION,
    DecodeMemo,
    LineMemo,
    decode_entry,
    encode_entry,
    entry_digest,
    entry_from_dict,
)
from repro.repository.entry import ExampleEntry
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


class TestWireFormat:
    def test_roundtrip(self):
        entry = minimal_entry()
        assert decode_entry(encode_entry(entry)) == entry

    def test_compact_and_tagged(self):
        payload = encode_entry(minimal_entry())
        assert "\n" not in payload
        assert ": " not in payload and ", " not in payload  # no padding
        data = json.loads(payload)
        assert data["_codec"] == CODEC_VERSION
        assert data["title"] == "DEMO EXAMPLE"  # entry dict stays flat

    def test_deterministic(self):
        entry = minimal_entry()
        assert encode_entry(entry) == encode_entry(minimal_entry())

    def test_decodes_legacy_untagged_payloads(self):
        """Seed-era files (indented, no tag) hydrate identically."""
        entry = minimal_entry()
        legacy = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
        assert decode_entry(legacy) == entry

    def test_newer_codec_version_fails_loudly(self):
        data = minimal_entry().to_dict()
        data["_codec"] = CODEC_VERSION + 1
        with pytest.raises(StorageError, match="codec version"):
            decode_entry(json.dumps(data))

    def test_non_object_payload_rejected(self):
        with pytest.raises(StorageError, match="not an object"):
            decode_entry("[1, 2, 3]")

    @pytest.mark.parametrize("payload", [
        CANONICAL_PREFIX + '"title":', "", b'{"title": "\xff"}'],
        ids=["cut-short", "empty", "not-utf-8"])
    def test_a_payload_that_is_not_json_is_a_storage_error(self, payload):
        with pytest.raises(StorageError, match="not JSON"):
            decode_entry(payload)

    def test_canonical_prefix_opens_every_encoded_entry(self):
        assert encode_entry(minimal_entry()).startswith(CANONICAL_PREFIX)


class TestEntryFromDict:
    """The gate for entry dicts that arrive already parsed (off the
    wire): the same tag check :func:`decode_entry` applies."""

    def test_strips_the_tag_and_hydrates(self):
        data = json.loads(encode_entry(minimal_entry()))
        assert entry_from_dict(data) == minimal_entry()
        assert "_codec" not in data

    def test_untagged_dicts_hydrate(self):
        assert entry_from_dict(minimal_entry().to_dict()) == minimal_entry()

    @pytest.mark.parametrize("tag", [CODEC_VERSION + 1, "1"])
    def test_newer_or_malformed_tags_are_refused(self, tag):
        data = minimal_entry().to_dict()
        data["_codec"] = tag
        with pytest.raises(StorageError, match="codec version"):
            entry_from_dict(data)


class TestDecodeMemo:
    def test_hit_requires_matching_counter(self):
        memo = DecodeMemo()
        entry = minimal_entry()
        memo.put(("demo-example", "0.1", 7), entry)
        assert memo.get(("demo-example", "0.1", 7)) is entry
        assert memo.get(("demo-example", "0.1", 8)) is None  # a write landed
        assert memo.get(("demo-example", "0.2", 7)) is None
        assert memo.stats()["hits"] == 1
        assert memo.stats()["misses"] == 2

    def test_payload_key_hits_on_an_equal_string(self):
        """SQLite's key: each fetch returns a fresh but equal string."""
        memo = DecodeMemo()
        entry = minimal_entry()
        payload = encode_entry(entry)
        memo.put(payload, entry)
        assert memo.get("".join(list(payload))) is entry
        assert memo.get(encode_entry(minimal_entry(overview="New."))) \
            is None

    def test_lru_bound_evicts_oldest(self):
        memo = DecodeMemo(maxsize=2)
        entry = minimal_entry()
        memo.put("a", entry)
        memo.put("b", entry)
        memo.get("a")  # refresh a
        memo.put("c", entry)  # evicts b (least recent)
        assert memo.get("b") is None
        assert memo.get("a") is entry
        assert memo.stats()["evictions"] == 1
        assert len(memo) == 2

    def test_zero_size_disables_memoisation(self):
        memo = DecodeMemo(maxsize=0)
        memo.put("a", minimal_entry())
        assert memo.get("a") is None
        assert len(memo) == 0


def forbid_encoding(monkeypatch) -> None:
    """Fail the test if any entry is encoded from scratch from here on."""
    monkeypatch.setattr(
        ExampleEntry, "to_dict",
        lambda entry: pytest.fail("a payload was re-encoded"))


class TestTheEntryCarriesItsBytes:
    """One payload per entry object: encoded once, or kept from the
    canonical bytes it was decoded from."""

    def test_an_entry_is_encoded_once(self, monkeypatch):
        entry = minimal_entry()
        payload = encode_entry(entry)
        forbid_encoding(monkeypatch)
        assert encode_entry(entry) is payload

    @pytest.mark.parametrize("trailer", ["", "\n"])
    def test_a_decoded_canonical_payload_re_encodes_to_itself(
            self, monkeypatch, trailer):
        """As stored, even where a fresh encode would differ (a key this
        build does not read); a file's trailing newline is dropped."""
        data = json.loads(encode_entry(minimal_entry()))
        data["zz_unknown"] = 1
        stored = json.dumps(data, sort_keys=True, separators=(",", ":"))
        forbid_encoding(monkeypatch)
        assert encode_entry(decode_entry(stored + trailer)) == stored

    def test_a_legacy_payload_encodes_canonical(self):
        entry = minimal_entry()
        legacy = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
        payload = encode_entry(decode_entry(legacy))
        assert payload.startswith(CANONICAL_PREFIX)
        assert payload == encode_entry(minimal_entry())

    def test_a_new_value_gets_a_fresh_encoding(self):
        entry = decode_entry(encode_entry(minimal_entry()))
        encode_entry(entry)
        newer = entry.with_version(Version(0, 2))
        assert json.loads(encode_entry(newer))["version"] == "0.2"
        patched = dataclasses.replace(entry, overview="Patched.")
        assert json.loads(encode_entry(patched))["overview"] == "Patched."
        assert encode_entry(entry) == encode_entry(minimal_entry())

    def test_the_digest_is_of_the_payload_and_kept(self):
        entry = minimal_entry()
        digest = entry_digest(entry)
        assert digest == hashlib.blake2b(
            encode_entry(entry).encode("utf-8"), digest_size=16).hexdigest()
        assert entry_digest(entry) is digest
        assert entry_digest(entry.with_version(Version(0, 2))) != digest

    def test_cached_bytes_leave_equality_and_hash_alone(self):
        bare, encoded = minimal_entry(), minimal_entry()
        entry_digest(encoded)
        decoded = decode_entry(encode_entry(minimal_entry()))
        assert bare == encoded == decoded
        assert hash(bare) == hash(encoded) == hash(decoded)
        assert repr(bare) == repr(encoded) == repr(decoded)

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_a_cold_read_serves_the_stored_bytes(self, kind, tmp_path,
                                                 monkeypatch):
        """A backend with an empty decode memo hands out entries whose
        payload is the one on disk: no read re-encodes what storage
        holds."""
        first = minimal_entry()
        second = minimal_entry(version=Version(0, 2), overview="Two.")
        def make():
            if kind == "file":
                return FileBackend(tmp_path / "repo")
            return SQLiteBackend(tmp_path / "repo.db")

        writer = make()
        writer.add(first)
        writer.add_version(second)
        writer.close()
        reader = make()
        forbid_encoding(monkeypatch)
        assert encode_entry(reader.get("demo-example")) == encode_entry(
            second)
        assert encode_entry(
            reader.get("demo-example", Version(0, 1))) == encode_entry(first)
        assert [encode_entry(entry) for entry in reader.get_many(
            [("demo-example", Version(0, 1))])] == [encode_entry(first)]
        reader.close()


class TestWireMemos:
    """The client's wire memo: LineMemo."""

    def test_line_memo_keys_by_exact_bytes(self):
        memo = LineMemo()
        entry = minimal_entry()
        line = encode_entry(entry).encode("utf-8")
        memo.put(line, entry)
        assert memo.get(line) is entry
        # A changed entry arrives as DIFFERENT bytes — never a stale hit.
        assert memo.get(line + b" ") is None

    def test_line_memo_lru_bound(self):
        memo = LineMemo(maxsize=2)
        entry = minimal_entry()
        memo.put(b"a", entry)
        memo.put(b"b", entry)
        memo.get(b"a")
        memo.put(b"c", entry)  # evicts b (least recent)
        assert memo.get(b"b") is None
        assert memo.get(b"a") is entry
        assert memo.stats()["evictions"] == 1


class TestBackendsThroughTheCodec:
    """The codec seam observed from the outside of each backend."""

    def test_file_backend_writes_compact_tagged_snapshots(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        path = tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
        data = json.loads(path.read_text())
        assert data["_codec"] == CODEC_VERSION
        assert data["title"] == "DEMO EXAMPLE"

    def test_file_backend_reads_legacy_snapshots(self, tmp_path):
        """A seed-era tree (indented, untagged) still resolves."""
        backend = FileBackend(tmp_path / "repo")
        entry = minimal_entry()
        entry_dir = tmp_path / "repo" / "entries" / "demo-example"
        entry_dir.mkdir(parents=True)
        (entry_dir / "0.1.json").write_text(
            json.dumps(entry.to_dict(), indent=2, sort_keys=True))
        assert backend.get("demo-example") == entry

    def test_sqlite_backend_reads_legacy_rows(self, tmp_path):
        """Rows written by the pre-codec json.dumps decode unchanged."""
        path = tmp_path / "repo.db"
        entry = minimal_entry()
        with SQLiteBackend(path) as backend:
            backend.add(minimal_entry(title="PLACEHOLDER"))
            with backend._lock, backend._conn:
                backend._conn.execute(
                    "INSERT INTO entries (identifier, major, minor, "
                    "payload) VALUES (?, ?, ?, ?)",
                    ("demo-example", 0, 1,
                     json.dumps(entry.to_dict(), sort_keys=True)))
                backend._conn.execute(
                    "INSERT OR REPLACE INTO dirty (identifier) "
                    "VALUES ('demo-example')")
        with SQLiteBackend(path) as reopened:
            assert reopened.get("demo-example") == entry

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_repeated_get_hydrates_once(self, kind, tmp_path,
                                        monkeypatch):
        """The decode memo: a payload fetched twice is decoded once."""
        if kind == "file":
            FileBackend(tmp_path / "repo").add(minimal_entry())
            backend = FileBackend(tmp_path / "repo")  # fresh memo
        else:
            with SQLiteBackend(tmp_path / "repo.db") as writer:
                writer.add(minimal_entry())
            backend = SQLiteBackend(tmp_path / "repo.db")
        first = backend.get("demo-example")

        from repro.repository import codec as codec_module
        monkeypatch.setattr(
            codec_module, "decode_entry",
            lambda payload: pytest.fail("second fetch re-decoded"))
        monkeypatch.setattr(
            f"repro.repository.backends.{kind}.decode_entry",
            lambda payload: pytest.fail("second fetch re-decoded"))
        assert backend.get("demo-example") is first
        assert backend.get_many(["demo-example"]) == [first]
        backend.close()

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_writes_prime_the_memo(self, kind, tmp_path, monkeypatch):
        """Bytes the process just produced are never re-parsed."""
        if kind == "file":
            backend = FileBackend(tmp_path / "repo")
        else:
            backend = SQLiteBackend(tmp_path / "repo.db")
        monkeypatch.setattr(
            f"repro.repository.backends.{kind}.decode_entry",
            lambda payload: pytest.fail("own write was re-decoded"))
        entry = minimal_entry()
        backend.add(entry)
        assert backend.get("demo-example") == entry
        revised = minimal_entry(version=Version(0, 2),
                                overview="Better.")
        backend.add_version(revised)
        assert backend.get("demo-example") == revised
        backend.close()

    def test_file_writes_bump_the_counter_past_the_race_window(
            self, tmp_path):
        """Every file write bumps twice — before the rename
        (index-snapshot safety: content never lands under an old
        counter) and after it (cache safety: a reader racing the
        rename can have cached the pre-rename state — old bytes on a
        replace_latest, the entry's absence on an add — under the
        first-bumped counter; the second bump orphans that)."""
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        before = backend.change_counter()
        backend.add_version(minimal_entry(version=Version(0, 2)))
        assert backend.change_counter() == before + 2
        backend.replace_latest(minimal_entry(version=Version(0, 2),
                                             overview="Rewritten."))
        assert backend.change_counter() == before + 4

    def test_memo_cannot_serve_across_writes(self, tmp_path):
        """replace_latest keeps the version but changes content; the
        counter in the key makes the old snapshot unreachable."""
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        assert backend.get("demo-example").overview == "A demo."
        backend.replace_latest(minimal_entry(overview="Patched."))
        assert backend.get("demo-example").overview == "Patched."

    def test_foreign_writer_invalidates_via_the_counter(self, tmp_path):
        """Another FileBackend over the same root stays visible."""
        ours = FileBackend(tmp_path / "repo")
        ours.add(minimal_entry())
        assert ours.get("demo-example").overview == "A demo."
        theirs = FileBackend(tmp_path / "repo")
        theirs.replace_latest(minimal_entry(overview="Foreign edit."))
        assert ours.get("demo-example").overview == "Foreign edit."

    def test_cache_stats_shapes(self, tmp_path):
        file_backend = FileBackend(tmp_path / "repo")
        file_backend.add(minimal_entry())
        file_backend.get("demo-example")
        stats = file_backend.cache_stats()
        assert set(stats) == {"decode_memo", "listing"}
        assert stats["decode_memo"]["hits"] >= 1  # write primed it

        with SQLiteBackend(tmp_path / "repo.db") as sqlite_backend:
            sqlite_backend.add(minimal_entry())
            sqlite_backend.get("demo-example")
            assert "decode_memo" in sqlite_backend.cache_stats()

    def test_composite_cache_stats_merge_children(self, tmp_path):
        from repro.repository.backends import (
            ReplicatedBackend,
            ShardedBackend,
        )
        sharded = ShardedBackend.create("sqlite", tmp_path / "shards",
                                        shard_count=2)
        sharded.add(minimal_entry())
        sharded.get("demo-example")
        merged = sharded.cache_stats()
        assert merged["decode_memo"]["hits"] >= 1
        sharded.close()

        replicated = ReplicatedBackend(
            SQLiteBackend(tmp_path / "p.db"),
            FileBackend(tmp_path / "r"))
        replicated.add(minimal_entry())
        replicated.get("demo-example")
        assert "decode_memo" in replicated.cache_stats()
        assert "listing" in replicated.cache_stats()  # the file replica
        replicated.close()
