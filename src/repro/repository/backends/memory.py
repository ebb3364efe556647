"""In-memory storage backend: a dict of version histories."""

from __future__ import annotations

from repro.core.errors import (
    DuplicateEntry,
    EntryNotFound,
    StorageError,
    VersioningError,
)
from repro.repository.backends.base import StorageBackend
from repro.repository.entry import ExampleEntry
from repro.repository.versioning import Version, VersionHistory

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Ephemeral backend for tests and in-process composition."""

    def __init__(self) -> None:
        self._histories: dict[str, VersionHistory] = {}

    def identifiers(self) -> list[str]:
        return sorted(self._histories)

    def versions(self, identifier: str) -> list[Version]:
        return self._history(identifier).versions()

    def get(self, identifier: str, version: Version | None = None) -> ExampleEntry:
        history = self._history(identifier)
        if version is None:
            return history.latest  # type: ignore[return-value]
        try:
            return history.get(version)  # type: ignore[return-value]
        except VersioningError:
            raise EntryNotFound(identifier, str(version)) from None

    def has(self, identifier: str) -> bool:
        return identifier in self._histories

    def add(self, entry: ExampleEntry) -> None:
        if entry.identifier in self._histories:
            raise DuplicateEntry(entry.identifier)
        history = VersionHistory()
        history.append(entry.version, entry)
        self._histories[entry.identifier] = history

    def add_version(self, entry: ExampleEntry) -> None:
        history = self._history(entry.identifier)
        if entry.version <= history.latest_version:
            raise StorageError(
                f"version {entry.version} does not increase on "
                f"{history.latest_version} for {entry.identifier!r}"
            )
        history.append(entry.version, entry)

    def replace_latest(self, entry: ExampleEntry) -> None:
        history = self._history(entry.identifier)
        if entry.version != history.latest_version:
            raise StorageError(
                "replace_latest must keep the version "
                f"({history.latest_version}), got {entry.version}"
            )
        history.replace_latest(entry.version, entry)

    def entry_count(self) -> int:
        return len(self._histories)

    # change_counter: inherits the base's None.  An in-process counter
    # would be worse than none: a fresh process starts a fresh
    # MemoryBackend at the same count, so a count read from a previous
    # process would name a different corpus.

    def _history(self, identifier: str) -> VersionHistory:
        history = self._histories.get(identifier)
        if history is None:
            raise EntryNotFound(identifier)
        return history
