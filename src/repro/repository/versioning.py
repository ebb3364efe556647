"""Versioning for repository entries.

The paper's rules (§3 "Version", §5.2 "versioning and variation"):

* versions are "a linear sequence of numbered versions" on a single entry;
* "0.x for unreviewed examples" — an entry stays below 1.0 until it has
  been reviewed and approved;
* "keep old versions of examples available, so that old references can
  still be followed" — so a :class:`VersionHistory` never discards
  anything; and
* versioning (sequential evolution of one example) is distinguished from
  *variation* (related variants of similar examples), which lives in the
  entry's Variants field and in the catalogue's variant implementations —
  not here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import VersioningError

__all__ = ["Version", "VersionHistory"]

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)$")


@dataclass(frozen=True, order=True)
class Version:
    """A two-component version number, e.g. ``0.1`` or ``2.3``.

    Ordering is lexicographic on (major, minor), so ``0.9 < 0.10 < 1.0``.
    """

    major: int
    minor: int

    @staticmethod
    def parse(text: str) -> "Version":
        """Parse ``"major.minor"``; raises VersioningError on junk."""
        if not isinstance(text, str):
            raise VersioningError(
                f"bad version {text!r}; expected a 'major.minor' string")
        match = _VERSION_RE.match(text.strip())
        if not match:
            raise VersioningError(
                f"bad version {text!r}; expected 'major.minor' digits")
        return Version(int(match.group(1)), int(match.group(2)))

    @property
    def is_reviewed(self) -> bool:
        """True for 1.0 and above; "0.x for unreviewed examples"."""
        return self.major >= 1

    def next_minor(self) -> "Version":
        """The next version in the 0.x provisional line (or any line)."""
        return Version(self.major, self.minor + 1)

    def next_major(self) -> "Version":
        """The next major version (used when review approves an entry)."""
        return Version(self.major + 1, 0)

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}"


class VersionHistory:
    """The linear, append-only sequence of versions of one entry.

    Each history item pairs a :class:`Version` with an opaque payload (the
    stored entry snapshot).  Old versions are never removed — the paper's
    promise that "old references can still be followed".
    """

    def __init__(self) -> None:
        self._items: list[tuple[Version, object]] = []

    def append(self, version: Version, payload: object) -> None:
        """Record a new version; must strictly increase."""
        if self._items and version <= self._items[-1][0]:
            raise VersioningError(
                f"version {version} does not increase on "
                f"{self._items[-1][0]} (versions form a linear sequence)")
        self._items.append((version, payload))

    def replace_latest(self, version: Version, payload: object) -> None:
        """Overwrite the latest payload without moving the version.

        The one sanctioned in-place change (comment attachment is not
        part of the versioned description); ``version`` must equal the
        current latest version.
        """
        self._require_nonempty()
        if version != self._items[-1][0]:
            raise VersioningError(
                "replace_latest must keep the version "
                f"({self._items[-1][0]}), got {version}")
        self._items[-1] = (version, payload)

    @property
    def latest_version(self) -> Version:
        self._require_nonempty()
        return self._items[-1][0]

    @property
    def latest(self) -> object:
        self._require_nonempty()
        return self._items[-1][1]

    def get(self, version: Version) -> object:
        """Retrieve the payload stored at an exact historical version."""
        for stored, payload in self._items:
            if stored == version:
                return payload
        raise VersioningError(
            f"no version {version} in history "
            f"(have: {', '.join(str(v) for v, _ in self._items)})")

    def versions(self) -> list[Version]:
        return [version for version, _payload in self._items]

    def __iter__(self) -> Iterator[tuple[Version, object]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def _require_nonempty(self) -> None:
        if not self._items:
            raise VersioningError("empty version history")
