"""The three-level curatorial structure and review workflow (§5.1).

The paper: "we propose a three-level curatorial structure for the
repository.  Anyone with a wiki account will be able to comment on an
example ... each example will also have one or more named reviewers:
recognised members of the community whose name as reviewer indicates they
consider the example to be of usable quality.  Overall editorial control
of the repository is the responsibility of a small group of curators."

Mechanised here:

* :class:`Role` — ``VISITOR < MEMBER < REVIEWER < CURATOR``;
* :class:`User` — an account (the "barrier to entry, such as registration"
  §5.1: visitors cannot comment);
* :class:`CurationPolicy` — which role may do what;
* :class:`CuratedRepository` — the workflow object binding a
  :class:`~repro.repository.backends.StorageBackend` to the policy:
  submitting drafts, commenting, requesting/recording reviews, approving
  to version 1.0, and controlled edits that bump versions.

The state machine for an entry's review status::

    DRAFT --submit--> PROVISIONAL (0.x) --approve (reviewer)--> REVIEWED (1.0+)
                         |  ^
                         |  | revise (author/curator; bumps 0.x)
                         +--+

Versions only move forward; every state change appends to the entry's
:class:`~repro.repository.versioning.VersionHistory` in the store, so "old
references can still be followed".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.errors import CurationError, PermissionDenied
from repro.repository.backends import StorageBackend
from repro.repository.entry import Comment, ExampleEntry
from repro.repository.service import RepositoryService
from repro.repository.validation import require_valid
from repro.repository.versioning import Version

__all__ = ["Role", "User", "CurationPolicy", "CuratedRepository"]


class Role(IntEnum):
    """Curation roles, ordered by privilege."""

    VISITOR = 0   # can read only (no wiki account)
    MEMBER = 1    # has a wiki account: can comment, submit examples
    REVIEWER = 2  # recognised community member: can approve examples
    CURATOR = 3   # editorial control: can edit and administer

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class User:
    """An account: a display name and a role."""

    name: str
    role: Role = Role.MEMBER

    def at_least(self, role: Role) -> bool:
        return self.role >= role


@dataclass(frozen=True)
class CurationPolicy:
    """Minimum roles for each operation; defaults follow §5.1."""

    comment: Role = Role.MEMBER
    submit: Role = Role.MEMBER
    review: Role = Role.REVIEWER
    edit: Role = Role.CURATOR
    promote: Role = Role.CURATOR

    def require(self, user: User, operation: str, minimum: Role) -> None:
        if not user.at_least(minimum):
            raise PermissionDenied(user.name, operation, minimum.name)


class CuratedRepository:
    """The curated repository: a store governed by the curation policy.

    All mutating operations take the acting :class:`User` first, enforce
    the policy, and append a new version snapshot to the store — never
    editing history in place ("we do not wish to have uncontrolled editing
    of the example itself").

    Any :class:`StorageBackend` passed in is wrapped in a
    :class:`~repro.repository.service.RepositoryService`, so curated
    writes emit change events (keeping e.g. an attached search index
    fresh); ``self.store`` is always the service.  Reads always reach
    the backend, so a direct backend write is visible at once, but it
    emits no event: write through ``repo.store`` to keep subscribers
    in step.
    """

    def __init__(self, store: StorageBackend,
                 policy: CurationPolicy | None = None) -> None:
        if isinstance(store, RepositoryService):
            self.store = store
        else:
            self.store = RepositoryService(store)
        self.policy = policy or CurationPolicy()

    # ------------------------------------------------------------------
    # Reading (open to everyone, including visitors).
    # ------------------------------------------------------------------

    def get(self, identifier: str,
            version: Version | None = None) -> ExampleEntry:
        return self.store.get(identifier, version)

    def identifiers(self) -> list[str]:
        return self.store.identifiers()

    def query(self, query=None, *, sort: str = "relevance",
              offset: int = 0, limit: int | None = None):
        """Faceted retrieval over the curated collection (open to all).

        Delegates to :meth:`RepositoryService.query` — reading is the
        one operation §5.1 grants even to visitors, so no acting user
        is required.  ``query`` is a
        :class:`~repro.repository.query.Q` expression, a bare string
        (free text), or None for everything.
        """
        return self.store.query(query, sort=sort, offset=offset,
                                limit=limit)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    def submit(self, user: User, entry: ExampleEntry) -> ExampleEntry:
        """Submit a new example; it enters the repository as provisional.

        The entry must validate against the template, carry the submitting
        user among its authors, and start at a 0.x version.
        """
        self.policy.require(user, "submit an example", self.policy.submit)
        require_valid(entry)
        if user.name not in entry.authors:
            raise CurationError(
                f"submitting user {user.name!r} must be listed among the "
                f"entry's authors {list(entry.authors)}")
        if entry.version.is_reviewed:
            raise CurationError(
                "new submissions are provisional; version must be 0.x, "
                f"got {entry.version}")
        self.store.add(entry)
        return entry

    # ------------------------------------------------------------------
    # Commenting ("anyone with a wiki account").
    # ------------------------------------------------------------------

    def comment(self, user: User, identifier: str, date: str,
                text: str) -> ExampleEntry:
        """Attach a comment to the latest version of an entry.

        Commenting does not bump the version: comments "guide the
        development of a later version", they are not part of the curated
        description itself.
        """
        self.policy.require(user, "comment", self.policy.comment)
        current = self.store.get(identifier)
        updated = current.with_comment(Comment(user.name, date, text))
        self.store.replace_latest(updated)
        return updated

    # ------------------------------------------------------------------
    # Review and approval.
    # ------------------------------------------------------------------

    def approve(self, user: User, identifier: str) -> ExampleEntry:
        """A reviewer approves an entry: recorded by name, promoted to 1.0.

        "Examples remain provisional (version 0.x) until reviewed (and
        approved ...) by other members of the wiki" — so the reviewer must
        not be one of the entry's authors.
        """
        self.policy.require(user, "review an example", self.policy.review)
        current = self.store.get(identifier)
        if user.name in current.authors:
            raise CurationError(
                f"reviewer {user.name!r} is an author of {identifier!r}; "
                "review must come from other members")
        if current.version.is_reviewed:
            raise CurationError(
                f"{identifier!r} is already reviewed "
                f"(version {current.version})")
        approved = current.with_reviewer(user.name).with_version(
            current.version.next_major())
        require_valid(approved)
        self.store.add_version(approved)
        return approved

    # ------------------------------------------------------------------
    # Controlled editing.
    # ------------------------------------------------------------------

    def revise(self, user: User, entry: ExampleEntry) -> ExampleEntry:
        """Publish a revised description as the next version.

        Allowed for curators, and for authors of the entry (the "free
        discussion ... but versioning the descriptions" compromise).  The
        revision must keep the identifier and must move the version
        forward by exactly one step (minor, or major for re-approval).
        """
        current = self.store.get(entry.identifier)
        is_author = user.name in current.authors
        if not (is_author or user.at_least(self.policy.edit)):
            raise PermissionDenied(user.name, "revise the entry",
                                   self.policy.edit.name)
        allowed = {current.version.next_minor(), current.version.next_major()}
        if entry.version not in allowed:
            raise CurationError(
                f"revision must bump {current.version} by one step "
                f"({', '.join(sorted(str(v) for v in allowed))}); "
                f"got {entry.version}")
        if entry.version.is_reviewed and not entry.reviewers:
            raise CurationError(
                "cannot publish a reviewed (>= 1.0) version without "
                "named reviewers")
        require_valid(entry)
        self.store.add_version(entry)
        return entry

    # ------------------------------------------------------------------
    # Introspection used by examples and tests.
    # ------------------------------------------------------------------

    def review_status(self, identifier: str) -> str:
        """"provisional" (0.x) or "reviewed" (1.0+), per the paper."""
        entry = self.store.get(identifier)
        return "reviewed" if entry.version.is_reviewed else "provisional"

    def reviewers_of(self, identifier: str) -> tuple[str, ...]:
        return self.store.get(identifier).reviewers
