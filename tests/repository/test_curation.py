"""E10: the three-level curation workflow (repro.repository.curation)."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    CurationError,
    PermissionDenied,
    ValidationError,
)
from repro.repository.backends import MemoryBackend
from repro.repository.curation import (
    CuratedRepository,
    CurationPolicy,
    Role,
    User,
)
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry

VISITOR = User("Drifter", Role.VISITOR)
ANN = User("Ann", Role.MEMBER)          # author of the demo entry
BOB = User("Bob", Role.MEMBER)
REX = User("Rex", Role.REVIEWER)
CURATOR = User("Cleo", Role.CURATOR)


@pytest.fixture
def repo() -> CuratedRepository:
    return CuratedRepository(MemoryBackend())


@pytest.fixture
def seeded(repo: CuratedRepository) -> CuratedRepository:
    repo.submit(ANN, minimal_entry())
    return repo


class TestRoles:
    def test_ordering(self):
        assert Role.VISITOR < Role.MEMBER < Role.REVIEWER < Role.CURATOR

    def test_at_least(self):
        assert REX.at_least(Role.MEMBER)
        assert not BOB.at_least(Role.REVIEWER)


class TestSubmission:
    def test_member_can_submit(self, repo):
        entry = repo.submit(ANN, minimal_entry())
        assert repo.get(entry.identifier) == entry
        assert repo.review_status(entry.identifier) == "provisional"

    def test_visitor_cannot_submit(self, repo):
        with pytest.raises(PermissionDenied):
            repo.submit(VISITOR, minimal_entry())

    def test_submitter_must_be_an_author(self, repo):
        with pytest.raises(CurationError, match="authors"):
            repo.submit(BOB, minimal_entry())  # authors=("Ann",)

    def test_submission_must_be_provisional(self, repo):
        reviewed = minimal_entry(version=Version(1, 0),
                                 reviewers=("Rex",))
        with pytest.raises(CurationError, match="0.x"):
            repo.submit(ANN, reviewed)

    def test_submission_must_validate(self, repo):
        with pytest.raises(ValidationError):
            repo.submit(ANN, minimal_entry(overview=""))


class TestCommenting:
    def test_member_comments(self, seeded):
        updated = seeded.comment(BOB, "demo-example", "2014-03-28",
                                 "Define duplicates precisely?")
        assert updated.comments[-1].author == "Bob"

    def test_comment_does_not_bump_version(self, seeded):
        before = seeded.get("demo-example").version
        seeded.comment(BOB, "demo-example", "2014-03-28", "Hm.")
        assert seeded.get("demo-example").version == before
        assert seeded.store.versions("demo-example") == [before]

    def test_visitor_cannot_comment(self, seeded):
        """§5.1: commenting needs a wiki account (the barrier to entry)."""
        with pytest.raises(PermissionDenied):
            seeded.comment(VISITOR, "demo-example", "2014-03-28", "hi")

    def test_comments_persist_across_later_versions(self, seeded):
        seeded.comment(BOB, "demo-example", "2014-03-28", "Keep this.")
        seeded.approve(REX, "demo-example")
        assert seeded.get("demo-example").comments[-1].text == "Keep this."


class TestApproval:
    def test_reviewer_approves_to_one_dot_zero(self, seeded):
        approved = seeded.approve(REX, "demo-example")
        assert approved.version == Version(1, 0)
        assert "Rex" in approved.reviewers
        assert seeded.review_status("demo-example") == "reviewed"

    def test_member_cannot_approve(self, seeded):
        with pytest.raises(PermissionDenied):
            seeded.approve(BOB, "demo-example")

    def test_author_cannot_review_own_entry(self, seeded):
        """Review must come from *other* members of the wiki."""
        ann_reviewer = User("Ann", Role.REVIEWER)
        with pytest.raises(CurationError, match="other members"):
            seeded.approve(ann_reviewer, "demo-example")

    def test_double_approval_rejected(self, seeded):
        seeded.approve(REX, "demo-example")
        with pytest.raises(CurationError, match="already reviewed"):
            seeded.approve(REX, "demo-example")

    def test_provisional_version_preserved_in_history(self, seeded):
        """E11: the 0.1 snapshot stays retrievable after approval."""
        seeded.approve(REX, "demo-example")
        old = seeded.get("demo-example", Version(0, 1))
        assert old.version == Version(0, 1)
        assert old.reviewers == ()


class TestRevision:
    def test_author_revises_minor(self, seeded):
        revised = minimal_entry(overview="A better demo.",
                                version=Version(0, 2))
        result = seeded.revise(ANN, revised)
        assert result.overview == "A better demo."
        assert seeded.store.versions("demo-example") == \
            [Version(0, 1), Version(0, 2)]

    def test_curator_revises_others_entries(self, seeded):
        revised = minimal_entry(version=Version(0, 2))
        seeded.revise(CURATOR, revised)

    def test_unrelated_member_cannot_revise(self, seeded):
        """§5.1: no uncontrolled editing of the example itself."""
        revised = minimal_entry(version=Version(0, 2))
        with pytest.raises(PermissionDenied):
            seeded.revise(BOB, revised)

    def test_version_must_bump_exactly_one_step(self, seeded):
        with pytest.raises(CurationError, match="one step"):
            seeded.revise(ANN, minimal_entry(version=Version(0, 5)))

    def test_same_version_rejected(self, seeded):
        with pytest.raises(CurationError):
            seeded.revise(ANN, minimal_entry(version=Version(0, 1)))

    def test_major_revision_requires_reviewers(self, seeded):
        with pytest.raises(CurationError, match="reviewers"):
            seeded.revise(ANN, minimal_entry(version=Version(1, 0)))

    def test_major_revision_with_reviewers_ok(self, seeded):
        revised = minimal_entry(version=Version(1, 0), reviewers=("Rex",))
        assert seeded.revise(CURATOR, revised).version == Version(1, 0)


class TestPolicyCustomisation:
    def test_stricter_comment_policy(self):
        repo = CuratedRepository(
            MemoryBackend(), policy=CurationPolicy(comment=Role.REVIEWER))
        repo.submit(ANN, minimal_entry())
        with pytest.raises(PermissionDenied):
            repo.comment(BOB, "demo-example", "2014-03-28", "hi")
        repo.comment(REX, "demo-example", "2014-03-28", "fine")

    def test_reviewers_of(self, seeded):
        assert seeded.reviewers_of("demo-example") == ()
        seeded.approve(REX, "demo-example")
        assert seeded.reviewers_of("demo-example") == ("Rex",)
