"""Example entries: the curated artefact the repository stores.

An :class:`ExampleEntry` is one instance of the §3 template.  It is a
value object — immutable, equal by content, serialisable to/from plain
dicts (the store persists the dict form as JSON; the wiki sync bx renders
it to wikidot markup).

The sub-structures mirror the template's composite fields:

* :class:`ModelDescription` — one entry of the Models field;
* :class:`RestorationSpec` — the Consistency Restoration field, split into
  forward and backward as the paper's Composers instance does;
* :class:`PropertyClaim` — one Properties item; ``holds=False`` renders as
  "Not undoable" style negative claims, and is what
  :func:`repro.core.laws.verify_property_claims` verifies by *finding* a
  counterexample;
* :class:`Variant` — one variation point;
* :class:`Reference` — one bibliography item;
* :class:`Comment` — one wiki-member comment;
* :class:`Artefact` — a pointer to auxiliary material (code, diagrams,
  sample data); for catalogue examples the locator is the dotted path of
  the executable bx.

``to_dict``/``from_dict`` are the shared schema walk
(:mod:`repro.repository.schema`) over the dataclass fields;
``from_dict`` type-checks every value at every depth (nested records and
list items too), so an entry it returns is one every reader can render.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any

from repro.core.errors import TemplateError
from repro.repository.schema import wire
from repro.repository.template import EntryType
from repro.repository.versioning import Version

__all__ = [
    "ModelDescription",
    "RestorationSpec",
    "PropertyClaim",
    "Variant",
    "Reference",
    "Comment",
    "Artefact",
    "ExampleEntry",
    "slugify",
]


def slugify(title: str) -> str:
    """Derive the stable identifier from a title: COMPOSERS -> composers.

    Identifiers are lowercase with hyphens, matching the paper's concern
    for "well-chosen names" and stable references.
    """
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    if not slug:
        raise TemplateError(f"title {title!r} yields an empty identifier")
    return slug


@dataclass(frozen=True)
class ModelDescription:
    """One model class: a name, prose description, optional formal metamodel."""

    name: str
    description: str
    metamodel: str = ""


@dataclass(frozen=True)
class RestorationSpec:
    """The Consistency Restoration field, forward and backward.

    ``combined`` is for entries that describe restoration in one piece
    (then forward/backward stay empty).
    """

    forward: str = ""
    backward: str = ""
    combined: str = ""

    def is_empty(self) -> bool:
        return not (self.forward or self.backward or self.combined)


@dataclass(frozen=True)
class PropertyClaim:
    """A claimed property: name (glossary term), polarity, optional note."""

    name: str
    holds: bool = True
    note: str = ""

    def display(self) -> str:
        """Render as the paper writes it: "Correct", "Not undoable"."""
        text = self.name if self.holds else f"Not {self.name}"
        # The paper capitalises property bullets.
        return text[0].upper() + text[1:]


@dataclass(frozen=True)
class Variant:
    """A variation point: where "more than one choice is reasonable"."""

    name: str
    description: str


@dataclass(frozen=True)
class Reference:
    """A bibliography item, with optional DOI and role annotation."""

    text: str
    doi: str = ""
    note: str = ""


@dataclass(frozen=True)
class Comment:
    """A wiki-member comment: author, ISO date string, text."""

    author: str
    date: str
    text: str


@dataclass(frozen=True)
class Artefact:
    """Auxiliary material: executable code, sample data, diagrams.

    ``kind`` is free text ("code", "sample", "diagram", ...); ``locator``
    is a dotted Python path for executable artefacts in this library, or a
    URL/path otherwise.
    """

    name: str
    kind: str
    locator: str
    description: str = ""


@dataclass(frozen=True)
class ExampleEntry:
    """One curated example, structured per the §3 template.

    The attribute-to-field mapping is recorded in
    :data:`repro.repository.template.TEMPLATE`; validation against the
    template lives in :mod:`repro.repository.validation` so that an entry
    object can exist in a draft, not-yet-valid state while being composed.
    """

    title: str
    version: Version
    types: tuple[EntryType, ...]
    overview: str
    models: tuple[ModelDescription, ...]
    consistency: str
    restoration: RestorationSpec
    discussion: str
    authors: tuple[str, ...]
    properties: tuple[PropertyClaim, ...] = ()
    variants: tuple[Variant, ...] = ()
    references: tuple[Reference, ...] = ()
    reviewers: tuple[str, ...] = ()
    comments: tuple[Comment, ...] = ()
    artefacts: tuple[Artefact, ...] = ()

    @property
    def identifier(self) -> str:
        """The stable identifier derived from the title."""
        return slugify(self.title)

    # ------------------------------------------------------------------
    # Evolution helpers (entries are immutable; these return new values).
    # ------------------------------------------------------------------

    def with_version(self, version: Version) -> "ExampleEntry":
        return replace(self, version=version)

    def with_comment(self, comment: Comment) -> "ExampleEntry":
        return replace(self, comments=self.comments + (comment,))

    def with_reviewer(self, reviewer: str) -> "ExampleEntry":
        if reviewer in self.reviewers:
            return self
        return replace(self, reviewers=self.reviewers + (reviewer,))

    def with_artefact(self, artefact: Artefact) -> "ExampleEntry":
        return replace(self, artefacts=self.artefacts + (artefact,))

    def claimed_properties(self) -> dict[str, bool]:
        """Property claims as the mapping verify_property_claims expects."""
        return {claim.name: claim.holds for claim in self.properties}

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-ready; inverse of :meth:`from_dict`."""
        return _encode_entry(self)

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ExampleEntry":
        """Hydrate and type-check an entry dict; unknown keys are ignored."""
        return _decode_entry(data)


_encode_entry, _decode_entry = wire(ExampleEntry, "entry", TemplateError)
