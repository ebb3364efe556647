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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.errors import TemplateError
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

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "description": self.description,
                "metamodel": self.metamodel}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ModelDescription":
        return ModelDescription(data["name"], data["description"],
                                data.get("metamodel", ""))


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

    def to_dict(self) -> dict[str, Any]:
        return {"forward": self.forward, "backward": self.backward,
                "combined": self.combined}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RestorationSpec":
        return RestorationSpec(data.get("forward", ""),
                               data.get("backward", ""),
                               data.get("combined", ""))


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

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "holds": self.holds, "note": self.note}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "PropertyClaim":
        return PropertyClaim(data["name"], data.get("holds", True),
                             data.get("note", ""))


@dataclass(frozen=True)
class Variant:
    """A variation point: where "more than one choice is reasonable"."""

    name: str
    description: str

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "description": self.description}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Variant":
        return Variant(data["name"], data["description"])


@dataclass(frozen=True)
class Reference:
    """A bibliography item, with optional DOI and role annotation."""

    text: str
    doi: str = ""
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"text": self.text, "doi": self.doi, "note": self.note}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Reference":
        return Reference(data["text"], data.get("doi", ""),
                         data.get("note", ""))


@dataclass(frozen=True)
class Comment:
    """A wiki-member comment: author, ISO date string, text."""

    author: str
    date: str
    text: str

    def to_dict(self) -> dict[str, Any]:
        return {"author": self.author, "date": self.date, "text": self.text}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Comment":
        return Comment(data["author"], data["date"], data["text"])


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

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "locator": self.locator, "description": self.description}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Artefact":
        return Artefact(data["name"], data["kind"], data["locator"],
                        data.get("description", ""))


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
        return {
            "title": self.title,
            "version": str(self.version),
            "types": [t.value for t in self.types],
            "overview": self.overview,
            "models": [m.to_dict() for m in self.models],
            "consistency": self.consistency,
            "restoration": self.restoration.to_dict(),
            "properties": [p.to_dict() for p in self.properties],
            "variants": [v.to_dict() for v in self.variants],
            "discussion": self.discussion,
            "references": [r.to_dict() for r in self.references],
            "authors": list(self.authors),
            "reviewers": list(self.reviewers),
            "comments": [c.to_dict() for c in self.comments],
            "artefacts": [a.to_dict() for a in self.artefacts],
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ExampleEntry":
        try:
            return ExampleEntry(
                title=_text(data, "title"),
                version=Version.parse(data["version"]),
                types=tuple(EntryType(t) for t in _items(data, "types")),
                overview=_text(data, "overview"),
                models=tuple(ModelDescription.from_dict(m)
                             for m in _items(data, "models")),
                consistency=_text(data, "consistency"),
                restoration=RestorationSpec.from_dict(data["restoration"]),
                properties=tuple(
                    PropertyClaim.from_dict(p)
                    for p in _items(data, "properties", optional=True)),
                variants=tuple(
                    Variant.from_dict(v)
                    for v in _items(data, "variants", optional=True)),
                discussion=_text(data, "discussion"),
                references=tuple(
                    Reference.from_dict(r)
                    for r in _items(data, "references", optional=True)),
                authors=tuple(_items(data, "authors")),
                reviewers=tuple(_items(data, "reviewers", optional=True)),
                comments=tuple(
                    Comment.from_dict(c)
                    for c in _items(data, "comments", optional=True)),
                artefacts=tuple(
                    Artefact.from_dict(a)
                    for a in _items(data, "artefacts", optional=True)),
            )
        except KeyError as exc:
            raise TemplateError(
                f"entry dict missing required key {exc.args[0]!r}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise TemplateError(f"malformed entry dict: {exc}") from exc


def _text(data: dict[str, Any], key: str) -> str:
    """A required string field of an entry dict."""
    value = data[key]
    if not isinstance(value, str):
        raise TemplateError(
            f"entry field {key!r} must be a string, not "
            f"{type(value).__name__}")
    return value


def _items(data: dict[str, Any], key: str,
           optional: bool = False) -> list | tuple:
    """A list field of an entry dict (absent optional ones are empty).

    A string is refused rather than read as a list of its characters.
    """
    value = data.get(key, ()) if optional else data[key]
    if not isinstance(value, (list, tuple)):
        raise TemplateError(
            f"entry field {key!r} must be a list, not {type(value).__name__}")
    return value
