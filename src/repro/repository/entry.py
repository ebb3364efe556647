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

``to_dict``/``from_dict`` are one walk over the dataclass fields,
compiled once per class; ``from_dict`` type-checks every value at every
depth (nested records and list items too), so an entry it returns is
one every reader can render.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from operator import attrgetter
from typing import Any, Callable, get_args, get_origin, get_type_hints

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


# ----------------------------------------------------------------------
# The codec: one walk over the dataclass fields, compiled once per class.
# ----------------------------------------------------------------------


class _Malformed(Exception):
    """A missing key or a wrong type.  ``path`` grows as the walk unwinds
    (innermost step first), so a well-formed dict builds no path."""

    def __init__(self, problem: str, *path: str | int) -> None:
        super().__init__(problem)
        self.path = list(path)


def _exactly(kind: type, noun: str) -> Callable:
    def check(value: Any) -> Any:
        if type(value) is kind:
            return value
        raise _Malformed(f"must be {noun}, not {type(value).__name__}")
    return check


def _entry_type(value: Any) -> EntryType:
    try:
        return EntryType(value)
    except ValueError:
        raise _Malformed(f"must be one of {[t.value for t in EntryType]}, "
                         f"not {value!r}") from None


#: Leaf type -> (encode, decode); an encode of None keeps the value as is.
#: A bad version string stays a VersioningError (``Version.parse``).
_LEAVES: dict[Any, tuple[Callable | None, Callable]] = {
    str: (None, _exactly(str, "a string")),
    bool: (None, _exactly(bool, "true or false")),
    EntryType: (attrgetter("value"), _entry_type),
    Version: (str, Version.parse),
}


def _codec(hint: Any) -> tuple[Callable | None, Callable]:
    """Compile the (encode, decode) pair for one field annotation."""
    if hint in _LEAVES:
        return _LEAVES[hint]
    if get_origin(hint) is tuple:
        item, _ellipsis = get_args(hint)
        return _sequence_codec(*_codec(item))
    if is_dataclass(hint):
        return _record_codec(hint)
    raise TypeError(f"no entry codec for {hint!r}")


def _sequence_codec(encode_item, decode_item) -> tuple[Callable, Callable]:
    """``tuple[T, ...]``: a JSON list, never a string."""

    def decode(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(f"must be a list, not {type(value).__name__}")
        items = []
        for index, item in enumerate(value):
            try:
                items.append(decode_item(item))
            except _Malformed as error:
                error.path.append(index)
                raise
        return tuple(items)

    if encode_item is None:
        return list, decode
    return (lambda items: [encode_item(item) for item in items]), decode


def _record_codec(cls: type) -> tuple[Callable, Callable]:
    """A template dataclass: a JSON object with one key per field.  A
    field with a default may be absent; the default is checked too."""
    hints = get_type_hints(cls)
    members = [(spec.name, *_codec(hints[spec.name]), spec.default)
               for spec in fields(cls)]

    def encode(record: Any) -> dict[str, Any]:
        return {name: getattr(record, name) if encode_field is None
                else encode_field(getattr(record, name))
                for name, encode_field, _decode, _default in members}

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _Malformed(f"must be an object, not {type(data).__name__}")
        values = []
        for name, _encode, decode_field, default in members:
            value = data.get(name, default)
            if value is MISSING:
                raise _Malformed("is missing", name)
            try:
                values.append(decode_field(value))
            except _Malformed as error:
                error.path.append(name)
                raise
        return cls(*values)

    return encode, decode


_encode_entry, _decode_walk = _codec(ExampleEntry)


def _decode_entry(data: Any) -> ExampleEntry:
    try:
        return _decode_walk(data)
    except _Malformed as error:
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                        for step in reversed(error.path)).lstrip(".")
        subject = f"entry field {where!r}" if where else "entry dict"
        raise TemplateError(f"{subject} {error}") from None
