"""The §5.4 bx: keeping the wiki page and the local copy consistent.

The paper: "We shall ... maintain a local copy of the repository contents
... We plan to give some thought to whether maintaining it in a
wiki-markup-independent form, and maintaining consistency between that and
the wiki via a bidirectional transformation, might add value."  This
module is that bx, dogfooding the library on its own infrastructure:

* the **source** is the structured :class:`ExampleEntry` (the local,
  markup-independent copy persisted by the
  :class:`~repro.repository.backends.FileBackend`);
* the **view** is the wikidot page text;
* ``get`` renders (:func:`repro.repository.export.render_wikidot`);
* ``put`` parses an edited page back (:func:`parse_wikidot`) and **merges**
  it with the old entry: template sections deleted from the page are
  restored from the old structured copy, so a careless wiki edit cannot
  silently destroy curated content.

Micro-syntax caveat: the page format reserves a few markers (`` DOI `` in
references, ``[...]`` kinds in artefacts, ``**author** (date):`` comments).
:func:`normalise_entry` canonicalises an entry into the sublanguage on
which the lens laws hold exactly; the law harness samples from
:func:`entry_space`, whose members are normalised by construction.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import Any

from repro.core.errors import WikiSyncError
from repro.core.lens import Lens
from repro.models.space import ModelSpace, PredicateSpace
from repro.repository.entry import (
    Artefact,
    Comment,
    ExampleEntry,
    ModelDescription,
    PropertyClaim,
    Reference,
    RestorationSpec,
    Variant,
)
from repro.repository.export import NONE_YET, render_wikidot, select_entries
from repro.repository.template import EntryType
from repro.repository.versioning import Version

__all__ = [
    "parse_wikidot",
    "normalise_entry",
    "entry_space",
    "wikidot_space",
    "WikiSyncLens",
    "make_wiki_sync_lens",
    "apply_wiki_edit",
    "render_wiki_pages",
]

_SECTION_RE = re.compile(r"^\+\+ (.+)$")
_SUBSECTION_RE = re.compile(r"^\+\+\+ (.+)$")
_TITLE_RE = re.compile(r"^\+ (.+)$")
_META_RE = re.compile(r"^\|\|~ (\w+) \|\| (.*?) \|\|$")
_COMMENT_RE = re.compile(r"^\*\*(.+?)\*\* \((.+?)\): (.*)$")
_ARTEFACT_RE = re.compile(r"^(.+?) \[(.+?)\] (\S+)(?: -- (.*))?$")


def _join(lines: list[str]) -> str:
    return "\n".join(lines).strip()


def _parse_property(text: str) -> PropertyClaim:
    body, _sep, note = text.partition(" -- ")
    body = body.strip()
    holds = True
    if body.lower().startswith("not "):
        holds = False
        body = body[4:]
    return PropertyClaim(body.lower(), holds, note.strip())


def _parse_reference(text: str) -> Reference:
    # The note is a trailing parenthesised group with no nested parens,
    # so citations containing "(POPL)" mid-text parse correctly.
    note = ""
    match = re.search(r" \(([^()]*)\)$", text)
    if match:
        note = match.group(1)
        text = text[:match.start()]
    body, _sep, doi = text.partition(" DOI ")
    return Reference(body.strip(), doi.strip(), note)


def _parse_comment(text: str) -> Comment:
    match = _COMMENT_RE.match(text)
    if not match:
        raise WikiSyncError(f"unparseable comment bullet: {text!r}")
    return Comment(match.group(1), match.group(2), match.group(3))


def _parse_artefact(text: str) -> Artefact:
    match = _ARTEFACT_RE.match(text)
    if not match:
        raise WikiSyncError(f"unparseable artefact bullet: {text!r}")
    return Artefact(match.group(1), match.group(2), match.group(3),
                    match.group(4) or "")


def parse_wikidot(text: str) -> dict[str, Any]:
    """Parse a wikidot entry page into a partial entry-field dict.

    Returns only the fields whose sections appear in the page; the §5.4
    lens's ``put`` merges the result with the old entry.  Raises
    :class:`WikiSyncError` on structural problems (no title, bad metadata
    row, unparseable bullets).
    """
    fields: dict[str, Any] = {}
    section: str | None = None
    subsection: str | None = None
    text_lines: list[str] = []
    bullets: list[str] = []
    models: list[ModelDescription] = []
    variants: list[Variant] = []
    restoration: dict[str, str] = {}
    in_code = False
    code_lines: list[str] = []
    model_desc_lines: list[str] = []

    def close_subsection() -> None:
        nonlocal subsection, code_lines, model_desc_lines
        if section == "Models" and subsection is not None:
            models.append(ModelDescription(
                subsection, _join(model_desc_lines), _join(code_lines)))
        elif section == "Variants" and subsection is not None:
            variants.append(Variant(subsection, _join(model_desc_lines)))
        elif section == "Consistency Restoration" and subsection is not None:
            restoration[subsection.lower()] = _join(model_desc_lines)
        subsection = None
        code_lines = []
        model_desc_lines = []

    def close_section() -> None:
        nonlocal section, text_lines, bullets, models, variants, restoration
        close_subsection()
        if section is None:
            return
        body = _join(text_lines)
        if section == "Overview":
            fields["overview"] = body
        elif section == "Consistency":
            fields["consistency"] = body
        elif section == "Discussion":
            fields["discussion"] = body
        elif section == "Models":
            fields["models"] = tuple(models)
            models = []
        elif section == "Variants":
            if body == NONE_YET and not variants:
                fields["variants"] = ()
            else:
                fields["variants"] = tuple(variants)
            variants = []
        elif section == "Consistency Restoration":
            if restoration:
                fields["restoration"] = RestorationSpec(
                    forward=restoration.get("forward", ""),
                    backward=restoration.get("backward", ""))
            else:
                fields["restoration"] = RestorationSpec(combined=body)
            restoration = {}
        elif section == "Properties":
            fields["properties"] = tuple(
                _parse_property(b) for b in bullets)
        elif section == "References":
            fields["references"] = tuple(
                _parse_reference(b) for b in bullets)
        elif section == "Authors":
            fields["authors"] = tuple(bullets)
        elif section == "Reviewers":
            fields["reviewers"] = tuple(bullets)
        elif section == "Comments":
            fields["comments"] = tuple(_parse_comment(b) for b in bullets)
        elif section == "Artefacts":
            fields["artefacts"] = tuple(
                _parse_artefact(b) for b in bullets)
        else:
            raise WikiSyncError(f"unknown section heading {section!r}")
        section = None
        text_lines = []
        bullets = []

    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if in_code:
            if line == "[[/code]]":
                in_code = False
            else:
                code_lines.append(line)
            continue
        if line == "[[code]]":
            in_code = True
            continue
        title_match = _TITLE_RE.match(line)
        if title_match and not line.startswith("++"):
            fields["title"] = title_match.group(1).strip()
            continue
        meta_match = _META_RE.match(line)
        if meta_match:
            key, value = meta_match.group(1), meta_match.group(2).strip()
            if key == "Version":
                fields["version"] = Version.parse(value)
            elif key == "Type":
                fields["types"] = tuple(
                    EntryType(part.strip())
                    for part in value.split(",") if part.strip())
            else:
                raise WikiSyncError(f"unknown metadata row {key!r}")
            continue
        sub_match = _SUBSECTION_RE.match(line)
        if sub_match:
            close_subsection()
            subsection = sub_match.group(1).strip()
            continue
        section_match = _SECTION_RE.match(line)
        if section_match and not line.startswith("+++"):
            close_section()
            section = section_match.group(1).strip()
            continue
        if not line:
            if subsection is None and section is not None and text_lines:
                text_lines.append("")
            continue
        if line.startswith("* "):
            bullets.append(line[2:])
            continue
        if subsection is not None:
            model_desc_lines.append(line)
        elif line != NONE_YET:
            text_lines.append(line)
    close_section()
    if in_code:
        raise WikiSyncError("unterminated [[code]] block")
    if "title" not in fields:
        raise WikiSyncError("page has no '+ TITLE' heading")
    return fields


# ----------------------------------------------------------------------
# Normalisation and spaces for law checking.
# ----------------------------------------------------------------------

def _clean_text(text: str) -> str:
    """Single spaces, no reserved markers, stripped."""
    cleaned = re.sub(r"\s+", " ", text).strip()
    cleaned = cleaned.replace(" DOI ", " doi ").replace(" -- ", " - ")
    return cleaned


def normalise_entry(entry: ExampleEntry) -> ExampleEntry:
    """Canonicalise an entry into the round-trippable sublanguage.

    Collapses whitespace, strips reserved micro-syntax markers from free
    text, and drops empty list items.  ``parse_wikidot(render_wikidot(e))``
    recovers ``normalise_entry(e)`` exactly — the PutGet law on this
    sublanguage.
    """
    return replace(
        entry,
        title=_clean_text(entry.title),
        overview=_clean_text(entry.overview),
        consistency=_clean_text(entry.consistency),
        discussion=_clean_text(entry.discussion),
        models=tuple(
            ModelDescription(_clean_text(m.name), _clean_text(m.description),
                             m.metamodel.strip())
            for m in entry.models),
        restoration=RestorationSpec(
            forward=_clean_text(entry.restoration.forward),
            backward=_clean_text(entry.restoration.backward),
            combined=_clean_text(entry.restoration.combined)),
        properties=tuple(
            PropertyClaim(claim.name.lower(), claim.holds,
                          _clean_text(claim.note))
            for claim in entry.properties),
        variants=tuple(
            Variant(_clean_text(v.name), _clean_text(v.description))
            for v in entry.variants),
        references=tuple(
            Reference(_clean_text(r.text).rstrip("()"),
                      r.doi.strip(),
                      _clean_text(r.note).replace(")", "").replace("(", ""))
            for r in entry.references),
        authors=tuple(_clean_text(a) for a in entry.authors if a.strip()),
        reviewers=tuple(_clean_text(r) for r in entry.reviewers
                        if r.strip()),
        comments=tuple(
            Comment(_clean_text(c.author), _clean_text(c.date),
                    _clean_text(c.text))
            for c in entry.comments),
        artefacts=tuple(
            Artefact(_clean_text(a.name), _clean_text(a.kind),
                     a.locator.strip() or "missing",
                     _clean_text(a.description))
            for a in entry.artefacts),
    )


_WORDS = ("alpha", "beta", "gamma", "delta", "sync", "view", "model",
          "schema", "tree", "composer", "update", "merge")
_NAMES = ("Ada", "Barbara", "Edsger", "Grace", "Kurt", "Perdita")


def _random_entry(rng: random.Random) -> ExampleEntry:
    """A small random entry in the normalised sublanguage."""

    def words(count: int) -> str:
        return " ".join(rng.choice(_WORDS) for _ in range(count))

    title = words(2).upper()
    has_props = rng.random() < 0.7
    has_variants = rng.random() < 0.5
    entry = ExampleEntry(
        title=title,
        version=Version(rng.randint(0, 2), rng.randint(0, 9)),
        types=(rng.choice((EntryType.PRECISE, EntryType.SKETCH)),),
        overview=words(4) + ".",
        models=tuple(
            ModelDescription(f"M{index}", words(3) + ".",
                             metamodel="" if rng.random() < 0.5
                             else f"class {words(1)}")
            for index in range(rng.randint(1, 3))),
        consistency=words(5) + ".",
        restoration=RestorationSpec(forward=words(4) + ".",
                                    backward=words(4) + "."),
        properties=tuple(
            PropertyClaim(name, holds=rng.random() < 0.8)
            for name in rng.sample(
                ("correct", "hippocratic", "undoable", "simply matching"),
                k=rng.randint(1, 3))) if has_props else (),
        variants=tuple(
            Variant(f"choice {index}", words(3) + ".")
            for index in range(rng.randint(1, 2))) if has_variants else (),
        discussion=words(6) + ".",
        references=tuple(
            Reference(words(3), doi="10.1000/" + str(rng.randint(1, 999)))
            for _ in range(rng.randint(0, 2))),
        authors=tuple(rng.sample(_NAMES, k=rng.randint(1, 2))),
        reviewers=tuple(rng.sample(_NAMES, k=rng.randint(0, 1))),
        comments=tuple(
            Comment(rng.choice(_NAMES), "2014-03-28", words(3) + ".")
            for _ in range(rng.randint(0, 2))),
        artefacts=tuple(
            Artefact(words(1), "code", f"repro.catalogue.{words(1)}")
            for _ in range(rng.randint(0, 1))),
    )
    return normalise_entry(entry)


def entry_space(name: str = "entries") -> ModelSpace:
    """The space of normalised entries (law-checking source space)."""
    return PredicateSpace(
        predicate=lambda value: isinstance(value, ExampleEntry)
        and normalise_entry(value) == value,
        sampler=_random_entry,
        name=name,
        explain=lambda value: "not a normalised ExampleEntry")


def wikidot_space(name: str = "wikidot pages") -> ModelSpace:
    """The space of parseable wikidot pages (law-checking view space)."""

    def _is_page(value: Any) -> bool:
        if not isinstance(value, str):
            return False
        try:
            parse_wikidot(value)
        except WikiSyncError:
            return False
        return True

    return PredicateSpace(
        predicate=_is_page,
        sampler=lambda rng: render_wikidot(_random_entry(rng)),
        name=name,
        explain=lambda value: "not a parseable wikidot entry page")


class WikiSyncLens(Lens):
    """The §5.4 lens: structured entry (source) ↔ wikidot page (view).

    ``put`` parses the edited page and merges: any template section
    missing from the page keeps its value from the old entry.  ``create``
    parses with library defaults for anything missing (empty optional
    fields; required free-text fields become explicit placeholders so the
    result is visibly incomplete rather than silently wrong).
    """

    def __init__(self) -> None:
        self.name = "wiki-sync"
        self.source_space = entry_space()
        self.view_space = wikidot_space()

    def get(self, source: ExampleEntry) -> str:
        return render_wikidot(source)

    def put(self, view: str, source: ExampleEntry) -> ExampleEntry:
        fields = parse_wikidot(view)
        merged = replace(source, **fields)
        return normalise_entry(merged)

    def create(self, view: str) -> ExampleEntry:
        fields = parse_wikidot(view)
        defaults: dict[str, Any] = {
            "version": Version(0, 1),
            "types": (EntryType.SKETCH,),
            "overview": "(missing overview)",
            "models": (ModelDescription("M", "(missing description)"),),
            "consistency": "(missing consistency)",
            "restoration": RestorationSpec(combined="(missing)"),
            "discussion": "(missing discussion)",
            "authors": ("(unknown)",),
            "properties": (), "variants": (), "references": (),
            "reviewers": (), "comments": (), "artefacts": (),
        }
        defaults.update(fields)
        return normalise_entry(ExampleEntry(**defaults))


def make_wiki_sync_lens() -> WikiSyncLens:
    """Factory used by examples/benchmarks (stable public name)."""
    return WikiSyncLens()


def render_wiki_pages(store, query=None) -> dict[str, str]:
    """Render the wikidot pages of a slice of the repository.

    The push half of §5.4 at collection scale: the entries
    :func:`~repro.repository.export.select_entries` chooses (``query``
    is a :class:`~repro.repository.query.Q` expression, a free-text
    string, or None for everything) each render to their wiki page
    text, keyed by identifier in identifier order.  Every call renders
    every selected entry from its stored snapshot, so the pages show
    writes made through any service over the same store.
    """
    return {entry.identifier: render_wikidot(entry)
            for entry in select_entries(store, query)}


def apply_wiki_edit(store, identifier: str, page: str) -> ExampleEntry:
    """Put an edited wiki page back into the stored entry via the lens.

    The §5.4 synchronisation as one operation: parse the edited ``page``,
    merge it with the stored latest snapshot (sections the editor deleted
    are restored from the structured copy), keep the stored version (a
    wiki edit is not a curated revision — version bumps go through
    :class:`~repro.repository.curation.CuratedRepository`), and persist
    with ``replace_latest``.  Going through a
    :class:`~repro.repository.service.RepositoryService` keeps any
    attached search index coherent automatically.

    Returns the merged, stored entry.
    """
    lens = WikiSyncLens()
    current = store.get(identifier)
    merged = lens.put(page, normalise_entry(current))
    merged = replace(merged, version=current.version)
    store.replace_latest(merged)
    return merged
