"""Rendering entries to markup: wikidot (the Bx wiki) and Markdown.

The wikidot rendering is the repository's public face — the paper hosts
the repository on a wikidot wiki — and is designed to be **parsed back**
by :mod:`repro.repository.wiki_sync`, which is what makes the §5.4
"maintain consistency between the local copy and the wiki via a bx" idea
executable.  Consequently the renderer is deliberately regular:

* one ``+`` heading with the title, ``++`` section headings named exactly
  as the §3 template, ``+++`` sub-headings for structured items;
* a two-column wikidot table for the metadata (Version, Type);
* bullet lists for properties/references/authors/reviewers/comments/
  artefacts, with a fixed micro-syntax per list kind;
* empty optional sections render as the paper's own "None yet".

The Markdown rendering is one-way (for READMEs and papers) and favours
looks over parseability.
"""

from __future__ import annotations

from repro.repository.entry import ExampleEntry
from repro.repository.glossary import glossary_terms

__all__ = [
    "render_wikidot",
    "render_markdown",
    "render_glossary_wikidot",
    "render_repository_markdown",
    "select_entries",
]

#: Rendered where the paper's own §4 instance writes "None yet".
NONE_YET = "None yet"


def _wikidot_lines(entry: ExampleEntry) -> list[str]:
    lines: list[str] = [f"+ {entry.title}", ""]

    # Metadata table: Version and Type.
    lines.append(f"||~ Version || {entry.version} ||")
    lines.append(
        f"||~ Type || {', '.join(t.value for t in entry.types)} ||")
    lines.append("")

    lines.append("++ Overview")
    lines.append(entry.overview)
    lines.append("")

    lines.append("++ Models")
    for model in entry.models:
        lines.append(f"+++ {model.name}")
        lines.append(model.description)
        if model.metamodel:
            lines.append("[[code]]")
            lines.extend(model.metamodel.splitlines())
            lines.append("[[/code]]")
        lines.append("")

    lines.append("++ Consistency")
    lines.append(entry.consistency)
    lines.append("")

    lines.append("++ Consistency Restoration")
    if entry.restoration.combined:
        lines.append(entry.restoration.combined)
    else:
        lines.append("+++ Forward")
        lines.append(entry.restoration.forward)
        lines.append("")
        lines.append("+++ Backward")
        lines.append(entry.restoration.backward)
    lines.append("")

    lines.append("++ Properties")
    if entry.properties:
        for claim in entry.properties:
            note = f" -- {claim.note}" if claim.note else ""
            lines.append(f"* {claim.display()}{note}")
    else:
        lines.append(NONE_YET)
    lines.append("")

    lines.append("++ Variants")
    if entry.variants:
        for variant in entry.variants:
            lines.append(f"+++ {variant.name}")
            lines.append(variant.description)
            lines.append("")
    else:
        lines.append(NONE_YET)
        lines.append("")

    lines.append("++ Discussion")
    lines.append(entry.discussion)
    lines.append("")

    lines.append("++ References")
    if entry.references:
        for reference in entry.references:
            doi = f" DOI {reference.doi}" if reference.doi else ""
            note = f" ({reference.note})" if reference.note else ""
            lines.append(f"* {reference.text}{doi}{note}")
    else:
        lines.append(NONE_YET)
    lines.append("")

    lines.append("++ Authors")
    for author in entry.authors:
        lines.append(f"* {author}")
    lines.append("")

    lines.append("++ Reviewers")
    if entry.reviewers:
        for reviewer in entry.reviewers:
            lines.append(f"* {reviewer}")
    else:
        lines.append(NONE_YET)
    lines.append("")

    lines.append("++ Comments")
    if entry.comments:
        for comment in entry.comments:
            lines.append(
                f"* **{comment.author}** ({comment.date}): {comment.text}")
    else:
        lines.append(NONE_YET)
    lines.append("")

    lines.append("++ Artefacts")
    if entry.artefacts:
        for artefact in entry.artefacts:
            description = (f" -- {artefact.description}"
                           if artefact.description else "")
            lines.append(
                f"* {artefact.name} [{artefact.kind}] "
                f"{artefact.locator}{description}")
    else:
        lines.append(NONE_YET)
    return lines


def render_wikidot(entry: ExampleEntry) -> str:
    """Render an entry as a wikidot page (parseable by wiki_sync)."""
    return "\n".join(_wikidot_lines(entry)).rstrip() + "\n"


def render_markdown(entry: ExampleEntry) -> str:
    """Render an entry as GitHub-flavoured Markdown (one-way, for docs)."""
    lines: list[str] = [f"# {entry.title}", ""]
    lines.append(f"**Version:** {entry.version}  ")
    lines.append(
        f"**Type:** {', '.join(t.value for t in entry.types)}")
    lines.append("")

    lines.append("## Overview")
    lines.append("")
    lines.append(entry.overview)
    lines.append("")

    lines.append("## Models")
    lines.append("")
    for model in entry.models:
        lines.append(f"### {model.name}")
        lines.append("")
        lines.append(model.description)
        if model.metamodel:
            lines.append("")
            lines.append("```")
            lines.extend(model.metamodel.splitlines())
            lines.append("```")
        lines.append("")

    lines.append("## Consistency")
    lines.append("")
    lines.append(entry.consistency)
    lines.append("")

    lines.append("## Consistency Restoration")
    lines.append("")
    if entry.restoration.combined:
        lines.append(entry.restoration.combined)
        lines.append("")
    else:
        lines.append("### Forward")
        lines.append("")
        lines.append(entry.restoration.forward)
        lines.append("")
        lines.append("### Backward")
        lines.append("")
        lines.append(entry.restoration.backward)
        lines.append("")

    if entry.properties:
        lines.append("## Properties")
        lines.append("")
        for claim in entry.properties:
            note = f" — {claim.note}" if claim.note else ""
            lines.append(f"- {claim.display()}{note}")
        lines.append("")

    if entry.variants:
        lines.append("## Variants")
        lines.append("")
        for variant in entry.variants:
            lines.append(f"### {variant.name}")
            lines.append("")
            lines.append(variant.description)
            lines.append("")

    lines.append("## Discussion")
    lines.append("")
    lines.append(entry.discussion)
    lines.append("")

    if entry.references:
        lines.append("## References")
        lines.append("")
        for reference in entry.references:
            doi = f" DOI: {reference.doi}." if reference.doi else ""
            note = f" ({reference.note})" if reference.note else ""
            lines.append(f"- {reference.text}{doi}{note}")
        lines.append("")

    lines.append("## Authors")
    lines.append("")
    for author in entry.authors:
        lines.append(f"- {author}")
    lines.append("")

    lines.append("## Reviewers")
    lines.append("")
    if entry.reviewers:
        lines.extend(f"- {reviewer}" for reviewer in entry.reviewers)
    else:
        lines.append(f"*{NONE_YET}*")
    lines.append("")

    lines.append("## Comments")
    lines.append("")
    if entry.comments:
        for comment in entry.comments:
            lines.append(
                f"- **{comment.author}** ({comment.date}): {comment.text}")
    else:
        lines.append(f"*{NONE_YET}*")
    lines.append("")

    if entry.artefacts:
        lines.append("## Artefacts")
        lines.append("")
        for artefact in entry.artefacts:
            description = (f" — {artefact.description}"
                           if artefact.description else "")
            lines.append(f"- **{artefact.name}** ({artefact.kind}): "
                         f"`{artefact.locator}`{description}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_repository_markdown(store, title: str | None = None,
                               query=None) -> str:
    """Render latest entries as one Markdown document (§5.2's
    "collect the most recent versions ... into a manuscript").

    ``store`` is any storage backend or, preferably, a
    :class:`~repro.repository.service.RepositoryService`; entries are
    chosen by :func:`select_entries`, so the document holds everything
    or, with ``query``, a slice of the collection — e.g.
    ``query=Q.reviewed()`` renders only the approved examples.  Every
    call renders every selected entry from its stored snapshot.
    """
    heading = title or "The Bx Examples Repository"
    fragments = [render_markdown(entry)
                 for entry in select_entries(store, query)]
    lines = [f"# {heading}", "",
             f"{len(fragments)} examples, latest versions.", ""]
    for fragment in fragments:
        lines.append("---")
        lines.append("")
        lines.append(fragment.rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def select_entries(store, query=None) -> list[ExampleEntry]:
    """The latest entries a collection rendering shows, in identifier
    order: everything when ``query`` is None, else the query's matches.

    ``query`` is a :class:`~repro.repository.query.Q` expression or a
    free-text string, planned through the unified query API, so a
    backend with a native plan (SQLite, sharded) fetches exactly the
    matching snapshots.  With no query the entries come from one batch
    ``get_many`` over ``identifiers()``, which runs no query at all.
    """
    if query is None:
        return store.get_many(store.identifiers())
    from repro.repository.query import plan

    return [hit.entry
            for hit in store.execute_query(
                plan(query, sort="identifier")).hits]


def render_glossary_wikidot() -> str:
    """Render the glossary as a wiki page (the Properties field links here)."""
    lines = ["+ Glossary of Bx Terms", ""]
    lines.append("Checkable terms are verified mechanically by the law "
                 "harness; others are vocabulary.")
    lines.append("")
    for term in glossary_terms():
        marker = " //[checkable]//" if term.checkable else ""
        lines.append(f"++ {term.term}{marker}")
        lines.append(term.definition)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
