"""Citation support: "recommend a format for citations to examples".

§5.2: "it seems like a good idea to recommend a format for citations to
examples (including versions) or to the repository itself", because
"readers seeing the reference need to be able to identify exactly the
example referred to".

Three things are citable:

* an example **at a version** (:func:`cite_entry`) — the stable reference
  a paper should use;
* the repository itself (:func:`cite_repository`);
* the archival snapshot (:func:`cite_archive`) — the paper's idea of
  collecting "the most recent versions of all of the examples ... into a
  manuscript (with all authors and reviewers named)" once the repository
  matures; :func:`archive_manuscript` assembles exactly that author list.

Supported styles: ``"plain"`` (running text) and ``"bibtex"``.
"""

from __future__ import annotations

from repro.core.errors import CitationError
from repro.repository.entry import ExampleEntry
from repro.repository.backends import StorageBackend

__all__ = [
    "REPOSITORY_URL",
    "cite_entry",
    "cite_repository",
    "cite_archive",
    "archive_manuscript",
    "entry_url",
]

#: Where the paper hosts the repository.
REPOSITORY_URL = "http://bx-community.wikidot.com/examples:home"

_STYLES = ("plain", "bibtex")


def entry_url(entry: ExampleEntry) -> str:
    """The stable URL of an entry page (wikidot category:page convention)."""
    return f"http://bx-community.wikidot.com/examples:{entry.identifier}"


def _authors_text(authors: tuple[str, ...]) -> str:
    if not authors:
        raise CitationError("cannot cite an entry with no authors")
    if len(authors) == 1:
        return authors[0]
    return ", ".join(authors[:-1]) + " and " + authors[-1]


def _check_style(style: str) -> None:
    if style not in _STYLES:
        raise CitationError(
            f"unknown citation style {style!r}; supported: "
            f"{', '.join(_STYLES)}")


def cite_entry(entry: ExampleEntry, style: str = "plain",
               year: str = "2014") -> str:
    """Cite one example at its exact version.

    The version is part of the citation — that is the §5.2 point: the
    identifier plus version pins "exactly the example referred to".
    """
    _check_style(style)
    authors = _authors_text(entry.authors)
    if style == "plain":
        return (f"{authors}. “{entry.title}”, version "
                f"{entry.version}. In: The Bx Examples Repository. "
                f"{entry_url(entry)}")
    key = f"bx-example-{entry.identifier}-{entry.version}"
    return "\n".join([
        f"@misc{{{key},",
        f"  author = {{{' and '.join(entry.authors)}}},",
        f"  title = {{{entry.title} (version {entry.version})}},",
        "  howpublished = {Entry in the Bx Examples Repository},",
        f"  url = {{{entry_url(entry)}}},",
        f"  year = {{{year}}},",
        "}",
    ])


def cite_repository(style: str = "plain") -> str:
    """Cite the repository as a whole (the paper is its canonical
    literature reference)."""
    _check_style(style)
    if style == "plain":
        return ("James Cheney, James McKinna, Perdita Stevens and Jeremy "
                "Gibbons. “Towards a Repository of Bx Examples”. "
                "In: Workshop Proceedings of the EDBT/ICDT 2014 Joint "
                "Conference, pp. 87–91, 2014. Repository at "
                f"{REPOSITORY_URL}")
    return "\n".join([
        "@inproceedings{bx-examples-repository,",
        "  author = {James Cheney and James McKinna and Perdita Stevens"
        " and Jeremy Gibbons},",
        "  title = {Towards a Repository of Bx Examples},",
        "  booktitle = {Workshop Proceedings of the EDBT/ICDT 2014 Joint"
        " Conference},",
        "  pages = {87--91},",
        "  year = {2014},",
        f"  url = {{{REPOSITORY_URL}}},",
        "}",
    ])


def archive_manuscript(store: StorageBackend,
                       query=None) -> dict[str, object]:
    """Assemble the archival snapshot the paper anticipates (§5.2).

    "Collect the most recent versions of all of the examples in it into a
    manuscript (with all authors and reviewers named)".  Returns a dict
    with the sorted contributor lists and the latest entry snapshots,
    ready for rendering or citation.

    ``query`` optionally narrows the manuscript to a slice of the
    collection via the unified query API (e.g. ``Q.reviewed()`` for an
    archive of only the approved examples); selection is in identifier
    order, matching the unfiltered listing.
    """
    if query is None:
        entries = store.get_many(store.identifiers())
    else:
        from repro.repository.query import plan

        entries = [hit.entry
                   for hit in store.execute_query(
                       plan(query, sort="identifier")).hits]
    authors = sorted({name for entry in entries for name in entry.authors})
    reviewers = sorted({name for entry in entries
                        for name in entry.reviewers})
    return {
        "title": "The Bx Examples Repository: Archival Snapshot",
        "authors": authors,
        "reviewers": reviewers,
        "entries": entries,
        "entry_count": len(entries),
    }


def cite_archive(store: StorageBackend, style: str = "plain",
                 year: str = "2014") -> str:
    """Cite the archival snapshot of the whole repository."""
    _check_style(style)
    manuscript = archive_manuscript(store)
    authors = _authors_text(tuple(manuscript["authors"]))  # type: ignore[arg-type]
    count = manuscript["entry_count"]
    if style == "plain":
        return (f"{authors}. “{manuscript['title']}” "
                f"({count} examples). {REPOSITORY_URL}")
    return "\n".join([
        "@techreport{bx-examples-archive,",
        f"  author = {{{' and '.join(manuscript['authors'])}}},",  # type: ignore[arg-type]
        f"  title = {{{manuscript['title']}}},",
        f"  note = {{{count} examples}},",
        f"  url = {{{REPOSITORY_URL}}},",
        f"  year = {{{year}}},",
        "}",
    ])
