"""The unified query API: one typed, composable retrieval surface.

§5.2 of the paper asks whether people "will be able to find and refer
to relevant examples".  The answer grew in pieces — ranked free-text
``search()``, disconnected structured filters (``by_type``,
``by_property``, ``by_author``) — each materialising every entry in
Python regardless of backend.  This module replaces them with one
composable surface:

* a **query AST** built from :class:`Q` factories and combined with
  ``&`` / ``|`` / ``~``::

      Q.text("tree sync") & Q.type(EntryType.PRECISE) & ~Q.author("Ann")

* a **plan** (:func:`plan`) adding sort order and offset/limit
  pagination;
* a **result** (:class:`QueryResult`) carrying the page of ranked
  hits, the total match count, and facet counts over *all* matches;
* a shared, deterministic **evaluator** (:func:`evaluate_plan`) used by
  every backend that has no cheaper native plan, plus the merge logic
  (:func:`merge_results`) the sharded fan-out uses to reassemble
  globally correct pages from per-shard partial results;
* a **wire codec** (:func:`query_to_dict` / :func:`query_from_dict`,
  and the companion plan/stats/result pairs) turning every piece of a
  retrieval round-trip into JSON-ready plain dicts — what the HTTP
  serving layer (``repro.repository.server`` /
  ``repro.repository.client``) ships over the network: the shared
  schema walk (:mod:`repro.repository.schema`), with nodes tagged by
  ``op``.  Any malformed value fails loudly with
  :class:`~repro.core.errors.StorageError` naming its path.

Execution lives behind ``StorageBackend.execute_query`` so each backend
does the work where it is cheapest: SQLite compiles the filter tree to
SQL over indexed metadata tables and decodes only the page of payloads
it returns; the sharded backend fans out with *global* corpus
statistics and merge-sorts ranked partials; the replicated backend
routes to a healthy replica; everything else evaluates here, in Python,
over an inverted index.

Determinism is a design requirement: every backend must return the
*identical* :class:`QueryResult` for the same plan (the conformance
suite asserts it).  That pins down:

* **matching** — ``Q.text`` matches an entry containing *any* query
  term (OR, like the historical ``search()``); a text atom whose terms
  are all stopwords matches nothing; structured atoms match exactly
  (case-sensitive); ``~q`` matches the complement; ``&``/``|`` are
  boolean;
* **ranking** — only text atoms in *positive* position contribute
  score: the sum over their terms, in AST order, of
  ``idf(term) * weight(entry, term)`` where the weight is the
  field-boosted term frequency of :func:`entry_terms` and
  :func:`inverse_document_frequency` is computed from corpus-global
  statistics (:class:`QueryStats`) — the sharded path distributes the
  global stats so shard-local scores equal single-store scores;
* **order** — ``sort="relevance"`` is ``(-score, identifier)``;
  ``sort="identifier"`` is ascending identifier; ties cannot occur
  because identifiers are unique;
* **pagination** — ``offset``/``limit`` slice the sorted match list;
  ``total`` and ``facets`` always describe the full match set, so page
  ten of a result still reports the same totals as page one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from repro.core.errors import StorageError
from repro.repository.entry import ExampleEntry
from repro.repository.schema import wire
from repro.repository.template import EntryType

__all__ = [
    "Q",
    "Query",
    "QueryPlan",
    "QueryResult",
    "QueryStats",
    "SearchHit",
    "SORT_ORDERS",
    "collect_positive_terms",
    "collect_terms",
    "entry_terms",
    "evaluate_plan",
    "inverse_document_frequency",
    "matches_entry",
    "merge_results",
    "plan",
    "plan_from_dict",
    "plan_to_dict",
    "query_from_dict",
    "query_to_dict",
    "result_from_dict",
    "result_to_dict",
    "stats_from_dict",
    "stats_to_dict",
    "tokenize",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to be informative in this domain.
STOPWORDS = frozenset(
    "a an and are be been between by for from has have in is it its of on "
    "or that the this to we with".split()
)

#: Per-field score boosts: a title hit outranks a discussion hit.
FIELD_BOOSTS = (
    ("title", 4.0),
    ("overview", 2.0),
    ("models", 1.5),
    ("consistency", 1.0),
    ("discussion", 1.0),
)

#: The supported sort orders for a :class:`QueryPlan`.
SORT_ORDERS = ("relevance", "identifier")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens with stopwords removed."""
    return [
        token
        for token in _TOKEN_RE.findall(text.lower())
        if token not in STOPWORDS
    ]


def entry_terms(entry: ExampleEntry) -> dict[str, float]:
    """Aggregated, field-boosted term weights for one entry.

    This is the single definition of an entry's indexable text, shared
    by the in-memory :class:`~repro.repository.search.SearchIndex` and
    the SQLite terms table, so every execution path scores from
    identical weights.  Fields are visited in the fixed
    :data:`FIELD_BOOSTS` order, which also fixes the floating-point
    summation order.
    """
    fields = {
        "title": entry.title,
        "overview": entry.overview,
        "models": " ".join(
            f"{model.name} {model.description}" for model in entry.models
        ),
        "consistency": entry.consistency,
        "discussion": entry.discussion,
    }
    weights: dict[str, float] = {}
    for field_name, boost in FIELD_BOOSTS:
        for token in tokenize(fields[field_name]):
            weights[token] = weights.get(token, 0.0) + boost
    return weights


def inverse_document_frequency(document_frequency: int,
                               document_count: int) -> float:
    """Smoothed IDF: ubiquitous terms weigh ~1, rare terms weigh more.

    ``ln((N + 1) / (df + 1)) + 1`` — always positive, defined for
    ``df = 0``, and equal to 1.0 for a term present in every document,
    so a corpus-wide word (e.g. "model") can no longer dominate ranking
    the way raw term frequency let it.
    """
    return math.log((document_count + 1) / (document_frequency + 1)) + 1.0


# ----------------------------------------------------------------------
# The AST.
# ----------------------------------------------------------------------


class Query:
    """Base of the query AST; composes with ``&``, ``|`` and ``~``.  Each
    node class names its wire tag in ``op``."""

    # A chain built with the operators extends one node, so it is as
    # deep as the flat ``And``/``Or`` of the same parts, not as long.

    def __and__(self, other: "Query") -> "Query":
        return And((self.parts if isinstance(self, And) else (self,))
                   + (other,))

    def __or__(self, other: "Query") -> "Query":
        return Or((self.parts if isinstance(self, Or) else (self,))
                  + (other,))

    def __invert__(self) -> "Query":
        return Not(self)


@dataclass(frozen=True)
class All(Query):
    """Matches every entry (the identity for ``&``)."""

    op: ClassVar[str] = "all"


@dataclass(frozen=True)
class Text(Query):
    """Free-text atom: matches entries containing *any* of the terms.

    The terms are the tokenized query string; an atom with no effective
    terms (all stopwords) matches nothing.  Text atoms are also what
    contributes relevance score — see the module docstring.
    """

    op: ClassVar[str] = "text"
    terms: tuple[str, ...]


@dataclass(frozen=True)
class TypeIs(Query):
    """Entries whose Type field includes the given class."""

    op: ClassVar[str] = "type"
    entry_type: EntryType = field(metadata={"key": "type"})


@dataclass(frozen=True)
class HasProperty(Query):
    """Entries claiming a property, optionally with a given polarity."""

    op: ClassVar[str] = "property"
    name: str
    holds: bool | None = None


@dataclass(frozen=True)
class ByAuthor(Query):
    """Entries a given author contributed (exact name match)."""

    op: ClassVar[str] = "author"
    author: str


@dataclass(frozen=True)
class IsReviewed(Query):
    """Entries at version >= 1.0 (``True``) or still 0.x (``False``)."""

    op: ClassVar[str] = "reviewed"
    reviewed: bool = True


@dataclass(frozen=True)
class And(Query):
    op: ClassVar[str] = "and"
    parts: tuple[Query, ...]


@dataclass(frozen=True)
class Or(Query):
    op: ClassVar[str] = "or"
    parts: tuple[Query, ...]


@dataclass(frozen=True)
class Not(Query):
    op: ClassVar[str] = "not"
    part: Query


class Q:
    """Factory namespace for query atoms — the public spelling.

    >>> from repro.repository.template import EntryType
    >>> q = Q.text("composers") & Q.type(EntryType.PRECISE)
    >>> isinstance(q, Query)
    True
    """

    @staticmethod
    def all() -> Query:
        return All()

    @staticmethod
    def text(text: str) -> Query:
        return Text(tuple(tokenize(text)))

    @staticmethod
    def type(entry_type: EntryType) -> Query:
        return TypeIs(entry_type)

    @staticmethod
    def property(name: str, holds: bool | None = None) -> Query:
        return HasProperty(name, holds)

    @staticmethod
    def author(author: str) -> Query:
        return ByAuthor(author)

    @staticmethod
    def reviewed() -> Query:
        return IsReviewed(True)

    @staticmethod
    def provisional() -> Query:
        return IsReviewed(False)


def collect_terms(query: Query) -> list[str]:
    """Every text term in the tree, in AST order (with repeats)."""
    terms: list[str] = []
    _walk_terms(query, terms, positive_only=False, positive=True)
    return terms


def collect_positive_terms(query: Query) -> list[str]:
    """Text terms in *positive* position, in AST order (with repeats).

    These are the score-contributing terms: a term under an odd number
    of ``~`` only filters, it never ranks.
    """
    terms: list[str] = []
    _walk_terms(query, terms, positive_only=True, positive=True)
    return terms


def _walk_terms(query: Query, out: list[str], *, positive_only: bool,
                positive: bool) -> None:
    if isinstance(query, Text):
        if positive or not positive_only:
            out.extend(query.terms)
    elif isinstance(query, (And, Or)):
        for part in query.parts:
            _walk_terms(part, out, positive_only=positive_only,
                        positive=positive)
    elif isinstance(query, Not):
        _walk_terms(query.part, out, positive_only=positive_only,
                    positive=not positive)


# ----------------------------------------------------------------------
# Plans, stats, results.
# ----------------------------------------------------------------------


#: The largest filter tree a plan takes, in nodes along one path and in
#: all, so that every backend runs every tree it takes.  SQLite 3.40's
#: parser stack overflows on a right-nested ``Or((atom, Or(...)))`` 28
#: nodes deep, and an ``Or`` of 1000 atoms passes its expression limit.
MAX_QUERY_DEPTH = 24
MAX_QUERY_NODES = 256


def _check_tree(where: Query) -> None:
    """Refuse a tree past either bound, level by level, not recursively."""
    level, depth, nodes = [where], 0, 0
    while level:
        depth, nodes = depth + 1, nodes + len(level)
        if depth > MAX_QUERY_DEPTH or nodes > MAX_QUERY_NODES:
            raise StorageError(
                f"query tree is deeper than {MAX_QUERY_DEPTH} nodes or "
                f"larger than {MAX_QUERY_NODES}")
        level = [part for node in level for part in (
            node.parts if isinstance(node, (And, Or))
            else (node.part,) if isinstance(node, Not) else ())]


@dataclass(frozen=True)
class QueryPlan:
    """One executable retrieval request: filter tree + order + page."""

    where: Query = All()
    sort: str = "relevance"
    offset: int = 0
    limit: int | None = None

    def __post_init__(self) -> None:
        _check_tree(self.where)
        if self.sort not in SORT_ORDERS:
            raise StorageError(
                f"unknown sort order {self.sort!r}; "
                f"known: {', '.join(SORT_ORDERS)}")
        if self.offset < 0:
            raise StorageError(f"offset must be >= 0, got {self.offset}")
        if self.limit is not None and self.limit < 0:
            raise StorageError(f"limit must be >= 0, got {self.limit}")

    def page_end(self) -> int | None:
        """The exclusive end of the page, or None for unbounded."""
        if self.limit is None:
            return None
        return self.offset + self.limit


def plan(query: Query | str | None = None, *, sort: str = "relevance",
         offset: int = 0, limit: int | None = None) -> QueryPlan:
    """Build a :class:`QueryPlan`; a bare string means ``Q.text``."""
    if query is None:
        query = All()
    elif isinstance(query, str):
        query = Q.text(query)
    return QueryPlan(query, sort, offset, limit)


@dataclass(frozen=True)
class QueryStats:
    """Corpus-global statistics the ranker needs: N and per-term df.

    The sharded backend aggregates these across shards *before* fanning
    the plan out, so shard-local scoring uses global IDF and per-shard
    scores are directly comparable (and equal to a single store's).
    """

    document_count: int
    document_frequency: dict[str, int] = field(default_factory=dict)
    _idf_cache: dict = field(default_factory=dict, init=False,
                             compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.document_count < 0 or not all(
                0 <= count <= self.document_count
                for count in self.document_frequency.values()):
            raise StorageError(
                "query stats need 0 <= document frequency <= document_count")

    def idf(self, term: str) -> float:
        cached = self._idf_cache.get(term)
        if cached is None:
            cached = inverse_document_frequency(
                self.document_frequency.get(term, 0), self.document_count)
            self._idf_cache[term] = cached
        return cached

    @staticmethod
    def merge(parts: "Iterable[QueryStats]") -> "QueryStats":
        """Sum stats from disjoint sub-corpora (shards)."""
        document_count = 0
        document_frequency: dict[str, int] = {}
        for part in parts:
            document_count += part.document_count
            for term, count in part.document_frequency.items():
                document_frequency[term] = (
                    document_frequency.get(term, 0) + count)
        return QueryStats(document_count, document_frequency)


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: identifier, score, and the matched entry.

    (Historically defined in :mod:`repro.repository.search`, which
    still re-exports it.)
    """

    identifier: str
    score: float
    entry: ExampleEntry


#: The facet groups every result carries (possibly with empty dicts).
FACET_GROUPS = ("type", "property", "author", "review")


@dataclass(frozen=True)
class QueryResult:
    """One page of ranked hits plus whole-match-set statistics."""

    hits: tuple[SearchHit, ...]
    total: int
    facets: dict[str, dict[str, int]]

    def __post_init__(self) -> None:
        for group in FACET_GROUPS:
            self.facets.setdefault(group, {})

    @property
    def identifiers(self) -> list[str]:
        return [hit.identifier for hit in self.hits]

    @property
    def entries(self) -> list[ExampleEntry]:
        return [hit.entry for hit in self.hits]

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self):
        return iter(self.hits)


def property_facet_label(name: str, holds: bool) -> str:
    """The facet bucket of one property claim: "correct" / "not undoable"."""
    return name if holds else f"not {name}"


def review_facet_label(reviewed: bool) -> str:
    """The facet bucket of a review state: "reviewed" / "provisional"."""
    return "reviewed" if reviewed else "provisional"


def facet_entry(facets: dict[str, dict[str, int]],
                entry: ExampleEntry) -> None:
    """Count one matching entry into every facet group.

    Each entry counts at most once per bucket (types, property claims
    and authors are de-duplicated), matching what the SQL path's
    primary-keyed metadata tables produce.
    """
    bucket = facets["type"]
    for entry_type in dict.fromkeys(entry.types):
        bucket[entry_type.value] = bucket.get(entry_type.value, 0) + 1
    bucket = facets["property"]
    labels = dict.fromkeys(property_facet_label(claim.name, claim.holds)
                           for claim in entry.properties)
    for label in labels:
        bucket[label] = bucket.get(label, 0) + 1
    bucket = facets["author"]
    for author in dict.fromkeys(entry.authors):
        bucket[author] = bucket.get(author, 0) + 1
    review = review_facet_label(entry.version.is_reviewed)
    facets["review"][review] = facets["review"].get(review, 0) + 1


def empty_facets() -> dict[str, dict[str, int]]:
    return {group: {} for group in FACET_GROUPS}


def merge_facets(parts: Iterable[dict[str, dict[str, int]]],
                 ) -> dict[str, dict[str, int]]:
    """Sum facet counts from disjoint sub-corpora (shards)."""
    merged = empty_facets()
    for part in parts:
        for group, buckets in part.items():
            target = merged.setdefault(group, {})
            for label, count in buckets.items():
                target[label] = target.get(label, 0) + count
    return merged


# ----------------------------------------------------------------------
# Matching and the shared evaluator.
# ----------------------------------------------------------------------


def matches_entry(query: Query, entry: ExampleEntry,
                  has_term: Callable[[str], bool]) -> bool:
    """Boolean evaluation of the filter tree over one entry.

    ``has_term(term)`` answers whether *this* entry contains the term
    (callers close over an inverted index or a per-entry weight map).
    """
    if isinstance(query, All):
        return True
    if isinstance(query, Text):
        return any(has_term(term) for term in query.terms)
    if isinstance(query, TypeIs):
        return query.entry_type in entry.types
    if isinstance(query, HasProperty):
        return any(
            claim.name == query.name
            and (query.holds is None or claim.holds == query.holds)
            for claim in entry.properties)
    if isinstance(query, ByAuthor):
        return query.author in entry.authors
    if isinstance(query, IsReviewed):
        return entry.version.is_reviewed == query.reviewed
    if isinstance(query, And):
        return all(matches_entry(part, entry, has_term)
                   for part in query.parts)
    if isinstance(query, Or):
        return any(matches_entry(part, entry, has_term)
                   for part in query.parts)
    if isinstance(query, Not):
        return not matches_entry(query.part, entry, has_term)
    raise StorageError(f"unknown query node {type(query).__name__}")


def score_entry(positive_terms: Sequence[str], stats: QueryStats,
                weights: Mapping[str, float]) -> float:
    """IDF-weighted score of one entry; summation order is fixed."""
    score = 0.0
    for term in positive_terms:
        weight = weights.get(term)
        if weight:
            score += stats.idf(term) * weight
    return score


def corpus_stats(index, terms: Sequence[str]) -> QueryStats:
    """Document count and per-term document frequency from an index."""
    frequency = {term: len(index.term_postings(term))
                 for term in dict.fromkeys(terms)}
    return QueryStats(index.document_count(), frequency)


def evaluate_plan(index, query_plan: QueryPlan,
                  stats: QueryStats | None = None) -> QueryResult:
    """Execute a plan over any index-shaped object, deterministically.

    ``index`` needs ``document_count()``, ``latest_entries()`` and
    ``term_postings(term)`` — the shape of
    :class:`~repro.repository.search.SearchIndex`, the one index class.
    ``stats`` defaults to this index's own corpus statistics; the
    sharded fan-out passes global ones instead.
    """
    positive_terms = collect_positive_terms(query_plan.where)
    if stats is None:
        stats = corpus_stats(index, collect_terms(query_plan.where))

    matched: list[tuple[float, str, ExampleEntry]] = []
    facets = empty_facets()
    for identifier, entry in index.latest_entries().items():
        def has_term(term: str, identifier: str = identifier) -> bool:
            return identifier in index.term_postings(term)

        if not matches_entry(query_plan.where, entry, has_term):
            continue
        weights = {term: index.term_postings(term).get(identifier, 0.0)
                   for term in dict.fromkeys(positive_terms)}
        matched.append((score_entry(positive_terms, stats, weights),
                        identifier, entry))
        facet_entry(facets, entry)

    matched.sort(key=_sort_key(query_plan.sort))
    page = matched[query_plan.offset:query_plan.page_end()]
    hits = tuple(SearchHit(identifier, score, entry)
                 for score, identifier, entry in page)
    return QueryResult(hits=hits, total=len(matched), facets=facets)


def _sort_key(sort: str):
    if sort == "identifier":
        return lambda item: item[1]
    return lambda item: (-item[0], item[1])


def merge_results(parts: Sequence[QueryResult],
                  query_plan: QueryPlan) -> QueryResult:
    """Reassemble per-shard partial results into one global page.

    Each part must have been produced for the *same* filter and sort
    with ``offset=0`` and a limit of at least this plan's
    ``offset + limit`` (or unbounded), so the global page is fully
    contained in the union of the partial pages.  Totals and facets are
    additive because shards hold disjoint identifiers.
    """
    pooled = [(hit.score, hit.identifier, hit.entry)
              for part in parts for hit in part.hits]
    pooled.sort(key=_sort_key(query_plan.sort))
    page = pooled[query_plan.offset:query_plan.page_end()]
    hits = tuple(SearchHit(identifier, score, entry)
                 for score, identifier, entry in page)
    return QueryResult(
        hits=hits,
        total=sum(part.total for part in parts),
        facets=merge_facets(part.facets for part in parts),
    )


# ----------------------------------------------------------------------
# The wire codec: every piece of a retrieval round-trip as plain dicts.
# ----------------------------------------------------------------------


query_to_dict, query_from_dict = wire(Query, "query", StorageError)
plan_to_dict, plan_from_dict = wire(QueryPlan, "query plan", StorageError)
stats_to_dict, stats_from_dict = wire(QueryStats, "query stats",
                                      StorageError)
result_to_dict, result_from_dict = wire(QueryResult, "query result",
                                        StorageError)
