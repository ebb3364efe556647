"""The unified query API: AST, evaluator semantics, IDF ranking,
the lazily built index, and the consumers wired through it."""

from __future__ import annotations

import functools
import json
import operator

import pytest

from repro.core.errors import StorageError
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
)
from repro.repository.citation import archive_manuscript
from repro.repository.curation import CuratedRepository
from repro.repository.export import render_repository_markdown
from repro.repository.query import (
    And,
    HasProperty,
    Not,
    Or,
    Q,
    QueryStats,
    Text,
    collect_positive_terms,
    collect_terms,
    entry_terms,
    inverse_document_frequency,
    plan,
    plan_from_dict,
    plan_to_dict,
    query_from_dict,
    query_to_dict,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
    tokenize,
)
from repro.repository.entry import ModelDescription
from repro.repository.search import SearchIndex
from repro.repository.service import RepositoryService
from repro.repository.template import EntryType
from repro.repository.versioning import Version
from repro.repository.wiki_sync import render_wiki_pages
from tests.repository.test_entry import minimal_entry


def corpus_service(entries) -> RepositoryService:
    service = RepositoryService(MemoryBackend())
    service.add_many(entries)
    return service


class TestAst:
    def test_q_builders_and_combinators(self):
        q = Q.text("tree sync") & Q.type(EntryType.PRECISE)
        assert isinstance(q, And)
        q = Q.property("correct", holds=False) | ~Q.author("Ann")
        assert isinstance(q, Or)
        assert isinstance(q.parts[1], Not)
        assert q.parts[0] == HasProperty("correct", False)

    def test_text_tokenises_its_query(self):
        assert Q.text("The Tree, and the SYNC!") == Text(("tree", "sync"))

    def test_collect_terms_polarity(self):
        q = Q.text("alpha") & ~Q.text("beta") & ~~Q.text("gamma")
        assert collect_terms(q) == ["alpha", "beta", "gamma"]
        assert collect_positive_terms(q) == ["alpha", "gamma"]

    def test_plan_accepts_string_and_none(self):
        assert plan("tree").where == Text(("tree",))
        assert plan(None).where == Q.all()

    def test_plan_validation(self):
        with pytest.raises(StorageError, match="sort"):
            plan(Q.all(), sort="shoe-size")
        with pytest.raises(StorageError, match="offset"):
            plan(Q.all(), offset=-1)
        with pytest.raises(StorageError, match="limit"):
            plan(Q.all(), limit=-2)

    def test_entry_terms_field_boosts(self):
        entry = minimal_entry(title="ZYGOTE STUDY",
                              overview="A zygote appears.",
                              discussion="zygote zygote")
        weights = entry_terms(entry)
        # title(4) + overview(2) + discussion(2 * 1)
        assert weights["zygote"] == pytest.approx(8.0)

    def test_tokenize_is_reexported_unchanged(self):
        assert tokenize("The Models of a Tree") == ["models", "tree"]


#: Thirty atoms per chain: past ``MAX_QUERY_DEPTH`` if each operator
#: nested a new node.
CHAIN_ATOMS = {
    "or": (operator.or_, Or, [Q.author(f"a{index}") for index in range(30)]),
    "and": (operator.and_, And,
            [~Q.author(f"a{index}") for index in range(30)]),
}


class TestOperatorChains:
    """``a & b & c`` extends one ``And``: a chain built with the
    operators is the flat node, however long."""

    @pytest.mark.parametrize("op", sorted(CHAIN_ATOMS))
    def test_a_chain_is_the_flat_node(self, op):
        combine, node, atoms = CHAIN_ATOMS[op]
        chained = functools.reduce(combine, atoms)
        assert chained == node(tuple(atoms))
        assert plan(chained) == plan(node(tuple(atoms)))

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("op", sorted(CHAIN_ATOMS))
    def test_a_chain_answers_like_the_flat_node(self, op, kind, tmp_path):
        combine, node, atoms = CHAIN_ATOMS[op]
        backend = (MemoryBackend() if kind == "memory"
                   else open_durable(kind, tmp_path))
        service = RepositoryService(backend)
        service.add_many([minimal_entry(title=f"ENTRY {index}",
                                        authors=(f"a{index * 20}",))
                          for index in range(3)])
        try:
            chained = service.query(functools.reduce(combine, atoms),
                                    sort="identifier")
            flat = service.query(node(tuple(atoms)), sort="identifier")
        finally:
            service.close()
        assert chained == flat
        # a0 and a20 are among the atoms, a40 is not.
        assert chained.identifiers == (["entry-0", "entry-1"] if op == "or"
                                       else ["entry-2"])

    def test_a_nested_operand_stays_a_part(self):
        inner = Q.author("a") | Q.author("b")
        query = Q.text("tree") & inner & Q.provisional()
        assert query == And((Q.text("tree"), inner, Q.provisional()))


class TestWireCodec:
    """The Q-AST / plan / stats / result JSON round-trip the serving
    layer ships (see repro.repository.server / client)."""

    ATOMS = [
        Q.all(),
        Q.text("tree sync"),
        Q.text("the of"),  # all stopwords: empty terms survive the wire
        Q.type(EntryType.INDUSTRIAL),
        Q.property("correct"),
        Q.property("undoable", holds=False),
        Q.author("Ann B."),
        Q.reviewed(),
        Q.provisional(),
    ]

    def test_every_atom_round_trips(self):
        for query in self.ATOMS:
            wired = query_to_dict(query)
            assert json.loads(json.dumps(wired)) == wired  # JSON-ready
            assert query_from_dict(wired) == query

    def test_nested_composition_round_trips(self):
        query = (Q.text("tree") & ~(Q.author("Ann") | Q.reviewed())
                 & Q.property("correct", holds=True)) | Q.text("graph")
        assert query_from_dict(query_to_dict(query)) == query

    def test_plan_round_trips(self):
        original = plan(Q.text("tree") & Q.provisional(),
                        sort="identifier", offset=4, limit=9)
        rebuilt = plan_from_dict(json.loads(
            json.dumps(plan_to_dict(original))))
        assert rebuilt == original
        unbounded = plan_from_dict(plan_to_dict(plan("tree")))
        assert unbounded.limit is None

    def test_plan_defaults_apply(self):
        rebuilt = plan_from_dict({"where": {"op": "all"}})
        assert rebuilt == plan(None)

    def test_plan_validators_rerun_on_decode(self):
        with pytest.raises(StorageError, match="sort"):
            plan_from_dict({"where": {"op": "all"}, "sort": "shoe-size"})
        with pytest.raises(StorageError, match="offset"):
            plan_from_dict({"where": {"op": "all"}, "offset": "ten"})

    def test_unknown_op_fails_loudly(self):
        with pytest.raises(StorageError, match="unknown query op"):
            query_from_dict({"op": "regex", "pattern": ".*"})
        # A bare string iterates per character — must be rejected, not
        # silently decoded as ('t','r','e','e').
        with pytest.raises(StorageError, match="list of strings"):
            query_from_dict({"op": "text", "terms": "tree"})
        # bool("false") is True — strings must not coerce silently.
        with pytest.raises(StorageError, match="boolean"):
            query_from_dict({"op": "reviewed", "reviewed": "false"})
        with pytest.raises(StorageError, match="string"):
            query_from_dict({"op": "author", "author": 123})
        with pytest.raises(StorageError, match="string"):
            query_from_dict({"op": "property", "name": 7})
        with pytest.raises(StorageError, match="not an object"):
            query_from_dict(["op", "all"])
        with pytest.raises(StorageError, match="malformed"):
            query_from_dict({"op": "type", "type": "no-such-type"})
        with pytest.raises(StorageError, match="malformed"):
            query_from_dict({"op": "and"})  # parts missing

    def test_stats_round_trip(self):
        stats = QueryStats(7, {"tree": 3, "sync": 1})
        rebuilt = stats_from_dict(json.loads(
            json.dumps(stats_to_dict(stats))))
        assert rebuilt.document_count == 7
        assert rebuilt.document_frequency == {"tree": 3, "sync": 1}
        assert rebuilt.idf("tree") == stats.idf("tree")

    def test_result_round_trips_with_exact_scores(self):
        service = corpus_service([
            minimal_entry(title=f"ENTRY {index}",
                          overview=f"About trees, variant {index}.")
            for index in range(5)
        ])
        result = service.query("trees variant", limit=3)
        rebuilt = result_from_dict(json.loads(
            json.dumps(result_to_dict(result))))
        assert rebuilt.total == result.total
        assert rebuilt.facets == result.facets
        assert [hit.identifier for hit in rebuilt.hits] == \
            [hit.identifier for hit in result.hits]
        # Exact, not approx: JSON floats survive the round-trip.
        assert [hit.score for hit in rebuilt.hits] == \
            [hit.score for hit in result.hits]
        assert [hit.entry for hit in rebuilt.hits] == \
            [hit.entry for hit in result.hits]

    def test_result_decode_rejects_junk(self):
        with pytest.raises(StorageError, match="not an object"):
            result_from_dict(None)
        with pytest.raises(StorageError, match="malformed query result"):
            result_from_dict({"hits": [{"identifier": "x"}],
                              "total": 1, "facets": {}})


class TestMatching:
    @pytest.fixture()
    def service(self):
        return corpus_service([
            minimal_entry(title="ALPHA", overview="A tree walk.",
                          types=(EntryType.PRECISE,),
                          authors=("Ann", "Bob")),
            minimal_entry(title="BETA", overview="Graphs and lattices.",
                          types=(EntryType.SKETCH,),
                          properties=(), authors=("Cleo",)),
            minimal_entry(title="GAMMA", overview="A tree of graphs.",
                          types=(EntryType.PRECISE, EntryType.INDUSTRIAL),
                          version=Version(1, 0), reviewers=("Rex",),
                          authors=("Ann",)),
        ])

    def test_text_is_or_of_terms(self, service):
        assert service.query(Q.text("tree lattices"),
                             sort="identifier").identifiers == \
            ["alpha", "beta", "gamma"]

    def test_all_stopword_text_matches_nothing(self, service):
        assert service.query(Q.text("the and of")).total == 0

    def test_structured_atoms(self, service):
        assert service.query(Q.type(EntryType.SKETCH)).identifiers == \
            ["beta"]
        assert service.query(Q.author("Ann"),
                             sort="identifier").identifiers == \
            ["alpha", "gamma"]
        assert service.query(Q.property("correct")).total == 2
        assert service.query(Q.property("correct", holds=False)).total == 0
        assert service.query(Q.reviewed()).identifiers == ["gamma"]
        assert service.query(Q.provisional(),
                             sort="identifier").identifiers == \
            ["alpha", "beta"]

    def test_boolean_composition(self, service):
        q = Q.text("tree") & ~Q.type(EntryType.INDUSTRIAL)
        assert service.query(q).identifiers == ["alpha"]
        q = Q.type(EntryType.SKETCH) | Q.reviewed()
        assert service.query(q, sort="identifier").identifiers == \
            ["beta", "gamma"]

    def test_negated_text_filters_without_ranking(self, service):
        result = service.query(~Q.text("tree"), sort="identifier")
        assert result.identifiers == ["beta"]
        assert result.hits[0].score == 0.0

    def test_default_query_is_everything(self, service):
        assert service.query().total == 3

    def test_facets_cover_all_matches(self, service):
        result = service.query(Q.text("tree"), limit=1)
        assert result.total == 2
        assert result.facets["type"] == {"PRECISE": 2, "INDUSTRIAL": 1}
        assert result.facets["author"] == {"Ann": 2, "Bob": 1}
        assert result.facets["review"] == {"provisional": 1, "reviewed": 1}
        assert result.facets["property"] == {"correct": 2}

    def test_pagination_slices_but_totals_do_not_change(self, service):
        everything = service.query(sort="identifier")
        page = service.query(sort="identifier", offset=1, limit=1)
        assert page.identifiers == everything.identifiers[1:2]
        assert page.total == everything.total == 3
        assert page.facets == everything.facets
        assert service.query(offset=99).identifiers == []
        assert service.query(limit=0).identifiers == []


class TestIdfRanking:
    """The satellite regression: ubiquitous terms stop dominating."""

    def test_idf_formula(self):
        assert inverse_document_frequency(10, 10) == pytest.approx(1.0)
        assert inverse_document_frequency(0, 10) > 3.0

    def test_rare_on_topic_term_outranks_ubiquitous_filler(self):
        # "model" appears in every entry; only "lattice" discriminates.
        # generic has "model" twice in its *title* (old TF scoring:
        # weight 8, unbeatable); on-topic has the rare term in its
        # overview only (TF weight 4 in total).
        # The default models field mentions "model" too; neutralise it
        # so the weights are exactly the crafted ones.
        plain = (ModelDescription("M", "Left side."),
                 ModelDescription("N", "Right side."))
        filler = [minimal_entry(title=f"FILLER {index}", models=plain,
                                overview="A model in passing.")
                  for index in range(16)]
        generic = minimal_entry(title="MODEL MODEL OVERVIEW",
                                models=plain,
                                overview="Generic filler text.")
        on_topic = minimal_entry(title="TOPIC", models=plain,
                                 overview="A lattice model.")
        service = corpus_service(filler + [generic, on_topic])

        hits = service.query(Q.text("lattice model")).hits
        assert hits[0].identifier == "topic"
        # ...whereas raw TF would have ranked the title-stuffed entry
        # first: its "model" weight alone beats the on-topic entry's
        # combined query-term weights.
        generic_tf = entry_terms(generic).get("model", 0.0)
        topic_weights = entry_terms(on_topic)
        topic_tf = (topic_weights.get("model", 0.0)
                    + topic_weights.get("lattice", 0.0))
        assert generic_tf > topic_tf

    def test_search_index_search_is_idf_weighted(self):
        index = SearchIndex()
        for position in range(16):
            index.add_entry(minimal_entry(title=f"FILLER {position}",
                                          overview="A model in passing."))
        index.add_entry(minimal_entry(title="COMMON",
                                      overview="model model model"))
        index.add_entry(minimal_entry(title="RARE",
                                      overview="a single zygote model"))
        hits = index.search("zygote model", limit=2)
        # Raw TF scores COMMON 6.0 vs RARE 4.0; IDF flips them.
        assert [hit.identifier for hit in hits] == ["rare", "common"]


class TestChangeCounters:
    def test_memory_has_no_durable_counter(self):
        """A fresh process's fresh MemoryBackend restarts any counter,
        so an ephemeral count could falsely validate an old change
        token — the only safe answer is None (the facade then mints
        its own per-instance token)."""
        backend = MemoryBackend()
        backend.add(minimal_entry())
        assert backend.change_counter() is None

    @pytest.mark.parametrize("kind", ["file", "sqlite-memory", "sqlite"])
    def test_counter_increases_on_every_write(self, kind, tmp_path):
        """Every write kind commits as one write group: one transaction
        and one bump over SQLite, one bump-rename-bump pair of counter
        writes over files (for a whole ``add_many`` too)."""
        if kind == "file":
            backend, unit = FileBackend(tmp_path / "repo"), 2
        elif kind == "sqlite-memory":
            backend, unit = SQLiteBackend(), 1
        else:
            backend, unit = SQLiteBackend(tmp_path / "repo.db"), 1
        seen = [backend.change_counter()]

        def bumped():
            seen.append(backend.change_counter())
            assert seen[-1] == seen[-2] + unit

        backend.add(minimal_entry())
        bumped()
        backend.add_version(minimal_entry(version=Version(0, 2)))
        bumped()
        backend.replace_latest(minimal_entry(version=Version(0, 2),
                                             overview="Patched."))
        bumped()
        backend.add_many([minimal_entry(title="OTHER"),
                          minimal_entry(title="THIRD")])
        bumped()
        assert backend.entry_count() == 3
        backend.close()

    def test_durable_counters_survive_reopen(self, tmp_path):
        backend = FileBackend(tmp_path / "files")
        backend.add(minimal_entry())
        counter = backend.change_counter()
        assert FileBackend(tmp_path / "files").change_counter() == counter

        with SQLiteBackend(tmp_path / "repo.db") as db:
            db.add(minimal_entry())
            counter = db.change_counter()
        with SQLiteBackend(tmp_path / "repo.db") as db:
            assert db.change_counter() == counter


class TestLazyEnable:
    def test_query_lazily_enables_index_on_plain_backends(self):
        service = RepositoryService(MemoryBackend())
        service.add(minimal_entry())
        assert service.search_index is None
        assert service.query("demo").total == 1
        assert service.search_index is not None  # enabled on first use

    def test_query_pushes_down_without_an_index(self, tmp_path):
        service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
        service.add(minimal_entry())
        assert service.query("demo").total == 1
        assert service.search_index is None  # SQL did the work
        service.close()



def open_durable(kind: str, tmp_path):
    if kind == "file":
        return FileBackend(tmp_path / "repo")
    return SQLiteBackend(tmp_path / "repo.db")


class TestColdStart:
    """Nothing about the index outlives a service: a new one answers
    from what the backend holds, so it is never stale after a restart
    or a write it did not see."""

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_new_service_sees_a_foreign_write(self, kind, tmp_path):
        first = RepositoryService(open_durable(kind, tmp_path))
        first.add_many([minimal_entry(title=f"ENTRY {index}",
                                      overview=f"Unique token tok{index}.")
                        for index in range(3)])
        assert first.query("tok1").identifiers == ["entry-1"]
        first.close()

        behind = open_durable(kind, tmp_path)
        behind.add(minimal_entry(title="SNEAKED", overview="token toky"))
        behind.close()

        second = RepositoryService(open_durable(kind, tmp_path))
        assert second.query("toky").identifiers == ["sneaked"]
        assert second.query().total == 4
        second.close()

    def test_disabled_index_rebuilds_from_the_backend(self, tmp_path):
        service = RepositoryService(FileBackend(tmp_path / "repo"))
        service.add(minimal_entry())
        assert service.query().total == 1
        FileBackend(tmp_path / "repo").add(
            minimal_entry(title="SNEAKED", overview="token toky"))
        service.disable_search()
        assert service.query("toky").identifiers == ["sneaked"]
        assert len(service.search_index) == 2


class TestOneIndexShape:
    """A backend without native query evaluates over a throwaway
    ``SearchIndex().build(self)``; the facade over its live one, kept
    up by events.  After any mix of writes both answer identically."""

    PLANS = {
        "text": plan(Q.text("patched tok1 model")),
        "filter": plan(Q.reviewed() | Q.text("tok2"), sort="identifier"),
        "page": plan(None, sort="identifier", offset=1, limit=2),
    }

    @pytest.fixture()
    def written(self):
        backend = MemoryBackend()
        service = RepositoryService(backend)
        service.enable_search()
        service.add_many([minimal_entry(title=f"ENTRY {index}",
                                        overview=f"Unique token tok{index}.")
                          for index in range(4)])
        service.add_version(minimal_entry(title="ENTRY 1",
                                          version=Version(1, 0),
                                          reviewers=("Rex",)))
        service.replace_latest(minimal_entry(title="ENTRY 2",
                                             overview="Patched model."))
        return backend, service

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_live_and_throwaway_index_agree(self, written, name):
        backend, service = written
        query_plan = self.PLANS[name]
        assert service.search_index is not None
        assert service.execute_query(query_plan) == \
            backend.execute_query(query_plan)

    def test_query_stats_agree(self, written):
        backend, service = written
        terms = ["patched", "tok1", "model", "absent"]
        assert service.query_stats(terms) == backend.query_stats(terms)
        assert backend.query_stats(terms).document_count == 4


class TestConsumersThroughQuery:
    def populated_repo(self):
        repo = CuratedRepository(MemoryBackend())
        repo.store.add_many([
            minimal_entry(title="ALPHA", overview="A tree walk."),
            minimal_entry(title="BETA", overview="Graphs.",
                          version=Version(1, 0), reviewers=("Rex",)),
        ])
        return repo

    def test_curated_repository_query(self):
        repo = self.populated_repo()
        assert repo.query(Q.reviewed()).identifiers == ["beta"]
        assert repo.query("tree").identifiers == ["alpha"]

    def test_render_repository_markdown_with_query(self):
        repo = self.populated_repo()
        document = render_repository_markdown(repo.store,
                                              query=Q.reviewed())
        assert "1 examples" in document
        assert "BETA" in document and "ALPHA" not in document

    def test_archive_manuscript_with_query(self):
        repo = self.populated_repo()
        manuscript = archive_manuscript(repo.store, query=Q.reviewed())
        assert manuscript["entry_count"] == 1
        assert manuscript["reviewers"] == ["Rex"]

    def test_render_wiki_pages_with_query(self):
        repo = self.populated_repo()
        pages = render_wiki_pages(repo.store, Q.text("tree"))
        assert list(pages) == ["alpha"]
        assert pages["alpha"].startswith("+ ALPHA")
