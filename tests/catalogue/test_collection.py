"""Tests for the built-in catalogue and store population."""

from __future__ import annotations

import pytest

from repro.catalogue import (
    builtin_catalogue,
    catalogue_example,
    populate_store,
)
from repro.core.laws import CheckConfig
from repro.repository.backends import MemoryBackend
from repro.repository.template import EntryType
from repro.repository.validation import validate_entry


class TestBuiltinCatalogue:
    def test_flagship_first(self):
        assert builtin_catalogue()[0].name == "composers"

    def test_expected_examples_present(self):
        names = {example.name for example in builtin_catalogue()}
        assert {"composers", "composers-string", "uml2rdbms", "dbview",
                "roman-numerals", "dirtree", "model-code-sync",
                "composers-bench"} <= names

    def test_every_entry_validates(self):
        for example in builtin_catalogue():
            report = validate_entry(example.entry())
            assert report.ok, report.describe()

    def test_entries_are_fresh_copies(self):
        example = catalogue_example("composers")
        assert example.entry() is not example.entry()
        assert example.entry() == example.entry()

    def test_broad_church_of_types(self):
        """§2: precise, sketch and benchmark classes all represented."""
        types = {t for ex in builtin_catalogue() for t in ex.entry().types}
        assert {EntryType.PRECISE, EntryType.SKETCH,
                EntryType.BENCHMARK} <= types

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="composers"):
            catalogue_example("nonexistent")

    def test_sketches_have_no_bx(self):
        sketch = catalogue_example("model-code-sync")
        assert not sketch.has_bx()
        with pytest.raises(ValueError):
            sketch.bx()

    def test_extra_artefacts_instantiate(self):
        composers = catalogue_example("composers")
        assert composers.artefact("key-on-name").name == \
            "composers/key=name"
        with pytest.raises(KeyError):
            composers.artefact("nonexistent")


class TestClaimVerification:
    @pytest.mark.parametrize(
        "name", [ex.name for ex in builtin_catalogue() if ex.has_bx()])
    def test_every_executable_entry_verifies_its_claims(self, name):
        example = catalogue_example(name)
        report = example.verify_claims(CheckConfig(trials=150, seed=31))
        assert report.all_passed, report.summary()


class TestPopulateStore:
    def test_populates_all(self):
        store = MemoryBackend()
        added = populate_store(store)
        assert added == len(builtin_catalogue())
        assert "composers" in store.identifiers()

    def test_idempotent(self):
        store = MemoryBackend()
        populate_store(store)
        assert populate_store(store) == 0
        assert store.entry_count() == len(builtin_catalogue())
