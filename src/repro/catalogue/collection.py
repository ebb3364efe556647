"""The built-in catalogue: every shipped example, and store population.

:func:`builtin_catalogue` returns the full list of
:class:`~repro.catalogue.base.CatalogueExample` bundles;
:func:`populate_store` loads their entries into a repository store —
the programmatic equivalent of the authors seeding the wiki.
"""

from __future__ import annotations

from repro.catalogue.base import CatalogueExample
from repro.catalogue.composers import (
    CanonicalOrderComposersBx,
    KeyOnNameComposersBx,
    RememberingComposersLens,
    composers_bx,
    composers_entry,
)
from repro.catalogue.composers.variants import composers_bx_with_position
from repro.catalogue.dbview import dbview_entry
from repro.catalogue.misc import (
    composers_benchmark_entry,
    dirtree_bx,
    dirtree_entry,
    model_code_sketch_entry,
    roman_bx,
    roman_entry,
)
from repro.catalogue.strings import (
    ComposerLinesLens,
    ComposerTextLens,
    composers_string_entry,
)
from repro.catalogue.uml2rdbms import uml2rdbms_bx, uml2rdbms_entry
from repro.repository.backends import StorageBackend

__all__ = ["builtin_catalogue", "catalogue_example", "populate_store"]


def builtin_catalogue() -> list[CatalogueExample]:
    """Every example shipped with the library, flagship first."""
    return [
        CatalogueExample(
            name="composers",
            entry_factory=composers_entry,
            bx_factory=composers_bx,
            extra_artefacts={
                "insert-front":
                    lambda: composers_bx_with_position("front"),
                "insert-alphabetic":
                    lambda: composers_bx_with_position("alphabetic"),
                "canonical-order": CanonicalOrderComposersBx,
                "key-on-name": KeyOnNameComposersBx,
                "remembering-lens": RememberingComposersLens,
            }),
        CatalogueExample(
            name="composers-string",
            entry_factory=composers_string_entry,
            bx_factory=lambda: ComposerLinesLens().to_bx(),
            extra_artefacts={
                "lines-lens": ComposerLinesLens,
                "text-lens": ComposerTextLens,
            }),
        CatalogueExample(
            name="uml2rdbms",
            entry_factory=uml2rdbms_entry,
            bx_factory=uml2rdbms_bx,
            extra_artefacts={
                "with-inheritance": lambda: uml2rdbms_bx(True),
            }),
        CatalogueExample(
            name="dbview",
            entry_factory=dbview_entry,
            bx_factory=None,  # lens family; see extra artefacts in tests
            extra_artefacts={}),
        CatalogueExample(
            name="roman-numerals",
            entry_factory=roman_entry,
            bx_factory=roman_bx),
        CatalogueExample(
            name="dirtree",
            entry_factory=dirtree_entry,
            bx_factory=dirtree_bx),
        CatalogueExample(
            name="model-code-sync",
            entry_factory=model_code_sketch_entry,
            bx_factory=None),
        CatalogueExample(
            name="composers-bench",
            entry_factory=composers_benchmark_entry,
            bx_factory=None),
    ]


def catalogue_example(name: str) -> CatalogueExample:
    """Look up one built-in example by name."""
    for example in builtin_catalogue():
        if example.name == name:
            return example
    known = ", ".join(example.name for example in builtin_catalogue())
    raise KeyError(f"no catalogue example {name!r}; known: {known}")


def populate_store(store: StorageBackend) -> int:
    """Add every built-in entry to ``store``; returns the count added.

    Entries already present (by identifier) are skipped, so population
    is idempotent.
    """
    added = 0
    for example in builtin_catalogue():
        entry = example.entry()
        if not store.has(entry.identifier):
            store.add(entry)
            added += 1
    return added
