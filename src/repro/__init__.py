"""bx-repository: a curated repository of bidirectional transformation examples.

A full reproduction of Cheney, McKinna, Stevens and Gibbons, *Towards a
Repository of Bx Examples* (BX 2014 @ EDBT/ICDT): the §3 entry template,
the §5.1 curation workflow, versioned storage with stable references,
citations, search, wikidot export with the §5.4 wiki-sync bx — plus the
bx formalisms themselves (state-based bx, lenses, symmetric lenses,
delta bx), a law-checking harness, and a catalogue of classic examples
headed by the §4 COMPOSERS instance.

Quickstart::

    from repro import catalogue, repository
    from repro.core import check_bx_properties

    store = repository.MemoryBackend()
    catalogue.populate_store(store)
    composers = catalogue.catalogue_example("composers")
    print(repository.render_wikidot(composers.entry()))
    print(composers.verify_claims().summary())
"""

from repro import catalogue, core, harness, models, repository

__version__ = "0.1.0"

__all__ = ["core", "models", "repository", "catalogue", "harness",
           "__version__"]
