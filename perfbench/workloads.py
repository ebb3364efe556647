"""Inputs: a seeded corpus and one request stream per client.

Every input is a pure function of the seed.  The corpus comes from the
repository's own corpus factory (:mod:`repro.harness.workloads`), with
its Zipf skew over entry types, properties and authors; ``run.py``
prints :func:`corpus_digest` of the spec so a change to the factory
shows in the run's log.

The traffic follows the model the repository's benchmarks already use
(``benchmarks/bench_serving.py``, ``benchmarks/bench_ingest.py``):
reads are Zipf-skewed over the collection (skew 1.1, the first entry
hottest), and the write mix is 90% reads, 10% writes of new entries,
from 4 concurrent clients.  Each client is closed-loop: it waits for
its reply before it sends the next request.

* ``read-zipf`` -- Zipfian point reads.  The head is answered by the
  client's ETag revalidation (304s) and the server's caches, the tail
  by SQLite and the decoder.
* ``mixed-90-10`` -- the same reads, and one request in ten submits a
  new entry.  Every write moves the repository-wide change token, so
  the clients' cached validators stop matching and reads fall through
  to the server's caches.
* ``crawl`` -- a harvester reading the whole collection: the clients
  share out all ``CORPUS_SIZE`` entries and read them in identifier
  order, cyclically, so every read misses every bounded cache (the
  largest, the decode memo, holds 4096 entries).  No published trace
  gives a crawler's order or share; identifier order is assumed
  because it is the order a mirror walks ``GET /entries``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.harness.workloads import (
    CorpusSpec,
    corpus_entries,
    corpus_entry,
    zipfian_identifiers,
)
from repro.repository.entry import ExampleEntry

#: Entries loaded at set-up: more than the largest bounded cache.
CORPUS_SIZE = 6000
#: Concurrent clients, as in bench_ingest's mixed run.
CLIENTS = 4
#: Read skew, the default of repro.harness.workloads.zipfian_indices.
ZIPF_SKEW = 1.1
#: Share of reads in mixed-90-10, as bench_ingest's MIX_READ_SHARE.
READ_SHARE = 0.9
#: Zipfian draws per client before its stream repeats: more requests
#: than a client sends in one run.
ZIPF_DRAWS = 40_000
#: Identifier stride between two clients' new entries.
NEW_ENTRY_STRIDE = 1_000_000


@dataclass(frozen=True)
class Op:
    """One request: for a read ``entry`` is the expected answer, for a
    write it is what is sent."""

    kind: str  # "get" or "add"
    entry: ExampleEntry


def corpus_spec(seed: int) -> CorpusSpec:
    return CorpusSpec(count=CORPUS_SIZE, seed=seed)


def make_corpus(seed: int) -> list[ExampleEntry]:
    return list(corpus_entries(corpus_spec(seed)))


def zipf_reads(seed: int, stream: int,
               corpus: list[ExampleEntry]) -> Iterator[ExampleEntry]:
    """Zipf-skewed picks from ``corpus`` (index 0 hottest), endless."""
    by_identifier = {entry.identifier: entry for entry in corpus}
    picks = zipfian_identifiers(ZIPF_DRAWS, by_identifier,
                                skew=ZIPF_SKEW,
                                seed=seed * (CLIENTS + 1) + stream)
    return itertools.cycle([by_identifier[key] for key in picks])


def read_zipf(seed: int, client: int,
              corpus: list[ExampleEntry]) -> Iterator[Op]:
    return (Op("get", entry) for entry in zipf_reads(seed, client, corpus))


def crawl(seed: int, client: int,
          corpus: list[ExampleEntry]) -> Iterator[Op]:
    """Every ``CLIENTS``-th entry in identifier order, cyclically.

    Identifier order is also load order, so even right after the bulk
    load the caches hold the entries read longest ago.
    """
    return itertools.cycle([Op("get", entry)
                            for entry in corpus[client::CLIENTS]])


class MixedStream:
    """Zipfian reads, and a new entry submitted one request in ten.

    New entries come from the corpus factory at indices past the
    corpus, a disjoint range per client; :attr:`added` lists them so
    the final state can be checked.
    """

    def __init__(self, seed: int, client: int,
                 corpus: list[ExampleEntry]) -> None:
        self.spec = corpus_spec(seed)
        self.rng = random.Random(f"mixed:{seed}:{client}")
        self.reads = zipf_reads(seed, client, corpus)
        self.first = CORPUS_SIZE + client * NEW_ENTRY_STRIDE
        self.added: list[ExampleEntry] = []

    def __iter__(self) -> Iterator[Op]:
        pools = self.spec.pools()
        while True:
            if self.rng.random() < READ_SHARE:
                yield Op("get", next(self.reads))
            else:
                entry = corpus_entry(self.spec, self.first + len(self.added),
                                     pools)
                self.added.append(entry)
                yield Op("add", entry)


def streams(workload: str, seed: int, corpus: list[ExampleEntry]) -> list:
    """One iterable of :class:`Op` per client."""
    if workload == "read-zipf":
        return [read_zipf(seed, c, corpus) for c in range(CLIENTS)]
    if workload == "mixed-90-10":
        return [MixedStream(seed, c, corpus) for c in range(CLIENTS)]
    if workload == "crawl":
        return [crawl(seed, c, corpus) for c in range(CLIENTS)]
    raise ValueError(f"unknown workload {workload!r}")


def ladder_reads(workload: str, seed: int, corpus: list[ExampleEntry],
                 needed: int) -> tuple[Iterator[str], dict]:
    """The workload's read keys as one endless stream, and the entry each
    key must return.  Reads only ever target the corpus, which no
    workload modifies.

    For ``crawl`` the first ``needed`` keys are distinct, so a ladder
    that reads no more than that stays cold in every row.
    """
    expected = {entry.identifier: entry for entry in corpus}
    if workload != "crawl":
        keys = (entry.identifier
                for entry in zipf_reads(seed, CLIENTS, corpus))
        return keys, expected
    if needed > len(expected):
        raise ValueError(f"a cold ladder of {needed} reads needs as many "
                         f"entries; the corpus has {len(expected)}")
    order = sorted(expected)
    random.Random(f"ladder:{seed}").shuffle(order)
    return itertools.cycle(order), expected


WORKLOADS = ("read-zipf", "mixed-90-10", "crawl")
