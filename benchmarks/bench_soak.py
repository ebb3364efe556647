"""Soak & chaos rows: corpus factory throughput and fault-injected soak
runs, each held to its invariants and bounds.

Two knobs come from the environment so the CI tiers share one file:

* ``SOAK_SECONDS`` — wall-clock per soak stack (default 10, so the two
  stacks together give the PR tier its >= 20 s of mixed traffic);
* ``SOAK_ENTRIES`` — corpus size per soak (default 3000).

The soak tests are **assertions first, timings second**: a run with any
invariant violation (stale read, oracle-divergent query, missed fault,
blown p99 bound) fails the benchmark job outright.
"""

from __future__ import annotations

import os
import time

from repro.harness.reporting import soak_report_table
from repro.harness.workloads import CorpusSpec, corpus_digest, corpus_entries
from repro.harness.soak import SoakConfig, SoakRunner, build_soak_stack

SOAK_SECONDS = float(os.environ.get("SOAK_SECONDS", "10"))
SOAK_ENTRIES = int(os.environ.get("SOAK_ENTRIES", "3000"))
SOAK_SEED = int(os.environ.get("SOAK_SEED", "7"))

#: The 100k corpus must generate-and-digest under this wall-clock
#: budget (seconds).  Measured ~31 µs/entry locally (~3.2 s for 100k);
#: the floor leaves generous CI headroom while still catching an
#: accidental quadratic in the factory.
CORPUS_100K_BUDGET_SECONDS = 60.0
CORPUS_100K = 100_000


def test_corpus_factory_100k(benchmark):
    """Generate + canonically encode + digest a 100k-entry corpus.

    ``pedantic(rounds=1)``: one full pass is the measurement — the
    corpus is deterministic, so repeat rounds would only re-measure the
    same arithmetic while quadrupling job time.
    """
    spec = CorpusSpec(count=CORPUS_100K, seed=SOAK_SEED)

    def factory():
        return corpus_digest(spec)

    started = time.perf_counter()
    digest = benchmark.pedantic(factory, rounds=1)
    elapsed = time.perf_counter() - started
    assert elapsed < CORPUS_100K_BUDGET_SECONDS, (
        f"100k corpus took {elapsed:.1f}s, over the "
        f"{CORPUS_100K_BUDGET_SECONDS:.0f}s budget")
    # Determinism is load-bearing for soak reproduction: pin the digest
    # shape alongside the timing.
    assert len(digest) == 64


def test_corpus_stream_is_validated(benchmark):
    """Every generated entry passes template validation (sampled here
    at 2k; the digest test above exercises the full 100k shape)."""
    from repro.repository.validation import validate_entry

    spec = CorpusSpec(count=2000, seed=SOAK_SEED)

    def validate_all():
        bad = 0
        for entry in corpus_entries(spec):
            if not validate_entry(entry).ok:
                bad += 1
        return bad

    assert benchmark.pedantic(validate_all, rounds=1) == 0


def _run_soak(tmp_path, *, http: bool) -> "tuple":
    config = SoakConfig(
        seconds=SOAK_SECONDS,
        corpus=CorpusSpec(count=SOAK_ENTRIES, seed=SOAK_SEED),
        preload=min(SOAK_ENTRIES // 2, 20_000),
        seed=SOAK_SEED,
    )
    stack = build_soak_stack(tmp_path, shards=2, http=http)
    try:
        runner = SoakRunner(stack, config)
        report = runner.run()
    finally:
        stack.close()
    return report, runner


def _assert_soak_ok(report, *, expect_faults: "set[str]") -> None:
    assert report.ok, f"soak violations: {report.violations}"
    names = set()
    for record in report.faults:
        names.add(record.name.rsplit("-", 1)[0]
                  if record.name[-1].isdigit() else record.name)
    assert expect_faults <= names, (
        f"fault schedule incomplete: ran {sorted(names)}, "
        f"expected at least {sorted(expect_faults)}")
    # Every fault must have actually bitten (observable at its seam) —
    # divergence and bounce fire no injector point, so "fired" there is
    # proven by their recovery assertions instead.
    for record in report.faults:
        if record.name.startswith(("shard-kill", "file-crash",
                                   "brownout")):
            assert record.fired >= 1, f"{record.name} never fired"
    assert report.ops_total > 0 and report.invariant_checks >= 2


def test_soak_direct_stack(benchmark, tmp_path):
    """PR-tier soak, direct stack: sharded-of-replicated behind the
    service facade, with shard-kill + replica-divergence + file-crash
    faults injected mid-run."""

    def soak():
        return _run_soak(tmp_path / "direct", http=False)

    report, _runner = benchmark.pedantic(soak, rounds=1)
    _assert_soak_ok(report, expect_faults={
        "shard-kill", "replica-diverge", "file-crash", "brownout",
        "replica-recover", "ingest-burst"})


def test_soak_http_stack(benchmark, tmp_path):
    """PR-tier soak, HTTP stack: the same composition fronted by a live
    ``RepositoryServer`` with ``HTTPBackend`` traffic, adding the
    server-bounce fault under keep-alive load."""

    def soak():
        return _run_soak(tmp_path / "http", http=True)

    report, _runner = benchmark.pedantic(soak, rounds=1)
    _assert_soak_ok(report, expect_faults={
        "shard-kill", "replica-diverge", "file-crash", "brownout",
        "replica-recover", "ingest-burst", "overload",
        "server-bounce"})


def test_soak_recovery_times(benchmark, tmp_path):
    """A dedicated fault-recovery row: minimal traffic, all faults, the
    per-fault recovery milliseconds printed in the fault table."""
    config = SoakConfig(
        seconds=2.0,
        corpus=CorpusSpec(count=600, seed=SOAK_SEED + 1),
        preload=300,
        seed=SOAK_SEED + 1,
    )

    def soak():
        stack = build_soak_stack(tmp_path / "recovery", http=True)
        try:
            return SoakRunner(stack, config).run()
        finally:
            stack.close()

    report = benchmark.pedantic(soak, rounds=1)
    assert report.ok, f"soak violations: {report.violations}"
    assert len(report.faults) == 8
    print(f"\n{soak_report_table(report)}")
