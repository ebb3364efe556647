"""Short soak runs as integration tests: the chaos harness end to end.

These are the PR-tier smoke's little siblings — a couple of seconds of
mixed Zipfian traffic against both stack shapes with the full fault
schedule, asserting zero invariant violations.  The real durations live
in ``benchmarks/bench_soak.py`` (PR tier) and the nightly CI job; here
the point is that the harness itself keeps working under plain pytest.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.soak import (
    BrownoutFault,
    FileCrashFault,
    OverloadFault,
    ReplicaDivergenceFault,
    ReplicaRecoverFault,
    ServerBounceFault,
    ShardKillFault,
    SoakConfig,
    SoakRunner,
    build_soak_stack,
    main,
)
from repro.harness.workloads import CorpusSpec


def short_config(seconds: float = 1.5, *, seed: int = 7) -> SoakConfig:
    return SoakConfig(
        seconds=seconds,
        corpus=CorpusSpec(count=400, seed=seed),
        preload=200,
        seed=seed,
    )


@pytest.fixture
def direct_stack(tmp_path):
    stack = build_soak_stack(tmp_path / "direct", shards=2, http=False)
    yield stack
    stack.close()


@pytest.fixture
def http_stack(tmp_path):
    stack = build_soak_stack(tmp_path / "http", shards=2, http=True)
    yield stack
    stack.close()


class TestDirectSoak:
    def test_full_schedule_zero_violations(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        report = runner.run()
        assert report.ok, report.violations
        assert report.fault_names() == [
            "shard-kill-0", "replica-diverge-0", "file-crash",
            "brownout-0", "replica-recover-0", "ingest-burst-0"]
        assert report.ops_total > 100
        assert report.invariant_checks == 7  # one per fault + final
        assert report.entries_final > report.preload

    def test_fault_observability(self, direct_stack):
        """Each injector-backed fault is observable at its seam: the
        kill latched (>= 1 firing), the crash exactly once."""
        runner = SoakRunner(direct_stack, short_config(seed=8))
        report = runner.run()
        assert report.ok, report.violations
        by_name = {record.name: record for record in report.faults}
        assert by_name["shard-kill-0"].fired >= 1
        assert by_name["file-crash"].fired == 1
        assert by_name["replica-diverge-0"].details[
            "payloads_replaced"] >= 1
        assert by_name["brownout-0"].fired >= 1
        assert by_name["replica-recover-0"].details["reintegrations"] >= 1
        assert by_name["ingest-burst-0"].details["lag_before_repair"] >= 1
        assert by_name["ingest-burst-0"].details["async_applied"] >= 1

    def test_report_round_trips_as_json(self, direct_stack):
        report = SoakRunner(direct_stack, short_config(seed=9)).run()
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is True
        assert decoded["stack"] == "direct"
        assert decoded["violations"] == []
        assert {"get", "get_many", "query", "write"} == set(
            decoded["latencies"])

    def test_single_fault_schedule(self, direct_stack):
        """The runner takes an explicit schedule — one fault type can
        be soaked in isolation."""
        report = SoakRunner(direct_stack, short_config(0.8),
                            faults=[ShardKillFault(1)]).run()
        assert report.ok, report.violations
        assert report.fault_names() == ["shard-kill-1"]


#: The HTTP soak's injected outages are untyped ``ConnectionError``s,
#: which the server still answers with a logged 500 (ROADMAP item 2).
soak_outages_log_500s = pytest.mark.internal_error


class TestHttpSoak:
    @soak_outages_log_500s
    def test_full_schedule_with_server_bounce(self, http_stack):
        runner = SoakRunner(http_stack, short_config(2.0))
        report = runner.run()
        assert report.ok, report.violations
        assert report.fault_names() == [
            "shard-kill-0", "replica-diverge-0", "file-crash",
            "brownout-0", "replica-recover-0", "ingest-burst-0",
            "overload", "server-bounce"]
        assert report.stack == "http"
        bounce = report.faults[-1]
        assert bounce.details["probe_attempts"] >= 1
        assert bounce.details["port"] == http_stack.server.port

    @soak_outages_log_500s
    def test_expected_failures_only_inside_fault_windows(self, http_stack):
        """Traffic errors during an outage are expected (counted, not
        violations); outside the windows every op must succeed."""
        report = SoakRunner(http_stack, short_config(1.5, seed=11)).run()
        assert report.ok, report.violations
        # The latched shard kill makes some window ops fail.
        assert report.expected_failures >= 1


class TestFaultUnits:
    """Each fault class against a fresh stack, outside the traffic loop."""

    def test_shard_kill_inject_and_recover(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        runner.preload()
        fault = ShardKillFault(0)
        fault.inject(runner)
        assert direct_stack.injector.armed("shard0.primary")
        details = fault.recover(runner)
        assert not direct_stack.injector.armed("shard0.primary")
        assert details["fired"] >= 1

    def test_replica_divergence_repaired(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        runner.preload()
        fault = ReplicaDivergenceFault(0)
        injected = fault.inject(runner)
        replica = direct_stack.replicas[0]
        assert replica.get(injected["identifier"]).overview.startswith(
            "DIVERGED")
        details = fault.recover(runner)
        assert details["payloads_replaced"] >= 1

    def test_file_crash_counted_once_and_repaired(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        runner.preload()
        fault = FileCrashFault()
        injected = fault.inject(runner)
        assert injected["fired"] == 1
        assert not direct_stack.file_replica.has(injected["identifier"])
        fault.recover(runner)
        assert direct_stack.file_replica.has(injected["identifier"])

    def test_brownout_fails_fast_then_recovers(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        runner.preload()
        fault = BrownoutFault(0)
        injected = fault.inject(runner)
        # The probe failed faster than the injected delay.
        assert injected["probe_ms"] < \
            direct_stack.slow_primaries[0].delay * 1e3
        details = fault.recover(runner)
        assert details["fired"] >= 1
        assert not direct_stack.injector.armed("shard0.brownout")

    def test_replica_recover_repairs_before_rejoin(self, direct_stack):
        runner = SoakRunner(direct_stack, short_config())
        runner.preload()
        fault = ReplicaRecoverFault(0)
        injected = fault.inject(runner)
        assert injected["suspended"] == 1
        pair = direct_stack.replicated[0]
        assert pair.suspended_replicas() == (0,)
        details = fault.recover(runner)
        assert details["reintegrations"] == 1
        assert pair.suspended_replicas() == ()

    def test_overload_sheds_with_retry_after(self, http_stack):
        runner = SoakRunner(http_stack, short_config())
        runner.preload()
        fault = OverloadFault()
        injected = fault.inject(runner)
        assert injected["shed_total"] >= 1
        assert injected["client_sheds"] >= 1
        details = fault.recover(runner)
        assert details["restored_limit"] == http_stack.server.max_inflight

    def test_server_bounce_same_port(self, http_stack):
        runner = SoakRunner(http_stack, short_config())
        runner.preload()
        port = http_stack.server.port
        fault = ServerBounceFault()
        fault.inject(runner)
        assert http_stack.server.port == port
        fault.recover(runner)
        assert runner.stack.target.entry_count() == len(runner.ids)


class TestCli:
    def test_main_writes_report_and_log(self, tmp_path, capsys):
        json_path = tmp_path / "soak.json"
        log_path = tmp_path / "soak.log"
        code = main(["--seconds", "1.0", "--entries", "300",
                     "--seed", "7", "--json", str(json_path),
                     "--log", str(log_path)])
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["ok"] is True
        assert report["violations"] == []
        assert len(report["faults"]) == 6
        assert "injecting shard-kill-0" in log_path.read_text()
        assert "soak OK" in capsys.readouterr().out

    @soak_outages_log_500s
    def test_main_http_tier(self, tmp_path):
        code = main(["--seconds", "1.2", "--entries", "300",
                     "--http", "--root", str(tmp_path / "root")])
        assert code == 0
