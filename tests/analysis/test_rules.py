"""Per-rule fixtures: every rule fires on a violation and stays quiet
on the sanctioned pattern right next to it."""

from __future__ import annotations

import re
from pathlib import Path

import repro.analysis  # noqa: F401  (registers the built-in rules)
from repro.analysis.engine import get_rule, load_project, run_rules

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def scan(tmp_path, files: dict[str, str], rule_name: str):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    project = load_project([tmp_path])
    return run_rules(project, [get_rule(rule_name)])


class TestLockDiscipline:
    def test_fires_on_lock_constructed_elsewhere(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "store.py": (
                    "import threading\n"
                    "from threading import RLock as Big\n"
                    "a = threading.Lock()\n"
                    "b = Big()\n"
                )
            },
            "lock-discipline",
        )
        assert [f.line for f in findings] == [3, 4]

    def test_quiet_in_concurrency_and_on_mutex_alias(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "concurrency.py": (
                    "import threading\nMutex = threading.Lock\n"
                    "guard = threading.Lock()\n"
                ),
                "service.py": (
                    "from concurrency import Mutex\nmutex = Mutex()\n"
                ),
            },
            "lock-discipline",
        )
        assert findings == []

    def test_fires_on_service_call_under_a_held_mutex(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "render_cache.py": (
                    "class Cache:\n"
                    "    def render(self, identifier):\n"
                    "        with self._mutex:\n"
                    "            clock = self._clock\n"
                    "            entry = self.service.get(identifier)\n"
                    "        return entry, clock\n"
                )
            },
            "lock-discipline",
        )
        assert [f.line for f in findings] == [5]
        assert "PR-4" in findings[0].message

    def test_quiet_on_clock_capture_and_deferred_callables(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "render_cache.py": (
                    "class Cache:\n"
                    "    def render(self, identifier):\n"
                    "        with self._mutex:\n"
                    "            clock = self._clock\n"
                    "            thunk = lambda: self.service.get(identifier)\n"
                    "        entry = self.service.get(identifier)\n"
                    "        return entry, clock, thunk\n"
                    "    def write(self, entry):\n"
                    "        with self._lock.write_locked():\n"
                    "            self.backend.add(entry)\n"
                )
            },
            "lock-discipline",
        )
        # The call after release (line 6), the deferred lambda (line 5)
        # and the RW-lock write (a *call* context manager) are all fine.
        assert findings == []

    def test_quiet_outside_the_guarded_files(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "other.py": (
                    "class Thing:\n"
                    "    def run(self):\n"
                    "        with self._mutex:\n"
                    "            self.service.get('x')\n"
                )
            },
            "lock-discipline",
        )
        assert findings == []


ASYNC_VIOLATIONS = '''\
import time

class AsyncRepositoryService:
    async def get(self, identifier):
        return self.service.get(identifier)

    async def nap(self):
        time.sleep(0.1)

    async def close(self):
        self._writer.shutdown(wait=True)

    async def read_file(self, path):
        with open(path) as handle:
            return handle.read()
'''

ASYNC_SANCTIONED = '''\
class AsyncRepositoryService:
    async def get(self, identifier):
        return await self._read(lambda: self.service.get(identifier))

    async def close(self):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._readers.shutdown)
        await loop.run_in_executor(
            None, lambda: self._writer.shutdown(wait=True))

    def sync_helper(self):
        return self.service.get("fine-outside-async")
'''

ASYNC_ENQUEUE = '''\
class AsyncRepositoryService:
    async def add(self, entry):
        op = self.service.enqueue_write("add", entry)
        return await self._on_writer(lambda: self.service.commit_write(op))
'''

ASYNC_COMMIT_ON_LOOP = '''\
class AsyncRepositoryService:
    async def add(self, entry):
        op = self.service.enqueue_write("add", entry)
        return self.service.commit_write(op)
'''


class TestAsyncPurity:
    def test_fires_on_direct_blocking_calls(self, tmp_path):
        findings = scan(
            tmp_path, {"aservice.py": ASYNC_VIOLATIONS}, "async-purity"
        )
        assert [f.line for f in findings] == [5, 8, 11, 14]

    def test_quiet_on_executor_submission(self, tmp_path):
        findings = scan(
            tmp_path, {"aservice.py": ASYNC_SANCTIONED}, "async-purity"
        )
        assert findings == []

    def test_quiet_outside_aservice(self, tmp_path):
        findings = scan(
            tmp_path, {"other.py": ASYNC_VIOLATIONS}, "async-purity"
        )
        assert findings == []

    def test_quiet_on_the_write_queue_append(self, tmp_path):
        findings = scan(
            tmp_path, {"aservice.py": ASYNC_ENQUEUE}, "async-purity"
        )
        assert findings == []

    def test_fires_on_the_blocking_commit_wait(self, tmp_path):
        findings = scan(
            tmp_path, {"aservice.py": ASYNC_COMMIT_ON_LOOP}, "async-purity"
        )
        assert [f.line for f in findings] == [4]
        assert "commit_write" in findings[0].message


ERRORS_MODULE = '''\
class BxError(Exception):
    pass

class RepositoryError(BxError):
    pass

class StorageError(RepositoryError):
    pass

class EntryNotFound(StorageError):
    pass

class WireTimeout(StorageError):
    pass
'''


class TestExceptionTaxonomy:
    def test_fires_on_untyped_raise_in_wire_layers(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "errors.py": ERRORS_MODULE,
                "server.py": (
                    "def handle():\n"
                    "    raise ValueError('nope')\n"
                ),
                "backends/flaky.py": (
                    "def read():\n"
                    "    raise RuntimeError('nope')\n"
                ),
            },
            "exception-taxonomy",
        )
        assert {(f.path.rsplit("/", 1)[-1], f.line) for f in findings} == {
            ("server.py", 2),
            ("flaky.py", 2),
        }

    def test_taxonomy_is_parsed_from_errors_py(self, tmp_path):
        """WireTimeout is typed only because errors.py declares it."""
        findings = scan(
            tmp_path,
            {
                "errors.py": ERRORS_MODULE,
                "client.py": (
                    "def fetch():\n"
                    "    raise WireTimeout('slow')\n"
                ),
            },
            "exception-taxonomy",
        )
        assert findings == []

    def test_quiet_on_sanctioned_raises(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "errors.py": ERRORS_MODULE,
                "server.py": (
                    "def _wire_error(status, message) -> StorageError:\n"
                    "    error = StorageError(message)\n"
                    "    error.http_status = status\n"
                    "    return error\n"
                    "def handle():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except EntryNotFound:\n"
                    "        raise\n"
                    "    except OSError as error:\n"
                    "        raise StorageError(str(error)) from error\n"
                    "    raise _wire_error(406, 'unacceptable')\n"
                    "if __name__ == '__main__':\n"
                    "    raise SystemExit(main())\n"
                ),
            },
            "exception-taxonomy",
        )
        assert findings == []

    def test_untyped_raise_outside_wire_layers_is_fine(self, tmp_path):
        findings = scan(
            tmp_path,
            {"models/lens.py": "def f():\n    raise ValueError('x')\n"},
            "exception-taxonomy",
        )
        assert findings == []

    def test_broad_except_needs_raise_or_justified_noqa(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "anywhere.py": (
                    "def swallow():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except Exception:\n"
                    "        pass\n"
                    "def justified():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except Exception:  # noqa: BLE001 - metrics only\n"
                    "        count()\n"
                    "def reraises():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except Exception as error:\n"
                    "        raise Wrapped(error) from error\n"
                )
            },
            "exception-taxonomy",
        )
        assert [f.line for f in findings] == [4]

    def test_bare_and_tuple_excepts_count_as_broad(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "anywhere.py": (
                    "def a():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except:\n"
                    "        pass\n"
                    "def b():\n"
                    "    try:\n"
                    "        work()\n"
                    "    except (ValueError, Exception):\n"
                    "        pass\n"
                )
            },
            "exception-taxonomy",
        )
        assert [f.line for f in findings] == [4, 9]


class TestCodecDiscipline:
    def test_fires_on_json_outside_declared_modules(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "repository/backends/exotic.py": (
                    "import json\n"
                    "def dump(entry):\n"
                    "    return json.dumps(entry.to_dict())\n"
                ),
                "repository/store2.py": "from json import loads\n",
            },
            "codec-discipline",
        )
        assert {(f.path.rsplit("/", 1)[-1], f.line) for f in findings} == {
            ("exotic.py", 3),
            ("store2.py", 1),
        }

    def test_quiet_in_declared_wire_modules_and_outside_repository(
        self, tmp_path
    ):
        findings = scan(
            tmp_path,
            {
                "repository/codec.py": (
                    "import json\n"
                    "def encode(entry):\n"
                    "    return json.dumps(entry)\n"
                ),
                "repository/server.py": (
                    "import json\npayload = json.loads('{}')\n"
                ),
                "harness/soak.py": (
                    "import json\nreport = json.dumps({})\n"
                ),
            },
            "codec-discipline",
        )
        assert findings == []


class TestHarnessDeterminism:
    def test_fires_on_nondeterministic_sources(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "harness/workloads.py": (
                    "import os\n"
                    "import random\n"
                    "import time\n"
                    "a = random.choice([1, 2])\n"
                    "b = random.Random()\n"
                    "c = random.Random(time.time())\n"
                    "d = os.urandom(8)\n"
                )
            },
            "harness-determinism",
        )
        assert [f.line for f in findings] == [4, 5, 6, 7]

    def test_quiet_on_seeded_rng_and_outside_harness(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "harness/workloads.py": (
                    "import random\n"
                    "rng = random.Random('seed:1')\n"
                    "value = rng.random()\n"
                    "sample = rng.choice([1, 2])\n"
                ),
                "repository/service.py": (
                    "import random\nnoise = random.random()\n"
                ),
            },
            "harness-determinism",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Protocol drift: checked against doctored copies of the real layers.
# ----------------------------------------------------------------------


def copy_real_layers(tmp_path) -> dict[str, Path]:
    sources = {
        "service.py": REPO_SRC / "repository" / "service.py",
        "aservice.py": REPO_SRC / "repository" / "aservice.py",
        "client.py": REPO_SRC / "repository" / "client.py",
        "server.py": REPO_SRC / "repository" / "server.py",
        "backends/base.py": REPO_SRC / "repository" / "backends" / "base.py",
    }
    copies = {}
    for relpath, source in sources.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
        copies[relpath] = target
    return copies


def drift_findings(tmp_path):
    project = load_project([tmp_path])
    return run_rules(project, [get_rule("protocol-drift")])


class TestProtocolDrift:
    def test_quiet_on_the_real_layers(self, tmp_path):
        copy_real_layers(tmp_path)
        assert drift_findings(tmp_path) == []

    def test_fires_when_a_layer_loses_an_api_method(self, tmp_path):
        """The acceptance scenario: drop an API_METHODS name from one
        layer and the rule must fail."""
        copies = copy_real_layers(tmp_path)
        doctored = copies["aservice.py"].read_text(encoding="utf-8")
        assert "async def cache_stats" in doctored
        copies["aservice.py"].write_text(
            doctored.replace("async def cache_stats", "async def cache_statz"),
            encoding="utf-8",
        )
        findings = drift_findings(tmp_path)
        assert len(findings) == 1
        assert "cache_stats" in findings[0].message
        assert "AsyncRepositoryService" in findings[0].message

    def test_fires_when_a_route_is_unwired(self, tmp_path):
        copies = copy_real_layers(tmp_path)
        doctored = copies["server.py"].read_text(encoding="utf-8")
        routed = re.sub(
            r'\(re\.compile\(r"\^/stats/query\$"\), "query_stats"\),\n',
            "",
            doctored,
        )
        assert routed != doctored
        copies["server.py"].write_text(routed, encoding="utf-8")
        findings = drift_findings(tmp_path)
        assert any(
            "query_stats" in f.message and "_ROUTES" in f.message
            for f in findings
        )

    def test_fires_when_a_handler_method_is_missing(self, tmp_path):
        copies = copy_real_layers(tmp_path)
        doctored = copies["server.py"].read_text(encoding="utf-8")
        copies["server.py"].write_text(
            doctored.replace("def _handle_counter", "def _handle_counterz"),
            encoding="utf-8",
        )
        findings = drift_findings(tmp_path)
        assert any("_handle_counter" in f.message for f in findings)

    def test_fires_on_an_unmapped_new_api_method(self, tmp_path):
        copies = copy_real_layers(tmp_path)
        doctored = copies["service.py"].read_text(encoding="utf-8")
        assert '"close",\n' in doctored
        copies["service.py"].write_text(
            doctored.replace('"close",\n', '"close",\n    "brand_new_rpc",\n'),
            encoding="utf-8",
        )
        findings = drift_findings(tmp_path)
        assert any("brand_new_rpc" in f.message for f in findings)

    def test_silent_without_service_py(self, tmp_path):
        (tmp_path / "other.py").write_text("VALUE = 1\n", encoding="utf-8")
        assert drift_findings(tmp_path) == []


class TestRetryDiscipline:
    def test_fires_on_sleep_inside_while_loop(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "client_helper.py": (
                    "import time\n"
                    "def wait_for_server(probe):\n"
                    "    while not probe():\n"
                    "        time.sleep(0.05)\n"
                )
            },
            "retry-discipline",
        )
        assert [f.line for f in findings] == [4]
        assert "RetryPolicy" in findings[0].message

    def test_fires_on_sleep_alias_inside_for_loop(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "poller.py": (
                    "from time import sleep as snooze\n"
                    "def drain(jobs):\n"
                    "    for job in jobs:\n"
                    "        snooze(0.1)\n"
                    "        job.poke()\n"
                )
            },
            "retry-discipline",
        )
        assert [f.line for f in findings] == [4]

    def test_fires_on_range_attempt_loop_swallowing_errors(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "uploader.py": (
                    "def upload(send):\n"
                    "    for _attempt in range(3):\n"
                    "        try:\n"
                    "            return send()\n"
                    "        except ConnectionError:\n"
                    "            continue\n"
                )
            },
            "retry-discipline",
        )
        assert [f.line for f in findings] == [2]
        assert "ad-hoc retry" in findings[0].message

    def test_quiet_on_sanctioned_patterns(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "worker.py": (
                    "import time\n"
                    "def pace(policy, operation):\n"
                    "    time.sleep(0.5)\n"  # off-loop sleep: fine
                    "    return policy.call(operation)\n"
                    "def fanout(items):\n"
                    "    for item in items:\n"  # plain data loop
                    "        item.run()\n"
                    "def retry_range_that_reraises(send):\n"
                    "    for _ in range(3):\n"
                    "        try:\n"
                    "            return send()\n"
                    "        except ConnectionError:\n"
                    "            raise\n"  # re-raises: not a swallow
                ),
                "maker.py": (
                    # An injectable-sleep default inside a loop-building
                    # function is deferred, not an inline loop sleep.
                    "import time\n"
                    "def build_policies(count):\n"
                    "    policies = []\n"
                    "    for _ in range(count):\n"
                    "        policies.append(lambda: time.sleep(1.0))\n"
                    "    return policies\n"
                ),
            },
            "retry-discipline",
        )
        assert findings == []

    def test_resilience_module_is_exempt(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "resilience.py": (
                    "import time\n"
                    "def spin():\n"
                    "    while True:\n"
                    "        time.sleep(0.01)\n"
                )
            },
            "retry-discipline",
        )
        assert findings == []

    def test_real_tree_is_clean(self):
        project = load_project([REPO_SRC])
        findings = run_rules(project, [get_rule("retry-discipline")])
        assert findings == []


class TestTxnDiscipline:
    BASE = (
        "class StorageBackend:\n"
        "    def write_group(self):\n"
        "        yield self\n"
    )
    SQLITE = (
        "class SQLiteBackend:\n"
        "    def write_group(self):\n"
        "        yield self\n"
    )

    def test_fires_exactly_once_when_a_durable_layer_lags(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "backends/base.py": self.BASE,
                "backends/sqlite.py": self.SQLITE,
                "backends/file.py": (
                    "class FileBackend:\n"
                    "    def add(self, entry):\n"
                    "        pass\n"
                ),
            },
            "txn-discipline",
        )
        assert len(findings) == 1
        assert findings[0].path.endswith("backends/file.py")
        assert findings[0].line == 1
        assert "lockstep" in findings[0].message

    def test_fires_on_group_api_missing_from_base(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "backends/base.py": (
                    "class StorageBackend:\n"
                    "    def add(self, entry):\n"
                    "        pass\n"
                ),
                "backends/shiny.py": (
                    "class ShinyBackend:\n"
                    "    def begin_group(self):\n"
                    "        pass\n"
                    "    def commit_group(self):\n"
                    "        pass\n"
                ),
            },
            "txn-discipline",
        )
        assert [f.line for f in findings] == [2, 4]
        assert all("base.py" in f.message for f in findings)

    def test_quiet_when_all_layers_share_the_seam(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                "backends/base.py": self.BASE,
                "backends/sqlite.py": self.SQLITE,
                "backends/file.py": (
                    "class FileBackend:\n"
                    "    def write_group(self):\n"
                    "        yield self\n"
                ),
            },
            "txn-discipline",
        )
        assert findings == []

    def test_quiet_on_partial_trees_and_outside_backends(self, tmp_path):
        findings = scan(
            tmp_path,
            {
                # Only one durable layer under scan: no parity to check,
                # and its write_group matches the base declaration.
                "backends/base.py": self.BASE,
                "backends/sqlite.py": self.SQLITE,
                # write_group outside backends/ is not this rule's
                # business (the service facade holds one too).
                "service.py": (
                    "class RepositoryService:\n"
                    "    def write_group(self):\n"
                    "        yield self\n"
                ),
            },
            "txn-discipline",
        )
        assert findings == []

    def test_real_tree_is_clean(self):
        project = load_project([REPO_SRC])
        findings = run_rules(project, [get_rule("txn-discipline")])
        assert findings == []
