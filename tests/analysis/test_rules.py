"""Per-rule fixtures: every rule fires on a violation and stays quiet
on the sanctioned pattern right next to it."""

from __future__ import annotations

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
                "service.py": (
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
                "service.py": (
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


# ----------------------------------------------------------------------
# Response once: a send from an except block needs the started-guard.
# ----------------------------------------------------------------------


def response_findings(tmp_path, source: str, name: str = "server.py"):
    return scan(tmp_path, {name: source}, "response-once")


class TestResponseOnce:
    def test_fires_on_an_unguarded_send_in_an_except_block(self, tmp_path):
        findings = response_findings(
            tmp_path,
            "class Handler:\n"
            "    def handle(self):\n"
            "        try:\n"
            "            self.work()\n"
            "        except ValueError:\n"
            "            self._send_json(400, {})\n"
            "        except KeyError as error:\n"
            "            if error.args:\n"
            "                self.send_error(404)\n"
            "            else:\n"
            "                self.send_response(500)\n",
        )
        assert [f.line for f in findings] == [6, 9, 11]

    def test_quiet_under_the_guard_or_after_an_early_return(self, tmp_path):
        findings = response_findings(
            tmp_path,
            "class Handler:\n"
            "    def handle(self):\n"
            "        try:\n"
            "            self.work()\n"
            "        except ValueError:\n"
            "            if not self._response_started:\n"
            "                self._send_json(400, {})\n"
            "        except KeyError:\n"
            "            if self._response_started:\n"
            "                self.close_connection = True\n"
            "                return\n"
            "            self.send_error(404)\n"
            "        except OSError:\n"
            "            self.close_connection = True\n"
            "            callback = lambda: self._send_json(500, {})\n"
            "        self._send_json(200, {})\n",
        )
        assert findings == []

    def test_a_started_branch_without_return_guards_nothing(self, tmp_path):
        findings = response_findings(
            tmp_path,
            "class Handler:\n"
            "    def handle(self):\n"
            "        try:\n"
            "            self.work()\n"
            "        except ValueError:\n"
            "            if self._response_started:\n"
            "                self.close_connection = True\n"
            "            self._send_json(400, {})\n",
        )
        assert [f.line for f in findings] == [8]

    def test_fires_when_the_dispatch_guard_is_removed(self, tmp_path):
        source = (REPO_SRC / "repository" / "server.py").read_text(
            encoding="utf-8")
        assert response_findings(tmp_path, source) == []
        guard = "                    if self._response_started:\n"
        assert source.count(guard) == 1
        findings = response_findings(
            tmp_path, source.replace(guard, "                    if False:\n"))
        guard_line = source[:source.index(guard)].count("\n") + 1
        assert len(findings) == 1
        assert findings[0].line > guard_line
        assert source.splitlines()[findings[0].line - 1].strip().startswith(
            "self._send_json(")

    def test_quiet_outside_server_py(self, tmp_path):
        findings = response_findings(
            tmp_path,
            "def f(self):\n"
            "    try:\n"
            "        pass\n"
            "    except ValueError:\n"
            "        self._send_json(400, {})\n",
            name="client.py",
        )
        assert findings == []

    def test_real_tree_is_clean(self):
        project = load_project([REPO_SRC])
        assert run_rules(project, [get_rule("response-once")]) == []
