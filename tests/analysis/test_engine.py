"""The analyzer engine: findings, rule registry, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.analysis  # noqa: F401  (registers the built-in rules)
from repro.analysis.engine import all_rules, get_rule, load_project, run_rules
from repro.analysis.__main__ import main


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


SHIPPED_RULES = [
    "lock-discipline",
    "exception-taxonomy",
    "codec-discipline",
    "response-once",
    "harness-determinism",
    "retry-discipline",
]


class TestFindings:
    def test_registry_has_the_six_shipped_rules(self):
        names = {rule.name for rule in all_rules()}
        assert names >= set(SHIPPED_RULES)

    def test_finding_json_is_its_anchor_and_message(self, tmp_path):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        (finding,) = run_rules(load_project([tmp_path / "src"]))
        assert set(finding.to_json()) == {
            "rule", "severity", "path", "line", "message", "source",
        }
        assert finding.to_json()["source"] == "mutex = threading.Lock()"

    def test_syntax_errors_become_findings(self, tmp_path):
        make_tree(tmp_path, {"broken.py": "def nope(:\n"})
        findings = run_rules(load_project([tmp_path]))
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].severity == "error"


VIOLATION = 'import threading\n\nmutex = threading.Lock()\n'


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/fine.py": "VALUE = 1\n"})
        assert main([str(tmp_path / "src")]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero_with_anchors(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert main([str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3" in out
        assert "[lock-discipline]" in out

    def test_json_format_carries_anchored_findings(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert main([str(tmp_path / "src"), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "lock-discipline"
        assert entry["path"].endswith("src/bad.py")
        assert entry["line"] == 3

    def test_rules_subset_and_unknown_rule(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert main([str(tmp_path / "src"), "--rules", "harness-determinism"]) == 0
        assert main([str(tmp_path / "src"), "--rules", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-discipline" in out
        assert "response-once" in out

    @pytest.mark.parametrize("name", SHIPPED_RULES)
    def test_list_rules_prints_each_rule_with_its_severity(self, name, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [line for line in lines if line.startswith(f"{name}  ")]
        assert f"[{get_rule(name).severity}]" in line
        assert line.endswith(get_rule(name).summary)

    @pytest.mark.parametrize(
        "option", ["--baseline=accepted.json", "--no-baseline", "--write-baseline"]
    )
    def test_accepted_findings_options_are_gone(self, option, tmp_path, capsys):
        """A finding is fixed at its site; no option accepts it instead."""
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "src"), option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestSelfRun:
    def test_real_tree_is_clean(self, monkeypatch, capsys):
        """The acceptance gate: `python -m repro.analysis src` exits 0.

        Every finding is fixed at its site: there is no file of
        accepted findings to fall back on.
        """
        monkeypatch.chdir(Path(__file__).resolve().parents[2])
        assert main(["src"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith("files scanned: 0 error(s), 0 warning(s)")
