"""The analyzer engine: findings, fingerprints, baseline, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.analysis  # noqa: F401  (registers the built-in rules)
from repro.analysis.engine import (
    Baseline,
    Finding,
    all_rules,
    load_baseline,
    load_project,
    run_rules,
    write_baseline,
)
from repro.analysis.__main__ import main


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


def finding(**overrides) -> Finding:
    values = {
        "rule": "lock-discipline",
        "severity": "error",
        "path": "src/x.py",
        "line": 3,
        "message": "boom",
        "source": "self._mutex = threading.Lock()",
    }
    values.update(overrides)
    return Finding(**values)


class TestFindings:
    def test_fingerprint_ignores_line_numbers(self):
        """Edits above a baselined site must not invalidate its entry."""
        assert finding(line=3).fingerprint == finding(line=99).fingerprint

    def test_fingerprint_tracks_rule_path_and_content(self):
        base = finding().fingerprint
        assert finding(rule="codec-discipline").fingerprint != base
        assert finding(path="src/y.py").fingerprint != base
        assert finding(source="other = 1").fingerprint != base

    def test_registry_has_the_six_shipped_rules(self):
        names = {rule.name for rule in all_rules()}
        assert names >= {
            "lock-discipline",
            "exception-taxonomy",
            "codec-discipline",
            "response-once",
            "harness-determinism",
            "retry-discipline",
        }

    def test_syntax_errors_become_findings(self, tmp_path):
        make_tree(tmp_path, {"broken.py": "def nope(:\n"})
        findings = run_rules(load_project([tmp_path]))
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].severity == "error"


class TestBaseline:
    def test_split_suppresses_matches_and_reports_stale(self):
        hit = finding()
        miss = finding(source="different = 2")
        baseline = Baseline(
            entries=load_baseline_entries(
                [
                    entry_for(hit, "known issue"),
                    {
                        "fingerprint": "feedfeedfeedfeed",
                        "rule": "lock-discipline",
                        "path": "gone.py",
                        "reason": "site was deleted",
                    },
                ]
            )
        )
        active, suppressed, stale = baseline.split([hit, miss])
        assert active == [miss]
        assert suppressed == [hit]
        assert [entry.fingerprint for entry in stale] == ["feedfeedfeedfeed"]

    def test_loader_rejects_empty_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "fingerprint": "ab",
                            "rule": "r",
                            "path": "p",
                            "reason": "   ",
                        }
                    ]
                }
            )
        )
        with pytest.raises(ValueError, match="empty reason"):
            load_baseline(path)

    def test_loader_rejects_junk(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="entries"):
            load_baseline(path)

    def test_write_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        count = write_baseline(path, [finding()])
        assert count == 1
        loaded = load_baseline(path)
        assert loaded.entries[0].fingerprint == finding().fingerprint


def entry_for(found: Finding, reason: str) -> dict[str, str]:
    return {
        "fingerprint": found.fingerprint,
        "rule": found.rule,
        "path": found.path,
        "reason": reason,
    }


def load_baseline_entries(raw: list[dict[str, str]]):
    from repro.analysis.engine import BaselineEntry

    return [BaselineEntry(**item) for item in raw]


VIOLATION = 'import threading\n\nmutex = threading.Lock()\n'


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/fine.py": "VALUE = 1\n"})
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero_with_anchors(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3" in out
        assert "[lock-discipline]" in out

    def test_json_format_carries_fingerprints(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert main([str(tmp_path / "src"), "--no-baseline", "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "lock-discipline"
        assert entry["fingerprint"]

    def test_baseline_workflow_accepts_then_blocks_new(self, tmp_path, capsys):
        """--write-baseline accepts today's findings; new ones still fail."""
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    str(tmp_path / "src"),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert main([str(tmp_path / "src"), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A second, new violation is not covered by the baseline.
        make_tree(tmp_path, {"src/worse.py": VIOLATION.replace("mutex", "other")})
        assert main([str(tmp_path / "src"), "--baseline", str(baseline)]) == 1

    def test_stale_baseline_entries_are_reported_not_fatal(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/fine.py": "VALUE = 1\n"})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "fingerprint": "0123456789abcdef",
                            "rule": "lock-discipline",
                            "path": "src/gone.py",
                            "reason": "site was removed",
                        }
                    ]
                }
            )
        )
        assert main([str(tmp_path / "src"), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_rules_subset_and_unknown_rule(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/bad.py": VIOLATION})
        assert (
            main(
                [
                    str(tmp_path / "src"),
                    "--no-baseline",
                    "--rules",
                    "harness-determinism",
                ]
            )
            == 0
        )
        assert main([str(tmp_path / "src"), "--rules", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-discipline" in out
        assert "response-once" in out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestSelfRun:
    def test_real_tree_is_clean_under_the_committed_baseline(self, monkeypatch):
        """The acceptance gate: `python -m repro.analysis src/` exits 0.

        Runs from the repo root so relative paths (and therefore
        baseline fingerprints) match the committed baseline file.
        """
        repo_root = Path(__file__).resolve().parents[2]
        assert (repo_root / "analysis-baseline.json").is_file()
        monkeypatch.chdir(repo_root)
        assert main(["src", "--baseline", "analysis-baseline.json"]) == 0

    def test_committed_baseline_is_small_and_justified(self):
        repo_root = Path(__file__).resolve().parents[2]
        baseline = load_baseline(repo_root / "analysis-baseline.json")
        assert len(baseline.entries) <= 10
        for entry in baseline.entries:
            assert entry.reason.strip()
