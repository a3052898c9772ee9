"""`repro-t3 check` command: exit codes, formats, baseline handling."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.trees.boosting import BoostedTreesModel
from repro.trees.serialize import dumps_model
from repro.trees.tree import Tree, TreeNode

_ALL_ANALYZERS = {"codegen", "ensemble", "concurrency", "determinism",
                  "exceptions", "resources"}


def _nan_threshold_model(tmp_path):
    """A saved model with a NaN threshold: an EA008 finding."""
    tree = Tree.from_nodes([
        TreeNode(feature=0, threshold=float("nan"), left=1, right=2),
        TreeNode(value=0.1),
        TreeNode(value=0.2),
    ])
    path = tmp_path / "nan_model.json"
    path.write_text(dumps_model(BoostedTreesModel([tree], 0.0, 2)))
    return str(path)


def test_check_repo_exits_zero(capsys):
    assert main(["check"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_check_json_format(capsys):
    assert main(["check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert set(payload["analyzers"]) == _ALL_ANALYZERS
    assert set(payload["analyzer_seconds"]) == _ALL_ANALYZERS


def test_check_sarif_format(capsys):
    assert main(["check", "--format", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    # The repo baseline is empty, so a clean tree renders no results;
    # suppressed results are covered by test_checks_sarif.
    assert doc["runs"][0]["results"] == []
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-t3-check"


def test_check_rule_filter(capsys):
    assert main(["check", "--rule", "LK", "--format", "json"]) == 0
    assert (json.loads(capsys.readouterr().out)["analyzers"]
            == ["concurrency"])


def test_check_unknown_rule_fails(capsys):
    assert main(["check", "--rule", "ZZ999"]) == 1
    assert "unknown rule" in capsys.readouterr().err


def test_check_retired_fs_and_pi_rules_are_unknown(capsys):
    # The FeatureRegistry, T3Model.load and the decomposer's tests now
    # guard what the feature-schema and plan-invariant analyzers did.
    for retired in ("FS", "PI", "FS004", "PI010"):
        assert main(["check", "--rule", retired]) == 1
        assert f"unknown rule(s) {retired}" in capsys.readouterr().err


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("CG001", "LK001", "LK011", "EA001", "EA010", "DT002",
                 "DT003", "EX002", "EX007", "RS001", "RS008"):
        assert rule in out
    for retired in ("PL001", "RT001", "LK006", "EX003", "HP001", "HP007",
                    "HP009", "HP010", "DT001", "DT010", "EX001", "EX004",
                    "EX005", "RS006", "FS000", "FS006", "PI000", "PI012"):
        assert retired not in out


def test_check_only_flag(capsys):
    # Whole analyzers are selected by rule prefix; there is no --only.
    assert main(["check", "--rule", "DT", "--rule", "EX",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analyzers"] == ["determinism", "exceptions"]
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--only", "determinism"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_jobs_flag(capsys):
    # The suite runs serially; there is no --jobs.
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--jobs", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_warns_on_stale_suppression(tmp_path, capsys):
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '[[suppress]]\nrule = "DT003"\n'
        'path = "src/repro/nonexistent.py"\nline = 1\n')
    assert main(["check", "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline suppression DT003" in out
    assert "src/repro/nonexistent.py:1" in out


def test_check_seeded_drift_exits_nonzero(tmp_path, capsys):
    model = _nan_threshold_model(tmp_path)
    assert main(["check", "--rule", "EA", "--model", model]) == 1
    assert "EA008" in capsys.readouterr().out


def test_check_analyzer_crash_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "never_written.json")
    assert main(["check", "--rule", "EA", "--model", missing]) == 3
    assert "EA000" in capsys.readouterr().out


def test_check_write_baseline_then_suppress(tmp_path, capsys):
    model = _nan_threshold_model(tmp_path)
    baseline = str(tmp_path / "baseline.toml")
    assert main(["check", "--rule", "EA", "--model", model,
                 "--write-baseline", baseline]) == 0
    assert "1 suppression(s)" in capsys.readouterr().out
    assert main(["check", "--rule", "EA", "--model", model,
                 "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "suppressed by baseline" in out
    assert main(["check", "--rule", "EA", "--model", model,
                 "--no-baseline", "--baseline", baseline]) == 1


def test_check_update_baseline_round_trip(tmp_path, capsys):
    model = _nan_threshold_model(tmp_path)
    baseline = str(tmp_path / "baseline.toml")
    assert main(["check", "--rule", "EA", "--model", model,
                 "--baseline", baseline, "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert "kept 0, added 1" in out
    content = open(baseline).read()
    assert "# reason: TODO" in content
    # The regenerated baseline suppresses the finding on the next run.
    assert main(["check", "--rule", "EA", "--model", model,
                 "--baseline", baseline]) == 0
    assert "suppressed by baseline" in capsys.readouterr().out
    # Re-running update on a now-clean tree drops the stale entry.
    assert main(["check", "--rule", "LK",
                 "--baseline", baseline, "--update-baseline"]) == 0
    assert "dropped 1" in capsys.readouterr().out


def test_check_missing_baseline_fails(capsys):
    assert main(["check", "--baseline", "/nonexistent/baseline.toml"]) == 1
    assert "baseline file not found" in capsys.readouterr().err
