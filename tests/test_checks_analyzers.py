"""Repo-convention, baseline, and driver tests.

Seeded-violation sources prove each analyzer actually fires; the
repo-level runs prove the codebase itself is clean. The repo's lint
conventions live in two places: generic hygiene (bare except, mutable
defaults, print, ``raise`` without ``from``) is ruff's, and the
T3-specific ones — typed errors (EX007) and seeded randomness (DT003)
— are analyzer rules, tested here through their analyzers. (The
concurrency, ensemble, CFG, and SARIF layers have their own test
modules.) The driver tests use a ``--model`` document with a NaN leaf
as their finding.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.checks import (
    Baseline,
    Finding,
    Severity,
    Suppression,
    check_determinism,
    check_exception_contracts,
    run_checks,
)
from repro.checks.findings import update_baseline, write_baseline
from repro.errors import CheckError

_ERRORS_SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro" \
    / "errors.py"

# ---------------------------------------------------------------------------
# repo conventions: typed errors (EX007) and seeded randomness (DT003)
# ---------------------------------------------------------------------------

_LINT_VIOLATIONS = '''
import numpy as np

def awful(items=[]):
    print(items)
    try:
        raise ValueError("untyped")
    except:
        pass
    rng = np.random.default_rng()
    return np.random.rand(3), rng
'''


def _corpus(tmp_path, files):
    """A corpus with the real ``errors.py`` plus ``files``."""
    shutil.copy(_ERRORS_SOURCE, tmp_path / "errors.py")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return [tmp_path]


def _ex007(roots):
    return [f for f in check_exception_contracts(roots=roots)
            if f.rule == "EX007"]


def test_lint_flags_every_seeded_rule(tmp_path):
    roots = _corpus(tmp_path, {"somewhere.py": _LINT_VIOLATIONS})
    untyped = _ex007(roots)
    assert [(f.path.rsplit("/", 1)[-1], f.line) for f in untyped] == [
        ("somewhere.py", 7)]
    assert "ValueError" in untyped[0].message
    unseeded = [f for f in check_determinism(roots=roots)
                if f.rule == "DT003"]
    assert sorted(f.line for f in unseeded) == [10, 11]


def test_lint_allows_local_reproerror_subclasses(tmp_path):
    roots = _corpus(tmp_path, {"somewhere.py": """
        from errors import PlanError

        class LocalError(PlanError):
            pass

        class DeeperError(LocalError):
            pass

        def f():
            raise DeeperError('typed enough')
    """})
    assert _ex007(roots) == []


def test_lint_exempts_process_edges(tmp_path):
    source = """
        def f():
            raise SystemExit(2)

        def g():
            raise NotImplementedError
    """
    roots = _corpus(tmp_path, {"cli.py": source, "serving/http.py": source,
                               "core/model.py": source})
    flagged = _ex007(roots)
    assert [(f.path.rsplit("/", 1)[-1], f.line) for f in flagged] == [
        ("model.py", 3)]
    assert "SystemExit" in flagged[0].message


def test_repo_passes_its_own_lint():
    assert _ex007(None) == []
    assert [f for f in check_determinism() if f.rule == "DT003"] == []


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def _finding(rule="LK002", path="src/repro/serving/x.py", line=10):
    return Finding(rule, Severity.ERROR, path, line, "message")


def test_baseline_splits_suppressed_findings():
    baseline = Baseline([Suppression(rule="LK002",
                                     path="src/repro/serving/x.py")])
    new, suppressed = baseline.split([_finding(), _finding(rule="EX007")])
    assert [f.rule for f in new] == ["EX007"]
    assert [f.rule for f in suppressed] == ["LK002"]


def test_baseline_wildcard_and_line_matching():
    anywhere = Baseline([Suppression(rule="*", path=None, line=None)])
    assert anywhere.is_suppressed(_finding())
    pinned = Baseline([Suppression(rule="LK002", line=11)])
    assert not pinned.is_suppressed(_finding(line=10))
    assert pinned.is_suppressed(_finding(line=11))


def test_baseline_toml_round_trip(tmp_path):
    path = tmp_path / "baseline.toml"
    write_baseline([_finding(), _finding(rule="DT003", line=3)], path)
    loaded = Baseline.load(path)
    assert loaded.is_suppressed(_finding())
    assert loaded.is_suppressed(_finding(rule="DT003", line=3))
    assert not loaded.is_suppressed(_finding(rule="CG005"))


def test_baseline_load_missing_file_is_typed_error(tmp_path):
    with pytest.raises(CheckError):
        Baseline.load(tmp_path / "absent.toml")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_run_checks_repo_is_clean():
    baseline = Path(__file__).resolve().parents[1] / "checks_baseline.toml"
    report = run_checks(baseline=baseline)
    assert report.findings == []
    assert report.exit_code == 0
    assert report.suppressed == []
    assert report.stale_suppressions == []
    assert report.analyzers_run == [
        "codegen", "ensemble", "concurrency", "determinism", "exceptions",
        "resources"]
    # CI's perf gate allows 10s for the whole suite; leave headroom for
    # slow runners here.
    assert report.elapsed_seconds < 10.0
    assert set(report.timings) == set(report.analyzers_run)
    assert all(seconds >= 0.0 for seconds in report.timings.values())


def test_run_checks_rule_filter_limits_analyzers():
    report = run_checks(rules=["LK"])
    assert report.analyzers_run == ["concurrency"]
    report = run_checks(rules=["CG005", "EX007"])
    assert report.analyzers_run == ["codegen", "exceptions"]


def test_run_checks_unknown_rule_is_typed_error():
    with pytest.raises(CheckError):
        run_checks(rules=["ZZ999"])


def _small_model_doc(tmp_path, leaf=0.1):
    """A 1-tree model that splits on f0 but never on f1; a NaN ``leaf``
    makes it an EA003 finding."""
    from repro.trees.boosting import BoostedTreesModel
    from repro.trees.serialize import dumps_model
    from repro.trees.tree import Tree, TreeNode

    tree = Tree.from_nodes([
        TreeNode(feature=0, threshold=1.0, left=1, right=2),
        TreeNode(value=leaf),
        TreeNode(value=0.2),
    ])
    path = tmp_path / "small_model.json"
    path.write_text(dumps_model(BoostedTreesModel([tree], 0.0, 2)))
    return str(path)


def test_run_checks_nonzero_exit_on_seeded_drift(tmp_path):
    poisoned = _small_model_doc(tmp_path, leaf=float("nan"))
    report = run_checks(rules=["EA"], model_path=poisoned)
    assert report.exit_code == 1
    assert {f.rule for f in report.findings} == {"EA003"}


def test_run_checks_baseline_restores_zero_exit(tmp_path):
    poisoned = _small_model_doc(tmp_path, leaf=float("nan"))
    baseline = Baseline([Suppression(rule="EA003")])
    report = run_checks(rules=["EA"], model_path=poisoned,
                        baseline=baseline)
    assert report.exit_code == 0
    assert [f.rule for f in report.suppressed] == ["EA003"]


def test_report_json_rendering(tmp_path):
    poisoned = _small_model_doc(tmp_path, leaf=float("nan"))
    report = run_checks(rules=["EA"], model_path=poisoned)
    payload = json.loads(report.render("json"))
    assert payload["counts"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "EA003"
    assert payload["analyzers"] == ["ensemble"]
    assert set(payload["analyzer_seconds"]) == {"ensemble"}
    assert payload["exit_code"] == 1


def test_report_rejects_unknown_format():
    with pytest.raises(CheckError):
        run_checks(rules=["LK"]).render("yaml")


def test_unused_feature_check_is_opt_in(tmp_path):
    # A small-but-legitimate model leaves schema features unsplit; the
    # default --model run must not flood EA006 warnings (verify caught
    # 116 of them on a 16-query demo model before this gate existed).
    model = _small_model_doc(tmp_path)
    report = run_checks(rules=["EA"], model_path=model)
    assert report.findings == []
    report = run_checks(rules=["EA"], model_path=model,
                        check_unused_features=True)
    assert {f.rule for f in report.findings} == {"EA006"}
    assert report.exit_code == 1


def test_analyzer_crash_exits_3_not_1():
    # A missing model file makes the model-consuming analyzers raise;
    # the driver converts that into <prefix>000 findings and a distinct
    # exit code so CI can tell broken checker from broken code.
    report = run_checks(rules=["EA"],
                        model_path="/nonexistent/model.json")
    assert report.exit_code == 3
    assert [f.rule for f in report.findings] == ["EA000"]
    assert "model file not found" in report.findings[0].message


def test_analyzer_crash_findings_are_baselinable():
    baseline = Baseline([Suppression(rule="EA000")])
    report = run_checks(rules=["EA"],
                        model_path="/nonexistent/model.json",
                        baseline=baseline)
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# update_baseline (merge semantics)
# ---------------------------------------------------------------------------

def test_update_baseline_fresh_file_adds_reason_stubs(tmp_path):
    path = tmp_path / "baseline.toml"
    kept, added, dropped = update_baseline(
        [_finding(), _finding(rule="DT003", line=3)], path)
    assert (kept, added, dropped) == (0, 2, 0)
    text = path.read_text()
    assert text.count("[[suppress]]") == 2
    assert text.count("# reason: TODO") == 2
    loaded = Baseline.load(path)
    assert loaded.is_suppressed(_finding())
    assert loaded.is_suppressed(_finding(rule="DT003", line=3))


def test_update_baseline_keeps_matching_entries_with_reasons(tmp_path):
    path = tmp_path / "baseline.toml"
    path.write_text(
        "[[suppress]]\n"
        'rule = "LK002"\n'
        'path = "src/repro/serving/x.py"\n'
        'reason = "grandfathered until the registry rework"\n')
    kept, added, dropped = update_baseline(
        [_finding(), _finding(rule="DT003", line=3)], path)
    assert (kept, added, dropped) == (1, 1, 0)
    text = path.read_text()
    assert "grandfathered until the registry rework" in text
    assert text.count("# reason: TODO") == 1


def test_update_baseline_drops_stale_entries(tmp_path):
    path = tmp_path / "baseline.toml"
    path.write_text(
        "[[suppress]]\n"
        'rule = "CG009"\n'
        'reason = "fixed long ago"\n')
    kept, added, dropped = update_baseline([_finding()], path)
    assert (kept, added, dropped) == (0, 1, 1)
    assert "CG009" not in path.read_text()


def test_update_baseline_dedupes_identical_findings(tmp_path):
    path = tmp_path / "baseline.toml"
    kept, added, dropped = update_baseline([_finding(), _finding()], path)
    assert (kept, added, dropped) == (0, 1, 0)
