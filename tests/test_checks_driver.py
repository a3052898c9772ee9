"""Driver behaviour: crash containment, --rule selection, baseline lifecycle.

A crashing analyzer must cost exit code 3 and a ``<prefix>000`` finding
— never the findings (or the SARIF artifact) of the analyzers that
succeeded. The baseline tests walk the full suppression lifecycle:
``--update-baseline`` → clean re-run → hand-edited drift → the finding
surfaces as unsuppressed and the dead entry is reported stale.
"""

from __future__ import annotations

import json

from repro.checks import driver as driver_mod
from repro.checks.driver import (
    EXIT_ANALYZER_CRASH,
    EXIT_FINDINGS,
    run_checks,
)
from repro.checks.findings import (
    Baseline,
    Finding,
    Severity,
    Suppression,
    update_baseline,
)
from repro.errors import CheckError


def _boom(opts):
    raise RuntimeError("synthetic analyzer bug")


def _planted(opts):
    return [Finding("CG010", Severity.ERROR, "src/repro/fake.py", 5,
                    "planted finding for baseline tests")]


# ---------------------------------------------------------------------------
# crash containment (exit code 3, SARIF survives)
# ---------------------------------------------------------------------------


def test_analyzer_crash_reports_000_and_exit_3(monkeypatch):
    monkeypatch.setitem(driver_mod.ANALYZERS, "codegen", ("CG", _boom))
    report = run_checks()
    assert report.exit_code == EXIT_ANALYZER_CRASH
    crashes = [f for f in report.findings if f.rule == "CG000"]
    assert len(crashes) == 1
    assert "RuntimeError" in crashes[0].message
    assert "synthetic analyzer bug" in crashes[0].message
    # every other analyzer still ran to completion
    assert set(report.analyzers_run) == set(driver_mod.ANALYZERS)
    assert [f for f in report.findings if f.rule != "CG000"] == []


def test_crash_still_emits_sarif_for_succeeded_analyzers(monkeypatch):
    monkeypatch.setitem(driver_mod.ANALYZERS, "codegen", ("CG", _boom))
    monkeypatch.setitem(driver_mod.ANALYZERS, "ensemble", ("EA", _planted))
    report = run_checks()
    doc = json.loads(report.render("sarif"))
    rules = {r["ruleId"] for r in doc["runs"][0]["results"]}
    assert rules == {"CG000", "CG010"}   # crash and survivor, side by side
    assert report.exit_code == EXIT_ANALYZER_CRASH


def test_crash_finding_survives_rule_filter(monkeypatch):
    # `--rule CG005` selects codegen but not CG000; the crash finding
    # must survive the rule filter or the run would lie with exit 0.
    monkeypatch.setitem(driver_mod.ANALYZERS, "codegen", ("CG", _boom))
    report = run_checks(rules=["CG005"])
    assert report.exit_code == EXIT_ANALYZER_CRASH
    assert [f.rule for f in report.findings] == ["CG000"]


def test_check_error_is_still_a_000_finding(monkeypatch):
    def raise_check_error(opts):
        raise CheckError("cannot load corpus")
    monkeypatch.setitem(driver_mod.ANALYZERS, "ensemble",
                        ("EA", raise_check_error))
    report = run_checks()
    assert report.exit_code == EXIT_ANALYZER_CRASH
    assert [f.rule for f in report.findings] == ["EA000"]
    assert "cannot load corpus" in report.findings[0].message


# ---------------------------------------------------------------------------
# --rule selection
# ---------------------------------------------------------------------------


def test_rule_prefix_selects_whole_analyzers():
    assert run_checks(rules=["DT"]).analyzers_run == ["determinism"]
    both = run_checks(rules=["RS", "dt"])
    assert both.analyzers_run == ["determinism", "resources"]


def test_timings_cover_exactly_the_analyzers_run():
    report = run_checks(rules=["DT", "EA"])
    assert list(report.timings) == ["ensemble", "determinism"]
    payload = json.loads(report.render("json"))
    assert set(payload["analyzer_seconds"]) == {"ensemble", "determinism"}


# ---------------------------------------------------------------------------
# baseline suppression roundtrip (SARIF included)
# ---------------------------------------------------------------------------


def test_baseline_roundtrip_and_drift(monkeypatch, tmp_path):
    monkeypatch.setitem(driver_mod.ANALYZERS, "ensemble", ("EA", _planted))
    baseline_path = tmp_path / "baseline.toml"

    # Finding is new without a baseline; --update-baseline grandfathers
    # it with a `# reason:` stub to fill in.
    first = run_checks()
    assert first.exit_code == EXIT_FINDINGS
    kept, added, dropped = update_baseline(first.findings, baseline_path)
    assert (kept, added, dropped) == (0, 1, 0)
    assert "# reason:" in baseline_path.read_text()

    # Re-run against the fresh baseline: zero new findings, suppression
    # carried into SARIF as an external suppression.
    second = run_checks(baseline=baseline_path)
    assert second.exit_code == 0
    assert second.findings == []
    assert len(second.suppressed) == 1
    assert second.stale_suppressions == []
    doc = json.loads(second.render("sarif"))
    results = doc["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["suppressions"][0]["kind"] == "external"

    # Hand-edit the stub entry so it no longer matches (source drift):
    # the finding surfaces as unsuppressed and the entry is dead weight.
    baseline_path.write_text(
        baseline_path.read_text().replace("line = 5", "line = 6"))
    third = run_checks(baseline=baseline_path)
    assert third.exit_code == EXIT_FINDINGS
    assert [f.rule for f in third.findings] == ["CG010"]
    assert [s.line for s in third.stale_suppressions] == [6]
    assert "stale baseline suppression" in third.render("text")

    # --update-baseline prunes the dead entry and re-adds the real one.
    kept, added, dropped = update_baseline(third.findings, baseline_path)
    assert (kept, added, dropped) == (0, 1, 1)
    assert run_checks(baseline=baseline_path).exit_code == 0


def test_hand_written_reason_survives_update(monkeypatch, tmp_path):
    monkeypatch.setitem(driver_mod.ANALYZERS, "ensemble", ("EA", _planted))
    baseline_path = tmp_path / "baseline.toml"
    update_baseline(run_checks().findings, baseline_path)
    baseline_path.write_text(baseline_path.read_text().replace(
        "# reason: TODO — justify why this finding is grandfathered",
        'reason = "grandfathered until the fake module is rewritten"'))
    kept, added, dropped = update_baseline(
        run_checks().findings, baseline_path)
    assert (kept, added, dropped) == (1, 0, 0)
    assert ('reason = "grandfathered until the fake module is rewritten"'
            in baseline_path.read_text())


# ---------------------------------------------------------------------------
# stale-suppression reporting
# ---------------------------------------------------------------------------


def test_stale_suppression_warned_on_full_run():
    loaded = Baseline(suppressions=[
        Suppression(rule="DT003", path="src/repro/nonexistent.py", line=1)])
    report = run_checks(baseline=loaded)
    assert len(report.stale_suppressions) == 1
    warning = report.stale_warnings()[0]
    assert "DT003" in warning
    assert "src/repro/nonexistent.py:1" in warning
    payload = json.loads(report.render("json"))
    assert payload["stale_suppressions"] == [
        {"rule": "DT003", "path": "src/repro/nonexistent.py",
         "line": 1, "reason": ""}]


def test_stale_detection_suppressed_on_filtered_runs():
    # A --rule run never saw most findings, so a non-matching entry
    # proves nothing — no stale warnings.
    loaded = Baseline(suppressions=[
        Suppression(rule="DT003", path="src/repro/nonexistent.py", line=1)])
    assert run_checks(baseline=loaded,
                      rules=["DT"]).stale_suppressions == []
    assert run_checks(baseline=loaded,
                      rules=["DT003"]).stale_suppressions == []
