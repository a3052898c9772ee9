"""SARIF rendering: schema shape, suppressions, driver integration."""

from __future__ import annotations

import json

from repro.checks import RULES, run_checks
from repro.checks.findings import Finding, Severity
from repro.checks.sarif import SARIF_SCHEMA, SARIF_VERSION, render_sarif


def _finding(rule="LK002", path="src/repro/serving/x.py", line=10,
             severity=Severity.ERROR, message="shared state unguarded"):
    return Finding(rule, severity, path, line, message)


def _render(findings=(), suppressed=(), rules=None):
    return json.loads(render_sarif(list(findings), list(suppressed),
                                   rules if rules is not None else RULES))


def test_document_skeleton():
    doc = _render()
    assert doc["version"] == SARIF_VERSION
    assert doc["$schema"] == SARIF_SCHEMA
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-t3-check"
    assert run["results"] == []
    assert run["columnKind"] == "utf16CodeUnits"


def test_full_rule_table_is_embedded():
    driver = _render()["runs"][0]["tool"]["driver"]
    ids = [rule["id"] for rule in driver["rules"]]
    assert ids == sorted(RULES)
    by_id = {rule["id"]: rule for rule in driver["rules"]}
    assert (by_id["LK003"]["shortDescription"]["text"]
            == RULES["LK003"])


def test_result_location_and_level():
    doc = _render(findings=[_finding()])
    (result,) = doc["runs"][0]["results"]
    assert result["ruleId"] == "LK002"
    assert result["level"] == "error"
    assert result["message"]["text"] == "shared state unguarded"
    physical = result["locations"][0]["physicalLocation"]
    assert physical["artifactLocation"]["uri"] == "src/repro/serving/x.py"
    assert physical["region"]["startLine"] == 10
    # ruleIndex points back into the embedded rule table.
    table = doc["runs"][0]["tool"]["driver"]["rules"]
    assert table[result["ruleIndex"]]["id"] == "LK002"


def test_warning_severity_maps_to_warning_level():
    doc = _render(findings=[_finding(rule="EA005",
                                     severity=Severity.WARNING)])
    assert doc["runs"][0]["results"][0]["level"] == "warning"


def test_whole_file_findings_omit_region():
    doc = _render(findings=[_finding(line=0)])
    physical = doc["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"]
    assert "region" not in physical


def test_suppressed_findings_carry_suppressions():
    doc = _render(findings=[_finding(rule="EX007")],
                  suppressed=[_finding(rule="LK002")])
    results = doc["runs"][0]["results"]
    assert len(results) == 2
    live = next(r for r in results if r["ruleId"] == "EX007")
    muted = next(r for r in results if r["ruleId"] == "LK002")
    assert "suppressions" not in live
    assert muted["suppressions"][0]["kind"] == "external"
    assert "checks_baseline.toml" in muted["suppressions"][0]["justification"]


def test_driver_report_renders_sarif():
    report = run_checks(rules=["LK"])
    doc = json.loads(report.render("sarif"))
    assert doc["version"] == SARIF_VERSION
    # Repo is clean under the concurrency analyzer: no results, but the
    # complete rule table still ships for code-scanning ingestion.
    assert doc["runs"][0]["results"] == []
    assert len(doc["runs"][0]["tool"]["driver"]["rules"]) == len(RULES)
