"""Wall-time record for the full `repro-t3 check` run.

CI's perf gate re-runs the suite with a shell timer and fails above
10 s; this test enforces the same budget in-process and writes the
per-analyzer breakdown to ``BENCH_checks.json`` at the repo root
(gitignored, uploaded as a CI artifact) so the cost of each of the
six analyzers is tracked over time.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks import run_checks

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_checks.json"

#: CI's wall-clock budget for the whole suite (see .github/workflows).
MAX_SECONDS = 10.0


def test_full_check_run_fits_ci_budget_and_records_timings():
    report = run_checks()
    record = {
        "analyzers": sorted(report.analyzers_run),
        "analyzer_seconds": {name: round(seconds, 4)
                             for name, seconds
                             in sorted(report.timings.items())},
        "total_seconds": round(report.elapsed_seconds, 4),
        "budget_seconds": MAX_SECONDS,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    assert len(report.analyzers_run) == 6
    assert set(report.timings) == set(report.analyzers_run)
    assert report.elapsed_seconds < MAX_SECONDS
