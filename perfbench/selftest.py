"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

For each workload (the ones ``BENCHMARK.json`` lists and ``online-hot``,
which stays runnable by hand), untraced and traced, it checks that the
run exits 0, that the last line is the result object, that every metric
named in
``BENCHMARK.json`` for that mode is printed with its unit and a finite
value, that no answer failed or was wrong, and that the traced
self-time shares sum to at most 1. It also checks that the benchmark
refuses to run (non-zero exit, no result) in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--setup-repeats", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_result(spec: dict, workload: str, trace: int) -> list:
    proc = _run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"{label}: metrics differ: "
                        f"{sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    if not trace and metrics.get("success_rate", {}).get("value") != 1.0:
        problems.append(f"{label}: success_rate is not 1")
    if trace:
        shares = sum(entry["value"] for name, entry in metrics.items()
                     if name.endswith(".share"))
        if shares > 1.0 + 1e-9:
            problems.append(f"{label}: shares sum to {shares}")
    print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def _check_refusal() -> list:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "online-hot", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = '"metrics"' in proc.stdout
    ok = proc.returncode != 0 and not printed_result
    print(f"refusal without sources: {'ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, "
                          f"result printed: {printed_result}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_refusal()
    for workload in ("online-hot", "bulk-cold", "joinorder"):
        for trace in (0, 1):
            problems += _check_result(spec, workload, trace)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
