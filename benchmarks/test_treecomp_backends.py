"""Inference backends — fig05/tab01/tab02, compiled vs interpreted.

Re-runs the paper's latency/throughput shapes (Figure 5 scaling,
Table 1 single-row latency, Table 2 single-vs-batch throughput) for the
compiled nested-if backend and the vectorized interpreter.

The headline gate is the batch-native runtime contract: at batch 256,
one ``predict_batch`` FFI call must beat 256 back-to-back
``predict_one`` calls by at least 5x in rows/second. Accuracy rides
along: the compiled backend must be bit-identical to the interpreter
(zero q-error delta).

Numbers land in ``BENCH_treecomp.json`` at the repo root so CI can
track them on every PR::

    REPRO_BENCH_SCALE=smoke pytest benchmarks/test_treecomp_backends.py --benchmark-only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.dataset import build_dataset
from repro.experiments.reporting import format_seconds, print_table
from repro.treecomp import InterpretedModel, compile_model, find_c_compiler

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_treecomp.json"

#: The batch-native acceptance bar: one batch-256 FFI call must deliver
#: at least 5x the rows/second of 256 single-row calls.
MIN_BATCH_SPEEDUP = 5.0
GATE_BATCH_ROWS = 256

PIPELINE_COUNTS = (1, 10, 100, 1000)

pytestmark = pytest.mark.skipif(find_c_compiler() is None,
                                reason="no C compiler available")


def _median_time(fn, repeats):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _rows_per_second(fn, n_rows, seconds_budget=0.4):
    fn()  # warm-up
    start = time.perf_counter()
    calls = 0
    while time.perf_counter() - start < seconds_budget:
        fn()
        calls += 1
    return calls * n_rows / (time.perf_counter() - start)


def test_backend_matrix(benchmark, ctx, t3, test_queries):
    dataset = ctx.cache.get_or_build(
        ctx._key("test-dataset-exact"), lambda: build_dataset(test_queries))
    pool = np.ascontiguousarray(dataset.X)
    rng = np.random.default_rng(0)
    gate_rows = np.ascontiguousarray(
        pool[rng.choice(len(pool), size=GATE_BATCH_ROWS, replace=True)])
    gate_vectors = [np.ascontiguousarray(v) for v in gate_rows]

    interpreter = InterpretedModel(t3.booster)
    reference = interpreter.predict(pool)
    compiled = compile_model(t3.booster)
    backends = {"interpreted": interpreter, "compiled": compiled}

    record = {"scale": ctx.scale.name, "n_trees": t3.booster.n_trees,
              "n_features": t3.booster.n_features,
              "gate_batch_rows": GATE_BATCH_ROWS, "backends": {}}
    table_rows = []
    try:
        for name, backend in backends.items():
            # -- accuracy vs the interpreter (tab04's q-error framing:
            # identical raw predictions mean identical q-errors) -------
            predictions = backend.predict(pool)
            max_delta = float(np.max(np.abs(predictions - reference))) \
                if len(pool) else 0.0
            bit_identical = bool(np.array_equal(predictions, reference))

            # -- tab01 shape: single-row latency -----------------------
            x = gate_vectors[0]
            single_latency = _median_time(
                lambda: backend.predict_one(x), repeats=300)

            # -- fig05 shape: batch latency by pipeline count ----------
            scaling = {}
            for count in PIPELINE_COUNTS:
                batch = np.ascontiguousarray(
                    pool[rng.choice(len(pool), size=count, replace=True)])
                repeats = max(3, min(50, 2000 // count))
                scaling[count] = _median_time(
                    lambda b=batch: backend.predict(b), repeats)

            # -- tab02 shape: rows/second, single vs batch-256 ---------
            def single_sweep(vecs=gate_vectors, b=backend):
                for vector in vecs:
                    b.predict_one(vector)

            single_rps = _rows_per_second(single_sweep, GATE_BATCH_ROWS)
            batch_rps = _rows_per_second(
                lambda b=backend: b.predict(gate_rows), GATE_BATCH_ROWS)

            record["backends"][name] = {
                "bit_identical_to_interpreter": bit_identical,
                "max_abs_delta": max_delta,
                "single_row_latency_us": round(single_latency * 1e6, 3),
                "latency_by_pipelines_us": {
                    str(c): round(s * 1e6, 3) for c, s in scaling.items()},
                "single_rows_per_second": round(single_rps),
                "batch256_rows_per_second": round(batch_rps),
                "batch_vs_single_speedup": round(batch_rps / single_rps, 2),
            }
            table_rows.append(
                [name, format_seconds(single_latency),
                 format_seconds(scaling[1000]),
                 f"{batch_rps:,.0f}", f"{batch_rps / single_rps:.1f}x",
                 "0" if bit_identical else f"{max_delta:.2e}"])

        # The serving hot path in one line: a 256-row micro-batch
        # through the compiled batch entry.
        benchmark(lambda: compiled.predict(gate_rows))
    finally:
        compiled.close()

    gate = record["backends"]["compiled"]
    record["gate"] = {
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
        "batch256_rows_per_second": gate["batch256_rows_per_second"],
        "single_rows_per_second": gate["single_rows_per_second"],
        "speedup_vs_own_single": gate["batch_vs_single_speedup"],
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print_table(
        "Inference backends (fig05/tab01/tab02 shapes)",
        ["backend", "1-row", "1000-row", "batch-256 rows/s",
         "batch/single", "max |delta|"],
        table_rows,
        note=f"gate: compiled batch >= {MIN_BATCH_SPEEDUP}x per-row "
             f"compiled at {GATE_BATCH_ROWS} rows; "
             f"recorded in {RESULT_PATH.name}")

    # -- accuracy gate -----------------------------------------------
    assert gate["bit_identical_to_interpreter"], (
        f"compiled diverged from the interpreter by "
        f"{gate['max_abs_delta']}")

    # -- throughput gate: batch-native must beat per-row FFI by 5x ----
    assert gate["batch256_rows_per_second"] >= \
        MIN_BATCH_SPEEDUP * gate["single_rows_per_second"], (
            f"compiled batch-256 {gate['batch256_rows_per_second']} "
            f"rows/s vs per-row compiled {gate['single_rows_per_second']} "
            f"rows/s — expected >= {MIN_BATCH_SPEEDUP}x")

    # fig05 sanity: compiled batch latency stays in the microsecond
    # regime at one pipeline and scales sublinearly past it.
    one = gate["latency_by_pipelines_us"]["1"]
    thousand = gate["latency_by_pipelines_us"]["1000"]
    assert one < 50.0
    assert thousand < one * 1000
