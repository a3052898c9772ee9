"""Table 5 — DPsize join-ordering speed with C_out vs T3 as cost model.

Paper (113 JOB queries, cardinality oracle):
  C_out : 8.5 ms   total, 158,320 model calls, 0.054 us/call
  T3    : 525.4 ms total, 316,640 model calls, 1.659 us/call (~60x slower)

Reproduction target: T3 makes ~2x the model calls (each DP combination
touches two pipelines) and is substantially slower per call; the exact
ratio differs because our C_out runs in Python rather than C++.

"Model Calls" counts model rows, as the paper does. DPsize hands the
cost model one whole DP level at a time, so a compiled T3 makes one
native call per level (plus one for the leaves): "Native Calls" is far
below "Model Calls".
"""

from repro.datagen.benchmarks_job import job_queries
from repro.datagen.instances import get_instance
from repro.joinorder import CoutJoinCost, JoinGraph, T3JoinCost, dpsize
from repro.experiments.reporting import print_table


def test_table5_optimization_speed(benchmark, ctx, t3):
    instance = get_instance("imdb")
    graphs = [JoinGraph.from_logical(logical, instance.catalog)
              for _, logical in job_queries(instance)]

    def run(cost_model_factory):
        total_seconds = 0.0
        total_calls = 0
        for graph in graphs:
            cost_model = cost_model_factory()
            result = dpsize(graph, cost_model)
            total_seconds += result.optimization_seconds
            total_calls += result.model_calls
        return total_seconds, total_calls

    cout_seconds, cout_calls = benchmark.pedantic(
        lambda: run(CoutJoinCost), rounds=1, iterations=1)
    native_before = getattr(t3._compiled, "ffi_calls", 0)
    t3_seconds, t3_calls = run(
        lambda: T3JoinCost(t3.predict_raw_one, t3.registry,
                           instance.catalog))
    t3_native_calls = getattr(t3._compiled, "ffi_calls", 0) - native_before

    print_table(
        "Table 5: join ordering with DPsize (all 113 JOB queries)",
        ["Cost Model", "Opt. Time", "Model Calls", "Native Calls",
         "Time/Call"],
        [
            ["Cout", f"{cout_seconds * 1e3:.1f}ms", f"{cout_calls:,}", "0",
             f"{cout_seconds / cout_calls * 1e6:.3f}us"],
            ["T3", f"{t3_seconds * 1e3:.1f}ms", f"{t3_calls:,}",
             f"{t3_native_calls:,}",
             f"{t3_seconds / t3_calls * 1e6:.3f}us"],
        ],
        note="paper: 8.5ms/158k calls vs 525.4ms/317k calls (2x calls, "
             "~60x time)")

    assert t3_calls >= 2 * cout_calls          # two pipelines per combination
    assert t3_calls <= 2 * cout_calls + sum(g.n_relations for g in graphs)
    assert t3_seconds > cout_seconds           # T3 is the slower cost model
    # One native call per DP level, not two per combination.
    assert t3_native_calls <= sum(g.n_relations for g in graphs)
    assert t3_native_calls * 10 < t3_calls
