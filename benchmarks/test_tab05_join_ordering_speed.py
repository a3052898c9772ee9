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

A join graph enumerates its DP levels and featurizes its leaf scans on
the first run and keeps both, so the table reports two passes per cost
model: a cold one over freshly built graphs, as in the paper, and a warm
one over the same graphs, which must answer identically.
"""

import gc

from repro.datagen.benchmarks_job import job_queries
from repro.datagen.instances import get_instance
from repro.joinorder import CoutJoinCost, JoinGraph, T3JoinCost, dpsize
from repro.experiments.reporting import print_table


def test_table5_optimization_speed(benchmark, ctx, t3):
    instance = get_instance("imdb")
    queries = job_queries(instance)

    def fresh_graphs():
        return [JoinGraph.from_logical(logical, instance.catalog)
                for _, logical in queries]

    def run(graphs, cost_model_factory):
        """One pass: seconds, model calls, native calls, per-query answers."""
        # Start each pass with no collector debt: a full collection owed
        # by the fixtures' set-up would otherwise land in whichever pass
        # first allocates enough (tens of ms at default scale).
        gc.collect()
        total_seconds = 0.0
        total_calls = 0
        answers = []
        native_before = getattr(t3._compiled, "ffi_calls", 0)
        for graph in graphs:
            cost_model = cost_model_factory()
            result = dpsize(graph, cost_model)
            total_seconds += result.optimization_seconds
            total_calls += result.model_calls
            answers.append((result.tree, result.cost, result.model_calls))
        native_calls = getattr(t3._compiled, "ffi_calls", 0) - native_before
        return total_seconds, total_calls, native_calls, answers

    def t3_cost():
        return T3JoinCost(t3.predict_raw_one, t3.registry, instance.catalog)

    # The cold pass is the paper's shape: each cost model gets graphs of
    # its own, built fresh, so its timed runs enumerate the DP levels
    # (and, for T3, featurize the leaf scans) on their own. The warm pass
    # repeats it on the same graphs, which only costs the stored levels.
    cout_graphs = fresh_graphs()
    cout_seconds, cout_calls, _, cout_answers = benchmark.pedantic(
        lambda: run(cout_graphs, CoutJoinCost), rounds=1, iterations=1)
    graphs = fresh_graphs()
    t3_seconds, t3_calls, t3_native_calls, t3_answers = run(graphs, t3_cost)
    cout_warm_seconds, cout_warm_calls, _, cout_warm_answers = run(
        cout_graphs, CoutJoinCost)
    t3_warm_seconds, t3_warm_calls, t3_warm_native_calls, t3_warm_answers = \
        run(graphs, t3_cost)

    print_table(
        "Table 5: join ordering with DPsize (all 113 JOB queries)",
        ["Cost Model", "Pass", "Opt. Time", "Model Calls", "Native Calls",
         "Time/Call"],
        [
            ["Cout", "cold", f"{cout_seconds * 1e3:.1f}ms",
             f"{cout_calls:,}", "0",
             f"{cout_seconds / cout_calls * 1e6:.3f}us"],
            ["T3", "cold", f"{t3_seconds * 1e3:.1f}ms", f"{t3_calls:,}",
             f"{t3_native_calls:,}",
             f"{t3_seconds / t3_calls * 1e6:.3f}us"],
            ["Cout", "warm", f"{cout_warm_seconds * 1e3:.1f}ms",
             f"{cout_warm_calls:,}", "0",
             f"{cout_warm_seconds / cout_warm_calls * 1e6:.3f}us"],
            ["T3", "warm", f"{t3_warm_seconds * 1e3:.1f}ms",
             f"{t3_warm_calls:,}", f"{t3_warm_native_calls:,}",
             f"{t3_warm_seconds / t3_warm_calls * 1e6:.3f}us"],
        ],
        note="paper: 8.5ms/158k calls vs 525.4ms/317k calls (2x calls, "
             "~60x time); cold = fresh graphs (the paper's shape), warm = "
             "the same graphs again")

    assert t3_calls >= 2 * cout_calls          # two pipelines per combination
    assert t3_calls <= 2 * cout_calls + sum(g.n_relations for g in graphs)
    assert t3_seconds > cout_seconds           # T3 is the slower cost model
    # One native call per DP level, not two per combination.
    assert t3_native_calls <= sum(g.n_relations for g in graphs)
    assert t3_native_calls * 10 < t3_calls
    # A warm run answers exactly as the cold run did.
    assert cout_warm_answers == cout_answers
    assert t3_warm_answers == t3_answers
    assert (cout_warm_calls, t3_warm_calls) == (cout_calls, t3_calls)
    assert t3_warm_native_calls == t3_native_calls
