"""Trace targets and the per-layer metrics derived from their spans.

Layers are named after the program's modules. ``share`` is a layer's
self time (charged to the requests that waited on it) divided by the
workload's end-to-end time, the summed duration of its ``request``
spans; the shares of one workload therefore sum to at most 1.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from tracing import analyze


def _batch_rows(args, kwargs, result) -> int:
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return 1 if np.ndim(X) == 1 else len(X)


#: (dotted target, span name, work counter) for the workload phase.
#: Targets missing from a version of the program are skipped.
WORKLOAD_TARGETS = [
    ("repro.serving.service:parse_sql", "engine.sqlparser", None),
    ("repro.engine.optimizer:Optimizer.optimize", "engine.optimizer", None),
    ("repro.core.features:FeatureRegistry.vectors_for_plan",
     "core.features", None),
    ("repro.core.features:FeatureRegistry.vector_for_pipeline",
     "core.features", None),
    ("repro.serving.service:PredictionService.predict",
     "serving.service", None),
    ("repro.serving.service:PredictionService.predict_many",
     "serving.service", None),
    ("repro.serving.batching:MicroBatcher.submit", "serving.batching", None),
    ("repro.treecomp.compiler:CompiledTreeModel.predict", "treecomp",
     _batch_rows),
    ("repro.treecomp.compiler:CompiledTreeModel.predict_one", "treecomp",
     lambda args, kwargs, result: 1),
    ("repro.joinorder.costmodels:T3JoinCost.leaf",
     "joinorder.costmodels", None),
    ("repro.joinorder.costmodels:T3JoinCost.combine",
     "joinorder.costmodels", None),
    ("repro.joinorder.dpsize:dpsize", "joinorder.dpsize", None),
]

#: Targets of the offline build (set-up).
SETUP_TARGETS = [
    ("repro.experiments.context:build_corpus_workload_parallel",
     "setup.parallel.build", None),
    ("repro.parallel.workload:process_map", "setup.parallel.map",
     lambda args, kwargs, result: len(result)),
    ("repro.core.model:build_dataset", "setup.core.dataset",
     lambda args, kwargs, result: result.n_rows),
    ("repro.core.model:train_boosted_trees", "setup.trees.boosting", None),
    ("repro.trees.histogram:BinMapper.fit", "setup.trees.histogram", None),
    ("repro.trees.histogram:BinMapper.transform", "setup.trees.histogram",
     None),
    ("repro.trees.grow:TreeGrower.grow", "setup.trees.grow", None),
    ("repro.trees.objectives:L2Objective.gradient_hessian",
     "setup.trees.objectives", None),
    ("repro.trees.objectives:L1Objective.gradient_hessian",
     "setup.trees.objectives", None),
    ("repro.trees.objectives:MAPEObjective.gradient_hessian",
     "setup.trees.objectives", None),
    ("repro.treecomp.codegen:generate_c_source", "setup.treecomp.codegen",
     None),
    ("repro.treecomp.codegen:NestedIfStrategy.generate",
     "setup.treecomp.codegen", None),
    ("repro.core.model:compile_model", "setup.treecomp.compile", None),
]

#: Unit of each per-layer metric, in the order ``BENCHMARK.json`` lists
#: them.
UNITS = {
    "engine.sqlparser.calls": "count",
    "engine.sqlparser.us_p50": "us",
    "engine.sqlparser.share": "fraction",
    "engine.optimizer.calls": "count",
    "engine.optimizer.us_p50": "us",
    "engine.optimizer.share": "fraction",
    "core.features.calls": "count",
    "core.features.us_p50": "us",
    "core.features.share": "fraction",
    "serving.cache.hit_ratio": "fraction",
    "serving.cache.evictions": "count",
    "serving.batching.queue_wait_us_p50": "us",
    "serving.batching.queue_wait_us_p99": "us",
    "serving.batching.batches": "count",
    "serving.batching.rows_per_batch": "rows",
    "serving.batching.shed": "count",
    "serving.service.self_us_p50": "us",
    "serving.service.share": "fraction",
    "treecomp.calls": "count",
    "treecomp.rows": "count",
    "treecomp.us_per_call_p50": "us",
    "treecomp.share": "fraction",
    "joinorder.model_calls": "count",
    "joinorder.costmodels.self_us_per_call": "us",
    "joinorder.dpsize.share": "fraction",
    "setup.parallel.build_s": "s",
    "setup.parallel.tasks": "count",
    "setup.core.dataset.featurize_s": "s",
    "setup.core.dataset.rows": "count",
    "setup.trees.histogram.s": "s",
    "setup.trees.grow.s": "s",
    "setup.trees.grow.calls": "count",
    "setup.trees.objectives.s": "s",
    "setup.trees.boosting.self_s": "s",
    "setup.treecomp.codegen_s": "s",
    "setup.treecomp.compile_s": "s",
    "loadgen.late_us_p99": "us",
    "tracing.overhead_share": "fraction",
}

#: Share metrics reported, by layer.
SHARES = ("engine.sqlparser", "engine.optimizer", "core.features",
          "serving.service", "treecomp", "joinorder.dpsize")


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def setup_metrics(spans) -> Dict[str, float]:
    """The ``setup.*`` metrics of one traced offline build."""
    layers, _ = analyze(spans)

    def total(name: str, own: bool = False) -> float:
        stats = layers[name]
        return sum(stats.self_ns if own else stats.durations_ns) / 1e9

    return {
        "setup.parallel.build_s": total("setup.parallel.build"),
        "setup.parallel.tasks": float(layers["setup.parallel.map"].rows),
        "setup.core.dataset.featurize_s": total("setup.core.dataset"),
        "setup.core.dataset.rows": float(layers["setup.core.dataset"].rows),
        "setup.trees.histogram.s": total("setup.trees.histogram"),
        "setup.trees.grow.s": total("setup.trees.grow"),
        "setup.trees.grow.calls": float(layers["setup.trees.grow"].calls),
        "setup.trees.objectives.s": total("setup.trees.objectives"),
        "setup.trees.boosting.self_s": total("setup.trees.boosting", True),
        "setup.treecomp.codegen_s": total("setup.treecomp.codegen", True),
        "setup.treecomp.compile_s": total("setup.treecomp.compile", True),
    }


def workload_metrics(spans, counters: Dict[str, float], model_calls: int
                     ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced workload window, plus the share
    of every traced layer (``request`` is the load generator's own).

    ``counters`` holds the deltas of the program's own counters over
    the window (plan cache, batcher, native calls).
    """
    layers, handoff = analyze(spans, "serving.batching", "treecomp")
    e2e_ns = sum(layers["request"].durations_ns) or 1
    out: Dict[str, float] = {}
    for name in ("engine.sqlparser", "engine.optimizer", "core.features"):
        stats = layers[name]
        out[f"{name}.calls"] = float(stats.calls)
        out[f"{name}.us_p50"] = _p(stats.durations_ns, 50) / 1e3
    shares = {name: stats.charged_ns / e2e_ns
              for name, stats in layers.items()}
    for name in SHARES:
        out[f"{name}.share"] = shares.get(name, 0.0)

    lookups = counters["cache_hits"] + counters["cache_misses"]
    out["serving.cache.hit_ratio"] = (counters["cache_hits"] / lookups
                                      if lookups else 0.0)
    out["serving.cache.evictions"] = counters["cache_evictions"]
    waits = [span[4] - span[3] - handoff.get(span[0], 0) for span in spans
             if span[2] == "serving.batching"]
    out["serving.batching.queue_wait_us_p50"] = _p(waits, 50) / 1e3
    out["serving.batching.queue_wait_us_p99"] = _p(waits, 99) / 1e3
    out["serving.batching.batches"] = counters["batches"]
    out["serving.batching.rows_per_batch"] = (
        counters["batch_rows"] / counters["batches"]
        if counters["batches"] else 0.0)
    out["serving.batching.shed"] = counters["shed"]
    out["serving.service.self_us_p50"] = _p(
        layers["serving.service"].self_ns, 50) / 1e3

    native = layers["treecomp"]
    out["treecomp.calls"] = counters["ffi_calls"]
    out["treecomp.rows"] = float(native.rows)
    out["treecomp.us_per_call_p50"] = _p(native.durations_ns, 50) / 1e3
    out["joinorder.model_calls"] = float(model_calls)
    out["joinorder.costmodels.self_us_per_call"] = (
        sum(layers["joinorder.costmodels"].self_ns) / 1e3 / model_calls
        if model_calls else 0.0)
    return out, shares
