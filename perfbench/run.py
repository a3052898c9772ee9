"""The repository benchmark: one workload, end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-hot --seed 1 --seconds 10 \\
        --trace 0

Set-up builds the smoke-scale 21-instance corpus and trains and compiles
the standard T3 from scratch into a throwaway cache under
``.perfbench/``, then prepares the workload; it is repeated
``--setup-repeats`` times and ``setup_s`` is the median wall time. The
``--seconds`` window is split evenly over the builds: each serves its
share of the workload right after it is built, and every answer is then
checked against the interpreted ensemble.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures each
share in two halves, untraced then traced, prints the per-layer metrics
and writes the spans to ``.perfbench/spans-<workload>-<seed>.csv``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "throughput_qps": "1/s",
    "within_limit_share": "fraction",
    "success_rate": "fraction",
    "qerror_p50": "ratio",
    "qerror_p90": "ratio",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("online-hot", "bulk-cold", "joinorder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=3)
    return parser.parse_args(argv)


def _isolate(work: Path) -> None:
    """Keep every file the program writes inside ``work``: compiler
    temporaries and the experiment cache; shipped job-count default."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ.pop("REPRO_JOBS", None)


def _set_up(workload_cls, seed: int, work: Path, tracer, targets):
    """One offline build from scratch plus workload preparation,
    traced through ``targets`` when ``tracer`` is given."""
    from repro.datagen.instances import get_instance
    from repro.experiments.cache import DiskCache
    from repro.experiments.context import ExperimentContext, ExperimentScale

    # A fresh process would rebuild the instances; so does each set-up.
    getattr(get_instance, "cache_clear", lambda: None)()
    cache = DiskCache(Path(tempfile.mkdtemp(prefix="setup-", dir=work)))
    if tracer is not None:
        _report_missing(tracer.install(targets))
    try:
        started = time.perf_counter()
        context = ExperimentContext(ExperimentScale.smoke(), cache=cache)
        context.workload()
        model = context.t3()
        prepared = workload_cls(model, seed)
        elapsed = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return context, model, prepared, elapsed


def _report_missing(paths) -> None:
    """Trace targets absent from this version of the program."""
    for path in paths:
        print(f"trace target not found, not traced: {path}")


_COUNTERS = ("ffi_calls", "cache_hits", "cache_misses", "cache_evictions",
             "batches", "batch_rows", "shed")


def _counters(prepared) -> dict:
    """The program's own counters (plan cache, batcher, native calls)."""
    compiled = getattr(prepared.model, "_compiled", None)
    out = {"ffi_calls": float(getattr(compiled, "ffi_calls", 0))}
    service = getattr(prepared, "service", None)
    stats = service.cache_stats() if service else None
    out["cache_hits"] = float(stats.hits) if stats else 0.0
    out["cache_misses"] = float(stats.misses) if stats else 0.0
    out["cache_evictions"] = float(stats.evictions) if stats else 0.0

    def metric(name: str, attr: str = "value") -> float:
        instrument = service.metrics.get(name) if service else None
        return float(getattr(instrument, attr)) if instrument else 0.0

    out["batches"] = metric("t3_serving_batches_total")
    out["batch_rows"] = metric("t3_serving_batch_rows", "sum")
    out["shed"] = (metric("t3_serving_shed_total")
                   + metric("t3_serving_deadline_expired_total")
                   + metric("t3_serving_rejected_total"))
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def _end_to_end(main, failed: int, attempted: int, setups, context,
                model, throughput: float) -> dict:
    summary = model.evaluate(context.test_queries())
    print(f"q-error over {summary.count} held-out TPC-DS queries")
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_us": _pct(main.latencies, 50) * 1e6,
        "latency_p99_us": _pct(main.latencies, 99) * 1e6,
        "throughput_qps": throughput,
        "within_limit_share": (main.within_limit / main.limited
                               if main.limited else 0.0),
        "success_rate": 1.0 - failed / max(attempted, 1),
        "qerror_p50": summary.p50,
        "qerror_p90": summary.p90,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(layers, workloads, tracer, counters, untraced, traced,
               setup_layers) -> dict:
    metrics, shares = layers.workload_metrics(tracer.spans, counters,
                                              traced.model_calls)
    for name in layers.UNITS:
        if name.startswith("setup."):
            metrics[name] = statistics.median(
                run[name] for run in setup_layers)
    metrics["loadgen.late_us_p99"] = (
        _pct(untraced.late, 99) * 1e6 if untraced.late else 0.0)
    traced_rate = workloads.throughput(traced)
    metrics["tracing.overhead_share"] = (
        workloads.throughput(untraced) / traced_rate - 1.0
        if traced_rate else 0.0)
    print("self-time shares: " + ", ".join(
        f"{name} {share:.3f}" for name, share in sorted(shares.items())))
    print(f"shares sum to {sum(shares.values()):.4f} of end-to-end time; "
          f"{len(tracer.spans)} spans")
    return metrics


def _untraced(fn):
    return fn


def _run(args, work: Path) -> dict:
    import layers
    import workloads
    from tracing import Tracer

    workload_cls = workloads.WORKLOADS[args.workload]
    # The window is split over the set-ups, each measuring right after
    # its own build, so one run samples the shared machine over the
    # whole set-up time rather than over a single stretch of it.
    chunk = args.seconds / args.setup_repeats
    setups, setup_layers = [], []
    untraced, traced, wrong = [], [], 0
    tracer = Tracer()
    requests = itertools.count(1)
    counters = dict.fromkeys(_COUNTERS, 0.0)
    for repeat in range(args.setup_repeats):
        setup_tracer = Tracer() if args.trace else None
        context, model, prepared, elapsed = _set_up(
            workload_cls, args.seed, work, setup_tracer,
            layers.SETUP_TARGETS)
        setups.append(elapsed)
        if setup_tracer is not None:
            setup_layers.append(layers.setup_metrics(setup_tracer.spans))
        print(f"set-up {repeat + 1}/{args.setup_repeats}: {elapsed:.3f} s",
              flush=True)
        # Set-up leaves the corpus and training data behind as garbage;
        # collect it here, not in a collector pause inside the window.
        gc.collect()
        try:
            if not args.trace:
                outcomes = [prepared.run(chunk, _untraced)]
            else:
                outcomes = [prepared.run(chunk / 2.0, _untraced)]
                before = _counters(prepared)
                _report_missing(tracer.install(layers.WORKLOAD_TARGETS))
                try:
                    outcomes.append(prepared.run(
                        chunk / 2.0,
                        lambda fn: tracer.root(fn, requests.__next__)))
                finally:
                    tracer.uninstall()
                after = _counters(prepared)
                for key in counters:
                    counters[key] += after[key] - before[key]
                traced.append(outcomes[1])
            untraced.append(outcomes[0])
            wrong += sum(prepared.check(outcome) for outcome in outcomes)
        finally:
            prepared.close()

    main = workloads.merge(untraced)
    attempted = main.attempted + sum(o.attempted for o in traced)
    failed = main.failed + sum(o.failed for o in traced) + wrong
    print(f"{args.workload}: {main.attempted} units, {len(main.latencies)} "
          f"latency samples, {main.limited} held to the limit, "
          f"{len(main.rates)} throughput slices, {wrong} wrong answers")
    if not args.trace:
        metrics = _end_to_end(main, failed, attempted, setups, context,
                              model, workloads.throughput(main))
        units = END_TO_END_UNITS
    else:
        metrics = _per_layer(layers, workloads, tracer, counters, main,
                             workloads.merge(traced), setup_layers)
        units = layers.UNITS
        tracer.write(ROOT / ".perfbench"
                     / f"spans-{args.workload}-{args.seed}.csv")

    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    finite = all(math.isfinite(value) for value in metrics.values())
    return {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.setup_repeats < 1:
        print("error: --seconds and --setup-repeats must be positive",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    _isolate(work)
    try:
        result = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
