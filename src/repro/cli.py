"""Command-line interface: ``repro-t3``.

Subcommands cover the library's end-to-end workflow:

* ``instances`` — list the 21-instance corpus,
* ``workload``  — generate and benchmark a workload, saved as a pickle,
* ``build-workload`` — pre-warm the experiment cache: build the full
  21-instance workload on a process pool (``--jobs`` / ``REPRO_JOBS``),
* ``train``     — train T3 on saved workloads, save the model as JSON,
* ``evaluate``  — q-error of a saved model on a saved workload,
* ``explain``   — show plan, pipelines, and feature vectors for a SQL
  query against a corpus instance,
* ``predict``   — predict the execution time of a SQL query,
* ``serve``     — run the online prediction service (HTTP),
* ``check``     — run the static-analysis suite (codegen verifier,
  feature-schema drift, plan invariants, ensemble analysis,
  concurrency checking, project lint, determinism taint, exception
  contracts, resource lifecycles, hot-path cost analysis).

Example session::

    repro-t3 workload --instances tpch_sf1,imdb -o train.pkl
    repro-t3 train -w train.pkl -o model.json
    repro-t3 predict -m model.json -i tpch_sf1 \\
        "SELECT count(*) FROM lineitem WHERE l_quantity <= 10"
    repro-t3 serve -m model.json --port 8080 &
    curl -X POST localhost:8080/predict -d \\
        '{"sql": "SELECT count(*) FROM lineitem", "instance": "tpch_sf1"}'
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import ReproError
from .core.model import T3Config, T3Model
from .core.features import default_registry
from .datagen.instances import all_instance_names, get_instance
from .datagen.workload import WorkloadConfig
from .engine.cardinality import ExactCardinalityModel
from .engine.explain import explain, explain_pipelines
from .engine.optimizer import Optimizer
from .engine.pipelines import decompose_into_pipelines
from .engine.sqlparser import parse_sql
from .trees.boosting import BoostingParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-t3",
        description="T3 performance prediction (SIGMOD'25 reproduction)")
    subcommands = parser.add_subparsers(dest="command", required=True)

    subcommands.add_parser("instances",
                           help="list the corpus database instances")

    workload = subcommands.add_parser(
        "workload", help="generate and benchmark a workload")
    workload.add_argument("--instances", required=True,
                          help="comma-separated instance names")
    workload.add_argument("--queries-per-structure", type=int, default=6)
    workload.add_argument("--no-fixed-benchmarks", action="store_true")
    workload.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS env "
                               "or all cores; 1 = serial)")
    workload.add_argument("-o", "--output", required=True)

    build_workload = subcommands.add_parser(
        "build-workload",
        help="pre-warm the experiment cache: build the full corpus "
             "workload on a process pool")
    build_workload.add_argument("--scale", default="default",
                                choices=("smoke", "default", "paper"),
                                help="experiment scale (queries per "
                                     "structure: 2 / 6 / 40)")
    build_workload.add_argument("--jobs", type=int, default=None,
                                help="worker processes (default: REPRO_JOBS "
                                     "env or all cores; 1 = serial)")
    build_workload.add_argument("--seed", type=int, default=None,
                                help="experiment seed (default: the "
                                     "library-wide DEFAULT_SEED)")
    build_workload.add_argument("--force", action="store_true",
                                help="rebuild even when already cached")

    train = subcommands.add_parser("train", help="train a T3 model")
    train.add_argument("-w", "--workload", required=True, nargs="+",
                       help="workload pickle(s) from the workload command")
    train.add_argument("-o", "--output", required=True)
    train.add_argument("--rounds", type=int, default=200)
    train.add_argument("--objective", default="mape",
                       choices=("mape", "l2", "l1"))
    train.add_argument("--no-compile", action="store_true")

    evaluate = subcommands.add_parser(
        "evaluate", help="q-error of a model on a workload")
    evaluate.add_argument("-m", "--model", required=True)
    evaluate.add_argument("-w", "--workload", required=True, nargs="+")

    explain_cmd = subcommands.add_parser(
        "explain", help="plan / pipelines / features of a SQL query")
    explain_cmd.add_argument("-i", "--instance", required=True)
    explain_cmd.add_argument("sql")
    explain_cmd.add_argument("--features", action="store_true",
                             help="also print per-pipeline feature vectors")

    predict = subcommands.add_parser(
        "predict", help="predict the execution time of a SQL query")
    predict.add_argument("-m", "--model", required=True)
    predict.add_argument("-i", "--instance", required=True)
    predict.add_argument("sql")

    serve = subcommands.add_parser(
        "serve", help="run the online prediction service over HTTP")
    serve.add_argument("-m", "--model", required=True, nargs="+",
                       help="model JSON path(s); prefix with NAME= to "
                            "register under a name (default: 'default')")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 binds an ephemeral port")
    serve.add_argument("--port-file",
                       help="write the bound port to this file once "
                            "listening (for scripts and smoke tests)")
    serve.add_argument("--batch-rows", type=int, default=256,
                       help="max feature rows coalesced per native call")
    serve.add_argument("--batch-wait-ms", type=float, default=2.0,
                       help="micro-batch coalescing window")
    serve.add_argument("--queue-size", type=int, default=512,
                       help="admission-control bound on queued requests")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="plan/feature cache entries")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="default per-request deadline in seconds")
    serve.add_argument("--no-compile", action="store_true",
                       help="force the interpreted backend")
    serve.add_argument("--chaos", metavar="PLAN",
                       help="deterministic fault plan: ';'-separated "
                            "site:action[:probability[:max_fires]] specs, "
                            "e.g. 'batcher.evaluate:raise:0.5;"
                            "cache.read:corrupt' (default: REPRO_FAULTS "
                            "env; sites: registry.compile, "
                            "batcher.evaluate, cache.read, "
                            "parallel.worker, http.handler, "
                            "lifecycle.log_append)")
    serve.add_argument("--chaos-seed", type=int, default=None,
                       help="seed for fault arming and breaker jitter "
                            "(default: REPRO_FAULTS_SEED env or the "
                            "repo seed); same plan + seed + request "
                            "sequence replays the same faults")
    serve.add_argument("--lifecycle", metavar="DIR",
                       help="enable the online model lifecycle: append "
                            "POST /observe ground truth to a crash-safe "
                            "observation log under DIR, retrain in the "
                            "background, shadow-evaluate, canary, and "
                            "promote or roll back automatically")
    serve.add_argument("--retrain-after", type=int, default=128,
                       help="observations between retrain attempts")
    serve.add_argument("--retrain-rounds", type=int, default=40,
                       help="boosting rounds for retrained candidates")
    serve.add_argument("--canary-fraction", type=float, default=0.2,
                       help="traffic fraction routed to a canary")
    serve.add_argument("--shadow-samples", type=int, default=48,
                       help="paired observations a shadow candidate "
                            "must score before judgement")
    serve.add_argument("--canary-samples", type=int, default=48,
                       help="paired observations a canary must survive "
                            "before promotion")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    check = subcommands.add_parser(
        "check", help="run the static-analysis suite over the repo")
    check.add_argument("--rule", action="append", dest="rules", default=[],
                       metavar="RULE",
                       help="run only this rule id (LK001) or analyzer "
                            "prefix (LK); repeatable")
    check.add_argument("--only", action="append", dest="only", default=[],
                       metavar="ANALYZER",
                       help="run only this analyzer, by name (determinism) "
                            "or rule prefix (DT); repeatable")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run up to N analyzers concurrently "
                            "(default: 1, serial)")
    check.add_argument("--format", default="text",
                       choices=("text", "json", "sarif"),
                       dest="fmt", help="findings output format")
    check.add_argument("--baseline", default=None,
                       help="suppression TOML (default: checks_baseline.toml "
                            "next to the current directory if present)")
    check.add_argument("--no-baseline", action="store_true",
                       help="ignore any baseline file")
    check.add_argument("--model", default=None,
                       help="saved model JSON to cross-check against the "
                            "generated C and the live feature schema")
    check.add_argument("--check-unused-features", action="store_true",
                       help="with --model: also warn (EA006) about schema "
                            "features no tree ever splits on")
    check.add_argument("--write-baseline", metavar="PATH",
                       help="write current findings as a suppression "
                            "baseline to PATH and exit 0")
    check.add_argument("--update-baseline", action="store_true",
                       help="rewrite the baseline in place: keep entries "
                            "that still match (and their reasons), add "
                            "stub entries for new findings, drop stale "
                            "ones; exit 0")
    check.add_argument("--list-rules", action="store_true",
                       help="print every rule id and exit")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_instances() -> int:
    print(f"{'name':16s} {'family':12s} {'tables':>6s} {'rows':>16s}")
    for name in all_instance_names():
        instance = get_instance(name)
        print(f"{name:16s} {instance.family:12s} "
              f"{len(instance.schema.tables):6d} "
              f"{instance.catalog.total_rows():16,}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .parallel import build_corpus_workload_parallel, resolve_jobs

    names = [n.strip() for n in args.instances.split(",") if n.strip()]
    for name in names:
        get_instance(name)  # fail on unknown names before building
    config = WorkloadConfig(
        queries_per_structure=args.queries_per_structure,
        include_fixed_benchmarks=not args.no_fixed_benchmarks)
    jobs = resolve_jobs(args.jobs)
    queries = build_corpus_workload_parallel(names, config, jobs=jobs)
    for name in names:
        count = sum(1 for q in queries if q.instance_name == name)
        print(f"{name}: {count} queries", file=sys.stderr)
    with open(args.output, "wb") as handle:
        pickle.dump(queries, handle, protocol=pickle.HIGHEST_PROTOCOL)
    print(f"wrote {len(queries)} benchmarked queries to {args.output} "
          f"(jobs={jobs})")
    return 0


def _cmd_build_workload(args: argparse.Namespace) -> int:
    import time

    from .experiments.context import ExperimentContext, ExperimentScale
    from .datagen.workload import workload_statistics
    from .parallel import resolve_jobs
    from .rng import DEFAULT_SEED

    scale = {
        "smoke": ExperimentScale.smoke,
        "default": ExperimentScale.default,
        "paper": ExperimentScale.paper,
    }[args.scale]()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    jobs = resolve_jobs(args.jobs)
    context = ExperimentContext(scale, seed=seed, jobs=jobs)
    if args.force:
        context.cache.invalidate(context.workload_cache_key())
    start = time.perf_counter()
    queries = context.workload()
    elapsed = time.perf_counter() - start
    stats = workload_statistics(queries)
    print(f"workload[{args.scale}]: {len(queries)} queries "
          f"({stats['mean_pipelines']:.1f} pipelines/query mean) "
          f"in {elapsed:.1f}s with jobs={jobs}", file=sys.stderr)
    print(f"cached under {context.cache.directory} "
          f"(key fingerprint {context.cache_fingerprint()})")
    return 0


def _load_workloads(paths: Sequence[str]) -> list:
    queries = []
    for path in paths:
        if not Path(path).exists():
            raise ReproError(f"workload file not found: {path}")
        with open(path, "rb") as handle:
            queries.extend(pickle.load(handle))
    if not queries:
        raise ReproError("loaded workloads contain no queries")
    return queries


def _cmd_train(args: argparse.Namespace) -> int:
    queries = _load_workloads(args.workload)
    config = T3Config(
        boosting=BoostingParams(n_rounds=args.rounds,
                                objective=args.objective,
                                validation_fraction=0.2),
        compile_to_native=not args.no_compile)
    print(f"training on {len(queries)} queries "
          f"({args.rounds} rounds, {args.objective}) ...", file=sys.stderr)
    model = T3Model.train(queries, config)
    model.save(args.output)
    summary = model.evaluate(queries)
    print(f"saved model to {args.output}; training q-error "
          f"p50={summary.p50:.2f} p90={summary.p90:.2f} "
          f"avg={summary.mean:.2f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = T3Model.load(args.model)
    queries = _load_workloads(args.workload)
    summary = model.evaluate(queries)
    print(f"{len(queries)} queries: q-error p50={summary.p50:.2f} "
          f"p90={summary.p90:.2f} avg={summary.mean:.2f}")
    return 0


def _physical_plan(instance_name: str, sql: str):
    instance = get_instance(instance_name)
    logical = parse_sql(sql, instance.schema, instance.catalog)
    optimizer = Optimizer(instance.schema, instance.catalog)
    return instance, optimizer.optimize(logical, "cli_query")


def _cmd_explain(args: argparse.Namespace) -> int:
    instance, plan = _physical_plan(args.instance, args.sql)
    exact = ExactCardinalityModel(instance.catalog)
    print(explain(plan, exact))
    print()
    print(explain_pipelines(plan, exact))
    if args.features:
        registry = default_registry()
        for pipeline in decompose_into_pipelines(plan):
            print(f"\nPipeline {pipeline.index} features:")
            vector = registry.vector_for_pipeline(pipeline, exact)
            print(registry.describe_vector(vector))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = T3Model.load(args.model)
    instance, plan = _physical_plan(args.instance, args.sql)
    exact = ExactCardinalityModel(instance.catalog)
    pipeline_times = model.predict_pipeline_times(plan, exact)
    for index, seconds in enumerate(pipeline_times):
        print(f"pipeline {index}: {seconds * 1e3:10.3f} ms")
    print(f"predicted query time: {pipeline_times.sum() * 1e3:.3f} ms")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import (
        ModelRegistry,
        PredictionService,
        ServingConfig,
        ServingServer,
    )

    from .faults import FaultPlan, install_plan
    from .rng import DEFAULT_SEED

    chaos = args.chaos or os.environ.get("REPRO_FAULTS") or None
    seed = args.chaos_seed
    if seed is None:
        seed = int(os.environ.get("REPRO_FAULTS_SEED", DEFAULT_SEED))
    if chaos:
        # Installed before model loading so registry.compile can fire
        # during warmup, not just on the request path.
        plan = install_plan(FaultPlan.parse(chaos, seed=seed)).plan
        print(f"chaos plan armed (seed {seed}): "
              f"{'; '.join(plan.describe())}", file=sys.stderr)

    registry = ModelRegistry(compile_native=not args.no_compile)
    for spec in args.model:
        name, _, path = spec.rpartition("=")
        if not Path(path).exists():
            raise ReproError(f"model file not found: {path}")
        entry = registry.load(path, name=name or None)
        note = f" ({entry.fallback_reason})" if entry.fallback_reason else ""
        print(f"loaded {entry.key} from {path} "
              f"[{entry.backend}{note}]", file=sys.stderr)
    config = ServingConfig(
        max_batch_rows=args.batch_rows,
        batch_wait_s=args.batch_wait_ms / 1000.0,
        queue_capacity=args.queue_size,
        plan_cache_size=args.cache_size,
        default_timeout_s=args.timeout,
        compile_native=not args.no_compile,
        fault_seed=seed)
    service = PredictionService(registry, config)
    manager = None
    if args.lifecycle:
        from .lifecycle import (
            LifecycleConfig,
            LifecycleManager,
            ObservationLog,
            RetrainConfig,
        )

        log = ObservationLog(args.lifecycle)
        manager = LifecycleManager(service, log, LifecycleConfig(
            retrain_after=args.retrain_after,
            shadow_samples=args.shadow_samples,
            canary_samples=args.canary_samples,
            canary_fraction=args.canary_fraction,
            retrain=RetrainConfig(rounds=args.retrain_rounds),
            background=True,
            seed=seed))
        print(f"lifecycle armed: observation log at {args.lifecycle} "
              f"({log.stats()['records']} records recovered), "
              f"active {manager.active_entry.key}", file=sys.stderr)
    server = ServingServer(service, host=args.host, port=args.port,
                           quiet=not args.verbose)
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n")
    print(f"serving on {server.url}  "
          "(POST /predict, POST /observe, GET /metrics, GET /healthz; "
          "Ctrl-C to stop)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        if manager is not None:
            manager.join()
            manager.log.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import RULES, run_checks
    from .checks.driver import DEFAULT_BASELINE_NAME
    from .checks.findings import update_baseline, write_baseline

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0
    regenerating = bool(args.write_baseline or args.update_baseline)
    baseline = None
    if not args.no_baseline and not regenerating:
        if args.baseline:
            if not Path(args.baseline).exists():
                raise ReproError(f"baseline file not found: {args.baseline}")
            baseline = args.baseline
        elif Path(DEFAULT_BASELINE_NAME).exists():
            baseline = DEFAULT_BASELINE_NAME
    report = run_checks(rules=args.rules or None, baseline=baseline,
                        model_path=args.model,
                        check_unused_features=args.check_unused_features,
                        only=args.only or None, jobs=args.jobs)
    if args.write_baseline:
        write_baseline(report.findings, args.write_baseline)
        print(f"wrote {len(report.findings)} suppression(s) "
              f"to {args.write_baseline}")
        return 0
    if args.update_baseline:
        target = args.baseline or DEFAULT_BASELINE_NAME
        kept, added, dropped = update_baseline(report.findings, target)
        print(f"updated {target}: kept {kept}, added {added} "
              f"(with reason stubs), dropped {dropped}")
        return 0
    print(report.render(args.fmt))
    if args.fmt == "sarif":
        # SARIF is machine-consumed; route the human warnings around it.
        for warning in report.stale_warnings():
            print(warning, file=sys.stderr)
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "instances":
            return _cmd_instances()
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "build-workload":
            return _cmd_build_workload(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "check":
            return _cmd_check(args)
        raise ReproError(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
