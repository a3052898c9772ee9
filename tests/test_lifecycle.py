"""Tests for the online model lifecycle: observation log, drift,
incremental retraining, and the shadow/canary state machine."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.ablation import TargetMode
from repro.core.model import T3Config, T3Model
from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    TrainingError,
)
from repro.faults import FaultPlan, FaultSpec, clear_faults, install_plan
from repro.lifecycle import (
    DriftScenario,
    LifecycleConfig,
    LifecycleManager,
    LifecyclePhase,
    ObservationLog,
    ObservationRecord,
    RetrainConfig,
    RetrainJob,
    generate_drift_sqls,
    observation_matrices,
    shift_instance,
)
from repro.serving import ModelRegistry, PredictionService, ServingConfig
from repro.trees.boosting import BoostingParams


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_instance():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


@pytest.fixture(scope="module")
def toy_model(toy_instance):
    from repro.datagen.workload import WorkloadBuilder, WorkloadConfig
    workload = WorkloadBuilder(
        toy_instance, WorkloadConfig(queries_per_structure=3,
                                     include_fixed_benchmarks=False)).build()
    return T3Model.train(workload, T3Config(
        boosting=BoostingParams(n_rounds=15, objective="mape",
                                validation_fraction=0.2),
        compile_to_native=False))


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_faults()
    yield
    clear_faults()


def make_record(n_pipelines: int = 2, n_features: int = 4,
                observed: float = 1.0, sequence: int = -1,
                fill: float = 0.5) -> ObservationRecord:
    return ObservationRecord(
        instance="toy",
        vectors=np.full((n_pipelines, n_features), fill),
        cards=np.full(n_pipelines, 100.0),
        predicted_seconds=0.8,
        pipeline_seconds=tuple(0.4 for _ in range(n_pipelines)),
        observed_seconds=observed,
        model_key="default@1",
        sequence=sequence)


# ---------------------------------------------------------------------------
# Observation log
# ---------------------------------------------------------------------------


class TestObservationLog:
    def test_roundtrip_in_order(self, tmp_path):
        with ObservationLog(tmp_path) as log:
            for i in range(5):
                assert log.append(make_record(observed=float(i + 1))) == i
            records = log.read_all()
        assert [r.sequence for r in records] == [0, 1, 2, 3, 4]
        assert [r.observed_seconds for r in records] == [1, 2, 3, 4, 5]
        np.testing.assert_allclose(records[0].vectors,
                                   np.full((2, 4), 0.5))
        np.testing.assert_allclose(records[0].cards, [100.0, 100.0])

    def test_validation_rejects_garbage(self, tmp_path):
        with ObservationLog(tmp_path) as log:
            with pytest.raises(ConfigurationError):
                log.append(make_record(observed=-1.0))
            bad = ObservationRecord(
                instance="toy", vectors=np.zeros(4), cards=None,
                predicted_seconds=1.0, pipeline_seconds=(1.0,),
                observed_seconds=1.0, model_key="m@1")
            with pytest.raises(ConfigurationError):
                log.append(bad)
            assert log.sequence == 0

    def test_rotation_keeps_order(self, tmp_path):
        with ObservationLog(tmp_path, max_segment_bytes=600) as log:
            for i in range(12):
                log.append(make_record(observed=float(i)))
            stats = log.stats()
            assert stats["segments"] > 1
            assert stats["rotations"] == stats["segments"] - 1
            got = [r.observed_seconds for r in log.read_all()]
        assert got == [float(i) for i in range(12)]

    def test_reopen_resumes_sequence(self, tmp_path):
        with ObservationLog(tmp_path) as log:
            for _ in range(3):
                log.append(make_record())
        with ObservationLog(tmp_path) as log:
            assert log.sequence == 3
            assert log.append(make_record()) == 3
            assert len(log.read_all()) == 4

    def test_torn_tail_quarantined_and_truncated(self, tmp_path):
        with ObservationLog(tmp_path) as log:
            for _ in range(3):
                log.append(make_record())
            [segment] = log.segments()
        with segment.open("ab") as handle:    # simulate a dying writer
            handle.write(b"T3LG\xff\xff\xff\xff half a frame")
        with ObservationLog(tmp_path) as log:
            assert log.torn_tails_quarantined == 1
            assert log.sequence == 3
            assert len(log.read_all()) == 3
            assert log.append(make_record()) == 3
        torn = list(tmp_path.glob("*.torn-*"))
        assert len(torn) == 1
        assert torn[0].read_bytes().startswith(b"T3LG\xff")

    def test_corrupt_crc_drops_last_record(self, tmp_path):
        with ObservationLog(tmp_path) as log:
            for _ in range(3):
                log.append(make_record())
            [segment] = log.segments()
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF                      # flip a payload byte
        segment.write_bytes(bytes(data))
        with ObservationLog(tmp_path) as log:
            assert log.torn_tails_quarantined == 1
            assert log.sequence == 2
            assert len(log.read_all()) == 2

    def test_injected_fault_self_heals(self, tmp_path):
        install_plan(FaultPlan((FaultSpec("lifecycle.log_append", "raise",
                                          max_fires=1),)))
        with ObservationLog(tmp_path) as log:
            with pytest.raises(InjectedFaultError):
                log.append(make_record())
            # the failed append left no half-frame behind
            assert log.sequence == 0
            assert log.append(make_record()) == 0
            assert len(log.read_all()) == 1
        with ObservationLog(tmp_path) as log:   # nothing torn on disk
            assert log.torn_tails_quarantined == 0
            assert log.sequence == 1

    def test_closed_log_refuses_appends(self, tmp_path):
        log = ObservationLog(tmp_path)
        log.close()
        with pytest.raises(ConfigurationError):
            log.append(make_record())
        log.close()   # idempotent


# ---------------------------------------------------------------------------
# Crash recovery: the writer dies mid-frame (satellite: kill at the
# fault site with os._exit, then recover in a fresh process)
# ---------------------------------------------------------------------------


_CRASH_WRITER = textwrap.dedent("""
    import os, sys
    import numpy as np
    from repro.lifecycle import ObservationLog, ObservationRecord

    class ExitInjector:
        def __init__(self, after):
            self.calls = 0
            self.after = after
        def fire(self, site):
            if site != "lifecycle.log_append":
                return
            self.calls += 1
            if self.calls > self.after:
                os._exit(17)    # die mid-frame, no cleanup, no atexit

    record = ObservationRecord(
        instance="toy", vectors=np.full((2, 4), 0.5),
        cards=np.full(2, 100.0), predicted_seconds=0.8,
        pipeline_seconds=(0.4, 0.4), observed_seconds=1.0,
        model_key="default@1")
    log = ObservationLog(sys.argv[1], injector=ExitInjector(after=3))
    for _ in range(10):
        log.append(record)
    raise SystemExit("writer survived past the crash point")
""")


class TestCrashRecovery:
    def test_writer_killed_mid_append_recovers(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_WRITER, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 17, proc.stderr
        # the 4th append died between flush(header+half) and the rest:
        # a genuinely torn frame is on disk
        [segment] = sorted(tmp_path.glob("obs-*.seg"))
        raw_size = segment.stat().st_size
        with ObservationLog(tmp_path) as log:
            assert log.torn_tails_quarantined == 1
            assert log.sequence == 3          # last *committed* record
            records = log.read_all()
            assert [r.sequence for r in records] == [0, 1, 2]
            # the log is immediately writable again
            assert log.append(make_record()) == 3
        assert segment.stat().st_size >= raw_size  # truncated, re-grown
        torn = list(tmp_path.glob("*.torn-*"))
        assert len(torn) == 1 and torn[0].stat().st_size > 0


# ---------------------------------------------------------------------------
# Drift scenarios
# ---------------------------------------------------------------------------


class TestDrift:
    def test_sqls_deterministic_per_seed(self, toy_instance):
        a = generate_drift_sqls(toy_instance, n_queries=12, seed=3)
        b = generate_drift_sqls(toy_instance, n_queries=12, seed=3)
        c = generate_drift_sqls(toy_instance, n_queries=12, seed=4)
        assert a == b
        assert a != c
        assert len(a) == 12
        assert any("WHERE" in sql and "=" in sql for sql in a)

    def test_sqls_parse_against_the_instance(self, toy_instance):
        from repro.engine.sqlparser import parse_sql
        for sql in generate_drift_sqls(toy_instance, n_queries=9, seed=1):
            parse_sql(sql, toy_instance.schema, toy_instance.catalog)

    def test_shift_instance_scales_rows(self, toy_instance):
        shifted = shift_instance(toy_instance, 2.0, seed=5)
        assert shifted.name == toy_instance.name
        assert shifted.schema is toy_instance.schema
        for table in toy_instance.catalog.tables_with_stats():
            assert shifted.catalog.row_count(table) == \
                2 * toy_instance.catalog.row_count(table)
        with pytest.raises(ConfigurationError):
            shift_instance(toy_instance, 0.0)

    def test_speed_factor_scales_ground_truth(self, toy_instance):
        scenario = DriftScenario(toy_instance, speed_factor=4.0, seed=7)
        sql = scenario.request(0)
        before = scenario.observe(sql)
        scenario.shift()
        assert scenario.shifted_active
        after = scenario.observe(sql)
        assert after == pytest.approx(before / 4.0, rel=1e-9)
        scenario.reset()
        assert scenario.observe(sql) == pytest.approx(before, rel=1e-12)

    def test_request_stream_is_replayable(self, toy_instance):
        a = DriftScenario(toy_instance, seed=11)
        b = DriftScenario(toy_instance, seed=11)
        assert [a.next_request() for _ in range(40)] == \
            [b.request(i) for i in range(40)]
        # every query appears once per cycle through the mix
        n = len(a.sqls)
        cycle = [a.request(i) for i in range(n)]
        assert sorted(cycle) == sorted(a.sqls)


# ---------------------------------------------------------------------------
# Registry hot-swap pointers
# ---------------------------------------------------------------------------


class TestRegistryHotSwap:
    @pytest.fixture()
    def registry(self, toy_model):
        registry = ModelRegistry(compile_native=False)
        registry.register(toy_model, "m")
        registry.register(toy_model, "m")
        return registry

    def test_activate_pins_against_newer_versions(self, registry,
                                                  toy_model):
        registry.activate("m", 1)
        registry.register(toy_model, "m")       # version 3 appears
        assert registry.get("m").version == 1   # pin holds
        assert registry.active_version("m") == 1
        registry.activate("m", 3)
        assert registry.get("m").version == 3

    def test_canary_draw_routes_by_fraction(self, registry):
        registry.activate("m", 1)
        registry.set_canary("m", 2, 0.25)
        assert registry.get("m", canary_draw=0.1).version == 2
        assert registry.get("m", canary_draw=0.25).version == 1
        assert registry.get("m", canary_draw=0.9).version == 1
        assert registry.get("m").version == 1   # no draw, no canary
        assert registry.canary_info("m") == (2, 0.25)

    def test_explicit_version_bypasses_routing(self, registry):
        registry.activate("m", 1)
        registry.set_canary("m", 2, 1.0)
        assert registry.get("m", version=1).version == 1

    def test_promote_clears_canary(self, registry):
        registry.activate("m", 1)
        registry.set_canary("m", 2, 0.5)
        entry = registry.activate("m", 2)
        assert entry.version == 2
        assert registry.canary_info("m") is None
        assert registry.get("m", canary_draw=0.0).version == 2

    def test_rollback_is_clear_canary(self, registry):
        registry.activate("m", 1)
        registry.set_canary("m", 2, 0.5)
        assert registry.clear_canary("m") == 2
        assert registry.canary_info("m") is None
        assert registry.get("m", canary_draw=0.0).version == 1
        assert registry.clear_canary("m") is None   # idempotent

    def test_cannot_canary_the_active_version(self, registry):
        registry.activate("m", 2)
        with pytest.raises(ConfigurationError):
            registry.set_canary("m", 2, 0.5)
        with pytest.raises(ConfigurationError):
            registry.set_canary("m", 1, 1.5)

    def test_status_reports_routing(self, registry):
        registry.activate("m", 1)
        registry.set_canary("m", 2, 0.2)
        status = registry.status()["m"]
        assert status["versions"] == 2
        assert status["active"] == 1 and status["pinned"]
        assert status["canary"] == {"version": 2, "fraction": 0.2}

    def test_register_dedupes_identical_artifacts(self, registry,
                                                  toy_model):
        first = registry.register(toy_model, "dup", content_digest="abc")
        again = registry.register(toy_model, "dup", content_digest="abc")
        assert again is first
        assert registry.register(toy_model, "dup",
                                 content_digest="def").version == 2

    def test_entries_carry_model_digest(self, registry, toy_model):
        entry = registry.get("m")
        assert entry.model_digest == toy_model.model_digest()
        assert entry.describe()["model_digest"] == entry.model_digest


# ---------------------------------------------------------------------------
# Retraining from the log
# ---------------------------------------------------------------------------


class TestRetrain:
    def test_observation_matrices_per_tuple(self):
        records = [make_record(observed=2.0, sequence=i)
                   for i in range(3)]
        X, y = observation_matrices(records, TargetMode.PER_TUPLE)
        assert X.shape == (6, 4)
        assert y.shape == (6,)
        assert np.all(np.isfinite(y))

    def test_observation_matrices_per_query(self):
        records = [make_record(observed=2.0)]
        X, y = observation_matrices(records, TargetMode.PER_QUERY)
        assert X.shape == (2, 4) and y.shape == (1,)
        with pytest.raises(TrainingError):
            observation_matrices([], TargetMode.PER_QUERY)

    def test_degenerate_pipeline_seconds_split_uniformly(self):
        record = ObservationRecord(
            instance="toy", vectors=np.full((2, 4), 0.5),
            cards=np.full(2, 10.0), predicted_seconds=0.0,
            pipeline_seconds=(0.0, 0.0), observed_seconds=3.0,
            model_key="m@1")
        _, y = observation_matrices([record], TargetMode.PER_PIPELINE)
        assert y[0] == pytest.approx(y[1])      # uniform 1.5 / 1.5

    def test_incremental_consume_reads_each_record_once(self, tmp_path,
                                                        toy_model):
        with ObservationLog(tmp_path) as log:
            job = RetrainJob(log, toy_model,
                             RetrainConfig(rounds=5, min_records=1))
            for _ in range(4):
                log.append(make_record())
            log.rotate()                        # seal the first segment
            assert job.consume() == 4
            assert job.consume() == 0           # cursor advanced
            for _ in range(3):
                log.append(make_record())
            assert job.consume() == 3           # new tail segment
            assert job.records_consumed == 7

    def test_consume_caps_at_the_counted_records(self, tmp_path, toy_model,
                                                 monkeypatch):
        # A writer may append after consume() took the segment counts;
        # those records wait for the next call, read exactly once.
        with ObservationLog(tmp_path) as log:
            job = RetrainJob(log, toy_model,
                             RetrainConfig(rounds=5, min_records=1))
            for i in range(5):
                log.append(make_record(observed=float(i + 1)))
            stale = {name: 2 for name in log.segment_records()}
            monkeypatch.setattr(log, "segment_records", lambda: stale)
            assert job.consume() == 2
            monkeypatch.undo()
            assert job.consume() == 3
            assert job.consume() == 0
            observed = [r.observed_seconds for r in job._records]
        assert observed == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_candidate_lineage_and_determinism(self, tmp_path, toy_model):
        with ObservationLog(tmp_path) as log:
            vectors = np.random.default_rng(0).random(
                (2, toy_model.booster.n_features))
            for i in range(24):
                log.append(ObservationRecord(
                    instance="toy", vectors=vectors,
                    cards=np.full(2, 50.0), predicted_seconds=1.0,
                    pipeline_seconds=(0.5, 0.5),
                    observed_seconds=1.0 + 0.01 * i, model_key="d@1"))
            config = RetrainConfig(rounds=5, min_records=16)
            job_a = RetrainJob(log, toy_model, config)
            job_a.consume()
            job_b = RetrainJob(log, toy_model, config)
            job_b.consume()
            a, b = job_a.train_candidate(), job_b.train_candidate()
        assert a.lineage == toy_model.model_digest()
        assert a.model_digest() == b.model_digest()   # replayable
        assert a.model_digest() != toy_model.model_digest()
        assert not a.is_compiled     # registry warmup owns compilation

    def test_min_records_enforced(self, tmp_path, toy_model):
        with ObservationLog(tmp_path) as log:
            log.append(make_record())
            job = RetrainJob(log, toy_model,
                             RetrainConfig(rounds=5, min_records=10))
            job.consume()
            with pytest.raises(TrainingError):
                job.train_candidate()


# ---------------------------------------------------------------------------
# The lifecycle state machine, end to end
# ---------------------------------------------------------------------------


def build_lifecycle(instance, model, log_dir, seed=7, **overrides):
    scenario = DriftScenario(instance, speed_factor=4.0, seed=seed)
    registry = ModelRegistry(compile_native=False)
    registry.register(model, "default")
    service = PredictionService(
        registry, ServingConfig(plan_cache_size=32, compile_native=False),
        instance_resolver=scenario.resolver)
    settings = dict(
        retrain_after=30, shadow_samples=12, canary_samples=12,
        canary_fraction=0.2, min_canary_detect=4,
        retrain=RetrainConfig(rounds=12, min_records=16), seed=seed)
    settings.update(overrides)
    config = LifecycleConfig(**settings)
    manager = LifecycleManager(service, ObservationLog(log_dir), config)
    return scenario, service, manager


def drive(scenario, service, n, failures=None):
    """Feed ``n`` observations through the service; returns sequences."""
    sequences = []
    for _ in range(n):
        sql = scenario.next_request()
        truth = scenario.observe(sql)
        try:
            ack = service.observe(sql, scenario.base.name, truth)
        except InjectedFaultError:
            if failures is None:
                raise
            failures.append(sql)
            continue
        sequences.append(ack["sequence"])
    return sequences


class TestLifecycleEndToEnd:
    def test_drift_retrain_canary_promote(self, toy_instance, toy_model,
                                          tmp_path):
        scenario, service, manager = build_lifecycle(
            toy_instance, toy_model, tmp_path)
        assert manager.phase is LifecyclePhase.OBSERVING
        assert manager.active_entry.version == 1
        scenario.shift()                     # the machine got 4x faster
        drive(scenario, service, 60)
        phases = [(t["from"], t["to"]) for t in manager.transitions]
        assert ("observing", "retraining") in phases
        assert ("retraining", "shadow") in phases
        assert ("shadow", "canary") in phases
        assert ("canary", "observing") in phases
        promoted = [t for t in manager.transitions
                    if t["reason"] == "canary promoted"]
        assert promoted, manager.transitions
        assert manager.active_entry.version == 2
        assert service.registry.active_version("default") == 2
        assert service.registry.canary_info("default") is None
        assert manager.last_swap_seconds is not None
        assert manager.last_swap_seconds < 0.1   # a pointer write
        # the audit trail reaches /healthz and /metrics
        health = service.health()
        assert health["lifecycle"]["active"] == "default@2"
        assert health["routing"]["default"]["pinned"]
        text = service.metrics_text()
        assert "t3_lifecycle_promotions_total 1" in text
        assert "t3_lifecycle_active_version 2" in text
        manager.log.close()

    def test_replay_is_bit_identical(self, toy_instance, toy_model,
                                     tmp_path):
        runs = []
        for name in ("a", "b"):
            scenario, service, manager = build_lifecycle(
                toy_instance, toy_model, tmp_path / name)
            scenario.shift()
            drive(scenario, service, 60)
            runs.append((manager.transitions,
                         manager.active_entry.model.model_digest(),
                         manager.log.stats()))
            manager.log.close()
        assert runs[0] == runs[1]

    def test_canary_regression_rolls_back(self, toy_instance, toy_model,
                                          tmp_path):
        scenario, service, manager = build_lifecycle(
            toy_instance, toy_model, tmp_path)
        scenario.shift()
        # run until the candidate (trained on the shifted regime) is
        # serving canary traffic
        for _ in range(200):
            if manager.phase is LifecyclePhase.CANARY:
                break
            drive(scenario, service, 1)
        assert manager.phase is LifecyclePhase.CANARY
        # ground truth reverts: the candidate is now the wrong model
        scenario.reset()
        detect = 0
        for _ in range(manager.config.canary_samples + 1):
            if manager.phase is not LifecyclePhase.CANARY:
                break
            drive(scenario, service, 1)
            detect += 1
        rollbacks = [t for t in manager.transitions
                     if t["reason"] == "canary error regressed"]
        assert rollbacks, manager.transitions
        # the pointer never moved; rollback was clearing the canary
        assert manager.active_entry.version == 1
        assert service.registry.active_version("default") == 1
        assert service.registry.canary_info("default") is None
        assert manager.last_detect_samples is not None
        assert manager.last_detect_samples <= manager.config.canary_samples
        assert detect <= manager.config.canary_samples
        # the rejected candidate stays addressable for diagnosis
        assert service.registry.get("default", version=2) is not None
        assert "t3_lifecycle_rollbacks_total 1" in service.metrics_text()
        manager.log.close()

    def test_canary_routing_reaches_requests(self, toy_instance,
                                             toy_model, tmp_path):
        scenario, service, manager = build_lifecycle(
            toy_instance, toy_model, tmp_path, canary_fraction=1.0)
        scenario.shift()
        for _ in range(200):
            if manager.phase is LifecyclePhase.CANARY:
                break
            drive(scenario, service, 1)
        assert manager.phase is LifecyclePhase.CANARY
        sql = scenario.request(0)
        result = service.predict(sql, "toy")
        assert result.model_version == 2        # fraction=1.0 → canary
        pinned = service.predict(sql, "toy", version=1)
        assert pinned.model_version == 1        # explicit pin bypasses
        assert "t3_serving_canary_requests_total 1" in \
            service.metrics_text()
        # observations pair ground truth with the *active* model even
        # while a canary serves traffic
        ack = service.observe(sql, "toy", scenario.observe(sql))
        assert ack["version"] == 1
        manager.log.close()

    def test_chaos_append_faults_never_corrupt_the_log(
            self, toy_instance, toy_model, tmp_path):
        scenario, service, manager = build_lifecycle(
            toy_instance, toy_model, tmp_path)
        install_plan(FaultPlan(
            (FaultSpec("lifecycle.log_append", "raise",
                       probability=0.25),), seed=13))
        scenario.shift()
        failures = []
        sequences = drive(scenario, service, 60, failures=failures)
        clear_faults()
        assert failures                          # chaos actually fired
        assert len(sequences) + len(failures) == 60
        # every acknowledged sequence is durable and none is torn
        assert sequences == list(range(len(sequences)))
        manager.log.close()
        with ObservationLog(tmp_path) as log:
            assert log.torn_tails_quarantined == 0
            assert log.sequence == len(sequences)
        # prediction traffic never saw a lifecycle fault
        assert service.predict(scenario.request(0), "toy") is not None


# ---------------------------------------------------------------------------
# The service-level observation hook
# ---------------------------------------------------------------------------


class TestServiceObserve:
    @pytest.fixture()
    def service(self, toy_instance, toy_model):
        from repro.errors import SchemaError

        def resolve(name):
            if name == "toy":
                return toy_instance
            raise SchemaError(f"unknown instance {name!r}")
        registry = ModelRegistry(compile_native=False)
        registry.register(toy_model, "default")
        return PredictionService(
            registry, ServingConfig(plan_cache_size=16,
                                    compile_native=False),
            instance_resolver=resolve)

    SQL = "SELECT count(*) FROM orders WHERE o_total <= 500"

    def test_observe_without_lifecycle_is_an_echo(self, service):
        ack = service.observe(self.SQL, "toy", 0.5)
        assert ack["sequence"] is None
        assert ack["lifecycle"] is None
        assert ack["model"] == "default" and ack["version"] == 1
        assert ack["qerror"] >= 1.0
        assert "t3_serving_observations_total 1" in service.metrics_text()

    def test_observe_validates_observed_seconds(self, service):
        with pytest.raises(ConfigurationError):
            service.observe(self.SQL, "toy", -0.1)
        with pytest.raises(ConfigurationError):
            service.observe(self.SQL, "toy", float("nan"))

    def test_invalidate_instance_drops_cached_plans(self, service):
        service.predict(self.SQL, "toy")
        service.predict(self.SQL, "toy")
        stats = service._plan_cache.stats
        assert stats.hits >= 1
        dropped = service.invalidate_instance("toy")
        assert dropped >= 1
        assert service.predict(self.SQL, "toy") is not None


class TestObserveHTTP:
    def test_observe_endpoint(self, toy_instance, toy_model):
        import json
        from urllib.request import Request, urlopen
        from urllib.error import HTTPError
        from repro.errors import SchemaError
        from repro.serving import ServingServer

        def resolve(name):
            if name == "toy":
                return toy_instance
            raise SchemaError(f"unknown instance {name!r}")
        registry = ModelRegistry(compile_native=False)
        registry.register(toy_model, "default")
        service = PredictionService(
            registry, ServingConfig(compile_native=False),
            instance_resolver=resolve)

        def post(payload):
            body = json.dumps(payload).encode()
            return urlopen(Request(
                f"{server.url}/observe", data=body,
                headers={"Content-Type": "application/json"}), timeout=10)

        with ServingServer(service, port=0) as server:
            with post({"sql": TestServiceObserve.SQL, "instance": "toy",
                       "observed_seconds": 0.25}) as response:
                ack = json.loads(response.read())
            assert ack["model"] == "default"
            assert ack["observed_seconds"] == 0.25
            assert ack["sequence"] is None
            with pytest.raises(HTTPError) as err:
                post({"sql": TestServiceObserve.SQL, "instance": "toy"})
            assert err.value.code == 400
            with pytest.raises(HTTPError) as err:
                post({"sql": TestServiceObserve.SQL, "instance": "toy",
                      "observed_seconds": True})
            assert err.value.code == 400
