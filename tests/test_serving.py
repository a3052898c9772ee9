"""Tests for the online serving stack: cache, batcher, registry, service."""

import gc
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ModelNotFoundError,
    QueueFullError,
    RequestTimeoutError,
    SchemaError,
    ServingError,
)
from repro.core.ablation import TargetMode
from repro.core.model import T3Config, T3Model
from repro.engine.cardinality import ExactCardinalityModel
from repro.engine.optimizer import Optimizer
from repro.engine.physical import PhysicalOperator
from repro.engine.sqlparser import parse_sql
from repro.serving import (
    BatcherStats,
    CacheStats,
    LRUCache,
    MetricsRegistry,
    MicroBatcher,
    ModelRegistry,
    PredictionService,
    ServingConfig,
    normalize_sql,
)
from repro.serving.telemetry import Counter, Gauge, Histogram
from repro.trees.boosting import BoostingParams


# ---------------------------------------------------------------------------
# Shared fixtures: one small trained model over the toy instance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_instance():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


@pytest.fixture(scope="module")
def toy_workload(toy_instance):
    from repro.datagen.workload import WorkloadBuilder, WorkloadConfig
    return WorkloadBuilder(
        toy_instance, WorkloadConfig(queries_per_structure=2,
                                     include_fixed_benchmarks=False)).build()


def _train_toy(workload, target_mode=TargetMode.PER_TUPLE) -> T3Model:
    return T3Model.train(workload, T3Config(
        boosting=BoostingParams(n_rounds=15, objective="mape",
                                validation_fraction=0.2),
        target_mode=target_mode, compile_to_native=True))


@pytest.fixture(scope="module")
def toy_model(toy_workload):
    return _train_toy(toy_workload)


@pytest.fixture(scope="module")
def mode_models(toy_model, toy_workload):
    """One toy model per target mode (the per-tuple one is ``toy_model``)."""
    models = {mode: _train_toy(toy_workload, mode) for mode in TargetMode
              if mode is not TargetMode.PER_TUPLE}
    models[TargetMode.PER_TUPLE] = toy_model
    return models


@pytest.fixture()
def resolver(toy_instance):
    def resolve(name):
        if name == "toy":
            return toy_instance
        raise SchemaError(f"unknown instance {name!r}")
    return resolve


@pytest.fixture()
def service(toy_model, resolver):
    registry = ModelRegistry()
    registry.register(toy_model, "toy-model")
    svc = PredictionService(
        registry,
        ServingConfig(plan_cache_size=16, batch_wait_s=0.001),
        instance_resolver=resolver)
    yield svc
    # don't close(): the module-scoped model's compiled library is shared


SQL = "SELECT count(*) FROM orders WHERE o_total <= 500"


# ---------------------------------------------------------------------------
# normalize_sql
# ---------------------------------------------------------------------------


class TestNormalizeSQL:
    def test_collapses_whitespace_and_case(self):
        assert normalize_sql("SELECT  *\n\tFROM   t") == "select * from t"

    def test_strips_trailing_semicolon(self):
        assert normalize_sql("select 1 ;") == normalize_sql("SELECT 1")

    def test_preserves_string_literals(self):
        a = normalize_sql("SELECT * FROM t WHERE c LIKE 'A  B'")
        b = normalize_sql("select * from t where c like 'a  b'")
        assert "'A  B'" in a
        assert a != b

    def test_equivalent_queries_share_keys(self):
        assert (normalize_sql("SELECT count(*) FROM orders;")
                == normalize_sql("select   COUNT(*)\nFROM orders"))

    @pytest.mark.parametrize("sql, expected", [
        ("  SELECT 1  ", "select 1"),
        ("a  'X  Y'  b", "a 'X  Y' b"),
        ("a'X'b", "a'X'b"),
        ("'it''S'", "'it''S'"),
        ("SELECT 'ABC  ", "select 'ABC  "),
        ("SELECT 'ABC ;", "select 'ABC"),
        ("SELECT 1 \t;", "select 1"),
        ("SELECT 1;;", "select 1;"),
        # Segments are lowered whole, so the final-sigma rule applies
        # (the character loop below gives "σασ").
        ("ΣΑΣ 'ΣΑΣ'", "σας 'ΣΑΣ'"),
    ])
    def test_edge_cases(self, sql, expected):
        assert normalize_sql(sql) == expected

    # No capital sigma in the alphabet: the final-sigma rule is the one
    # known divergence from the loop (see test_edge_cases).
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        list("aZ0;'() \t\n\r\x0b\x0c") + ["\x1c", "\x85", "\xa0",
                                            "\u2003", "\u3000", "Α",
                                            "İ", "K"]),
        max_size=40))
    def test_matches_character_loop(self, sql):
        assert normalize_sql(sql) == _normalize_sql_loop(sql)


def _normalize_sql_loop(sql):
    """Reference: the character-at-a-time normalizer ``normalize_sql``
    replaced, kept to pin its exact output."""
    out = []
    in_literal = False
    pending_space = False
    for ch in sql:
        if in_literal:
            out.append(ch)
            if ch == "'":
                in_literal = False
            continue
        if ch == "'":
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            in_literal = True
            continue
        if ch.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch.lower())
    normalized = "".join(out)
    if normalized.endswith(";"):
        normalized = normalized[:-1].rstrip()
    return normalized


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_update_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.stats.evictions == 0

    def test_evictions_count_in_given_registry(self):
        metrics = MetricsRegistry()
        cache = LRUCache(1, metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        assert metrics.get("t3_serving_cache_evictions_total").value == 1
        assert cache.stats.evictions == 1

    def test_concurrent_lookups_lose_no_count(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        n_threads, n_lookups = 8, 2000

        def lookups():
            for i in range(n_lookups):
                cache.get("a" if i % 2 else "b")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        half = n_threads * n_lookups // 2
        assert cache.stats == CacheStats(hits=half, misses=half, evictions=0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_counter_monotonic(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_derived_counter_reads_its_function(self):
        parts = [Counter("a_total"), Counter("b_total")]
        total = Counter("all_total",
                        function=lambda: sum(c.value for c in parts))
        parts[0].inc()
        parts[1].inc(2)
        assert total.value == 3
        assert "all_total 3" in total.render()

    def test_gauge_function(self):
        gauge = Gauge("g", function=lambda: 7)
        assert gauge.value == 7

    def test_histogram_buckets_and_quantile(self):
        histogram = Histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.005, 0.005, 0.05):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.0605)
        assert histogram.quantile(0.5) == 0.01
        rendered = "\n".join(histogram.render())
        assert 'h_bucket{le="0.001"} 1' in rendered
        assert 'h_bucket{le="+Inf"} 4' in rendered
        assert "h_count 4" in rendered

    def test_registry_renders_and_dedupes(self):
        metrics = MetricsRegistry()
        first = metrics.counter("x_total", "help me")
        second = metrics.counter("x_total")
        assert first is second
        first.inc()
        text = metrics.render()
        assert "# TYPE x_total counter" in text
        assert "x_total 1" in text

    def test_registry_rejects_kind_conflict(self):
        metrics = MetricsRegistry()
        metrics.counter("name")
        with pytest.raises(ConfigurationError):
            metrics.gauge("name")


# ---------------------------------------------------------------------------
# Micro-batcher
# ---------------------------------------------------------------------------


def _echo_sum(X):
    """Stand-in for predict_raw_batch: row sums."""
    return np.asarray(X).sum(axis=1)


class TestMicroBatcher:
    def test_single_request_round_trip(self):
        batcher = MicroBatcher(_echo_sum, max_wait_s=0.0).start()
        try:
            out = batcher.submit(np.array([[1.0, 2.0], [3.0, 4.0]]))
            assert out.tolist() == [3.0, 7.0]
        finally:
            batcher.close()

    def test_empty_batch_returns_immediately(self):
        batcher = MicroBatcher(_echo_sum)
        try:
            out = batcher.submit(np.empty((0, 5)))
            assert out.shape == (0,)
            assert batcher.stats().requests == 0  # never enqueued
        finally:
            batcher.close()

    def test_coalesces_concurrent_requests(self):
        calls = []

        def predict(X):
            calls.append(len(X))
            time.sleep(0.002)  # widen the window so requests pile up
            return _echo_sum(X)

        batcher = MicroBatcher(predict, max_wait_s=0.02).start()
        try:
            results = {}

            def client(i):
                results[i] = batcher.submit(
                    np.array([[float(i), 1.0]]), timeout=5.0)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for i in range(8):
                assert results[i].tolist() == [i + 1.0]
            stats = batcher.stats()
            assert stats.requests == 8
            assert stats.batches < 8          # at least one coalesced call
            assert stats.rows == 8
        finally:
            batcher.close()

    def test_queue_full_rejection(self):
        release = threading.Event()

        def blocked(X):
            release.wait(5.0)
            return _echo_sum(X)

        batcher = MicroBatcher(blocked, max_batch_rows=1,
                               queue_capacity=1).start()
        try:
            first = batcher.submit_async(np.array([[1.0]]))  # worker takes it
            time.sleep(0.05)
            second = batcher.submit_async(np.array([[2.0]]))  # fills queue
            with pytest.raises(QueueFullError):
                batcher.submit_async(np.array([[3.0]]))
            assert batcher.stats().rejected == 1
            release.set()
            assert first.result(5.0).tolist() == [1.0]
            assert second.result(5.0).tolist() == [2.0]
        finally:
            release.set()
            batcher.close()

    def test_request_timeout(self):
        release = threading.Event()

        def slow(X):
            release.wait(5.0)
            return _echo_sum(X)

        batcher = MicroBatcher(slow, max_batch_rows=1).start()
        try:
            with pytest.raises(RequestTimeoutError):
                batcher.submit(np.array([[1.0]]), timeout=0.05)
            assert batcher.stats().timeouts == 1
        finally:
            release.set()
            batcher.close()

    def test_expired_request_gets_timeout_not_stale_result(self):
        release = threading.Event()

        def blocked(X):
            release.wait(5.0)
            return _echo_sum(X)

        batcher = MicroBatcher(blocked, max_batch_rows=1,
                               queue_capacity=4).start()
        try:
            batcher.submit_async(np.array([[1.0]]))   # occupies the worker
            time.sleep(0.05)
            expired = batcher.submit_async(np.array([[2.0]]), timeout=0.01)
            time.sleep(0.05)                          # deadline passes queued
            release.set()
            with pytest.raises(RequestTimeoutError):
                expired.result(5.0)
        finally:
            release.set()
            batcher.close()

    def test_predict_error_propagates(self):
        def broken(X):
            raise RuntimeError("boom")

        batcher = MicroBatcher(broken, max_wait_s=0.0).start()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.submit(np.array([[1.0]]), timeout=5.0)
        finally:
            batcher.close()

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(_echo_sum).start()
        batcher.close()
        with pytest.raises(ServingError):
            batcher.submit(np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------


class TestModelRegistry:
    def test_register_versions_increment(self, toy_model):
        registry = ModelRegistry()
        first = registry.register(toy_model, "m")
        second = registry.register(toy_model, "m")
        assert (first.version, second.version) == (1, 2)
        assert registry.get("m").version == 2           # newest wins
        assert registry.get("m", version=1) is first

    def test_single_model_is_default(self, toy_model):
        registry = ModelRegistry()
        registry.register(toy_model, "only")
        assert registry.get().name == "only"

    def test_unknown_model_and_version(self, toy_model):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.get("nope")
        registry.register(toy_model, "m")
        with pytest.raises(ModelNotFoundError):
            registry.get("m", version=9)

    def test_load_save_round_trip(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        registry = ModelRegistry()
        entry = registry.load(path, name="loaded")
        assert entry.source == str(path)
        assert entry.n_features == toy_model.booster.n_features

    def test_fallback_when_no_compiler(self, toy_model, tmp_path,
                                       monkeypatch):
        import repro.serving.registry as registry_module
        monkeypatch.setattr(registry_module, "find_c_compiler", lambda: None)
        path = tmp_path / "model.json"
        toy_model.save(path)
        registry = ModelRegistry()
        entry = registry.load(path)
        assert entry.backend == "interpreted"
        assert "no C compiler" in entry.fallback_reason
        # and it still predicts
        probe = np.zeros((2, entry.n_features))
        assert entry.model.predict_raw_batch(probe).shape == (2,)

    def test_compile_disabled(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        registry = ModelRegistry(compile_native=False)
        entry = registry.load(path)
        assert entry.backend == "interpreted"
        assert "disabled" in entry.fallback_reason

    def test_load_is_idempotent_per_artifact(self, toy_model, tmp_path):
        """Re-loading the same file must not stack duplicate versions
        (each re-registration would warm-compile from scratch)."""
        path = tmp_path / "model.json"
        toy_model.save(path)
        registry = ModelRegistry(compile_native=False)
        first = registry.load(path, name="m")
        assert registry.load(path, name="m") is first
        assert len(registry) == 1
        # Different bytes under the same name do get a new version.
        path.write_text(path.read_text() + "\n")
        second = registry.load(path, name="m")
        assert second.version == 2
        assert second.content_digest != first.content_digest


# ---------------------------------------------------------------------------
# The prediction service
# ---------------------------------------------------------------------------


class TestPredictionService:
    @pytest.mark.parametrize("mode, backend", [
        *(pytest.param(mode, "compiled", id=mode.value)
          for mode in TargetMode),
        *(pytest.param(mode, "interpreted", id=f"{mode.value}-interpreted")
          for mode in TargetMode)])
    def test_predict_matches_offline_model(self, mode, backend, mode_models,
                                           resolver, toy_instance):
        """Every target mode answers alike through ``predict`` (cold and
        warm), a ``predict_many`` mixing cached and new statements, and
        ``observe``: each equals the offline ``predict_query``, on either
        backend the registry serves."""
        model = mode_models[mode]
        assert model.is_compiled
        registry = ModelRegistry(compile_native=backend == "compiled")
        # Registering on the interpreted backend switches the model it
        # is given, so it gets a copy; the offline answers stay compiled.
        served = model if backend == "compiled" else T3Model(
            model.booster, replace(model.config, compile_to_native=False),
            model.registry)
        assert registry.register(served, "m").backend == backend
        service = PredictionService(
            registry, ServingConfig(plan_cache_size=16, batch_wait_s=0.001),
            instance_resolver=resolver)
        statements = [SQL] + _statements(4)

        def offline(sql):
            logical = parse_sql(sql, toy_instance.schema,
                                toy_instance.catalog)
            plan = Optimizer(toy_instance.schema,
                             toy_instance.catalog).optimize(logical, "q")
            return model.predict_query(
                plan, ExactCardinalityModel(toy_instance.catalog))

        cold = service.predict(SQL, "toy")
        warm = service.predict(SQL, "toy")
        assert not cold.cache_hit and warm.cache_hit
        batch = service.predict_many([(sql, "toy") for sql in statements])
        assert [r.cache_hit for r in batch] == [True] + [False] * 4
        answered = [(SQL, cold), (SQL, warm)] + list(zip(statements, batch))
        for sql, result in answered:
            assert result.predicted_seconds == pytest.approx(
                offline(sql), rel=1e-9), sql
            if mode is TargetMode.PER_QUERY:
                assert result.pipeline_seconds == ()
            else:
                assert len(result.pipeline_seconds) >= 1
                assert result.predicted_seconds == pytest.approx(
                    sum(result.pipeline_seconds), rel=1e-9)
        for sql in (statements[2], "SELECT count(*) FROM customer"):
            echo = service.observe(sql, "toy", 0.5)
            assert echo["predicted_seconds"] == pytest.approx(
                offline(sql), rel=1e-9), sql
            assert echo["degraded"] is False

    def test_cache_hit_skips_parse_and_featurize(self, service):
        cold = service.predict(SQL, "toy")
        warm = service.predict("select   count(*) from orders "
                               "where o_total <= 500 ;", "toy")
        assert not cold.cache_hit and warm.cache_hit
        assert cold.parse_seconds > 0 and cold.featurize_seconds > 0
        assert warm.parse_seconds == 0 and warm.featurize_seconds == 0
        assert warm.predicted_seconds == pytest.approx(
            cold.predicted_seconds, rel=1e-12)

    def test_cache_hit_leaves_stage_histograms_unchanged(self, service):
        parse = service.metrics.get("t3_serving_parse_seconds")
        featurize = service.metrics.get("t3_serving_featurize_seconds")
        assert not service.predict(SQL, "toy").cache_hit
        assert (parse.count, featurize.count) == (1, 1)
        sums = (parse.sum, featurize.sum)
        warm = service.predict(SQL, "toy")
        batch = service.predict_many([(SQL, "toy"), (SQL, "toy")])
        assert warm.cache_hit and all(r.cache_hit for r in batch)
        # Hits skip parse and featurize: nothing is observed for them.
        assert (parse.count, featurize.count) == (1, 1)
        assert (parse.sum, featurize.sum) == sums

    def test_cache_eviction_under_pressure(self, toy_model, resolver):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        service = PredictionService(
            registry, ServingConfig(plan_cache_size=1, batch_wait_s=0.0),
            instance_resolver=resolver)
        service.predict(SQL, "toy")
        service.predict("SELECT count(*) FROM customer", "toy")  # evicts
        again = service.predict(SQL, "toy")
        assert not again.cache_hit
        assert service.cache_stats().evictions >= 1

    def test_unknown_instance_raises_and_counts(self, service):
        errors_before = service.metrics.get(
            "t3_serving_errors_total").value
        with pytest.raises(SchemaError):
            service.predict(SQL, "missing")
        assert service.metrics.get(
            "t3_serving_errors_total").value == errors_before + 1

    def test_unknown_model_raises(self, service):
        with pytest.raises(ModelNotFoundError):
            service.predict(SQL, "toy", model="absent")

    def test_metrics_populated_after_traffic(self, service):
        for _ in range(3):
            service.predict(SQL, "toy")
        text = service.metrics_text()
        assert "t3_serving_requests_total" in text
        assert "t3_serving_cache_hits_total" in text
        assert "t3_serving_queue_depth" in text
        assert "t3_serving_infer_seconds_count" in text
        requests = service.metrics.get("t3_serving_requests_total")
        assert requests.value >= 3
        infer = service.metrics.get("t3_serving_infer_seconds")
        assert infer.sum > 0

    def test_health_payload(self, service):
        service.predict(SQL, "toy")
        health = service.health()
        assert health["status"] == "ok"
        assert health["models"][0]["name"] == "toy-model"
        assert health["plan_cache"]["capacity"] == 16

    def test_closed_service_rejects(self, toy_model, resolver):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        service = PredictionService(registry, instance_resolver=resolver)
        # close only the batchers, keep the shared model library alive
        service._closed.set()
        with pytest.raises(ServingError):
            service.predict(SQL, "toy")

    def test_predict_many_matches_individual(self, service):
        requests = [(SQL, "toy"),
                    ("SELECT count(*) FROM customer", "toy"),
                    ("SELECT count(*) FROM item WHERE i_price <= 50",
                     "toy")]
        batched = service.predict_many(requests)
        assert len(batched) == 3
        for (sql, instance), result in zip(requests, batched):
            single = service.predict(sql, instance)
            assert result.predicted_seconds == pytest.approx(
                single.predicted_seconds, rel=1e-9)

    def test_predict_many_empty(self, service):
        assert service.predict_many([]) == []

    def test_predict_many_single_native_call(self, service):
        for sql in (SQL, "SELECT count(*) FROM customer"):
            service.predict(sql, "toy")  # warm the plan cache
        batches_before = service.metrics.get(
            "t3_serving_batches_total").value
        results = service.predict_many(
            [(SQL, "toy"), ("SELECT count(*) FROM customer", "toy")] * 4)
        assert len(results) == 8
        assert all(r.cache_hit for r in results)
        assert service.metrics.get(
            "t3_serving_batches_total").value == batches_before + 1

    def test_concurrent_requests_coalesce(self, toy_model, resolver):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        service = PredictionService(
            registry, ServingConfig(batch_wait_s=0.02),
            instance_resolver=resolver)
        service.predict(SQL, "toy")  # warm the plan cache
        results = []

        def client():
            results.append(service.predict(SQL, "toy", timeout=5.0))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(r.cache_hit for r in results)
        batches = service.metrics.get("t3_serving_batches_total").value
        # 1 warmup batch + coalesced concurrent batches: fewer than 1 + 8
        assert batches < 9


# ---------------------------------------------------------------------------
# Coalescing only while company can arrive
# ---------------------------------------------------------------------------


#: A window no lone request may wait out: any answer in under a second
#: proves the batcher stopped waiting once the request had joined.
_LONG_WAIT = ServingConfig(batch_wait_s=5.0, default_timeout_s=30.0)


def _wedge(batcher):
    """Hold the batcher's first native call until ``release`` is set;
    ``entered`` is set once it is held."""
    predict = batcher._predict_batch
    entered, release = threading.Event(), threading.Event()

    def held(X):
        if not entered.is_set():
            entered.set()
            assert release.wait(10.0)
        return predict(X)

    batcher._predict_batch = held
    return entered, release


class TestCoalesceWithCompany:
    def _service(self, toy_model, resolver, config=_LONG_WAIT):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        return PredictionService(registry, config,
                                 instance_resolver=resolver)

    def _assert_lone_request_fast(self, service, limit=1.0):
        """No request is left counted, and a lone one after a quiet
        window skips the rest of the window (a leaked count would hold
        it for all of it)."""
        assert service._pending() == 0
        started = time.monotonic()
        service.predict_many([(SQL, "toy"),
                              ("SELECT count(*) FROM customer", "toy")])
        assert time.monotonic() - started < limit
        assert service._pending() == 0

    def _gate(self, service):
        """Hold the first native batch call until the returned
        ``release`` is set; ``entered`` is set once it is held."""
        batcher = service._batcher_for(service.registry.get("m"))
        return (batcher, *_wedge(batcher))

    def test_lone_predict_skips_the_window(self, toy_model, resolver):
        service = self._service(toy_model, resolver)
        started = time.monotonic()
        service.predict(SQL, "toy")
        assert time.monotonic() - started < 1.0

    def test_lone_predict_many_skips_the_window(self, toy_model, resolver):
        self._assert_lone_request_fast(self._service(toy_model, resolver))

    def test_lone_request_amid_traffic_waits_for_company(self, toy_model,
                                                        resolver):
        # Within a window of the last batch a lone request may be the
        # first of a burst, so it waits (up to the window) for company.
        wait = 0.2
        service = self._service(toy_model, resolver, ServingConfig(
            batch_wait_s=wait, default_timeout_s=30.0))
        service.predict(SQL, "toy")
        started = time.monotonic()
        service.predict(SQL, "toy")
        assert time.monotonic() - started >= wait

    def test_no_pending_leak_after_unknown_instance(self, toy_model,
                                                    resolver):
        service = self._service(toy_model, resolver)
        with pytest.raises(SchemaError):
            service.predict(SQL, "missing")
        with pytest.raises(SchemaError):
            service.predict_many([(SQL, "toy"), (SQL, "missing")])
        self._assert_lone_request_fast(service)

    def test_no_pending_leak_after_expired_deadline(self, toy_model,
                                                    resolver):
        service = self._service(toy_model, resolver)
        past = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            service.predict(SQL, "toy", deadline=past)
        with pytest.raises(DeadlineExceeded):
            service.predict_many([(SQL, "toy")], deadline=past)
        self._assert_lone_request_fast(service)

    def test_no_pending_leak_after_queue_full(self, toy_model, resolver):
        wait = 0.5
        service = self._service(toy_model, resolver, ServingConfig(
            batch_wait_s=wait, default_timeout_s=30.0, queue_capacity=1,
            shed_watermark_fraction=1.0))
        batcher, entered, release = self._gate(service)
        try:
            # Direct submissions are not service requests: the first
            # wedges the worker, the second fills the one-slot queue.
            vectors = np.ones((1, toy_model.registry.n_features))
            first = batcher.submit_async(vectors)
            assert entered.wait(10.0)
            second = batcher.submit_async(vectors)
            with pytest.raises(QueueFullError):
                service.predict(SQL, "toy")
            with pytest.raises(QueueFullError):
                service.predict_many([(SQL, "toy")])
        finally:
            release.set()
        first.result(10.0)
        second.result(10.0)
        time.sleep(wait * 1.2)   # let the batcher go quiet
        self._assert_lone_request_fast(service, limit=wait * 0.9)

    def test_no_pending_leak_after_closed_service(self, toy_model,
                                                  resolver):
        service = self._service(toy_model, resolver)
        service._closed.set()   # the batchers and the model stay usable
        with pytest.raises(ServingError):
            service.predict(SQL, "toy")
        with pytest.raises(ServingError):
            service.predict_many([(SQL, "toy")])
        service._closed.clear()
        self._assert_lone_request_fast(service)

    def test_concurrent_requests_still_coalesce(self, toy_model, resolver):
        service = self._service(toy_model, resolver)
        expected = service.predict(SQL, "toy")   # warm the plan cache
        batcher, entered, release = self._gate(service)
        n_clients = 6
        results, errors = [], []

        def client():
            try:
                results.append(service.predict(SQL, "toy"))
            except Exception as exc:   # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client)
                   for _ in range(n_clients)]
        try:
            # A direct (uncounted) submission holds the worker, so
            # every client queues behind it.
            held = batcher.submit_async(
                np.ones((1, toy_model.registry.n_features)))
            assert entered.wait(10.0)
            requests_before = batcher.stats().requests
            batches_before = batcher.stats().batches
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while batcher.stats().requests < requests_before + n_clients:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            release.set()
        started = time.monotonic()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        elapsed = time.monotonic() - started
        held.result(10.0)
        assert errors == []
        assert len(results) == n_clients
        assert all(r.cache_hit for r in results)
        assert {r.predicted_seconds for r in results} == \
            {expected.predicted_seconds}
        # The held batch, then all six clients in one more that leaves
        # once nobody else is on the way, not when the window runs out.
        assert batcher.stats().batches - batches_before == 2
        assert elapsed < 4.0


# ---------------------------------------------------------------------------
# The cold path: request-scoped memos, bit-identical answers
# ---------------------------------------------------------------------------


#: Seven toy-instance templates: scans, 2- and 3-way joins, GROUP BY.
_TEMPLATES = (
    "SELECT count(*) FROM orders WHERE o_total <= {v}",
    "SELECT count(*) FROM item WHERE i_price <= {w}",
    "SELECT count(*) FROM customer WHERE c_balance > {v}",
    "SELECT count(*) FROM orders, customer "
    "WHERE o_cust = c_id AND o_total <= {v}",
    "SELECT count(*) FROM orders, customer, item "
    "WHERE o_cust = c_id AND o_item = i_id AND i_price <= {w}",
    "SELECT o_status, count(*) FROM orders WHERE o_total <= {v} "
    "GROUP BY o_status",
    "SELECT c_nation, count(*) FROM orders, customer "
    "WHERE o_cust = c_id AND c_balance > {v} GROUP BY c_nation",
)


def _statements(count: int):
    """``count`` distinct toy statements cycling through the templates."""
    return [_TEMPLATES[i % len(_TEMPLATES)].format(
                v=100 + 37 * i, w=1 + (i % 490))
            for i in range(count)]


def _live_operators() -> int:
    gc.collect()
    return sum(isinstance(obj, PhysicalOperator) for obj in gc.get_objects())


def _reference_features(model, instance, sql):
    """The offline path: parse, a fresh optimizer, a fresh exact model."""
    logical = parse_sql(sql, instance.schema, instance.catalog)
    plan = Optimizer(instance.schema, instance.catalog).optimize(
        logical, "reference")
    return model.registry.vectors_for_plan(
        plan, ExactCardinalityModel(instance.catalog))


class TestColdPath:
    STATEMENTS = _statements(70)

    def _service(self, toy_model, resolver, cache_size=1024,
                 batch_wait_s=0.001):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        return PredictionService(
            registry, ServingConfig(plan_cache_size=cache_size,
                                    batch_wait_s=batch_wait_s),
            instance_resolver=resolver)

    def _assert_cached_match_reference(self, service, toy_model,
                                       toy_instance):
        key = service.registry.get("m").key
        for sql in self.STATEMENTS:
            vectors, cards = service._plan_cache.get(
                (key, "toy", normalize_sql(sql)))
            ref_vectors, ref_cards = _reference_features(
                toy_model, toy_instance, sql)
            assert np.array_equal(vectors, ref_vectors), sql
            assert np.array_equal(cards, ref_cards), sql

    def test_service_retains_nothing_per_cold_request(self, toy_model,
                                                      resolver):
        service = self._service(toy_model, resolver, cache_size=1,
                                batch_wait_s=0.0)
        statements = _statements(200)
        for sql in statements[:20]:
            service.predict(sql, "toy")
        after_20 = _live_operators()
        for sql in statements[20:]:
            assert not service.predict(sql, "toy").cache_hit
        after_200 = _live_operators()
        # 180 more cold requests must not leave 180 plans' operators behind.
        assert after_200 <= after_20

    def test_serial_cold_path_matches_reference(self, toy_model, resolver,
                                                toy_instance):
        service = self._service(toy_model, resolver)
        for sql in self.STATEMENTS:
            cold = service.predict(sql, "toy")
            warm = service.predict(sql, "toy")
            assert not cold.cache_hit and warm.cache_hit
            assert warm.predicted_seconds == cold.predicted_seconds
            assert warm.pipeline_seconds == cold.pipeline_seconds
        self._assert_cached_match_reference(service, toy_model, toy_instance)

    def test_predict_many_cold_path_matches_reference(self, toy_model,
                                                      resolver, toy_instance):
        service = self._service(toy_model, resolver)
        requests = [(sql, "toy") for sql in self.STATEMENTS]
        cold = service.predict_many(requests)
        warm = service.predict_many(requests)
        assert not any(r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)
        assert ([r.predicted_seconds for r in warm]
                == [r.predicted_seconds for r in cold])
        self._assert_cached_match_reference(service, toy_model, toy_instance)

    def test_concurrent_cold_path_matches_reference(self, toy_model,
                                                    resolver, toy_instance):
        service = self._service(toy_model, resolver)
        n_threads = 4
        results = [dict() for _ in range(n_threads)]
        errors = []

        def client(slot):
            # Every thread walks all statements from a different offset,
            # so threads race on the same cold statements.
            shift = slot * len(self.STATEMENTS) // n_threads
            order = self.STATEMENTS[shift:] + self.STATEMENTS[:shift]
            try:
                for sql in order:
                    results[slot][sql] = service.predict(
                        sql, "toy", timeout=30.0).predicted_seconds
            except Exception as exc:   # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert errors == []
        self._assert_cached_match_reference(service, toy_model, toy_instance)
        for sql in self.STATEMENTS:
            warm = service.predict(sql, "toy")
            assert warm.cache_hit
            assert {r[sql] for r in results} == {warm.predicted_seconds}

    def test_case_variant_answers_alike_cold_and_warm(self, toy_model,
                                                      resolver, toy_instance):
        """The plan-cache key lowercases identifiers (``normalize_sql``),
        so the binder resolves them case-insensitively: a case variant
        answers the same served cold as from the cache."""
        sql = ("SELECT customer.c_nation, count(*) FROM orders, customer "
               "WHERE orders.o_cust = c_id AND c_balance > 500 "
               "GROUP BY customer.c_nation")
        variant = ("select CUSTOMER.C_NATION, COUNT(*) FROM Orders, CUSTOMER "
                   "WHERE ORDERS.O_Cust = C_ID AND c_Balance > 500 "
                   "GROUP BY Customer.c_nation")
        assert normalize_sql(variant) == normalize_sql(sql)
        warm_service = self._service(toy_model, resolver)
        first = warm_service.predict(sql, "toy")
        warm = warm_service.predict(variant, "toy")
        assert not first.cache_hit and warm.cache_hit
        cold = self._service(toy_model, resolver).predict(variant, "toy")
        assert not cold.cache_hit
        assert cold.predicted_seconds == warm.predicted_seconds
        assert cold.pipeline_seconds == warm.pipeline_seconds
        vectors, cards = _reference_features(toy_model, toy_instance, variant)
        ref_vectors, ref_cards = _reference_features(toy_model, toy_instance,
                                                     sql)
        assert np.array_equal(vectors, ref_vectors)
        assert np.array_equal(cards, ref_cards)


# ---------------------------------------------------------------------------
# Single-sourced counts: /metrics, /healthz and the stats views agree
# ---------------------------------------------------------------------------


#: Histograms of stage latencies: only their ``_count`` is reproducible.
_TIMED = ("t3_serving_parse_seconds", "t3_serving_featurize_seconds",
          "t3_serving_infer_seconds", "t3_serving_total_seconds")


def _pinned_view(text):
    """``{name: type}`` and the reproducible samples of a ``/metrics``
    text."""
    types, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
        elif line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            if name.startswith(_TIMED) and not name.endswith("_count"):
                continue
            samples[name] = value
    return types, samples


def _scripted_sequence(model_path, resolver):
    """One service through cold and warm answers, evictions, both
    fallback rungs, a queue-full shed and a drained close; returns
    ``(service, batcher)``."""
    from repro.faults import FaultInjector, FaultPlan

    injector = FaultInjector()
    registry = ModelRegistry(compile_native=False, injector=injector)
    model = T3Model.load(model_path, compile_to_native=False)
    registry.register(model, "m")
    service = PredictionService(
        registry, ServingConfig(plan_cache_size=2, batch_wait_s=0.001,
                                queue_capacity=1,
                                shed_watermark_fraction=1.0),
        instance_resolver=resolver, injector=injector)
    other = "SELECT count(*) FROM customer"
    join = ("SELECT count(*) FROM orders, customer "
            "WHERE o_cust = c_id AND o_total <= 300")
    assert not service.predict(SQL, "toy").cache_hit
    assert service.predict(SQL, "toy").cache_hit
    # One hit and two misses; the second miss evicts SQL.
    hits = [r.cache_hit for r in service.predict_many(
        [(SQL, "toy"), (other, "toy"), (join, "toy")])]
    assert hits == [True, False, False]
    assert not service.predict(SQL, "toy").cache_hit   # evicts `other`
    service.observe(join, "toy", 0.01)
    # Interpreted, then analytic (the booster is broken too).
    injector.install(FaultPlan.parse("batcher.evaluate:raise:1:2"))
    assert service.predict(SQL, "toy").fallback == "interpreted"

    def broken(X):
        raise RuntimeError("interpreted walk is broken too")
    model.booster.predict = broken
    assert service.predict(SQL, "toy").fallback == "analytic"
    del model.booster.predict
    # A wedged worker and a full one-slot queue shed the next request.
    batcher = service._batcher_for(registry.get("m"))
    entered, release = _wedge(batcher)
    vectors = np.ones((1, model.registry.n_features))
    held = batcher.submit_async(vectors)
    assert entered.wait(10.0)
    queued = batcher.submit_async(vectors)
    with pytest.raises(QueueFullError):
        service.predict(SQL, "toy")
    # The wedged batcher drains its queue at close.
    batcher.close(timeout=0.05)
    service.close()
    release.set()
    with pytest.raises(ServingError):
        queued.result(10.0)
    held.result(10.0)
    return service, batcher


#: ``/metrics`` and ``/healthz`` of :func:`_scripted_sequence` recorded
#: before the counts were single-sourced, when the cache, the batcher
#: and the health tracker each kept their own tallies (timed histograms
#: reduced to ``_count``).
_RECORDED_TYPES = {
    "t3_serving_batch_rows": "histogram",
    "t3_serving_batches_total": "counter",
    "t3_serving_breakers_half_open": "gauge",
    "t3_serving_breakers_open": "gauge",
    "t3_serving_cache_evictions_total": "counter",
    "t3_serving_cache_hits_total": "counter",
    "t3_serving_cache_misses_total": "counter",
    "t3_serving_canary_requests_total": "counter",
    "t3_serving_deadline_expired_total": "counter",
    "t3_serving_errors_total": "counter",
    "t3_serving_fallback_analytic_total": "counter",
    "t3_serving_fallback_interpreted_total": "counter",
    "t3_serving_fallback_total": "counter",
    "t3_serving_featurize_seconds": "histogram",
    "t3_serving_health_state": "gauge",
    "t3_serving_infer_seconds": "histogram",
    "t3_serving_models": "gauge",
    "t3_serving_observations_total": "counter",
    "t3_serving_parse_seconds": "histogram",
    "t3_serving_plan_cache_size": "gauge",
    "t3_serving_queue_capacity": "gauge",
    "t3_serving_queue_depth": "gauge",
    "t3_serving_rejected_total": "counter",
    "t3_serving_requests_total": "counter",
    "t3_serving_shed_total": "counter",
    "t3_serving_timeouts_total": "counter",
    "t3_serving_total_seconds": "histogram",
}
_RECORDED_SAMPLES = {
    't3_serving_batch_rows_bucket{le="1"}': '1',
    't3_serving_batch_rows_bucket{le="2"}': '4',
    't3_serving_batch_rows_bucket{le="4"}': '5',
    't3_serving_batch_rows_bucket{le="8"}': '6',
    't3_serving_batch_rows_bucket{le="16"}': '6',
    't3_serving_batch_rows_bucket{le="32"}': '6',
    't3_serving_batch_rows_bucket{le="64"}': '6',
    't3_serving_batch_rows_bucket{le="128"}': '6',
    't3_serving_batch_rows_bucket{le="256"}': '6',
    't3_serving_batch_rows_bucket{le="512"}': '6',
    't3_serving_batch_rows_bucket{le="1024"}': '6',
    't3_serving_batch_rows_bucket{le="+Inf"}': '6',
    't3_serving_batch_rows_sum': '17',
    't3_serving_batch_rows_count': '6',
    't3_serving_batches_total': '6',
    't3_serving_breakers_half_open': '0',
    't3_serving_breakers_open': '0',
    't3_serving_cache_evictions_total': '2',
    't3_serving_cache_hits_total': '6',
    't3_serving_cache_misses_total': '4',
    't3_serving_canary_requests_total': '0',
    't3_serving_deadline_expired_total': '0',
    't3_serving_errors_total': '1',
    't3_serving_fallback_analytic_total': '1',
    't3_serving_fallback_interpreted_total': '1',
    't3_serving_fallback_total': '2',
    't3_serving_featurize_seconds_count': '4',
    't3_serving_health_state': '2',
    't3_serving_infer_seconds_count': '6',
    't3_serving_models': '1',
    't3_serving_observations_total': '1',
    't3_serving_parse_seconds_count': '4',
    't3_serving_plan_cache_size': '2',
    't3_serving_queue_capacity': '1',
    't3_serving_queue_depth': '0',
    't3_serving_rejected_total': '1',
    't3_serving_requests_total': '8',
    't3_serving_shed_total': '0',
    't3_serving_timeouts_total': '0',
    't3_serving_total_seconds_count': '6',
}
_RECORDED_HEALTH = {
    "degradation": {"state": "draining",
                    "fallbacks": {"interpreted": 1, "analytic": 1},
                    "fallback_total": 2, "shed_total": 1,
                    "degraded_reasons": []},
    "plan_cache": {"size": 2, "capacity": 2, "hits": 6, "misses": 4,
                   "evictions": 2},
}

#: Counters first exported when the counts moved into the registry.
_NEW_COUNTERS = {"t3_serving_batcher_requests_total": "9",
                 "t3_serving_drained_total": "1",
                 "t3_serving_requests_shed_total": "1"}


class TestSingleSourcedCounts:
    def test_scripted_sequence_matches_the_record(self, toy_model, resolver,
                                                  tmp_path):
        toy_model.save(tmp_path / "model.json")
        service, batcher = _scripted_sequence(tmp_path / "model.json",
                                              resolver)
        types, samples = _pinned_view(service.metrics_text())
        assert types == {**_RECORDED_TYPES,
                         **{name: "counter" for name in _NEW_COUNTERS}}
        # The queue-depth gauge now sums every batcher's queue.
        assert samples.pop("t3_serving_queue_depth") == "0"
        expected = {name: value for name, value in _RECORDED_SAMPLES.items()
                    if name != "t3_serving_queue_depth"}
        assert samples == {**expected, **_NEW_COUNTERS}
        health = service.health()
        assert {key: health[key] for key in _RECORDED_HEALTH} == \
            _RECORDED_HEALTH
        # The stats objects are views of the same counters.
        assert service.cache_stats() == CacheStats(hits=6, misses=4,
                                                   evictions=2)
        assert batcher.stats() == BatcherStats(
            requests=9, batches=6, rows=17, rejected=1, timeouts=0,
            shed=0, expired=0, drained=1)

    def test_queue_depth_sums_active_and_canary(self, toy_model, resolver):
        registry = ModelRegistry()
        registry.register(toy_model, "m")
        registry.register(toy_model, "m")
        registry.set_canary("m", 2, 0.5)
        service = PredictionService(
            registry, ServingConfig(batch_wait_s=0.001),
            instance_resolver=resolver)
        vectors = np.ones((1, toy_model.registry.n_features))
        batchers, releases, futures = [], [], []
        try:
            # The active batcher is built first, so a gauge bound to the
            # newest batcher would read the canary's queue alone.
            for version, queued in ((1, 4), (2, 2)):
                batcher = service._batcher_for(registry.get("m", version))
                entered, release = _wedge(batcher)
                batchers.append(batcher)
                releases.append(release)
                futures.append(batcher.submit_async(vectors))
                assert entered.wait(10.0)
                futures += [batcher.submit_async(vectors)
                            for _ in range(queued)]
            assert [b.queue_depth for b in batchers] == [4, 2]
            depth = service.metrics.get("t3_serving_queue_depth")
            assert depth.value == 6
            assert "t3_serving_queue_depth 6" in service.metrics_text()
        finally:
            for release in releases:
                release.set()
        for future in futures:
            future.result(10.0)
        assert depth.value == 0
        for batcher in batchers:
            batcher.close()
