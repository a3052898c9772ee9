"""Tests for the online serving stack: cache, batcher, registry, service."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ModelNotFoundError,
    QueueFullError,
    RequestTimeoutError,
    SchemaError,
    ServingError,
)
from repro.core.model import T3Config, T3Model
from repro.engine.cardinality import ExactCardinalityModel
from repro.engine.optimizer import Optimizer
from repro.engine.sqlparser import parse_sql
from repro.serving import (
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
def toy_model(toy_instance):
    from repro.datagen.workload import WorkloadBuilder, WorkloadConfig
    workload = WorkloadBuilder(
        toy_instance, WorkloadConfig(queries_per_structure=2,
                                     include_fixed_benchmarks=False)).build()
    return T3Model.train(workload, T3Config(
        boosting=BoostingParams(n_rounds=15, objective="mape",
                                validation_fraction=0.2),
        compile_to_native=True))


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

    def test_eviction_callback(self):
        evicted = []
        cache = LRUCache(1, on_evict=lambda: evicted.append(1))
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(evicted) == 1

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
    def test_predict_matches_offline_model(self, service, toy_model,
                                           toy_instance):
        result = service.predict(SQL, "toy")
        logical = parse_sql(SQL, toy_instance.schema, toy_instance.catalog)
        plan = Optimizer(toy_instance.schema,
                         toy_instance.catalog).optimize(logical, "q")
        expected = toy_model.predict_query(
            plan, ExactCardinalityModel(toy_instance.catalog))
        assert result.predicted_seconds == pytest.approx(expected, rel=1e-9)
        assert result.predicted_seconds == pytest.approx(
            sum(result.pipeline_seconds), rel=1e-9)

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
