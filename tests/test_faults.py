"""Chaos suite: deterministic fault injection, breakers, degradation.

Every test here runs under a wall-clock hang detector (faulthandler
dumps all stacks and aborts the process if a test wedges), because the
subject under test is precisely "nothing ever blocks forever".
"""

import faulthandler
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    InjectedFaultError,
    LoadShedError,
    QueueFullError,
    RequestTimeoutError,
    ServiceClosedError,
)
from repro.core.model import PredictionBackend, T3Config, T3Model
from repro.datagen.workload import WorkloadConfig
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HealthState,
    HealthTracker,
    KNOWN_SITES,
    clear_faults,
    install_plan,
)
from repro.serving import (
    AnalyticBaseline,
    MicroBatcher,
    ModelRegistry,
    PredictionService,
    ServingConfig,
    ServingServer,
    normalize_sql,
)
from repro.trees.boosting import BoostingParams

#: Per-test wall-clock cap. A chaos test that runs this long has hung.
_HANG_CAP_S = 120


@pytest.fixture(autouse=True)
def _hang_detector():
    faulthandler.dump_traceback_later(_HANG_CAP_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _clean_global_faults():
    clear_faults()
    yield
    clear_faults()


# ---------------------------------------------------------------------------
# Shared fixtures (mirrors test_serving: one small model over the toy
# instance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_instance():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


@pytest.fixture(scope="module")
def toy_model(toy_instance):
    from repro.datagen.workload import WorkloadBuilder
    workload = WorkloadBuilder(
        toy_instance, WorkloadConfig(queries_per_structure=2,
                                     include_fixed_benchmarks=False)).build()
    return T3Model.train(workload, T3Config(
        boosting=BoostingParams(n_rounds=15, objective="mape",
                                validation_fraction=0.2),
        compile_to_native=True))


@pytest.fixture()
def resolver(toy_instance):
    from repro.errors import SchemaError

    def resolve(name):
        if name == "toy":
            return toy_instance
        raise SchemaError(f"unknown instance {name!r}")
    return resolve


@pytest.fixture()
def _restore_backend(toy_model):
    """Chaos at registry.compile downgrades the shared model; undo."""
    yield
    if toy_model.is_compiled:
        toy_model.use_backend(PredictionBackend.COMPILED)


def make_service(toy_model, resolver, plan=None, **config_kwargs):
    injector = FaultInjector(plan)
    registry = ModelRegistry(injector=injector)
    registry.register(toy_model, "toy-model")
    config = ServingConfig(plan_cache_size=16, batch_wait_s=0.001,
                           **config_kwargs)
    return PredictionService(registry, config, instance_resolver=resolver,
                             injector=injector)


SQL = "SELECT count(*) FROM orders WHERE o_total <= 500"


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse(
            "batcher.evaluate:raise:0.5;cache.read:corrupt;"
            "http.handler:delay:1:3", seed=7)
        assert plan.seed == 7
        assert plan.specs[0] == FaultSpec("batcher.evaluate", "raise", 0.5)
        assert plan.specs[1].action == "corrupt"
        assert plan.specs[2].max_fires == 3

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultPlan.parse("nonexistent.site:raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultPlan.parse("cache.read:explode")

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("cache.read")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("cache.read:raise:often")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("   ;  ")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("cache.read", "raise", probability=1.5)

    def test_describe_round_trips_the_shape(self):
        plan = FaultPlan.parse("cache.read:raise:0.25:2")
        assert plan.describe() == ["cache.read:raise@0.25 x2"]


class TestFaultInjector:
    def test_no_plan_is_a_noop(self):
        injector = FaultInjector()
        injector.fire("batcher.evaluate")
        assert injector.corrupt("cache.read", 41, lambda v: v + 1) == 41
        assert injector.fire_counts() == {}

    def test_raise_and_counts(self):
        injector = FaultInjector(FaultPlan.parse("cache.read:raise"))
        with pytest.raises(InjectedFaultError):
            injector.fire("cache.read")
        injector.fire("batcher.evaluate")   # other sites untouched
        assert injector.fire_counts() == {"cache.read": 1}

    def test_corrupt_transforms_value(self):
        injector = FaultInjector(FaultPlan.parse("cache.read:corrupt"))
        assert injector.corrupt("cache.read", 1, lambda v: -v) == -1

    def test_max_fires_caps_the_spec(self):
        injector = FaultInjector(FaultPlan.parse("cache.read:raise:1:2"))
        fired = 0
        for _ in range(10):
            try:
                injector.fire("cache.read")
            except InjectedFaultError:
                fired += 1
        assert fired == 2

    def test_probabilistic_arming_is_deterministic(self):
        def decisions(seed):
            injector = FaultInjector(
                FaultPlan.parse("batcher.evaluate:raise:0.5", seed=seed))
            out = []
            for _ in range(40):
                try:
                    injector.fire("batcher.evaluate")
                    out.append(False)
                except InjectedFaultError:
                    out.append(True)
            return out

        first = decisions(seed=123)
        assert decisions(seed=123) == first          # bit-identical replay
        assert 5 < sum(first) < 35                   # actually probabilistic
        assert decisions(seed=124) != first          # seed matters

    def test_install_resets_counters(self):
        injector = FaultInjector(FaultPlan.parse("cache.read:raise:1:1"))
        with pytest.raises(InjectedFaultError):
            injector.fire("cache.read")
        injector.fire("cache.read")                  # cap reached
        injector.install(injector.plan)
        with pytest.raises(InjectedFaultError):
            injector.fire("cache.read")              # cap reset

    def test_global_install_and_clear(self):
        injector = install_plan(FaultPlan.parse("cache.read:raise"))
        assert injector.active
        clear_faults()
        assert not injector.active

    def test_known_sites_documented(self):
        assert set(KNOWN_SITES) == {
            "registry.compile", "batcher.evaluate", "cache.read",
            "http.handler", "lifecycle.log_append"}


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _breaker(clock, **kwargs):
    kwargs.setdefault("window", 10)
    kwargs.setdefault("min_samples", 4)
    kwargs.setdefault("failure_threshold", 0.5)
    kwargs.setdefault("backoff_base_s", 1.0)
    kwargs.setdefault("half_open_probes", 2)
    return CircuitBreaker("test", clock=clock, **kwargs)


class TestCircuitBreaker:
    def test_stays_closed_under_min_samples(self):
        breaker = _breaker(_FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_trips_on_failure_rate(self):
        breaker = _breaker(_FakeClock())
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_mixed_outcomes_below_threshold_stay_closed(self):
        breaker = _breaker(_FakeClock())
        for _ in range(7):
            breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED   # 3/10 < 0.5

    def test_half_open_after_backoff_then_recloses(self):
        clock = _FakeClock()
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.now = 2.0   # past base backoff (1.0s * jitter < 1.25)
        assert breaker.allow()                        # probe 1 admitted
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()                        # probe 2 admitted
        assert not breaker.allow()                    # probes bounded
        breaker.record_success()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_aborted_probes_release_their_slots(self):
        # Regression: a probe shed on overload (queue full, deadline)
        # must return its half-open slot. Leaking both slots would pin
        # allow() at False forever with no probe left to transition.
        clock = _FakeClock()
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()            # both slots taken
        breaker.record_aborted()
        breaker.record_aborted()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()                # slots released, not leaked
        breaker.record_success()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_aborted_is_noop_when_closed(self):
        breaker = _breaker(_FakeClock())
        breaker.record_aborted()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_longer_backoff(self):
        clock = _FakeClock()
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        first = breaker.snapshot()["open_remaining_s"]
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.trips == 2
        second = breaker.snapshot()["open_remaining_s"]
        assert second > first    # exponential growth dominates jitter

    def test_backoff_timeline_is_deterministic(self):
        def timeline(seed):
            clock = _FakeClock()
            breaker = CircuitBreaker("entry@1", seed=seed, min_samples=2,
                                     failure_threshold=0.5, clock=clock)
            out = []
            for _ in range(3):
                breaker.record_failure()
                breaker.record_failure()
                out.append(breaker.snapshot()["open_remaining_s"])
                clock.now += 1000.0
                assert breaker.allow()   # half-open probe, then fail again
            return out

        assert timeline(seed=42) == timeline(seed=42)
        assert timeline(seed=42) != timeline(seed=43)

    def test_backoff_is_capped(self):
        clock = _FakeClock()
        breaker = CircuitBreaker("t", min_samples=1, failure_threshold=0.1,
                                 backoff_base_s=1.0, backoff_cap_s=4.0,
                                 clock=clock)
        for _ in range(12):
            breaker.record_failure()
            clock.now += 100.0
            breaker.allow()
        assert breaker.snapshot()["open_remaining_s"] <= 4.0 * 1.25


# ---------------------------------------------------------------------------
# Health tracker
# ---------------------------------------------------------------------------


class TestHealthTracker:
    def test_healthy_by_default(self):
        tracker = HealthTracker(clock=_FakeClock())
        assert tracker.state is HealthState.HEALTHY

    def test_fallback_event_lingers_then_clears(self):
        clock = _FakeClock()
        tracker = HealthTracker(degraded_linger_s=30.0, clock=clock)
        tracker.note_event()
        assert tracker.state is HealthState.DEGRADED
        clock.now = 29.0
        assert tracker.state is HealthState.DEGRADED
        clock.now = 31.0
        assert tracker.state is HealthState.HEALTHY

    def test_condition_holds_degraded(self):
        flag = {"open": True}
        tracker = HealthTracker(degraded_when=lambda: flag["open"],
                                reason="breaker", clock=_FakeClock())
        assert tracker.state is HealthState.DEGRADED
        assert tracker.degraded_reasons() == ["breaker"]
        flag["open"] = False
        assert tracker.state is HealthState.HEALTHY
        assert tracker.degraded_reasons() == []

    def test_draining_is_terminal(self):
        tracker = HealthTracker(clock=_FakeClock())
        tracker.mark_draining()
        assert tracker.state is HealthState.DRAINING
        tracker.note_event()
        assert tracker.state is HealthState.DRAINING


# ---------------------------------------------------------------------------
# Analytic baseline (last rung)
# ---------------------------------------------------------------------------


class TestAnalyticBaseline:
    def test_finite_for_hostile_cards(self):
        baseline = AnalyticBaseline()
        cards = np.array([np.nan, np.inf, -np.inf, 0.0, 1e30])
        times = baseline.pipeline_times(np.zeros((5, 3)), cards)
        assert np.all(np.isfinite(times))
        assert np.all(times >= 0.0)

    def test_per_query_mode_without_cards(self):
        baseline = AnalyticBaseline()
        times = baseline.pipeline_times(np.zeros((1, 3)), None)
        assert times.shape == (1,)
        assert np.isfinite(times).all()

    def test_more_tuples_cost_more(self):
        baseline = AnalyticBaseline()
        small = baseline.total_time(np.zeros((1, 3)), np.array([10.0]))
        big = baseline.total_time(np.zeros((1, 3)), np.array([1e6]))
        assert big > small


# ---------------------------------------------------------------------------
# MicroBatcher robustness: close-drain, deadlines, shedding
# ---------------------------------------------------------------------------


def _echo_rows(X):
    return np.asarray(X)[:, 0].astype(np.float64)


class TestBatcherRobustness:
    def _blocked_batcher(self, release, entered, **kwargs):
        def predict(X):
            entered.set()
            release.wait(timeout=30)
            return _echo_rows(X)
        kwargs.setdefault("max_wait_s", 0.001)
        return MicroBatcher(predict, **kwargs).start()

    def test_close_drains_queued_requests(self):
        import threading
        release, entered = threading.Event(), threading.Event()
        batcher = self._blocked_batcher(release, entered)
        blocker = batcher.submit_async(np.ones((1, 2)))
        assert entered.wait(timeout=10)
        pending = [batcher.submit_async(np.ones((1, 2))) for _ in range(3)]
        batcher.close(timeout=0.1)
        for future in pending:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=10)
        assert batcher.stats().drained == 3
        release.set()   # the in-flight batch still completes
        assert blocker.result(timeout=10) is not None

    def test_submit_after_close_raises_typed(self):
        batcher = MicroBatcher(_echo_rows).start()
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit(np.ones((1, 2)))

    def test_pre_expired_deadline_is_shed(self):
        batcher = MicroBatcher(_echo_rows).start()
        try:
            with pytest.raises(DeadlineExceeded):
                batcher.submit(np.ones((1, 2)),
                               deadline=time.monotonic() - 1.0)
            assert batcher.stats().expired == 1
        finally:
            batcher.close()

    def test_deadline_expiring_in_queue_is_shed_not_evaluated(self):
        import threading
        release, entered = threading.Event(), threading.Event()
        batcher = self._blocked_batcher(release, entered)
        try:
            batcher.submit_async(np.ones((1, 2)))
            assert entered.wait(timeout=10)
            doomed = batcher.submit_async(
                np.ones((1, 2)), deadline=time.monotonic() + 0.05)
            time.sleep(0.1)
            release.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            assert batcher.stats().expired == 1
        finally:
            batcher.close()

    def test_watermark_sheds_before_queue_full(self):
        import threading
        release, entered = threading.Event(), threading.Event()
        batcher = self._blocked_batcher(release, entered, queue_capacity=8,
                                        shed_watermark=2)
        try:
            batcher.submit_async(np.ones((1, 2)))
            assert entered.wait(timeout=10)
            batcher.submit_async(np.ones((1, 2)))
            batcher.submit_async(np.ones((1, 2)))
            with pytest.raises(LoadShedError):
                batcher.submit_async(np.ones((1, 2)))
            assert batcher.stats().shed == 1
        finally:
            release.set()
            batcher.close()

    def test_watermark_validated(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(_echo_rows, queue_capacity=4, shed_watermark=9)

    def test_submit_racing_close_fails_typed(self):
        # Regression: a submitter that passes the closed check just
        # before close() runs must not strand its request in a
        # worker-less queue — the post-put re-check drains it.
        batcher = MicroBatcher(_echo_rows).start()
        real_put = batcher._queue.put_nowait

        def racing_put(item):
            batcher.close(timeout=5.0)   # lands between check and put
            real_put(item)

        batcher._queue.put_nowait = racing_put
        future = batcher.submit_async(np.ones((1, 2)))
        assert isinstance(future.exception(timeout=10), ServiceClosedError)

    def test_submit_without_deadline_is_bounded(self):
        # Regression: timeout=None must not become an unbounded
        # future.result(None) — a wedged worker surfaces as a typed
        # timeout (LK010), never a hang.
        import threading
        release, entered = threading.Event(), threading.Event()
        batcher = self._blocked_batcher(release, entered)
        try:
            from repro.serving import batching
            original = batching._DEFAULT_RESULT_WAIT_S
            batching._DEFAULT_RESULT_WAIT_S = 0.2
            try:
                with pytest.raises(RequestTimeoutError):
                    batcher.submit(np.ones((1, 2)))
            finally:
                batching._DEFAULT_RESULT_WAIT_S = original
        finally:
            release.set()
            batcher.close()

    def test_zero_timeout_means_immediate_deadline(self):
        batcher = MicroBatcher(_echo_rows).start()
        try:
            with pytest.raises(DeadlineExceeded):
                batcher.submit(np.ones((1, 2)), timeout=0.0)
        finally:
            batcher.close()


# ---------------------------------------------------------------------------
# The degradation chain, chaos-parametrized over every service site
# ---------------------------------------------------------------------------


_SERVICE_SITE_PLANS = [
    pytest.param("registry.compile:raise", id="registry-compile"),
    pytest.param("batcher.evaluate:raise", id="batcher-raise"),
    pytest.param("batcher.evaluate:corrupt", id="batcher-corrupt"),
    pytest.param("cache.read:raise", id="cache-raise"),
    pytest.param("cache.read:corrupt", id="cache-corrupt"),
]


class TestDegradationChain:
    @pytest.mark.parametrize("spec", _SERVICE_SITE_PLANS)
    def test_every_site_still_answers_finite(self, toy_model, resolver,
                                             _restore_backend, spec):
        service = make_service(toy_model, resolver, FaultPlan.parse(spec))
        for _ in range(3):   # cold cache, warm cache, repeat
            result = service.predict(SQL, "toy")
            assert np.isfinite(result.predicted_seconds)
            assert result.predicted_seconds >= 0.0

    @pytest.mark.parametrize(
        "spec", ["batcher.evaluate:raise", "batcher.evaluate:corrupt"])
    def test_backend_faults_carry_degraded_provenance(
            self, toy_model, resolver, spec):
        service = make_service(toy_model, resolver, FaultPlan.parse(spec))
        result = service.predict(SQL, "toy")
        assert result.degraded is True
        assert result.fallback == "interpreted"
        assert result.to_json()["degraded"] is True
        payload = service.health()
        assert payload["status"] == "degraded"
        assert payload["degradation"]["fallback_total"] >= 1
        assert payload["faults"]["fired"]["batcher.evaluate"] >= 1

    def test_cache_faults_recover_without_degradation(self, toy_model,
                                                      resolver):
        service = make_service(toy_model, resolver,
                               FaultPlan.parse("cache.read:raise"))
        result = service.predict(SQL, "toy")
        assert result.degraded is False   # rebuild, not fallback
        assert np.isfinite(result.predicted_seconds)

    def test_registry_compile_fault_degrades_backend(self, toy_model,
                                                     resolver,
                                                     _restore_backend):
        service = make_service(toy_model, resolver,
                               FaultPlan.parse("registry.compile:raise"))
        entry = service.registry.get("toy-model")
        assert entry.backend == "interpreted"
        assert "injected" in entry.fallback_reason
        result = service.predict(SQL, "toy")
        assert np.isfinite(result.predicted_seconds)

    def test_analytic_rung_when_everything_fails(self, toy_model, resolver,
                                                 monkeypatch):
        service = make_service(toy_model, resolver,
                               FaultPlan.parse("batcher.evaluate:raise"))

        def broken(X):
            raise RuntimeError("interpreted walk is broken too")
        monkeypatch.setattr(toy_model.booster, "predict", broken)
        result = service.predict(SQL, "toy")
        assert result.degraded is True
        assert result.fallback == "analytic"
        assert np.isfinite(result.predicted_seconds)
        assert result.predicted_seconds >= 0.0
        # A batch on the last rung: each statement's answer is the
        # baseline over its own rows, whatever its neighbours' shapes.
        statements = [
            SQL,
            "SELECT count(*) FROM orders, customer "
            "WHERE o_cust = c_id AND o_total <= 300",
            "SELECT c_nation, count(*) FROM orders, customer "
            "WHERE o_cust = c_id AND c_balance > 100 GROUP BY c_nation",
            "SELECT count(*) FROM customer",
        ]
        results = service.predict_many([(sql, "toy") for sql in statements])
        key = service.registry.get("toy-model").key
        pipeline_counts = set()
        for sql, result in zip(statements, results):
            assert result.degraded is True
            assert result.fallback == "analytic"
            vectors, cards = service._plan_cache.get(
                (key, "toy", normalize_sql(sql)))
            pipeline_counts.add(len(vectors))
            assert result.predicted_seconds == \
                AnalyticBaseline().total_time(vectors, cards)
            assert len(result.pipeline_seconds) == len(vectors)
        assert len(pipeline_counts) > 1

    def test_degraded_sequence_replays_bit_identically(self, toy_model,
                                                       resolver):
        def run():
            service = make_service(
                toy_model, resolver,
                FaultPlan.parse("batcher.evaluate:raise:1:3", seed=99))
            flags = []
            for _ in range(6):
                result = service.predict(SQL, "toy")
                flags.append((result.degraded, result.fallback))
            return flags

        first = run()
        assert first == [(True, "interpreted")] * 3 + [(False, None)] * 3
        assert run() == first

    def test_breaker_opens_under_sustained_failure(self, toy_model,
                                                   resolver):
        service = make_service(toy_model, resolver,
                               FaultPlan.parse("batcher.evaluate:raise"),
                               breaker_min_samples=3,
                               breaker_backoff_base_s=60.0)
        for _ in range(5):
            result = service.predict(SQL, "toy")
            assert result.degraded is True
        payload = service.health()
        snapshots = payload["breakers"]
        assert snapshots[0]["state"] == "open"
        assert snapshots[0]["trips"] == 1
        assert payload["degradation"]["degraded_reasons"] == \
            ["breaker_not_closed"]
        assert payload["degradation"]["fallbacks"] == {"interpreted": 5}
        # Open breaker: primary skipped outright, still answering.
        before = service.injector.fire_counts()["batcher.evaluate"]
        result = service.predict(SQL, "toy")
        assert result.degraded is True
        assert service.injector.fire_counts()["batcher.evaluate"] == before

    def test_shed_returns_the_half_open_probe_slot(self, toy_model,
                                                   resolver, monkeypatch):
        """A request that ``allow()`` admitted as a half-open probe but
        that the batcher sheds never reached the artifact: the service
        must hand the slot back (``record_aborted``), or a single-probe
        breaker stays half-open with ``allow()`` False forever."""
        service = make_service(toy_model, resolver)
        entry = service.registry.get("toy-model")
        clock = _FakeClock()
        breaker = CircuitBreaker(entry.key, min_samples=1,
                                 half_open_probes=1, clock=clock)
        service._breakers[entry.key] = breaker
        breaker.record_failure()
        clock.now += 60.0
        assert breaker.state is BreakerState.HALF_OPEN
        batcher = service._batcher_for(entry)
        for shed in (QueueFullError, ServiceClosedError):
            def submit(*args, _shed=shed, **kwargs):
                raise _shed("shed before evaluation")
            monkeypatch.setattr(batcher, "submit", submit)
            with pytest.raises(shed):
                service.predict(SQL, "toy")
            assert breaker.allow(), f"{shed.__name__} leaked the probe slot"
            breaker.record_aborted()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_expired_deadline_sheds_and_counts(self, toy_model, resolver):
        service = make_service(toy_model, resolver)
        service.predict(SQL, "toy")   # warm the plan cache
        with pytest.raises(DeadlineExceeded):
            service.predict(SQL, "toy", deadline=time.monotonic() - 0.001)
        payload = service.health()
        assert payload["degradation"]["shed_total"] == 1
        assert payload["status"] == "degraded"

    def test_closed_service_is_draining(self, toy_model, resolver):
        service = make_service(toy_model, resolver)
        service.predict(SQL, "toy")
        service._batchers.clear()   # keep the shared model's library alive
        service.registry._versions.clear()
        service.close()
        assert service.health()["status"] == "draining"
        with pytest.raises(ServiceClosedError):
            service.predict(SQL, "toy")


# ---------------------------------------------------------------------------
# HTTP error mapping (satellite: every status code, always an envelope)
# ---------------------------------------------------------------------------


def _post(url, body):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        f"{url}/predict", data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def server(toy_model, toy_instance):
    from repro.errors import SchemaError

    def resolve(name):
        if name == "toy":
            return toy_instance
        raise SchemaError(f"unknown instance {name!r}")

    registry = ModelRegistry()
    registry.register(toy_model, "toy-model")
    service = PredictionService(
        registry, ServingConfig(plan_cache_size=16, batch_wait_s=0.001),
        instance_resolver=resolve)
    srv = ServingServer(service, port=0).start()
    yield srv
    # Shut down the HTTP listener but keep the module-scoped model's
    # compiled library alive for the remaining tests.
    service._batchers.clear()
    service.registry._versions.clear()
    srv.shutdown()


class TestHTTPErrorMapping:
    def test_valid_request_includes_provenance(self, server):
        status, payload = _post(server.url, {"sql": SQL, "instance": "toy"})
        assert status == 200
        assert payload["degraded"] is False
        assert payload["fallback"] is None

    def test_malformed_json_is_400(self, server):
        status, payload = _post(server.url, b"{not json")
        assert status == 400
        assert payload["error"] == "invalid_json"

    def test_missing_fields_is_400(self, server):
        status, payload = _post(server.url, {"sql": 42})
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_unknown_model_is_404(self, server):
        status, payload = _post(server.url, {
            "sql": SQL, "instance": "toy", "model": "absent"})
        assert status == 404
        assert payload["error"] == "model_not_found"

    def test_unknown_instance_is_404(self, server):
        status, payload = _post(server.url, {
            "sql": SQL, "instance": "absent"})
        assert status == 404
        assert payload["error"] == "instance_not_found"

    def test_oversized_body_is_413(self, server):
        # The server rejects on the Content-Length header alone (it
        # never reads an oversized body), so advertise a huge length
        # without actually shipping a megabyte.
        import http.client
        host_port = server.url.removeprefix("http://")
        host, port = host_port.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str((1 << 20) + 1))
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert payload["error"] == "payload_too_large"
        finally:
            conn.close()

    def test_empty_body_is_400(self, server):
        status, payload = _post(server.url, b"")
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_unknown_endpoint_is_404_envelope(self, server):
        try:
            with urllib.request.urlopen(f"{server.url}/nope",
                                        timeout=30) as response:
                status, payload = response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            status, payload = exc.code, json.loads(exc.read())
        assert status == 404
        assert payload["error"] == "not_found"

    def test_injected_handler_fault_is_clean_503(self, server):
        install_plan(FaultPlan.parse("http.handler:raise:1:1"))
        status, payload = _post(server.url, {"sql": SQL, "instance": "toy"})
        assert status == 503
        assert payload["error"] == "injected_fault"
        assert "Traceback" not in payload["message"]
        # The cap exhausted: the very next request succeeds.
        status, _ = _post(server.url, {"sql": SQL, "instance": "toy"})
        assert status == 200

    def test_error_before_body_read_closes_connection(self, server):
        # Regression: a keep-alive (HTTP/1.1) connection answered
        # before its body was read must close — otherwise the unread
        # body bytes get parsed as the next request line and every
        # later request on the connection is corrupted.
        import socket
        body = b'{"sql": "SELECT 1", "instance": "toy"}'
        request = (
            f"POST /nope HTTP/1.1\r\nHost: t\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(request)
            data = b""
            while True:
                chunk = sock.recv(4096)   # EOF only if the server closes
                if not chunk:
                    break
                data += chunk
        assert b" 404 " in data.split(b"\r\n", 1)[0]
        assert b"connection: close" in data.lower()

    def test_body_read_errors_keep_connection_alive(self, server):
        # Counterpart: once the body IS consumed (invalid JSON), the
        # connection stays usable and the next request on it succeeds.
        import http.client
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/predict", b"{not json",
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            conn.request("POST", "/predict",
                         json.dumps({"sql": SQL, "instance": "toy"}),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        finally:
            conn.close()

    def test_healthz_reports_fault_plan(self, server):
        install_plan(FaultPlan.parse("http.handler:delay:1:0"))
        with urllib.request.urlopen(f"{server.url}/healthz",
                                    timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["faults"]["active"] is True
        assert payload["faults"]["plan"] == ["http.handler:delay@1 x0"]
