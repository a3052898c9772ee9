"""The online prediction service: registry → cache → batcher → metrics.

One ``predict`` call runs the paper's Figure 2 pipeline as a staged
request path, with each stage observable and the expensive front half
cacheable:

1. **parse/optimize** — SQL → logical plan → physical plan,
2. **featurize** — pipeline decomposition → per-pipeline vectors and
   input cardinalities,
3. **infer** — raw tree evaluation through the micro-batching queue
   (one native call for many concurrent requests),
4. combine — tuple-centric inverse transform × cardinalities, summed.

Stages 1–2 are skipped entirely on a plan-cache hit, which is what
makes the service's steady-state latency approach the bare compiled
tree walk the paper measures (~4 µs).

**Graceful degradation.** Stage 3 is a chain, not a single call: the
registered backend (compiled native, behind a per-entry circuit
breaker) → the interpreted ensemble walk → an analytic C_out-style
baseline (:mod:`~repro.serving.fallback`). Any rung that raises or
returns non-finite values hands the request to the next one, so
``predict`` answers with a finite estimate — tagged with ``degraded``
provenance — through compiler faults, corrupt artifacts, and wedged
batchers. Overload is handled *before* evaluation: deadlines travel
with queued requests (:class:`~repro.errors.DeadlineExceeded`), a
watermark sheds load (:class:`~repro.errors.LoadShedError`), and the
healthy/degraded/draining state machine surfaces all of it in
``/healthz``.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    InstanceNotFoundError,
    NonFinitePredictionError,
    QueueFullError,
    RequestTimeoutError,
    SchemaError,
    ServiceClosedError,
    ServingError,
)
from ..core.ablation import TargetMode
from ..core.targets import inverse_transform
from ..datagen.instances import Instance, get_instance
from ..engine.cardinality import ExactCardinalityModel
from ..engine.optimizer import Optimizer
from ..engine.sqlparser import parse_sql
from ..faults import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    HealthState,
    HealthTracker,
    get_injector,
    install_plan,
)
from ..rng import DEFAULT_SEED
from ..treecomp.compiler import compiler_info
from .batching import MicroBatcher
from .cache import LRUCache, normalize_sql
from .fallback import AnalyticBaseline
from .registry import ModelEntry, ModelRegistry
from .telemetry import MetricsRegistry

__all__ = ["PredictionResult", "PredictionService", "ServingConfig"]

_LOG = logging.getLogger(__name__)

#: Fallback-rung labels carried in result provenance.
_INTERPRETED = "interpreted"
_ANALYTIC = "analytic"


def _canary_draw(seed: int, index: int) -> float:
    """Uniform [0, 1) from (seed, request index).

    A splitmix64-style finalizer: hot-path cheap (a handful of integer
    ops, no Generator construction) yet deterministic, so a replayed
    request sequence routes the same requests to the canary.
    """
    x = (index * 0x9E3779B97F4A7C15 + seed) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving path."""

    max_batch_rows: int = 256        # rows coalesced per native call
    batch_wait_s: float = 0.002      # micro-batch coalescing window
    queue_capacity: int = 512        # admission control bound
    plan_cache_size: int = 1024      # (model, instance, sql) entries
    default_timeout_s: float = 5.0   # per-request deadline
    compile_native: bool = True
    # -- robustness -------------------------------------------------------
    #: Queue-depth fraction above which new requests are load-shed.
    shed_watermark_fraction: float = 0.9
    #: Per-entry circuit breaker (trips the registered backend away
    #: to the interpreted/analytic fallbacks).
    breaker_window: int = 20
    breaker_min_samples: int = 5
    breaker_failure_threshold: float = 0.5
    breaker_backoff_base_s: float = 0.5
    breaker_backoff_cap_s: float = 30.0
    breaker_half_open_probes: int = 2
    #: Seed for deterministic breaker jitter and fault arming.
    fault_seed: int = DEFAULT_SEED
    #: Installed on the global injector at service construction
    #: (``repro-t3 serve --chaos``); ``None`` leaves faults untouched.
    fault_plan: Optional[FaultPlan] = None
    #: How long after the last fallback/shed event ``/healthz`` keeps
    #: reporting ``degraded``.
    degraded_linger_s: float = 30.0

    @property
    def shed_watermark_depth(self) -> Optional[int]:
        """Absolute queue depth of the shed watermark (None = off)."""
        if not 0.0 < self.shed_watermark_fraction < 1.0:
            return None
        return max(1, int(self.queue_capacity
                          * self.shed_watermark_fraction))


@dataclass(frozen=True)
class PredictionResult:
    """One answered prediction with its stage breakdown."""

    predicted_seconds: float
    pipeline_seconds: Tuple[float, ...]
    model_name: str
    model_version: int
    backend: str
    cache_hit: bool
    parse_seconds: float
    featurize_seconds: float
    infer_seconds: float
    total_seconds: float
    #: True when the registered backend did not produce this answer.
    degraded: bool = False
    #: Which rung answered: None (primary), "interpreted", "analytic".
    fallback: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "predicted_seconds": self.predicted_seconds,
            "pipeline_seconds": list(self.pipeline_seconds),
            "model": self.model_name,
            "version": self.model_version,
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "fallback": self.fallback,
            "stages": {
                "parse_seconds": self.parse_seconds,
                "featurize_seconds": self.featurize_seconds,
                "infer_seconds": self.infer_seconds,
                "total_seconds": self.total_seconds,
            },
        }


def _valid_feature_entry(value: object) -> bool:
    """Structural validity of a plan-cache entry (vectors, cards)."""
    if not isinstance(value, tuple) or len(value) != 2:
        return False
    vectors, cards = value
    if not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
        return False
    if not np.all(np.isfinite(vectors)):
        return False
    if cards is not None:
        if not isinstance(cards, np.ndarray) or \
                len(cards) != len(vectors):
            return False
    return True


class PredictionService:
    """Serve query-time predictions over registered models.

    ``instance_resolver`` maps an instance name to an
    :class:`~repro.datagen.instances.Instance`; it defaults to the
    21-instance corpus and is injectable for tests and custom schemas.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None,
                 config: Optional[ServingConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 instance_resolver: Callable[[str], Instance] = get_instance,
                 injector: Optional[FaultInjector] = None):
        self.config = config or ServingConfig()
        if injector is None:
            injector = (install_plan(self.config.fault_plan)
                        if self.config.fault_plan is not None
                        else get_injector())
        self._injector = injector
        self.registry = registry or ModelRegistry(
            compile_native=self.config.compile_native, injector=injector)
        self.metrics = metrics or MetricsRegistry()
        self._resolve_instance = instance_resolver
        self._analytic = AnalyticBaseline()
        self._batchers: Dict[str, MicroBatcher] = {}
        self._batchers_lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._optimizers: Dict[str, Tuple[Optimizer, ExactCardinalityModel]]
        self._optimizers = {}
        self._optimizers_lock = threading.Lock()
        #: Attached LifecycleManager (duck-typed — serving never
        #: imports repro.lifecycle; the dependency points the other way).
        self._lifecycle = None
        self._lifecycle_lock = threading.Lock()
        #: Monotone request index feeding the canary-routing draw.
        #: itertools.count.__next__ is atomic under the GIL.
        self._canary_counter = itertools.count()
        self._started_at = time.time()
        self._closed = threading.Event()
        self._health = HealthTracker(
            degraded_linger_s=self.config.degraded_linger_s)
        self._health.add_probe("breaker_not_closed", self._any_breaker_open)

        m = self.metrics
        self._m_requests = m.counter(
            "t3_serving_requests_total", "prediction requests answered")
        self._m_errors = m.counter(
            "t3_serving_errors_total", "prediction requests failed")
        self._m_cache_hits = m.counter(
            "t3_serving_cache_hits_total", "plan/feature cache hits")
        self._m_cache_misses = m.counter(
            "t3_serving_cache_misses_total", "plan/feature cache misses")
        self._m_cache_evictions = m.counter(
            "t3_serving_cache_evictions_total", "plan/feature cache evictions")
        self._m_fallback = m.counter(
            "t3_serving_fallback_total",
            "requests answered by a degraded backend")
        self._m_fallback_interpreted = m.counter(
            "t3_serving_fallback_interpreted_total",
            "requests answered by the interpreted ensemble fallback")
        self._m_fallback_analytic = m.counter(
            "t3_serving_fallback_analytic_total",
            "requests answered by the analytic baseline fallback")
        self._m_observations = m.counter(
            "t3_serving_observations_total",
            "ground-truth observations accepted")
        self._m_canary_routed = m.counter(
            "t3_serving_canary_requests_total",
            "requests routed to a canary model version")
        self._m_parse = m.histogram(
            "t3_serving_parse_seconds", "SQL parse + optimize stage latency")
        self._m_featurize = m.histogram(
            "t3_serving_featurize_seconds", "featurization stage latency")
        self._m_infer = m.histogram(
            "t3_serving_infer_seconds",
            "tree inference stage latency (including batch queueing)")
        self._m_total = m.histogram(
            "t3_serving_total_seconds", "end-to-end request latency")
        self._plan_cache = LRUCache(
            self.config.plan_cache_size,
            on_hit=self._m_cache_hits.inc,
            on_miss=self._m_cache_misses.inc,
            on_evict=self._m_cache_evictions.inc)
        m.gauge("t3_serving_plan_cache_size",
                "entries in the plan/feature cache",
                function=self._plan_cache.__len__)
        m.gauge("t3_serving_models", "registered model versions",
                function=lambda: float(len(self.registry)))
        m.gauge("t3_serving_health_state",
                "service health (0 healthy, 1 degraded, 2 draining)",
                function=lambda: float(self._health.state.code))
        m.gauge("t3_serving_breakers_open",
                "circuit breakers currently open",
                function=lambda: float(self._breaker_count(
                    BreakerState.OPEN)))
        m.gauge("t3_serving_breakers_half_open",
                "circuit breakers currently half-open",
                function=lambda: float(self._breaker_count(
                    BreakerState.HALF_OPEN)))

    @property
    def injector(self) -> FaultInjector:
        """The fault injector shared by every site in this service."""
        return self._injector

    # -- the request path -------------------------------------------------

    def predict(self, sql: str, instance: str,
                model: Optional[str] = None,
                version: Optional[int] = None,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> PredictionResult:
        """Predict the execution time of ``sql`` against ``instance``.

        ``deadline`` is an absolute :func:`time.monotonic` instant; it
        wins over ``timeout`` (seconds from now) and propagates through
        every stage — a request that cannot finish in time is shed with
        :class:`~repro.errors.DeadlineExceeded`, never evaluated late.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is closed")
        started = time.perf_counter()
        deadline = self._resolve_deadline(timeout, deadline)
        try:
            entry = self._resolve_entry(model, version)
            vectors, cards, parse_s, featurize_s, hit = \
                self._plan_features(entry, instance, sql)
            infer_started = time.perf_counter()
            total, pipeline_seconds, fallback = self._predict_times(
                entry, vectors, cards, deadline)
            infer_s = time.perf_counter() - infer_started
        except Exception as exc:
            self._m_errors.inc()
            self._note_shed(exc)
            raise
        total_s = time.perf_counter() - started
        self._m_requests.inc()
        self._observe_front_stages(parse_s, featurize_s, hit)
        self._m_infer.observe(infer_s)
        self._m_total.observe(total_s)
        return PredictionResult(
            predicted_seconds=total, pipeline_seconds=pipeline_seconds,
            model_name=entry.name, model_version=entry.version,
            backend=entry.backend, cache_hit=hit,
            parse_seconds=parse_s, featurize_seconds=featurize_s,
            infer_seconds=infer_s, total_seconds=total_s,
            degraded=fallback is not None, fallback=fallback)

    def predict_many(self, requests: Sequence[Tuple[str, str]],
                     model: Optional[str] = None,
                     version: Optional[int] = None,
                     timeout: Optional[float] = None,
                     deadline: Optional[float] = None
                     ) -> List[PredictionResult]:
        """Predict a batch of ``(sql, instance)`` requests in one shot.

        This is the client-side face of micro-batching — the natural
        call shape when one caller holds many queries at once (e.g. an
        optimizer scoring candidate plans, or a dashboard admitting a
        queued workload). All feature matrices are stacked into a
        **single** native batch call, so the per-request Python
        overhead is paid once per batch instead of once per query.
        The degradation chain applies to the whole batch at once.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is closed")
        if not requests:
            return []
        started = time.perf_counter()
        deadline = self._resolve_deadline(timeout, deadline)
        try:
            entry = self._resolve_entry(model, version)
            fronts = [self._plan_features(entry, instance, sql)
                      for sql, instance in requests]
            infer_started = time.perf_counter()
            stacked = (fronts[0][0] if len(fronts) == 1
                       else np.vstack([front[0] for front in fronts]))
            raw, fallback = self._infer_raw(entry, stacked, deadline)
            infer_s = time.perf_counter() - infer_started
        except Exception as exc:
            self._m_errors.inc()
            self._note_shed(exc)
            raise
        results = []
        offset = 0
        per_query = entry.model.config.target_mode is TargetMode.PER_QUERY
        for vectors, cards, parse_s, featurize_s, hit in fronts:
            rows = len(vectors)
            if raw is None:   # analytic rung: no raw scores exist
                times = self._analytic.pipeline_times(vectors, cards)
                pipeline_seconds: Tuple[float, ...] = \
                    () if per_query else tuple(float(t) for t in times)
                total = float(times.sum())
            else:
                slice_raw = raw[offset:offset + rows]
                if per_query:
                    total = float(inverse_transform(slice_raw)[0])
                    pipeline_seconds = ()
                else:
                    times = entry.model.pipeline_times_from_raw(
                        slice_raw, cards)
                    pipeline_seconds = tuple(float(t) for t in times)
                    total = float(times.sum())
            offset += rows
            self._m_requests.inc()
            self._observe_front_stages(parse_s, featurize_s, hit)
            results.append(PredictionResult(
                predicted_seconds=total, pipeline_seconds=pipeline_seconds,
                model_name=entry.name, model_version=entry.version,
                backend=entry.backend, cache_hit=hit,
                parse_seconds=parse_s, featurize_seconds=featurize_s,
                infer_seconds=infer_s,
                total_seconds=time.perf_counter() - started,
                degraded=fallback is not None, fallback=fallback))
        self._m_infer.observe(infer_s)
        self._m_total.observe(time.perf_counter() - started)
        return results

    def _observe_front_stages(self, parse_s: float, featurize_s: float,
                              hit: bool) -> None:
        """Record parse/featurize latency of a plan-cache miss.

        A hit skips both stages; the cache-hit counter already counts
        it, and observing its zeros would make the stage quantiles
        track the hit ratio instead of the stages' cost.
        """
        if not hit:
            self._m_parse.observe(parse_s)
            self._m_featurize.observe(featurize_s)

    # -- routing -----------------------------------------------------------

    def _resolve_entry(self, model: Optional[str],
                       version: Optional[int]) -> ModelEntry:
        """Resolve the serving entry, routing a fraction to a canary.

        Explicit versions bypass routing. Otherwise a deterministic
        per-request draw decides canary vs active — the registry
        resolves both pointers under one lock, so a promote/rollback
        concurrent with this call yields the old or the new routing,
        never a mix. The entry returned is held for the whole request
        (batcher and breaker are keyed by it), so a swap mid-request
        cannot change which model answers.
        """
        if version is not None:
            return self.registry.get(model, version)
        draw = None
        canary = self.registry.canary_info(model)
        if canary is not None:
            draw = _canary_draw(self.config.fault_seed,
                                next(self._canary_counter))
        entry = self.registry.get(model, canary_draw=draw)
        if canary is not None and entry.version == canary[0]:
            self._m_canary_routed.inc()
        return entry

    # -- the observation hook ----------------------------------------------

    def observe(self, sql: str, instance: str, observed_seconds: float,
                model: Optional[str] = None) -> Dict[str, object]:
        """Accept one piece of ground truth: ``sql`` actually took
        ``observed_seconds`` on ``instance``.

        Recomputes the *active* model's prediction through the cached
        front half (observations deliberately skip canary routing: the
        pair being logged is "what the pinned model would say" vs
        reality, which is what retraining and shadow scoring compare
        against). When a lifecycle manager is attached the pair is
        appended to its crash-safe log and advances the state machine;
        without one this is a cheap echo endpoint.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is closed")
        observed = float(observed_seconds)
        if not np.isfinite(observed) or observed < 0.0:
            raise ConfigurationError(
                "observed_seconds must be finite and non-negative, "
                f"got {observed_seconds!r}")
        try:
            entry = self.registry.get(model)
            vectors, cards, _, _, _ = self._plan_features(
                entry, instance, sql)
            total, pipeline_seconds, fallback = self._predict_times(
                entry, vectors, cards,
                self._resolve_deadline(None, None))
        except Exception as exc:
            self._m_errors.inc()
            self._note_shed(exc)
            raise
        sequence = None
        lifecycle = self.lifecycle
        if lifecycle is not None:
            sequence = lifecycle.observe_served(
                instance=instance, vectors=vectors, cards=cards,
                predicted_seconds=total,
                pipeline_seconds=pipeline_seconds,
                observed_seconds=observed, model_key=entry.key)
        self._m_observations.inc()
        return {
            "sequence": sequence,
            "model": entry.name,
            "version": entry.version,
            "predicted_seconds": total,
            "observed_seconds": observed,
            "qerror": (max(max(total, 1e-9) / max(observed, 1e-9),
                           max(observed, 1e-9) / max(total, 1e-9))),
            "degraded": fallback is not None,
            "lifecycle": (None if lifecycle is None
                          else lifecycle.phase.value),
        }

    def attach_lifecycle(self, manager) -> None:
        """Install the lifecycle manager fed by :meth:`observe`."""
        with self._lifecycle_lock:
            self._lifecycle = manager

    @property
    def lifecycle(self):
        with self._lifecycle_lock:
            return self._lifecycle

    def breaker_state(self, entry: ModelEntry) -> BreakerState:
        """The circuit-breaker state guarding ``entry``'s backend."""
        return self._breaker_for(entry).state

    def invalidate_instance(self, instance: str) -> int:
        """Drop cached plans/optimizers for ``instance`` (stats shift).

        Returns how many plan-cache entries were dropped. Must be
        called when an instance's statistics change under the service
        (e.g. a drift scenario flipping regimes), otherwise predictions
        keep using plans optimized against the stale catalog.
        """
        with self._optimizers_lock:
            self._optimizers.pop(instance, None)
        return self._plan_cache.drop_where(
            lambda key: key[1] == instance)

    # -- the degradation chain --------------------------------------------

    def _predict_times(self, entry: ModelEntry, vectors: np.ndarray,
                       cards: Optional[np.ndarray],
                       deadline: Optional[float]
                       ) -> Tuple[float, Tuple[float, ...], Optional[str]]:
        """(total, pipeline times, fallback) via the degradation chain."""
        raw, fallback = self._infer_raw(entry, vectors, deadline)
        if raw is None:   # analytic rung
            times = self._analytic.pipeline_times(vectors, cards)
            per_query = (entry.model.config.target_mode
                         is TargetMode.PER_QUERY)
            pipeline_seconds: Tuple[float, ...] = \
                () if per_query else tuple(float(t) for t in times)
            return float(times.sum()), pipeline_seconds, fallback
        if entry.model.config.target_mode is TargetMode.PER_QUERY:
            return float(inverse_transform(raw)[0]), (), fallback
        times = entry.model.pipeline_times_from_raw(raw, cards)
        return (float(times.sum()),
                tuple(float(t) for t in times), fallback)

    def _infer_raw(self, entry: ModelEntry, stacked: np.ndarray,
                   deadline: Optional[float]
                   ) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """Raw scores for ``stacked``, degrading rung by rung.

        Returns ``(raw, fallback)``; ``raw=None`` means the analytic
        baseline must answer (no raw scores exist on that rung).
        Shedding errors (queue full, deadline) propagate — they are
        load decisions, not artifact failures — while evaluation
        failures trip the entry's breaker and fall through.
        """
        breaker = self._breaker_for(entry)
        if breaker.allow():
            try:
                raw = self._batcher_for(entry).submit(
                    stacked, deadline=deadline)
                if not np.all(np.isfinite(raw)):
                    raise NonFinitePredictionError(
                        "backend returned non-finite predictions")
            except (QueueFullError, RequestTimeoutError,
                    ServiceClosedError):
                # Overload or shutdown, not artifact failure: shed to
                # the caller, returning the half-open probe slot
                # allow() may have taken so the breaker cannot wedge.
                breaker.record_aborted()
                raise
            except Exception as exc:
                breaker.record_failure()
                _LOG.warning("primary backend failed for %s "
                             "(falling back): %s", entry.key, exc)
            else:
                breaker.record_success()
                return raw, None
        self._check_deadline(deadline)
        # Rung 2: interpreted ensemble walk (pure python, no batcher).
        try:
            raw = np.asarray(
                entry.model.booster.predict(
                    np.ascontiguousarray(stacked, dtype=np.float64)),
                dtype=np.float64)
            if not np.all(np.isfinite(raw)):
                raise NonFinitePredictionError(
                    "interpreted backend returned non-finite predictions")
        except Exception:
            pass
        else:
            self._note_fallback(_INTERPRETED)
            return raw, _INTERPRETED
        self._check_deadline(deadline)
        # Rung 3: analytic baseline — computed by the caller, which
        # holds the cardinalities; always finite, never raises.
        self._note_fallback(_ANALYTIC)
        return None, _ANALYTIC

    def _note_fallback(self, target: str) -> None:
        self._m_fallback.inc()
        if target == _INTERPRETED:
            self._m_fallback_interpreted.inc()
        else:
            self._m_fallback_analytic.inc()
        self._health.note_fallback(target)

    def _note_shed(self, exc: Exception) -> None:
        if isinstance(exc, (QueueFullError, RequestTimeoutError)):
            self._health.note_shed()

    def _resolve_deadline(self, timeout: Optional[float],
                          deadline: Optional[float]) -> Optional[float]:
        if deadline is not None:
            return deadline
        window = (timeout if timeout is not None
                  else self.config.default_timeout_s)
        # `is not None`, not truthiness: timeout=0 means "already due"
        # (an immediately-expiring deadline), not "wait forever".
        return (time.monotonic() + window) if window is not None else None

    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        from ..errors import DeadlineExceeded
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                "request deadline expired between fallback rungs")

    # -- the cached front half --------------------------------------------

    def _plan_features(self, entry: ModelEntry, instance: str, sql: str):
        """Cached front half: SQL → (vectors, cards). Stage timings are
        zero on a hit — nothing ran.

        The ``cache.read`` fault site lives here: a raising read is
        treated as a miss (rebuild), and corrupt entries fail
        structural validation inside :meth:`LRUCache.get_checked`,
        which drops them — one corrupt value costs one rebuild.
        """
        key = (entry.key, instance, normalize_sql(sql))
        try:
            self._injector.fire("cache.read")
            cached = self._plan_cache.get_checked(
                key, _valid_feature_entry)
            cached = self._injector.corrupt(
                "cache.read", cached, lambda value: None)
        except InjectedFaultError:
            cached = None   # degraded to a rebuild, not an error
        if cached is not None:
            vectors, cards = cached
            return vectors, cards, 0.0, 0.0, True
        parse_started = time.perf_counter()
        optimizer, card_model = self._optimizer_for(instance)
        inst = self._instance(instance)
        logical = parse_sql(sql, inst.schema, inst.catalog)
        plan = optimizer.optimize(logical, "serving_query")
        parse_s = time.perf_counter() - parse_started
        featurize_started = time.perf_counter()
        vectors, cards = entry.model.registry.vectors_for_plan(
            plan, card_model)
        if entry.model.config.target_mode is TargetMode.PER_QUERY:
            vectors = vectors.sum(axis=0, keepdims=True)
            cards = None
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        featurize_s = time.perf_counter() - featurize_started
        self._plan_cache.put(key, (vectors, cards))
        return vectors, cards, parse_s, featurize_s, False

    def _instance(self, name: str) -> Instance:
        """Resolve an instance name with a 404-able typed error."""
        try:
            return self._resolve_instance(name)
        except InstanceNotFoundError:
            raise
        except (SchemaError, KeyError, LookupError) as exc:
            raise InstanceNotFoundError(
                f"unknown instance {name!r}: {exc}") from exc

    def _optimizer_for(self, instance: str):
        with self._optimizers_lock:
            cached = self._optimizers.get(instance)
        if cached is None:
            inst = self._instance(instance)
            cached = (Optimizer(inst.schema, inst.catalog),
                      ExactCardinalityModel(inst.catalog))
            with self._optimizers_lock:
                # First builder wins so every thread shares one optimizer.
                cached = self._optimizers.setdefault(instance, cached)
        return cached

    def _batcher_for(self, entry: ModelEntry) -> MicroBatcher:
        with self._batchers_lock:
            batcher = self._batchers.get(entry.key)
            if batcher is None:
                batcher = MicroBatcher(
                    entry.model.predict_raw_batch,
                    max_batch_rows=self.config.max_batch_rows,
                    max_wait_s=self.config.batch_wait_s,
                    queue_capacity=self.config.queue_capacity,
                    shed_watermark=self.config.shed_watermark_depth,
                    metrics=self.metrics,
                    name=entry.key,
                    injector=self._injector).start()
                self._batchers[entry.key] = batcher
            return batcher

    def _breaker_for(self, entry: ModelEntry) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(entry.key)
            if breaker is None:
                c = self.config
                breaker = CircuitBreaker(
                    entry.key,
                    window=c.breaker_window,
                    min_samples=c.breaker_min_samples,
                    failure_threshold=c.breaker_failure_threshold,
                    backoff_base_s=c.breaker_backoff_base_s,
                    backoff_cap_s=c.breaker_backoff_cap_s,
                    half_open_probes=c.breaker_half_open_probes,
                    seed=c.fault_seed)
                self._breakers[entry.key] = breaker
            return breaker

    def _breaker_count(self, state: BreakerState) -> int:
        with self._breakers_lock:
            breakers = list(self._breakers.values())
        return sum(1 for b in breakers if b.state is state)

    def _any_breaker_open(self) -> bool:
        with self._breakers_lock:
            breakers = list(self._breakers.values())
        return any(b.state is not BreakerState.CLOSED for b in breakers)

    # -- observability ----------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of all serving metrics."""
        return self.metrics.render()

    def health(self) -> Dict[str, object]:
        """Liveness payload for ``/healthz``."""
        state = self._health.state
        if state is not HealthState.HEALTHY:
            status = state.value
        elif len(self.registry):
            status = "ok"    # healthy; name kept for scraper compat
        else:
            status = "no models"
        with self._breakers_lock:
            breakers = [b.snapshot() for b in self._breakers.values()]
        lifecycle = self.lifecycle
        return {
            "status": status,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "models": [entry.describe() for entry in self.registry.entries()],
            "routing": self.registry.status(),
            "lifecycle": (lifecycle.describe()
                          if lifecycle is not None else None),
            "plan_cache": {
                "size": len(self._plan_cache),
                "capacity": self._plan_cache.capacity,
                "hits": self._plan_cache.stats.hits,
                "misses": self._plan_cache.stats.misses,
                "evictions": self._plan_cache.stats.evictions,
            },
            "degradation": self._health.describe(),
            "breakers": breakers,
            "faults": {
                "active": self._injector.active,
                "plan": (self._injector.plan.describe()
                         if self._injector.plan else []),
                "fired": self._injector.fire_counts(),
            },
            "compiler": compiler_info(),
        }

    def cache_stats(self):
        return self._plan_cache.stats

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop batch workers and release compiled model libraries."""
        if self._closed.is_set():
            return
        self._health.mark_draining()
        self._closed.set()
        with self._batchers_lock:
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.close()
        self.registry.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
