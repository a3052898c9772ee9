"""Online prediction serving for T3 models.

The serving stack turns the library's offline predictor into a
long-running service (ROADMAP: "serve heavy traffic"):

* :mod:`~repro.serving.registry` — versioned model store with warm
  native compilation and interpreted fallback,
* :mod:`~repro.serving.cache` — LRU plan/feature cache keyed by
  (model, instance, normalized SQL),
* :mod:`~repro.serving.batching` — micro-batching queue with bounded
  admission and per-request deadlines,
* :mod:`~repro.serving.service` — the staged request path tying the
  above together, degrading compiled → interpreted → analytic behind
  per-model circuit breakers (:mod:`repro.faults`),
* :mod:`~repro.serving.fallback` — the analytic last-resort estimate,
* :mod:`~repro.serving.http` — stdlib HTTP endpoints
  (``/predict``, ``/observe``, ``/metrics``, ``/healthz``),
* :mod:`~repro.serving.telemetry` — counters / gauges / histograms
  with Prometheus text exposition; the one store of every serving
  count (the cache, batcher and ``/healthz`` figures read them).

Quick start::

    from repro.serving import ModelRegistry, PredictionService, ServingServer

    registry = ModelRegistry()
    registry.load("model.json")
    with ServingServer(PredictionService(registry), port=0) as server:
        print(server.url)   # POST {"sql": ..., "instance": ...} to /predict
"""

from .batching import BatcherStats, MicroBatcher
from .cache import CacheStats, LRUCache, normalize_sql
from .fallback import AnalyticBaseline
from .registry import DEFAULT_MODEL_NAME, ModelEntry, ModelRegistry
from .service import PredictionResult, PredictionService, ServingConfig
from .http import ServingServer, error_response
from .telemetry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "AnalyticBaseline",
    "BatcherStats",
    "CacheStats",
    "Counter",
    "DEFAULT_MODEL_NAME",
    "Gauge",
    "Histogram",
    "LRUCache",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "PredictionResult",
    "PredictionService",
    "ServingConfig",
    "ServingServer",
    "error_response",
    "normalize_sql",
]
