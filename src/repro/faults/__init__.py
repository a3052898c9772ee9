"""Fault tolerance: deterministic chaos and graceful degradation.

T3's value proposition — compiled-tree inference cheap enough for the
query-optimization hot path — only survives production if the serving
stack keeps answering when parts of it misbehave. This package owns
the machinery the serving layer and the lifecycle loop share:

* :mod:`~repro.faults.injection` — a seedable fault-injection
  framework (:class:`FaultPlan` / :class:`FaultInjector`) with named
  sites compiled into the library; chaos runs replay bit-identically,
* :mod:`~repro.faults.breaker` — a closed/open/half-open circuit
  breaker with failure-rate tripping and deterministic exponential
  backoff,
* :mod:`~repro.faults.health` — the healthy/degraded/draining service
  state machine behind ``/healthz``.

Quick chaos session::

    from repro.faults import FaultPlan, install_plan

    install_plan(FaultPlan.parse("batcher.evaluate:raise:0.5", seed=7))
    # ... every second native batch call now fails; the service
    # answers from the interpreted/analytic fallback chain instead.
"""

from .breaker import BreakerState, CircuitBreaker
from .health import HealthState, HealthTracker
from .injection import (
    KNOWN_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    clear_faults,
    get_injector,
    install_plan,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HealthState",
    "HealthTracker",
    "KNOWN_SITES",
    "clear_faults",
    "get_injector",
    "install_plan",
]
