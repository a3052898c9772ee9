"""Service health state machine: healthy → degraded → draining.

``/healthz`` should answer three different questions with one word:
is the service answering from its fast path (*healthy*), is it
answering but leaning on fallbacks or shedding load (*degraded*), or
is it on its way down (*draining*, terminal)? The tracker holds only
what decides that word; the counts behind it live in the service's
metrics:

* **the linger clock** — each fallback or shed event keeps the
  service degraded for a window after the last one (a single blip
  should be visible to a scraper polling every few seconds, but not
  forever),
* **one condition** — a callable given at construction (e.g. "is any
  circuit breaker not closed?") that holds the state at degraded for
  as long as it returns true,
* **draining** — set once at shutdown; never leaves.

The clock is injectable so tests can walk the linger window without
sleeping.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable, List

__all__ = ["HealthState", "HealthTracker"]


class HealthState(Enum):
    """Coarse service condition, ordered by severity."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"

    @property
    def code(self) -> int:
        """Numeric form for gauges: 0 healthy, 1 degraded, 2 draining."""
        return {"healthy": 0, "degraded": 1, "draining": 2}[self.value]


class HealthTracker:
    """Turns the linger clock, one condition and the draining flag
    into one :class:`HealthState`.

    ``degraded_when`` forces *degraded* while it returns true;
    ``reason`` names it in :meth:`degraded_reasons`.
    """

    def __init__(self, degraded_when: Callable[[], bool] = lambda: False,
                 reason: str = "condition",
                 degraded_linger_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self._degraded_when = degraded_when
        self.reason = reason
        self.degraded_linger_s = float(degraded_linger_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._draining = False
        self._last_event = -float("inf")

    # -- signals -----------------------------------------------------------

    def note_event(self) -> None:
        """A request fell back or was shed: restart the linger clock."""
        with self._lock:
            self._last_event = self._clock()

    def mark_draining(self) -> None:
        """Enter the terminal draining state (service shutdown)."""
        with self._lock:
            self._draining = True

    # -- reading -----------------------------------------------------------

    @property
    def state(self) -> HealthState:
        with self._lock:
            if self._draining:
                return HealthState.DRAINING
            lingering = (self._clock() - self._last_event
                         < self.degraded_linger_s)
        if lingering or self._degraded_when():
            return HealthState.DEGRADED
        return HealthState.HEALTHY

    def degraded_reasons(self) -> List[str]:
        """``[reason]`` while the condition holds, else ``[]``."""
        return [self.reason] if self._degraded_when() else []
