"""Serving observability primitives: counters, gauges, histograms.

A deliberately small, stdlib-only metrics kit in the spirit of the
Prometheus client: every instrument is thread-safe, registered under a
unique name, and rendered in the text exposition format by
:meth:`MetricsRegistry.render`. Stage latencies use log-spaced
histogram buckets because prediction latencies span microseconds
(compiled tree walk) to seconds (cold parse + featurize of a large
plan) — the same nine-orders-of-magnitude argument the paper makes for
tuple-centric targets applies to observing the serving path.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS"]

#: Log-spaced latency bucket upper bounds, 1 µs .. 10 s (plus +Inf).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** exponent, 12)
    for exponent in [x / 2.0 for x in range(-12, 3)])  # 1e-6 .. 1e1


class Counter:
    """A monotonically increasing counter.

    Given ``function``, the counter is derived: it reads
    ``function()`` (e.g. the sum of other counters) and is never
    incremented itself.
    """

    def __init__(self, name: str, help_text: str = "",
                 function: Optional[Callable[[], float]] = None):
        self.name = name
        self.help_text = help_text
        self._function = function
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self._function is not None:
            return float(self._function())
        with self._lock:
            return self._value

    def render(self) -> List[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} counter")
        lines.append(f"{self.name} {_format(self.value)}")
        return lines


class Gauge:
    """A value that can go up and down, or track a callable."""

    def __init__(self, name: str, help_text: str = "",
                 function: Optional[Callable[[], float]] = None):
        self.name = name
        self.help_text = help_text
        self._function = function
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_function(self, function: Callable[[], float]) -> None:
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        return float(function())

    def render(self) -> List[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} gauge")
        lines.append(f"{self.name} {_format(self.value)}")
        return lines


class Histogram:
    """Fixed-bucket histogram with cumulative counts (Prometheus style)."""

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.help_text = help_text
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        # Bucket label text never changes after construction; rendering
        # a scrape only appends the cumulative count to each prefix.
        self._bucket_labels = tuple(
            f'{name}_bucket{{le="{_format(bound)}"}} '
            for bound in self.bounds) + (f'{name}_bucket{{le="+Inf"}} ',)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank:
                    return (self.bounds[i] if i < len(self.bounds)
                            else math.inf)
        return math.inf

    def render(self) -> List[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} histogram")
        with self._lock:
            cumulative = 0
            for label, bucket_count in zip(self._bucket_labels,
                                           self._counts):
                cumulative += bucket_count
                lines.append(label + str(cumulative))
            lines.append(f"{self.name}_sum {_format(self._sum)}")
            lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}")
            return instrument

    def counter(self, name: str, help_text: str = "",
                function: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create a counter; ``function`` derives a new one."""
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help_text, function))

    def gauge(self, name: str, help_text: str = "",
              function: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(
            name, Gauge, lambda: Gauge(name, help_text, function))
        if function is not None:
            gauge.set_function(function)
        return gauge

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help_text, buckets))

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def render(self) -> str:
        """Text exposition of every instrument, sorted by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for _, instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
