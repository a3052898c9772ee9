"""Plan/feature caching for the prediction service.

Parsing, optimizing, and featurizing a query costs orders of magnitude
more than evaluating the compiled tree (microseconds), so the service
caches the *output* of that front half — the per-pipeline feature
matrix and input cardinalities — keyed by ``(model, instance,
normalized SQL)``. A repeated query then costs one native batch call.

The cache is a plain LRU; its hit/miss/eviction counts live in the
metrics registry it is given.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from ..errors import ConfigurationError
from .telemetry import MetricsRegistry

__all__ = ["CacheStats", "LRUCache", "normalize_sql"]

_MISSING = object()


#: A single-quoted literal; an unterminated one runs to the end.
_LITERAL = re.compile(r"('[^']*(?:'|\Z))")
_WHITESPACE = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Canonical cache-key form of a SQL string.

    Lowercases and collapses whitespace *outside* single-quoted string
    literals (which stay byte-for-byte intact, an unterminated one up
    to the end of the string), and drops a trailing semicolon — so
    ``"SELECT * FROM t;"`` and ``"select *\n from  t"`` share a cache
    entry while ``'abc'`` and ``'ABC'`` do not. Text outside literals
    is lowered a segment at a time, so Python's final-sigma rule
    applies (``"ΣΑΣ"`` → ``"σας"``, not ``"σασ"``).
    """
    # Even indices are the text between literals, odd ones the literals.
    parts = _LITERAL.split(sql)
    parts[0] = parts[0].lstrip()
    parts[-1] = parts[-1].rstrip()
    for i in range(0, len(parts), 2):
        parts[i] = _WHITESPACE.sub(" ", parts[i]).lower()
    normalized = "".join(parts)
    if normalized.endswith(";"):
        normalized = normalized[:-1].rstrip()
    return normalized


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """A thread-safe least-recently-used cache.

    Hits, misses and evictions are counted once, in the
    ``t3_serving_cache_*_total`` counters of ``metrics`` (a private
    registry by default); :attr:`stats` reads them. Caches given the
    same registry share the counts.
    """

    def __init__(self, capacity: int,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry()
        self._hits = metrics.counter(
            "t3_serving_cache_hits_total", "plan/feature cache hits")
        self._misses = metrics.counter(
            "t3_serving_cache_misses_total", "plan/feature cache misses")
        self._evictions = metrics.counter(
            "t3_serving_cache_evictions_total",
            "plan/feature cache evictions")

    @property
    def stats(self) -> CacheStats:
        return CacheStats(int(self._hits.value), int(self._misses.value),
                          int(self._evictions.value))

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
        if value is _MISSING:
            self._misses.inc()
            return default
        self._hits.inc()
        return value

    def get_checked(self, key: Hashable,
                    validator: Callable[[Any], bool],
                    default: Any = None) -> Any:
        """A :meth:`get` that self-heals: entries failing ``validator``
        are dropped and reported as a miss (plus an eviction), so one
        corrupt value costs a rebuild instead of poisoning every
        subsequent hit."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            dropped = value is not _MISSING and not validator(value)
            if dropped:
                del self._entries[key]
                value = _MISSING
            elif value is not _MISSING:
                self._entries.move_to_end(key)
        if dropped:
            self._evictions.inc()
        if value is _MISSING:
            self._misses.inc()
            return default
        self._hits.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._evictions.inc(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def drop_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* satisfies ``predicate``.

        Targeted invalidation (counted as evictions): e.g. dropping all
        plans of one instance after its statistics shift, without
        throwing away every other instance's warm entries.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
        if doomed:
            self._evictions.inc(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
