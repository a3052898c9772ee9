"""Micro-batching of concurrent prediction requests.

The compiled tree's batch entry point amortizes the ctypes call
overhead over many rows (Table 2 of the paper: batch evaluation beats
back-to-back single calls by orders of magnitude). The
:class:`MicroBatcher` exploits that under concurrency: requests enqueue
their per-pipeline feature matrices, a single worker thread drains the
queue — coalescing up to ``max_batch_rows`` rows — stacks the vectors,
makes **one** ``predict_raw_batch`` native call, and scatters the slices
back to the waiting callers.

The worker waits for company only while company can arrive. Given a
:class:`Pending` count (the service counts each request from entry
until it is enqueued here or returns without enqueuing), it stops
coalescing once that count is zero and the queue is empty, provided
the batch has company or the batcher was quiet for ``max_wait_s``
before it: a request to an idle batcher never waits out the window,
while a lone request amid traffic still waits for company, which may
be a thread that has not reached the count yet. ``max_wait_s`` caps
every wait. Without a count the worker waits out the full window.

Admission control is part of the contract: the queue is bounded
(:class:`~repro.errors.QueueFullError` when full, and
:class:`~repro.errors.LoadShedError` already at the shed watermark)
and every request carries a deadline — one that expires while still
queued is shed with :class:`~repro.errors.DeadlineExceeded` instead of
being evaluated late — so an overloaded service degrades with typed
errors instead of building an unbounded backlog.

The worker never blocks unboundedly: its idle wait is a short timed
``get`` re-checking the closed flag (checks rule LK009), and
:meth:`MicroBatcher.close` *drains* the queue — any request the worker
could not answer fails fast with
:class:`~repro.errors.ServiceClosedError` rather than leaving its
caller blocked past the close timeout.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import (
    ConfigurationError,
    DeadlineExceeded,
    LoadShedError,
    QueueFullError,
    RequestTimeoutError,
    ServiceClosedError,
)
from ..faults import FaultInjector, get_injector
from .telemetry import MetricsRegistry

__all__ = ["BatcherStats", "MicroBatcher", "Pending"]

_SHUTDOWN = object()

#: Batch-size histogram buckets (rows coalesced per native call).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Idle wait per worker loop; bounds how long the worker can block
#: without noticing the closed flag.
_IDLE_TICK_S = 0.1

#: Upper bound on a deadline-less blocking :meth:`MicroBatcher.submit`
#: (LK010: never wait on a future unboundedly — a wedged worker must
#: surface as a typed timeout, not a hang).
_DEFAULT_RESULT_WAIT_S = 60.0


@dataclass
class _Request:
    vectors: np.ndarray          # (n_pipelines, n_features), contiguous
    future: "Future[np.ndarray]"
    deadline: Optional[float]    # monotonic seconds, None = no deadline


@dataclass(frozen=True)
class BatcherStats:
    """A snapshot of the batcher's counters."""

    requests: int = 0
    batches: int = 0
    rows: int = 0
    rejected: int = 0
    timeouts: int = 0
    shed: int = 0          # watermark load-shedding rejections
    expired: int = 0       # deadline passed while queued (never evaluated)
    drained: int = 0       # failed with ServiceClosedError at close()

    @property
    def mean_batch_rows(self) -> float:
        return self.rows / self.batches if self.batches else 0.0


class Pending:
    """Thread-safe count of requests that may still join a batch.

    ``with pending:`` counts the block as one request; it stops
    counting at :meth:`leave` (the batcher calls it once the request
    is enqueued) or at the end of the block, whichever comes first.
    Calling the object reads the count. A request is tracked per
    thread, so :meth:`leave` from an uncounted thread does nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._local = threading.local()

    def __enter__(self) -> "Pending":
        with self._lock:
            self._count += 1
            self._local.counted = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.leave()

    def leave(self) -> None:
        with self._lock:
            if getattr(self._local, "counted", False):
                self._local.counted = False
                self._count -= 1

    def __call__(self) -> int:
        with self._lock:
            return self._count


class MicroBatcher:
    """Coalesce concurrent requests into single native batch calls.

    ``predict_batch`` maps a stacked ``(rows, n_features)`` matrix to a
    vector of raw predictions; :meth:`submit` returns the slice
    belonging to the caller's vectors, in order. ``pending`` counts the
    requests that may still join a batch; without it the worker
    coalesces for the whole ``max_wait_s`` window.

    Every count lives once, in the ``t3_serving_*`` instruments of
    ``metrics`` (a private registry by default); :meth:`stats` reads
    them. Batchers given the same registry share the counts.
    """

    def __init__(self, predict_batch: Callable[[np.ndarray], np.ndarray],
                 max_batch_rows: int = 256,
                 max_wait_s: float = 0.002,
                 queue_capacity: int = 512,
                 shed_watermark: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "default",
                 injector: Optional[FaultInjector] = None,
                 pending: Optional[Pending] = None):
        if max_batch_rows < 1:
            raise ConfigurationError("max_batch_rows must be >= 1")
        if queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if shed_watermark is not None and \
                not 1 <= shed_watermark <= queue_capacity:
            raise ConfigurationError(
                "shed_watermark must be in [1, queue_capacity]")
        self._predict_batch = predict_batch
        self.max_batch_rows = int(max_batch_rows)
        self.max_wait_s = float(max_wait_s)
        self.queue_capacity = int(queue_capacity)
        self.shed_watermark = shed_watermark
        self.name = name
        self._injector = injector or get_injector()
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self._lifecycle_lock = threading.Lock()   # guards _worker
        self._worker: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._closed = threading.Event()
        self._pending = pending
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_requests = metrics.counter(
            "t3_serving_batcher_requests_total",
            "requests enqueued for a native batch call")
        self._m_batches = metrics.counter(
            "t3_serving_batches_total", "native batch calls issued")
        self._m_batch_rows = metrics.histogram(
            "t3_serving_batch_rows",
            "rows coalesced per native batch call",
            buckets=_BATCH_SIZE_BUCKETS)
        self._m_rejected = metrics.counter(
            "t3_serving_rejected_total",
            "requests shed because the queue was full")
        self._m_timeouts = metrics.counter(
            "t3_serving_timeouts_total",
            "requests that exceeded their deadline")
        self._m_shed = metrics.counter(
            "t3_serving_shed_total",
            "requests shed by the watermark load-shedding policy")
        self._m_expired = metrics.counter(
            "t3_serving_deadline_expired_total",
            "queued requests shed because their deadline passed "
            "before evaluation")
        self._m_drained = metrics.counter(
            "t3_serving_drained_total",
            "queued requests failed because their batcher closed")

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "MicroBatcher":
        with self._lifecycle_lock:
            if self._started.is_set():
                return self
            self._worker = threading.Thread(
                target=self._run, name=f"t3-batcher-{self.name}", daemon=True)
            self._started.set()
            self._worker.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; queued requests get answered or *failed*.

        The worker drains the queue up to the shutdown sentinel, so
        requests enqueued before ``close()`` normally still get
        results. If the worker is wedged (or already dead) and the
        join times out, the queue is drained here and every pending
        request fails with :class:`~repro.errors.ServiceClosedError`
        — callers never block past the close timeout.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        with self._lifecycle_lock:
            worker = self._worker
        if self._started.is_set():
            try:
                self._queue.put_nowait(_SHUTDOWN)
            except queue.Full:
                pass  # the drain below fails the backlog
            if worker is not None:
                worker.join(timeout)
        self._drain_pending()

    def _drain_pending(self) -> None:
        """Fail every request still queued with a typed error."""
        drained = 0
        message = (f"batcher {self.name!r} closed before the request "
                   "was evaluated")
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            _try_set_exception(item.future, ServiceClosedError(message))
            drained += 1
        if drained:
            self._m_drained.inc(drained)

    # -- submission -------------------------------------------------------

    def submit_async(self, vectors: np.ndarray,
                     timeout: Optional[float] = None,
                     deadline: Optional[float] = None
                     ) -> "Future[np.ndarray]":
        """Enqueue a feature matrix; the future resolves to raw scores.

        ``deadline`` is an absolute :func:`time.monotonic` instant and
        wins over ``timeout`` (a relative window from now); it travels
        with the request so a queued entry whose deadline passes is
        shed (:class:`~repro.errors.DeadlineExceeded`) instead of
        evaluated late.
        """
        if self._closed.is_set():
            raise ServiceClosedError(f"batcher {self.name!r} is closed")
        if not self._started.is_set():
            self.start()
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        future: "Future[np.ndarray]" = Future()
        if vectors.shape[0] == 0:
            future.set_result(np.empty(0, dtype=np.float64))
            return future
        if deadline is None and timeout is not None:
            deadline = time.monotonic() + timeout
        if deadline is not None and time.monotonic() >= deadline:
            # Already expired: shed before consuming queue capacity.
            self._m_expired.inc()
            raise DeadlineExceeded(
                "request deadline expired before it could be enqueued")
        if self.shed_watermark is not None and \
                self._queue.qsize() >= self.shed_watermark:
            self._m_shed.inc()
            raise LoadShedError(
                f"prediction queue depth crossed the shed watermark "
                f"({self.shed_watermark}/{self.queue_capacity}); "
                "load shed to protect queued deadlines")
        request = _Request(vectors, future, deadline)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._m_rejected.inc()
            raise QueueFullError(
                f"prediction queue full ({self.queue_capacity} waiting); "
                "retry later or raise queue_capacity") from None
        if self._pending is not None:
            self._pending.leave()   # after the put: see _no_more_company
        self._m_requests.inc()
        if self._closed.is_set():
            # close() can complete between the entry check and the
            # put: its drain already ran, the worker is gone, and this
            # request would sit in the queue forever. Drain again so
            # it fails typed instead of stranding its caller.
            self._drain_pending()
        return future

    def submit(self, vectors: np.ndarray,
               timeout: Optional[float] = None,
               deadline: Optional[float] = None) -> np.ndarray:
        """Blocking :meth:`submit_async`; raises the typed errors."""
        future = self.submit_async(vectors, timeout, deadline)
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        elif timeout is None:
            timeout = _DEFAULT_RESULT_WAIT_S
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            self._m_timeouts.inc()
            raise RequestTimeoutError(
                f"prediction did not complete within "
                f"{(timeout or 0.0):.3f}s") from None

    # -- introspection ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> BatcherStats:
        """Read the counters into a snapshot."""
        return BatcherStats(
            requests=int(self._m_requests.value),
            batches=int(self._m_batches.value),
            rows=int(self._m_batch_rows.sum),
            rejected=int(self._m_rejected.value),
            timeouts=int(self._m_timeouts.value),
            shed=int(self._m_shed.value),
            expired=int(self._m_expired.value),
            drained=int(self._m_drained.value))

    # -- worker -----------------------------------------------------------

    def _run(self) -> None:
        last_batch_done = -math.inf   # monotonic seconds
        while True:
            try:
                # Bounded wait (LK009): re-check the closed flag every
                # tick so a lost shutdown sentinel cannot wedge us.
                item = self._queue.get(timeout=_IDLE_TICK_S)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            if item is _SHUTDOWN:
                return
            batch: List[_Request] = [item]
            rows = len(item.vectors)
            now = time.monotonic()
            coalesce_until = now + self.max_wait_s
            quiet = now - last_batch_done >= self.max_wait_s
            shutdown = False
            while rows < self.max_batch_rows:
                remaining = coalesce_until - time.monotonic()
                if remaining <= 0 or self._no_more_company(batch, quiet):
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(nxt)
                rows += len(nxt.vectors)
            self._evaluate(batch)
            last_batch_done = time.monotonic()
            if shutdown:
                return

    def _no_more_company(self, batch: List[_Request], quiet: bool) -> bool:
        """Whether ``batch`` may leave before its window runs out.

        Only with a pending count, once nothing is pending or queued,
        and only if the batch has company or the batcher was quiet for
        a whole window before it. A lone request amid traffic waits:
        callers not yet counted (threads just started) may be on their
        way, and the window is what lets them coalesce. The count is
        read first: a request enqueues before it stops counting.
        """
        return (self._pending is not None
                and (quiet or len(batch) > 1)
                and self._pending() == 0 and self._queue.empty())

    def _evaluate(self, batch: List[_Request]) -> None:
        now = time.monotonic()
        live: List[_Request] = []
        for request in batch:
            if request.future.cancelled():
                continue
            if request.deadline is not None and now > request.deadline:
                # Shed, never evaluated late: typed so callers can tell
                # "never ran" from "ran too long".
                self._m_expired.inc()
                _try_set_exception(request.future, DeadlineExceeded(
                    "request deadline expired while waiting in the "
                    "batch queue; shed without evaluation"))
                continue
            live.append(request)
        if not live:
            return
        stacked = (live[0].vectors if len(live) == 1
                   else np.vstack([r.vectors for r in live]))
        try:
            self._injector.fire("batcher.evaluate")
            raw = np.asarray(self._predict_batch(stacked), dtype=np.float64)
            raw = self._injector.corrupt(
                "batcher.evaluate", raw,
                lambda values: np.full_like(values, np.nan))
        except Exception as exc:  # propagate to every waiter
            for request in live:
                _try_set_exception(request.future, exc)
            return
        self._m_batches.inc()
        self._m_batch_rows.observe(len(stacked))
        offset = 0
        for request in live:
            n = len(request.vectors)
            _try_set_result(request.future, raw[offset:offset + n])
            offset += n


def _try_set_result(future: Future, value) -> None:
    try:
        future.set_result(value)
    except Exception:  # cancelled or already resolved
        pass


def _try_set_exception(future: Future, exc: BaseException) -> None:
    try:
        future.set_exception(exc)
    except Exception:
        pass
