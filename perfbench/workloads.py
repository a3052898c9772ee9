"""The three workloads: preparation, load generation and the oracle.

Each workload class is built from a trained, compiled ``T3Model`` and
the workload seed (that is the "prepare" step of set-up) and offers:

* ``run(seconds, wrap)`` -- drive load for ``seconds`` and return a
  :class:`Outcome`. ``wrap`` turns the unit-of-work callable into the
  one the load generator calls (identity when untraced, a ``request``
  root span when traced);
* ``check(outcome)`` -- recompute every answer with the interpreted
  ensemble, outside the timed window, and count mismatches;
* ``close()`` -- stop every thread the workload started.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datagen.benchmarks_job import job_queries
from repro.datagen.instances import get_instance
from repro.engine.cardinality import ExactCardinalityModel
from repro.engine.optimizer import Optimizer
from repro.engine.sqlparser import parse_sql
from repro.joinorder import JoinGraph, T3JoinCost
from repro.serving.service import PredictionService, ServingConfig
from repro.trees.tree import LEAF

import sqlgen

Wrap = Callable[[Callable], Callable]
MODEL_NAME = "t3"
#: Looked up per call so a traced phase sees the wrapped function.
_DPSIZE = importlib.import_module("repro.joinorder.dpsize")


@dataclass
class Outcome:
    """What one measured window produced."""

    #: Unit-of-work latencies in seconds (the lone caller on
    #: ``online-hot``), failed units excluded.
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Units held to the latency limit (phase 1 on ``online-hot``) and
    #: how many of them were answered within it.
    limited: int = 0
    within_limit: int = 0
    #: Predictions (or optimized queries) per second over each slice of
    #: the throughput loop; the reported throughput is their median.
    rates: List[float] = field(default_factory=list)
    #: How late the open-loop generator started each request (seconds).
    late: List[float] = field(default_factory=list)
    #: (input key, answer) pairs for the oracle.
    answers: List[Tuple[object, object]] = field(default_factory=list)
    #: T3 model calls made by DPsize (``joinorder`` only).
    model_calls: int = 0


#: Closed-loop throughput is the median over slices this long, so a
#: short stall of a shared machine moves it less than one total would.
SLICE_S = 0.5


def _busy_rates(units: List[Tuple[float, int]]) -> List[float]:
    """Items per second over runs of consecutive units that together
    took at least ``SLICE_S``; ``units`` is (seconds, items)."""
    rates: List[float] = []
    busy, items = 0.0, 0
    for seconds, count in units:
        busy += seconds
        items += count
        if busy >= SLICE_S:
            rates.append(items / busy)
            busy, items = 0.0, 0
    if not rates and busy > 0:
        rates.append(items / busy)
    return rates


def _wall_rates(ends: List[float], start: float, stop: float
                ) -> List[float]:
    """Completions per second over each ``SLICE_S`` slice of
    ``[start, stop)``; ``ends`` are completion instants."""
    slices = int((stop - start) // SLICE_S)
    if slices < 1:
        return [len(ends) / (stop - start)]
    counts = [0] * slices
    for end in ends:
        index = int((end - start) // SLICE_S)
        if index < slices:
            counts[index] += 1
    return [count / SLICE_S for count in counts]


def merge(outcomes: List[Outcome]) -> Outcome:
    """One outcome from the windows measured after each set-up."""
    merged = Outcome()
    for outcome in outcomes:
        merged.latencies += outcome.latencies
        merged.attempted += outcome.attempted
        merged.failed += outcome.failed
        merged.limited += outcome.limited
        merged.within_limit += outcome.within_limit
        merged.rates += outcome.rates
        merged.late += outcome.late
        merged.answers += outcome.answers
        merged.model_calls += outcome.model_calls
    return merged


def throughput(outcome: Outcome) -> float:
    return statistics.median(outcome.rates) if outcome.rates else 0.0


class _Reference:
    """Predicted totals from parse -> optimize -> interpreted ensemble."""

    def __init__(self, model):
        self.model = model
        self._planners: Dict[str, tuple] = {}

    def _planner(self, instance_name: str):
        planner = self._planners.get(instance_name)
        if planner is None:
            instance = get_instance(instance_name)
            planner = (instance, Optimizer(instance.schema, instance.catalog),
                       ExactCardinalityModel(instance.catalog))
            self._planners[instance_name] = planner
        return planner

    def totals(self, statements: List[sqlgen.Statement]) -> List[float]:
        """Reference totals, one batched interpreted call for all rows."""
        fronts = []
        for sql, instance_name in statements:
            instance, optimizer, cards_model = self._planner(instance_name)
            plan = optimizer.optimize(
                parse_sql(sql, instance.schema, instance.catalog),
                "serving_query")
            fronts.append(self.model.registry.vectors_for_plan(
                plan, cards_model))
        raw = self.model.booster.predict(
            np.ascontiguousarray(np.vstack([v for v, _ in fronts])))
        totals, offset = [], 0
        for vectors, cards in fronts:
            rows = len(vectors)
            times = self.model.pipeline_times_from_raw(
                raw[offset:offset + rows], cards)
            totals.append(float(times.sum()))
            offset += rows
        return totals


def _same(answer: Optional[float], expected: float) -> bool:
    return answer is not None and math.isclose(answer, expected,
                                               rel_tol=1e-9)


def _service(model) -> PredictionService:
    """A service with the shipped defaults serving ``model``."""
    service = PredictionService(config=ServingConfig())
    service.registry.register(model, name=MODEL_NAME)
    return service


class OnlineHot:
    """Single ``predict`` calls on a warmed pool of 64 statements.

    Three phases share the window:

    1. open loop (40 %): Poisson arrivals at ``RATE`` req/s handed to
       ``CLIENTS`` threads, each request timed from its due time against
       ``LIMIT_S`` -- gives ``within_limit_share`` and the generator's
       lateness;
    2. closed loop, one caller (30 %): gives the latency percentiles;
    3. closed loop, ``CLIENTS`` back-to-back callers (30 %): gives the
       throughput.

    Latency comes from a lone caller because the shared machine stalls
    every thread for 5-25 ms about once a second: in the open loop each
    stall delays a backlog of ~1 % of requests, and two closed-loop
    callers drift in and out of a shared coalescing window for another
    ~1 %, so with either source the 99th percentile sat on the knee of
    the tail and moved by a third between runs.
    """

    POOL = 64
    RATE = 300.0
    CLIENTS = 2
    #: Shares of the window: open loop, lone caller, CLIENTS callers.
    PHASES = (0.4, 0.3, 0.3)
    #: An open-loop request counts as answered in time within this long
    #: of its due time (5x the shipped 2 ms coalescing window).
    LIMIT_S = 10e-3

    def __init__(self, model, seed: int):
        self.model = model
        self.rng = np.random.default_rng([seed, 1])
        self.pool = sqlgen.distinct_statements(self.rng, self.POOL, set())
        self.service = _service(model)
        for sql, instance in self.pool:
            self.service.predict(sql, instance)

    def close(self) -> None:
        self.service.close()

    def run(self, seconds: float, wrap: Wrap) -> Outcome:
        call = wrap(self.service.predict)
        outcome = Outcome()
        open_s, lone_s, shared_s = (seconds * share for share in self.PHASES)
        self._open_loop(call, open_s, outcome)
        answered, _, _ = self._closed_loop(call, lone_s, 1, outcome)
        outcome.latencies.extend(end - begin for begin, end in answered)
        answered, started, stop = self._closed_loop(
            call, shared_s, self.CLIENTS, outcome)
        outcome.rates = _wall_rates([end for _, end in answered],
                                    started, stop)
        return outcome

    def _answer(self, call, pick: int) -> Optional[float]:
        sql, instance = self.pool[pick]
        try:
            return call(sql, instance).predicted_seconds
        except Exception:
            return None

    def _open_loop(self, call, duration: float, outcome: Outcome) -> None:
        gaps = self.rng.exponential(1.0 / self.RATE,
                                    int(self.RATE * duration * 2) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration].tolist()
        picks = self.rng.integers(self.POOL, size=len(offsets)).tolist()
        records: List[Optional[tuple]] = [None] * len(offsets)
        counter = itertools.count()
        origin = time.perf_counter() + 0.01

        def client() -> None:
            while True:
                index = next(counter)
                if index >= len(offsets):
                    return
                due = origin + offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                answer = self._answer(call, picks[index])
                records[index] = (picks[index], answer,
                                  time.perf_counter() - due, started - due)

        _run_threads(client, self.CLIENTS)
        for pick, answer, latency, late in records:
            outcome.attempted += 1
            outcome.limited += 1
            outcome.answers.append((pick, answer))
            outcome.late.append(late)
            if answer is None:
                outcome.failed += 1
            else:
                outcome.within_limit += latency <= self.LIMIT_S

    def _closed_loop(self, call, duration: float, clients: int,
                     outcome: Outcome):
        """``clients`` back-to-back callers for ``duration``; returns the
        (start, end) of every answered call and the loop's window."""
        streams = [self.rng.integers(self.POOL, size=1 << 16).tolist()
                   for _ in range(clients)]
        records: List[List[tuple]] = [[] for _ in range(clients)]
        started = time.perf_counter()
        deadline = started + duration

        def client(slot: int) -> None:
            for pick in itertools.cycle(streams[slot]):
                begin = time.perf_counter()
                if begin >= deadline:
                    return
                answer = self._answer(call, pick)
                records[slot].append(
                    (pick, answer, begin, time.perf_counter()))

        _run_threads(client, clients, per_thread_arg=True)
        done = [record for slot in records for record in slot]
        answered = [(begin, end) for _, answer, begin, end in done
                    if answer is not None]
        outcome.attempted += len(done)
        outcome.failed += len(done) - len(answered)
        outcome.answers.extend((pick, answer) for pick, answer, *_ in done)
        return answered, started, deadline

    def check(self, outcome: Outcome) -> int:
        expected = _Reference(self.model).totals(self.pool)
        return sum(not _same(answer, expected[pick])
                   for pick, answer in outcome.answers
                   if answer is not None)   # failures are counted already


class BulkCold:
    """``predict_many`` batches of 32 never-seen statements, one client."""

    BATCH = 32
    #: A batch counts as answered in time within this long.
    LIMIT_S = 50e-3

    def __init__(self, model, seed: int):
        self.model = model
        self.rng = np.random.default_rng([seed, 2])
        self.seen: set = set()
        self.service = _service(model)
        self.service.predict_many(
            sqlgen.distinct_statements(self.rng, self.BATCH, self.seen))

    def close(self) -> None:
        self.service.close()

    def run(self, seconds: float, wrap: Wrap) -> Outcome:
        call = wrap(self.service.predict_many)
        outcome = Outcome()
        units: List[Tuple[float, int]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            batch = sqlgen.distinct_statements(self.rng, self.BATCH,
                                               self.seen)
            started = time.perf_counter()
            try:
                answers = [r.predicted_seconds for r in call(batch)]
            except Exception:
                answers = None
            latency = time.perf_counter() - started
            outcome.attempted += 1
            outcome.limited += 1
            outcome.answers.append((batch, answers))
            if answers is None:
                outcome.failed += 1
                continue
            units.append((latency, len(answers)))
            outcome.latencies.append(latency)
            outcome.within_limit += latency <= self.LIMIT_S
        outcome.rates = _busy_rates(units)
        return outcome

    def check(self, outcome: Outcome) -> int:
        statements = [s for batch, _ in outcome.answers for s in batch]
        expected = iter(_Reference(self.model).totals(statements))
        wrong = 0
        for batch, answers in outcome.answers:
            truth = [next(expected) for _ in batch]
            if answers is None or len(answers) != len(batch):
                continue          # already counted as failed
            wrong += any(not _same(a, e) for a, e in zip(answers, truth))
        return wrong


class JoinOrder:
    """DPsize with T3 as cost model over the 113 JOB graphs on imdb."""

    #: A query counts as optimized in time within this planning budget
    #: (about 40 % of the JOB queries meet it on a 2-core x86 box).
    LIMIT_S = 3e-3

    def __init__(self, model, seed: int):
        self.model = model
        self.rng = np.random.default_rng([seed, 3])
        self.catalog = get_instance("imdb").catalog
        self.graphs = [JoinGraph.from_logical(logical, self.catalog)
                       for _, logical in job_queries(get_instance("imdb"))]

    def close(self) -> None:
        pass

    def _optimize(self, graph, predict_raw_one):
        return _DPSIZE.dpsize(graph, T3JoinCost(
            predict_raw_one, self.model.registry, self.catalog))

    def run(self, seconds: float, wrap: Wrap) -> Outcome:
        call = wrap(self._optimize)
        outcome = Outcome()
        deadline = time.perf_counter() + seconds
        predict = self.model.predict_raw_one
        while time.perf_counter() < deadline:
            for index in self.rng.permutation(len(self.graphs)).tolist():
                if time.perf_counter() >= deadline:
                    break
                started = time.perf_counter()
                try:
                    result = call(self.graphs[index], predict)
                except Exception:
                    result = None
                latency = time.perf_counter() - started
                outcome.attempted += 1
                outcome.limited += 1
                if result is None:
                    outcome.failed += 1
                    outcome.answers.append((index, None))
                    continue
                outcome.model_calls += result.model_calls
                outcome.latencies.append(latency)
                outcome.within_limit += latency <= self.LIMIT_S
                outcome.answers.append((index, (result.tree, result.cost)))
        # One rate over the whole window: JOB queries differ 100-fold in
        # cost, so a slice of a pass would measure the query mix.
        if outcome.latencies:
            outcome.rates = [len(outcome.latencies) / sum(outcome.latencies)]
        return outcome

    def check(self, outcome: Outcome) -> int:
        reference = _ListEnsemble(self.model.booster)
        expected = {}
        wrong = 0
        for index, answer in outcome.answers:
            if answer is None:
                continue
            if index not in expected:
                result = self._optimize(self.graphs[index], reference)
                expected[index] = (result.tree, result.cost)
            tree, cost = expected[index]
            wrong += not (answer[0] == tree and _same(answer[1], cost))
        if not reference.agrees_with_booster():
            return max(wrong, 1)
        return wrong


class _ListEnsemble:
    """``booster.predict_one`` walked over plain Python lists.

    The same comparisons (``x[feature] <= threshold``) summed in the
    same tree order as the interpreted ensemble, without NumPy scalar
    indexing, so re-running ~30k DPsize model calls per JOB pass stays
    cheap. The first ``SAMPLE`` inputs are kept and confirmed against
    the vectorized ``booster.predict``.
    """

    SAMPLE = 4096

    def __init__(self, booster):
        self.booster = booster
        self.trees = [(t.feature.tolist(), t.threshold.tolist(),
                       t.left.tolist(), t.right.tolist(), t.value.tolist())
                      for t in booster.trees]
        self.sample: List[Tuple[np.ndarray, float]] = []

    def __call__(self, x: np.ndarray) -> float:
        row = x.tolist()
        total = self.booster.base_score
        for feature, threshold, left, right, value in self.trees:
            node = 0
            while left[node] != LEAF:
                node = (left[node] if row[feature[node]] <= threshold[node]
                        else right[node])
            total += value[node]
        if len(self.sample) < self.SAMPLE:
            self.sample.append((x.copy(), total))
        return total

    def agrees_with_booster(self) -> bool:
        if not self.sample:
            return True
        batch = np.vstack([x for x, _ in self.sample])
        return np.array_equal(self.booster.predict(batch),
                              np.array([total for _, total in self.sample]))


WORKLOADS = {
    "online-hot": OnlineHot,
    "bulk-cold": BulkCold,
    "joinorder": JoinOrder,
}


def _run_threads(target, count: int, per_thread_arg: bool = False) -> None:
    threads = [threading.Thread(target=target,
                                args=(slot,) if per_thread_arg else (),
                                daemon=True)
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
