"""Cost models for the DPsize enumerator.

Two models, as in Table 5 of the paper:

* :class:`CoutJoinCost` — C_out: three additions per combination,
* :class:`T3JoinCost` — T3 as a cost model, applied incrementally:
  every new join changes exactly two pipelines (the left subtree's open
  pipeline gains a hash-join *build* stage, the right subtree's open
  pipeline gains a *probe* stage), so each DP combination costs exactly
  **two** T3 model rows; the cost of pipelines completed deeper in the
  subtrees is cached in the DP entries.

Both are called once per DP level: DPsize hands over every candidate
pair of a level at once, so T3 evaluates the level's rows in one batch
(one native call with a compiled model) instead of two calls per pair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.features import FeatureRegistry
from ..core.model import T3Model
from ..core.targets import inverse_transform
from ..engine.catalog import Catalog
from .joingraph import DPLevel, JoinGraph


class JoinCostModel:
    """Interface consumed by DPsize: the cost model is called once per
    DP level, never once per combination.

    DP entries are integer ids. :meth:`leaves` starts a run on a graph
    and makes its ``n`` leaves ids ``0..n-1`` in relation order; every
    later id is a subset's winner, numbered in the order :meth:`keep`
    admits them. The cost model keeps its per-entry state under those
    ids.
    """

    #: Number of model invocations made so far (Table 5's "Model Calls").
    #: Counts rows, so batching a level leaves it unchanged.
    model_calls: int = 0

    def leaves(self, graph: JoinGraph, n_entries: int) -> np.ndarray:
        """Start a run on ``graph``, whose DP holds ``n_entries``
        entries; the comparison cost of each leaf entry."""
        raise NotImplementedError

    def combine(self, level: DPLevel) -> np.ndarray:
        """The comparison cost of every candidate of ``level`` (entry
        ids ``level.lefts[i] join level.rights[i]``), in candidate
        order."""
        raise NotImplementedError

    def keep(self, winners: Sequence[int]) -> None:
        """Store the state of the last :meth:`combine`'s candidates
        ``winners`` (positions in that call) as the next entry ids."""
        raise NotImplementedError


class CoutJoinCost(JoinCostModel):
    """C_out: cost = output cardinality + child costs (Equation 3)."""

    def __init__(self):
        self.model_calls = 0
        self._costs = np.empty(0)
        self._size = 0
        self._level = np.empty(0)

    def leaves(self, graph: JoinGraph, n_entries: int) -> np.ndarray:
        self._costs = np.zeros(n_entries)
        self._size = graph.n_relations
        return self._costs[:self._size]

    def combine(self, level: DPLevel) -> np.ndarray:
        k = len(level.lefts)
        self.model_calls += k
        sides = self._costs.take(level.ids)
        self._level = level.out_cards + sides[:k] + sides[k:]
        return self._level

    def keep(self, winners: Sequence[int]) -> None:
        end = self._size + len(winners)
        self._level.take(winners, out=self._costs[self._size:end])
        self._size = end


class T3JoinCost(JoinCostModel):
    """T3 applied incrementally inside DPsize, one model batch per level.

    Open pipelines are represented directly as T3 feature vectors. A
    combination (T1 join T2):

    1. appends ``HashJoin_Build`` features to T1's open vector and
       *completes* that pipeline (model row #1),
    2. appends ``HashJoin_Probe`` features to T2's open vector, which
       stays open (model row #2 estimates its running cost for plan
       comparison).

    A run's per-entry state is one open-vector matrix plus the completed
    cost and the open pipeline's start cardinality of each entry, all
    indexed by entry id. :meth:`leaves` copies the leaf rows from the
    graph's memo (:meth:`JoinGraph.leaf_rows`), so a relation's scan is
    featurized once per graph, not once per run. :meth:`combine` gathers
    a whole level's build rows and then its probe rows with one ``take``
    into a ``(2k, n_features)`` matrix and evaluates it with a single
    model call; :meth:`keep` stores the probe rows of the subsets'
    winners only. The column updates and the cost sums do the same
    floating-point operations, in the same order, as costing each pair
    on its own.
    """

    def __init__(self, predict_raw_one, registry: FeatureRegistry,
                 catalog: Catalog):
        """``predict_raw_one``: vector → transformed per-tuple time
        (e.g. ``T3Model.predict_raw_one`` of a compiled model).

        A bound ``T3Model.predict_raw_one`` is evaluated through the
        model's batch entry, one native call per matrix; any other
        callable is applied row by row.

        DP leaves are the real pipeline featurizer's rows for each
        relation's scan under ``registry`` and ``catalog``.
        """
        if getattr(predict_raw_one, "__func__", None) is T3Model.predict_raw_one:
            self._predict_rows = predict_raw_one.__self__.predict_raw_batch
        else:
            def predict_rows(X: np.ndarray) -> np.ndarray:
                return np.array([predict_raw_one(row) for row in X],
                                dtype=np.float64)
            self._predict_rows = predict_rows
        self.registry = registry
        self.catalog = catalog
        self.model_calls = 0
        self._open = np.empty((0, registry.n_features))
        self._done = np.empty(0)
        self._start = np.empty(0)
        self._size = 0
        self._level = None
        index = registry.index_of
        self._build_count = index("HashJoin_Build_count")
        self._build_card = index("HashJoin_Build_in_card")
        self._build_size = index("HashJoin_Build_in_size")
        self._build_pct = index("HashJoin_Build_in_percentage")
        self._probe_count = index("HashJoin_Probe_count")
        self._probe_card = index("HashJoin_Probe_in_card")
        self._probe_size = index("HashJoin_Probe_in_size")
        self._probe_right = index("HashJoin_Probe_right_percentage")
        self._probe_out = index("HashJoin_Probe_out_percentage")

    def _pipeline_times(self, X: np.ndarray,
                        starts: np.ndarray) -> np.ndarray:
        """Predicted running time of each row's pipeline: one model call."""
        self.model_calls += len(X)
        return inverse_transform(self._predict_rows(X)) * np.maximum(starts, 1.0)

    def leaves(self, graph: JoinGraph, n_entries: int) -> np.ndarray:
        rows = graph.leaf_rows(self.registry, self.catalog)
        n = len(rows)
        self._open = np.empty((n_entries, self.registry.n_features))
        self._done = np.zeros(n_entries)
        self._start = np.empty(n_entries)
        self._open[:n] = rows
        self._start[:n] = [relation.base_rows for relation in graph.relations]
        self._size = n
        return self._pipeline_times(self._open[:n], self._start[:n])

    def combine(self, level: DPLevel) -> np.ndarray:
        k = len(level.lefts)
        # Rows 0..k-1 close each left subtree's pipeline with a build;
        # rows k..2k-1 extend each right subtree's open pipeline by a probe.
        X = self._open.take(level.ids, axis=0)
        starts = self._start.take(level.ids)
        done = self._done.take(level.ids)
        left_cards = level.left_cards
        left_starts, right_starts = starts[:k], starts[k:]
        build, probe = X[:k], X[k:]
        build[:, self._build_count] += 1.0
        build[:, self._build_card] += left_cards
        build[:, self._build_size] += 16.0
        build[:, self._build_pct] += left_cards / np.maximum(left_starts, 1.0)
        right_base = np.maximum(right_starts, 1.0)
        probe[:, self._probe_count] += 1.0
        probe[:, self._probe_card] += left_cards
        probe[:, self._probe_size] += 16.0
        probe[:, self._probe_right] += level.right_cards / right_base
        probe[:, self._probe_out] += level.out_cards / right_base
        times = self._pipeline_times(X, starts)

        completed = done[:k] + done[k:] + times[:k]
        self._level = (probe, completed, right_starts)
        return completed + times[k:]

    def keep(self, winners: Sequence[int]) -> None:
        probe, completed, starts = self._level
        chosen = np.array(winners, dtype=np.intp)
        first, end = self._size, self._size + len(chosen)
        probe.take(chosen, axis=0, out=self._open[first:end])
        completed.take(chosen, out=self._done[first:end])
        starts.take(chosen, out=self._start[first:end])
        self._size = end

