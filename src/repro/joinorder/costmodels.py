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

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.features import FeatureRegistry, default_registry
from ..core.model import T3Model
from ..core.targets import inverse_transform
from ..engine.cardinality import ExactCardinalityModel
from ..engine.catalog import Catalog
from ..engine.physical import PTableScan
from ..engine.pipelines import Pipeline, StageRef
from ..engine.stages import Stage
from .joingraph import Relation


@dataclass
class DPState:
    """Cost-model-specific state carried in each DP table entry.

    ``comparison_cost`` orders candidate plans. The T3 model
    additionally carries the open pipeline's feature vector and the cost
    of all already-completed pipelines.
    """

    comparison_cost: float
    completed_cost: float = 0.0
    open_vector: Optional[np.ndarray] = None
    open_start: float = 1.0


class JoinCostModel:
    """Interface consumed by DPsize: the cost model is called once per
    DP level, never once per combination.

    ``combine`` receives every candidate ``(left, right)`` pair of one
    level as parallel sequences and returns one :class:`DPState` per
    pair, in the same order.
    """

    #: Number of model invocations made so far (Table 5's "Model Calls").
    #: Counts rows, so batching a level leaves it unchanged.
    model_calls: int = 0

    def leaves(self, relations: Sequence[Relation]) -> List[DPState]:
        raise NotImplementedError

    def combine(self, lefts: Sequence[DPState], rights: Sequence[DPState],
                left_cards: Sequence[float], right_cards: Sequence[float],
                out_cards: Sequence[float]) -> List[DPState]:
        raise NotImplementedError


class CoutJoinCost(JoinCostModel):
    """C_out: cost = output cardinality + child costs (Equation 3)."""

    def __init__(self):
        self.model_calls = 0

    def leaves(self, relations: Sequence[Relation]) -> List[DPState]:
        return [DPState(comparison_cost=0.0) for _ in relations]

    def combine(self, lefts: Sequence[DPState], rights: Sequence[DPState],
                left_cards: Sequence[float], right_cards: Sequence[float],
                out_cards: Sequence[float]) -> List[DPState]:
        self.model_calls += len(out_cards)
        return [DPState(comparison_cost=out_card + left.comparison_cost
                        + right.comparison_cost)
                for left, right, out_card in zip(lefts, rights, out_cards)]


class T3JoinCost(JoinCostModel):
    """T3 applied incrementally inside DPsize, one model batch per level.

    Open pipelines are represented directly as T3 feature vectors. A
    combination (T1 join T2):

    1. appends ``HashJoin_Build`` features to T1's open vector and
       *completes* that pipeline (model row #1),
    2. appends ``HashJoin_Probe`` features to T2's open vector, which
       stays open (model row #2 estimates its running cost for plan
       comparison).

    :meth:`combine` stacks the build rows and then the probe rows of a
    whole level into one ``(2k, n_features)`` matrix and evaluates it
    with a single model call; the column updates and the cost sums do
    the same floating-point operations, in the same order, as costing
    each pair on its own.
    """

    def __init__(self, predict_raw_one,
                 registry: Optional[FeatureRegistry] = None,
                 catalog: Optional[Catalog] = None):
        """``predict_raw_one``: vector → transformed per-tuple time
        (e.g. ``T3Model.predict_raw_one`` of a compiled model).

        A bound ``T3Model.predict_raw_one`` is evaluated through the
        model's batch entry, one native call per matrix; any other
        callable is applied row by row.

        With a ``catalog``, DP leaves are featurized by the *real*
        pipeline featurizer (predicate classes, evaluation percentages,
        scan widths all faithful to training data); without one, a
        coarse hand-built scan vector is used.
        """
        if getattr(predict_raw_one, "__func__", None) is T3Model.predict_raw_one:
            self._predict_rows = predict_raw_one.__self__.predict_raw_batch
        else:
            def predict_rows(X: np.ndarray) -> np.ndarray:
                return np.array([predict_raw_one(row) for row in X],
                                dtype=np.float64)
            self._predict_rows = predict_rows
        self.registry = registry or default_registry()
        self.catalog = catalog
        self._exact = ExactCardinalityModel(catalog) if catalog else None
        self.model_calls = 0
        index = self.registry.index_of
        self._scan_count = index("TableScan_Scan_count")
        self._scan_card = index("TableScan_Scan_in_card")
        self._scan_size = index("TableScan_Scan_in_size")
        self._scan_out = index("TableScan_Scan_out_percentage")
        self._scan_cmp = index("TableScan_Scan_expr_comparison_percentage")
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

    def leaves(self, relations: Sequence[Relation]) -> List[DPState]:
        X = np.array([self._leaf_vector(relation) for relation in relations])
        starts = np.array([relation.base_rows for relation in relations],
                          dtype=np.float64)
        open_estimates = self._pipeline_times(X, starts)
        return [DPState(comparison_cost=estimate, completed_cost=0.0,
                        open_vector=vector, open_start=relation.base_rows)
                for estimate, vector, relation
                in zip(open_estimates.tolist(), X, relations)]

    def _leaf_vector(self, relation: Relation) -> np.ndarray:
        if self._exact is not None:
            # Faithful path: lower the scan and use the real featurizer.
            schema_table = self.catalog.schema.table(relation.table)
            columns = [(relation.table, c) for c in schema_table.column_names]
            predicates = sorted(
                relation.scan.predicates,
                key=lambda p: p.estimated_selectivity(self.catalog))
            scan = PTableScan(relation.table, predicates,
                              relation.scan.correlation_factor,
                              columns, schema_table.row_byte_width,
                              scan_byte_width=schema_table.row_byte_width)
            pipeline = Pipeline(0, [StageRef(scan, Stage.SCAN)])
            return self.registry.vector_for_pipeline(pipeline, self._exact)
        # Coarse fallback without catalog access.
        vector = np.zeros(self.registry.n_features)
        vector[self._scan_count] = 1.0
        vector[self._scan_card] = relation.base_rows
        vector[self._scan_size] = relation.tuple_width
        vector[self._scan_out] = relation.cardinality / max(relation.base_rows, 1.0)
        vector[self._scan_cmp] = float(len(relation.scan.predicates))
        return vector

    def combine(self, lefts: Sequence[DPState], rights: Sequence[DPState],
                left_cards: Sequence[float], right_cards: Sequence[float],
                out_cards: Sequence[float]) -> List[DPState]:
        k = len(lefts)
        left_cards = np.asarray(left_cards, dtype=np.float64)
        left_starts = np.array([s.open_start for s in lefts], dtype=np.float64)
        right_starts = np.array([s.open_start for s in rights],
                                dtype=np.float64)
        # Rows 0..k-1 close each left subtree's pipeline with a build;
        # rows k..2k-1 extend each right subtree's open pipeline by a probe.
        X = np.array([s.open_vector for s in lefts]
                     + [s.open_vector for s in rights])
        build, probe = X[:k], X[k:]
        build[:, self._build_count] += 1.0
        build[:, self._build_card] += left_cards
        build[:, self._build_size] += 16.0
        build[:, self._build_pct] += left_cards / np.maximum(left_starts, 1.0)
        right_base = np.maximum(right_starts, 1.0)
        probe[:, self._probe_count] += 1.0
        probe[:, self._probe_card] += left_cards
        probe[:, self._probe_size] += 16.0
        probe[:, self._probe_right] += (
            np.asarray(right_cards, dtype=np.float64) / right_base)
        probe[:, self._probe_out] += (
            np.asarray(out_cards, dtype=np.float64) / right_base)
        times = self._pipeline_times(X, np.concatenate([left_starts,
                                                        right_starts]))

        completed = (np.array([s.completed_cost for s in lefts])
                     + np.array([s.completed_cost for s in rights])
                     + times[:k])
        comparison = completed + times[k:]
        return [DPState(comparison_cost=cost, completed_cost=done,
                        open_vector=vector, open_start=right.open_start)
                for cost, done, vector, right
                in zip(comparison.tolist(), completed.tolist(), probe, rights)]
