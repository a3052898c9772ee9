"""Cardinality models: exact, estimated, and artificially distorted.

The paper deliberately decouples performance prediction from cardinality
estimation (Section 2.1): T3 is trained and evaluated with *exact*
cardinalities, and separately stress-tested with estimated (Figure 11)
and increasingly distorted (Figure 12) ones. All three providers share
one interface so plans can be featurized under any of them.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple


from ..errors import CardinalityError
from ..rng import derive_rng
from .catalog import Catalog
from .physical import (
    PAntiJoin,
    PAssertSingle,
    PCrossProduct,
    PDistinct,
    PFilter,
    PGroupBy,
    PIndexNLJoin,
    PLimit,
    PMap,
    PMaterialize,
    PSemiJoin,
    PSimpleAgg,
    PSort,
    PTableScan,
    PTopK,
    PUnion,
    PWindow,
    PhysicalOperator,
    _JoinBase,
)


def cardenas(n_distinct: float, n_rows: float) -> float:
    """Expected number of distinct values among ``n_rows`` draws.

    Cardenas' formula ``d * (1 - (1 - 1/d)^n)``, evaluated stably.
    """
    if n_distinct <= 0 or n_rows <= 0:
        return 0.0
    if n_distinct <= 1:
        return 1.0
    return n_distinct * (1.0 - math.exp(n_rows * math.log1p(-1.0 / n_distinct)))


class CardinalityModel:
    """Provides output cardinalities for physical operators (memoized).

    Use one model per plan or request (or per offline build job) and
    then drop it. The memo pins every operator it has answered for (see
    ``__init__``), so a model kept across requests keeps every plan it
    ever saw alive: memory grows without bound, and each full GC pass
    walks all of it.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # id(op) -> (op, cardinality). The operator is stored alongside
        # its value to pin it alive: without the strong reference, a
        # discarded candidate operator's id can be recycled by a later
        # allocation and the memo would serve the dead operator's
        # cardinality for the new one — a stale hit whose occurrence
        # depends on allocation history, i.e. non-deterministic plans.
        self._memo: Dict[int, Tuple[PhysicalOperator, float]] = {}
        # id(predicate) -> (predicate, unclamped selectivity), pinned the
        # same way. The optimizer's predicate order, the scan's
        # cardinality and the expression-percentage features all ask
        # for it; the memo evaluates each predicate once per model.
        self._selectivities: Dict[int, Tuple[object, float]] = {}

    # -- public API -----------------------------------------------------

    def output_cardinality(self, op: PhysicalOperator) -> float:
        key = id(op)
        hit = self._memo.get(key)
        if hit is None:
            value = max(0.0, self._compute(op))
            self._memo[key] = (op, value)
            return value
        return hit[1]

    def base_cardinality(self, op: PTableScan) -> float:
        """Rows scanned before any predicate — exact in every model."""
        return float(self.catalog.row_count(op.table))

    def predicate_selectivity(self, predicate) -> float:
        """Selectivity of one predicate under this model (public hook for
        feature extraction, which needs per-predicate evaluated
        fractions)."""
        return min(1.0, max(0.0, self.raw_selectivity(predicate)))

    def raw_selectivity(self, predicate) -> float:
        """Unclamped selectivity of one predicate (memoized)."""
        hit = self._selectivities.get(id(predicate))
        if hit is None:
            value = self._predicate_selectivity(predicate)
            self._selectivities[id(predicate)] = (predicate, value)
            return value
        return hit[1]

    def reset(self) -> None:
        self._memo.clear()
        self._selectivities.clear()

    # -- hooks the concrete models implement ------------------------------

    def _predicate_selectivity(self, predicate) -> float:
        raise NotImplementedError

    def _conjunction_correlation(self, correlation_factor: float) -> float:
        raise NotImplementedError

    def _column_distinct(self, table: str, column: str) -> float:
        raise NotImplementedError

    def _join_fanout(self, fanout: float) -> float:
        raise NotImplementedError

    # -- shared plan walk ---------------------------------------------------

    def _conjunction_selectivity(self, predicates, correlation_factor: float) -> float:
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.raw_selectivity(predicate)
        if predicates:
            selectivity *= self._conjunction_correlation(correlation_factor)
        return min(1.0, max(0.0, selectivity))

    def _effective_distinct(self, table: str, column: str, side_card: float) -> float:
        if not self.catalog.has_column_stats(table, column):
            # Computed columns (aggregate results, window functions) have
            # no catalog statistics; assume sqrt(n) distinct values.
            return max(1.0, side_card ** 0.5)
        base = self._column_distinct(table, column)
        return max(1.0, min(base, side_card))

    def _join_selectivity(self, op: _JoinBase, build_card: float,
                          probe_card: float) -> float:
        nd_build = self._effective_distinct(*op.build_column, build_card)
        nd_probe = self._effective_distinct(*op.probe_column, probe_card)
        return self._join_fanout(op.fanout) / max(nd_build, nd_probe)

    def _group_count(self, op: PhysicalOperator, group_columns,
                     input_card: float) -> float:
        product = 1.0
        for table, column in group_columns:
            distinct = self._effective_distinct(table, column, input_card)
            distinct *= self._domain_restriction(op, table, column)
            product *= max(1.0, distinct)
            product = min(product, 1e18)
        return max(1.0, min(cardenas(product, input_card), input_card))

    def _domain_restriction(self, op: PhysicalOperator, table: str,
                            column: str) -> float:
        """Fraction of a column's domain surviving predicates below ``op``.

        Grouping on a filtered column produces at most the qualifying
        distinct values; estimators typically miss this, the exact model
        must not.
        """
        fraction = 1.0
        for node in op.walk():
            predicates = getattr(node, "predicates", None)
            if not predicates:
                continue
            for predicate in predicates:
                if predicate.table == table and predicate.column == column:
                    fraction *= self._distinct_fraction(predicate)
        return min(1.0, max(0.0, fraction))

    def _distinct_fraction(self, predicate) -> float:
        raise NotImplementedError

    def _compute(self, op: PhysicalOperator) -> float:
        if isinstance(op, PTableScan):
            selectivity = self._conjunction_selectivity(
                op.predicates, op.correlation_factor)
            return self.base_cardinality(op) * selectivity
        if isinstance(op, PFilter):
            child = self.output_cardinality(op.children[0])
            return child * self._conjunction_selectivity(
                op.predicates, op.correlation_factor)
        if isinstance(op, (PMap, PSort, PWindow, PMaterialize, PAssertSingle)):
            return self.output_cardinality(op.children[0])
        if isinstance(op, _JoinBase):
            build = self.output_cardinality(op.build_child)
            probe = self.output_cardinality(op.probe_child)
            selectivity = self._join_selectivity(op, build, probe)
            if isinstance(op, PSemiJoin):
                return probe * min(1.0, build * selectivity)
            if isinstance(op, PAntiJoin):
                return probe * max(0.0, 1.0 - min(1.0, build * selectivity))
            return build * probe * selectivity
        if isinstance(op, PCrossProduct):
            return (self.output_cardinality(op.build_child)
                    * self.output_cardinality(op.probe_child))
        if isinstance(op, PIndexNLJoin):
            outer = self.output_cardinality(op.children[0])
            inner = float(op.inner_rows_hint)
            nd_outer = self._effective_distinct(*op.outer_column, outer)
            nd_inner = self._effective_distinct(*op.inner_column, inner)
            selectivity = self._join_fanout(op.fanout) / max(nd_outer, nd_inner)
            return outer * inner * selectivity
        if isinstance(op, PGroupBy):
            child = self.output_cardinality(op.children[0])
            return self._group_count(op, op.group_columns, child)
        if isinstance(op, PDistinct):
            child = self.output_cardinality(op.children[0])
            return self._group_count(op, op.columns, child)
        if isinstance(op, PSimpleAgg):
            return 1.0
        if isinstance(op, PTopK):
            return min(self.output_cardinality(op.children[0]), float(op.k))
        if isinstance(op, PLimit):
            return min(self.output_cardinality(op.children[0]), float(op.k))
        if isinstance(op, PUnion):
            return (self.output_cardinality(op.children[0])
                    + self.output_cardinality(op.children[1]))
        raise CardinalityError(f"no cardinality rule for {type(op).__name__}")


class ExactCardinalityModel(CardinalityModel):
    """Ground-truth cardinalities from the generative data model.

    Uses true predicate selectivities (via column distributions), true
    predicate-correlation factors, true distinct counts, and true join
    fanouts — what ``explain analyze`` would report.
    """

    def _predicate_selectivity(self, predicate) -> float:
        return predicate.true_selectivity(self.catalog)

    def _conjunction_correlation(self, correlation_factor: float) -> float:
        return correlation_factor

    def _column_distinct(self, table: str, column: str) -> float:
        return float(self.catalog.column_stats(table, column).true_distinct)

    def _join_fanout(self, fanout: float) -> float:
        return fanout

    def _distinct_fraction(self, predicate) -> float:
        return predicate.true_distinct_fraction(self.catalog)


class EstimatedCardinalityModel(CardinalityModel):
    """Textbook optimizer estimates: uniformity, independence, default guesses."""

    def _predicate_selectivity(self, predicate) -> float:
        return predicate.estimated_selectivity(self.catalog)

    def _conjunction_correlation(self, correlation_factor: float) -> float:
        return 1.0  # independence assumption

    def _column_distinct(self, table: str, column: str) -> float:
        return float(self.catalog.column_stats(table, column).estimated_distinct)

    def _join_fanout(self, fanout: float) -> float:
        return 1.0  # estimators do not know true fanouts

    def _distinct_fraction(self, predicate) -> float:
        # Estimators approximate domain restriction with row selectivity.
        return predicate.estimated_selectivity(self.catalog)


class DistortedCardinalityModel(CardinalityModel):
    """Wraps a base model and distorts intermediate-result cardinalities.

    Every non-base cardinality is multiplied by a deterministic factor
    drawn log-uniformly from ``[1/distortion, distortion]`` (Figure 12's
    protocol: "manually modified the cardinalities by increasing
    factors"). Base-table row counts stay exact — real systems know them.
    """

    def __init__(self, base: CardinalityModel, distortion: float, seed: int = 0):
        if distortion < 1.0:
            raise CardinalityError("distortion factor must be >= 1")
        super().__init__(base.catalog)
        self.base = base
        self.distortion = float(distortion)
        self.seed = seed

    def predicate_selectivity(self, predicate) -> float:
        return self.base.predicate_selectivity(predicate)

    def _factor(self, op: PhysicalOperator) -> float:
        if self.distortion == 1.0:
            return 1.0
        rng = derive_rng(self.seed, "distort", op.node_id)
        exponent = rng.uniform(-1.0, 1.0)
        return float(self.distortion ** exponent)

    def _compute(self, op: PhysicalOperator) -> float:
        true_value = self.base.output_cardinality(op)
        if isinstance(op, PTableScan) and not op.predicates:
            return true_value
        if isinstance(op, (PSimpleAgg, PLimit, PTopK)):
            return true_value  # structurally bounded, not estimated
        return true_value * self._factor(op)

    # Unused hooks (we override _compute wholesale).
    def _predicate_selectivity(self, predicate) -> float:  # pragma: no cover
        raise NotImplementedError

    def _conjunction_correlation(self, f: float) -> float:  # pragma: no cover
        raise NotImplementedError

    def _column_distinct(self, t: str, c: str) -> float:  # pragma: no cover
        raise NotImplementedError

    def _join_fanout(self, fanout: float) -> float:  # pragma: no cover
        raise NotImplementedError
