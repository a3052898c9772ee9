"""Scalar expressions: filter predicates, arithmetic, and aggregates.

Predicates know three things:

* how to **evaluate** themselves on concrete column arrays (for the real
  executor),
* their **true selectivity** against the catalog's generative
  distributions (for the exact cardinality model), and
* their **estimated selectivity** under textbook uniformity /
  independence / default-guess rules (for the estimated model).

Every predicate also reports an :class:`ExpressionKind`, which drives
the table-scan expression features of T3 (Section 3: comparison, like,
between, in, and "other").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ExpressionError
from .catalog import Catalog


class ExpressionKind(Enum):
    """Predicate classes with dedicated table-scan features (Section 3)."""

    COMPARISON = "comparison"
    BETWEEN = "between"
    IN_LIST = "in"
    LIKE = "like"
    OTHER = "other"

    #: C-level identity hash, as for :class:`repro.engine.stages.Stage`.
    __hash__ = object.__hash__


class ComparisonOp(Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


#: Default selectivity guess for LIKE predicates (textbook constant).
DEFAULT_LIKE_SELECTIVITY = 0.05

#: Relative per-tuple evaluation cost of each predicate class, used by
#: the execution simulator. IN lists and LIKE matching are more
#: expensive than plain comparisons.
EVALUATION_COST_WEIGHT: Dict[ExpressionKind, float] = {
    ExpressionKind.COMPARISON: 1.0,
    ExpressionKind.BETWEEN: 1.4,
    ExpressionKind.IN_LIST: 2.2,
    ExpressionKind.LIKE: 6.0,
    ExpressionKind.OTHER: 2.0,
}


class Predicate:
    """Base class for boolean row predicates over a single table."""

    table: str
    column: str
    kind: ExpressionKind

    def true_selectivity(self, catalog: Catalog) -> float:
        raise NotImplementedError

    def estimated_selectivity(self, catalog: Catalog) -> float:
        raise NotImplementedError

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Boolean mask over the rows in ``columns`` (executor path)."""
        raise NotImplementedError

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        """Fraction of the column's *distinct values* that satisfy this
        predicate (used to propagate domain restrictions into group
        counts). Defaults to the row selectivity."""
        return self.true_selectivity(catalog)

    def evaluation_cost_weight(self) -> float:
        return EVALUATION_COST_WEIGHT[self.kind]

    def _column_array(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        try:
            return columns[self.column]
        except KeyError:
            raise ExpressionError(
                f"column {self.column!r} not present in batch") from None


@dataclass
class ComparisonPredicate(Predicate):
    """``column <op> literal``."""

    table: str
    column: str
    op: ComparisonOp
    value: float

    def __post_init__(self) -> None:
        self.kind = ExpressionKind.COMPARISON

    def true_selectivity(self, catalog: Catalog) -> float:
        dist = catalog.column_stats(self.table, self.column).distribution
        le = dist.selectivity_le(self.value)
        eq = dist.selectivity_eq(self.value)
        if self.op is ComparisonOp.EQ:
            return eq
        if self.op is ComparisonOp.NE:
            return 1.0 - eq
        if self.op is ComparisonOp.LE:
            return le
        if self.op is ComparisonOp.LT:
            return le - eq
        if self.op is ComparisonOp.GE:
            return 1.0 - (le - eq)
        return 1.0 - le  # GT

    def estimated_selectivity(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        if self.op is ComparisonOp.EQ:
            return min(1.0, 1.0 / stats.estimated_distinct)
        if self.op is ComparisonOp.NE:
            return max(0.0, 1.0 - 1.0 / stats.estimated_distinct)
        span = stats.max_value - stats.min_value
        if span <= 0:
            return 0.5
        fraction = (self.value - stats.min_value) / span
        fraction = min(max(fraction, 0.0), 1.0)
        if self.op in (ComparisonOp.LE, ComparisonOp.LT):
            return fraction
        return 1.0 - fraction  # GE / GT

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        n_distinct = stats.true_distinct
        if self.op is ComparisonOp.EQ:
            return 1.0 / n_distinct
        if self.op is ComparisonOp.NE:
            return 1.0 - 1.0 / n_distinct
        # Integer-coded domains: distinct values are evenly spaced, so the
        # qualifying fraction follows the value range, not the row mass.
        below = (math.floor(self.value) - stats.min_value + 1) / n_distinct
        below = min(max(below, 0.0), 1.0)
        if self.op in (ComparisonOp.LE, ComparisonOp.LT):
            return below
        return 1.0 - below  # GE / GT

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = self._column_array(columns)
        ops = {
            ComparisonOp.EQ: np.equal, ComparisonOp.NE: np.not_equal,
            ComparisonOp.LT: np.less, ComparisonOp.LE: np.less_equal,
            ComparisonOp.GT: np.greater, ComparisonOp.GE: np.greater_equal,
        }
        return ops[self.op](data, self.value)


@dataclass
class BetweenPredicate(Predicate):
    """``column BETWEEN low AND high``."""

    table: str
    column: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ExpressionError("BETWEEN bounds are reversed")
        self.kind = ExpressionKind.BETWEEN

    def true_selectivity(self, catalog: Catalog) -> float:
        dist = catalog.column_stats(self.table, self.column).distribution
        return dist.selectivity_between(self.low, self.high)

    def estimated_selectivity(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        span = stats.max_value - stats.min_value
        if span <= 0:
            return 0.5
        low = max(self.low, stats.min_value)
        high = min(self.high, stats.max_value)
        return max(0.0, min(1.0, (high - low) / span))

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        n_distinct = stats.true_distinct
        low = max(self.low, stats.min_value)
        high = min(self.high, stats.max_value)
        if high < low:
            return 0.0
        return min(1.0, (math.floor(high) - math.ceil(low) + 1) / n_distinct)

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = self._column_array(columns)
        return (data >= self.low) & (data <= self.high)


@dataclass
class InListPredicate(Predicate):
    """``column IN (v1, v2, ...)``."""

    table: str
    column: str
    values: Sequence[float]

    def __post_init__(self) -> None:
        if not self.values:
            raise ExpressionError("IN list must not be empty")
        self.kind = ExpressionKind.IN_LIST
        self.values = tuple(sorted(set(self.values)))

    def true_selectivity(self, catalog: Catalog) -> float:
        dist = catalog.column_stats(self.table, self.column).distribution
        return dist.selectivity_in(self.values)

    def estimated_selectivity(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        return min(1.0, len(self.values) / stats.estimated_distinct)

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        return min(1.0, len(self.values) / stats.true_distinct)

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = self._column_array(columns)
        return np.isin(data, np.asarray(self.values))


@dataclass
class LikePredicate(Predicate):
    """Pattern match on a dictionary-encoded string column.

    ``pattern`` is descriptive only; the match set is an explicit tuple
    of dictionary codes, so the true selectivity is the summed frequency
    of matching codes while the estimate falls back to the classic
    default-guess constant.
    """

    table: str
    column: str
    pattern: str
    matching_codes: Sequence[int]

    def __post_init__(self) -> None:
        self.kind = ExpressionKind.LIKE
        self.matching_codes = tuple(sorted(set(int(c) for c in self.matching_codes)))

    def true_selectivity(self, catalog: Catalog) -> float:
        dist = catalog.column_stats(self.table, self.column).distribution
        return dist.selectivity_in(self.matching_codes)

    def estimated_selectivity(self, catalog: Catalog) -> float:
        return DEFAULT_LIKE_SELECTIVITY

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        stats = catalog.column_stats(self.table, self.column)
        return min(1.0, len(self.matching_codes) / stats.true_distinct)

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        data = self._column_array(columns)
        if not self.matching_codes:
            return np.zeros(len(data), dtype=bool)
        return np.isin(data, np.asarray(self.matching_codes))


@dataclass
class OrPredicate(Predicate):
    """Disjunction of predicates on the same table (feature class "other")."""

    parts: List[Predicate]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExpressionError("OR needs at least two branches")
        tables = {p.table for p in self.parts}
        if len(tables) != 1:
            raise ExpressionError("OR branches must reference one table")
        self.table = self.parts[0].table
        self.column = self.parts[0].column
        self.kind = ExpressionKind.OTHER

    def true_selectivity(self, catalog: Catalog) -> float:
        miss = 1.0
        for part in self.parts:
            miss *= 1.0 - part.true_selectivity(catalog)
        return 1.0 - miss

    def estimated_selectivity(self, catalog: Catalog) -> float:
        miss = 1.0
        for part in self.parts:
            miss *= 1.0 - part.estimated_selectivity(catalog)
        return 1.0 - miss

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        miss = 1.0
        for part in self.parts:
            miss *= 1.0 - part.true_distinct_fraction(catalog)
        return 1.0 - miss

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        mask = self.parts[0].evaluate(columns)
        for part in self.parts[1:]:
            mask = mask | part.evaluate(columns)
        return mask

    def evaluation_cost_weight(self) -> float:
        return sum(p.evaluation_cost_weight() for p in self.parts)


@dataclass
class NotPredicate(Predicate):
    """Negation (feature class "other")."""

    inner: Predicate

    def __post_init__(self) -> None:
        self.table = self.inner.table
        self.column = self.inner.column
        self.kind = ExpressionKind.OTHER

    def true_selectivity(self, catalog: Catalog) -> float:
        return 1.0 - self.inner.true_selectivity(catalog)

    def estimated_selectivity(self, catalog: Catalog) -> float:
        return 1.0 - self.inner.estimated_selectivity(catalog)

    def true_distinct_fraction(self, catalog: Catalog) -> float:
        return 1.0 - self.inner.true_distinct_fraction(catalog)

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        return ~self.inner.evaluate(columns)

    def evaluation_cost_weight(self) -> float:
        return self.inner.evaluation_cost_weight()


# -- non-boolean expressions (projection / aggregation inputs) -------------


class AggregateFunction(Enum):
    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class Aggregate:
    """One aggregate: ``function(column)`` (column ignored for COUNT(*))."""

    function: AggregateFunction
    column: Optional[str] = None

    def evaluate(self, columns: Dict[str, np.ndarray], n_rows: int) -> float:
        if self.function is AggregateFunction.COUNT:
            return float(n_rows)
        if self.column is None:
            raise ExpressionError(f"{self.function.value} needs a column")
        data = columns[self.column]
        if len(data) == 0:
            return math.nan
        if self.function is AggregateFunction.SUM:
            return float(np.sum(data))
        if self.function is AggregateFunction.MIN:
            return float(np.min(data))
        if self.function is AggregateFunction.MAX:
            return float(np.max(data))
        return float(np.mean(data))  # AVG


@dataclass(frozen=True)
class ComputedColumn:
    """A projected arithmetic expression: weighted sum of input columns.

    This covers the cost-relevant shape of projection expressions
    (``l_extendedprice * (1 - l_discount)`` and friends) without a full
    expression interpreter: ``n_operations`` drives simulated cost, the
    affine combination drives real execution.
    """

    name: str
    input_columns: Sequence[str]
    n_operations: int = 1

    def evaluate(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        if not self.input_columns:
            raise ExpressionError("computed column needs at least one input")
        result = columns[self.input_columns[0]].astype(np.float64)
        for column in self.input_columns[1:]:
            result = result + columns[column]
        return result
