"""Rule-based optimizer: logical plans → physical plans.

Mirrors the Umbra behaviours the paper calls out:

* **predicate ordering** — scan predicates are evaluated most-selective
  first, which shapes the per-class expression percentages of T3's
  table-scan features,
* **small-table elimination** — joins against tiny tables (`nation`,
  `region`) are computed at optimization time and replaced by a
  BETWEEN + IN predicate pair on the surviving side (the paper's TPC-H
  Q5 example, Listing 3),
* **build-side selection** — hash joins build on the smaller (estimated)
  input and probe with the larger,
* **projection pushdown** — scans only read columns referenced upstream,
* **sort + limit fusion** into Top-K.

The optimizer never reorders joins; join ordering is studied separately
in :mod:`repro.joinorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..errors import PlanError
from .cardinality import EstimatedCardinalityModel
from .catalog import Catalog
from .expressions import BetweenPredicate, InListPredicate, Predicate
from .logical import (
    LogicalDistinct,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopK,
    LogicalUnion,
    LogicalWindow,
)
from .physical import (
    ColumnRef,
    PAntiJoin,
    PFilter,
    PGroupBy,
    PHashJoin,
    PIndexNLJoin,
    PLimit,
    PMap,
    PhysicalOperator,
    PhysicalPlan,
    PSemiJoin,
    PSimpleAgg,
    PSort,
    PTableScan,
    PTopK,
    PWindow,
    PDistinct,
    PUnion,
)
from .schema import DatabaseSchema

#: Pseudo-table name for computed / aggregate output columns.
COMPUTED = "#computed"

#: Byte width of computed columns (aggregates, expressions).
COMPUTED_WIDTH = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs of the optimizer."""

    small_table_threshold: int = 2000
    enable_small_table_elimination: bool = True
    enable_index_nl_join: bool = True
    index_join_outer_fraction: float = 1e-3


class Optimizer:
    """Lowers logical plans over one database instance to physical plans.

    An optimizer holds only its schema, catalog and config. Each
    :meth:`optimize` call lowers through its own :class:`_Lowering`,
    whose estimated-cardinality memo dies with the call: concurrent
    calls share no mutable state, and a returned plan is not pinned by
    the optimizer that built it.
    """

    def __init__(self, schema: DatabaseSchema, catalog: Catalog,
                 config: Optional[OptimizerConfig] = None):
        self.schema = schema
        self.catalog = catalog
        self.config = config or OptimizerConfig()

    def optimize(self, plan: LogicalNode, query_name: str = "") -> PhysicalPlan:
        """Produce a physical plan for ``plan``."""
        root = _Lowering(self, _collect_required_columns(plan))._lower(plan)
        return PhysicalPlan(root, self.schema.name, query_name)


class _Lowering:
    """State of one :meth:`Optimizer.optimize` call: the columns the
    query references and the estimator memo over the operators built
    so far (the memo pins them, see :class:`CardinalityModel`)."""

    def __init__(self, optimizer: Optimizer, required: Dict[str, Set[str]]):
        self.schema = optimizer.schema
        self.catalog = optimizer.catalog
        self.config = optimizer.config
        self.required = required
        self._estimator = EstimatedCardinalityModel(optimizer.catalog)

    # -- helpers -----------------------------------------------------------

    def _column_width(self, table: str, column: str) -> int:
        if table == COMPUTED:
            return COMPUTED_WIDTH
        return self.schema.table(table).column(column).byte_width

    def _width_of(self, columns: Sequence[ColumnRef]) -> int:
        return sum(self._column_width(t, c) for t, c in columns)

    def _estimated(self, op: PhysicalOperator) -> float:
        return self._estimator.output_cardinality(op)

    # -- lowering ----------------------------------------------------------

    def _lower(self, node: LogicalNode) -> PhysicalOperator:
        if isinstance(node, LogicalScan):
            return self._lower_scan(node)
        if isinstance(node, LogicalJoin):
            return self._lower_join(node)
        if isinstance(node, LogicalGroupBy):
            return self._lower_group_by(node)
        if isinstance(node, LogicalSort):
            child = self._lower(node.input)
            return PSort(child, list(node.keys))
        if isinstance(node, LogicalTopK):
            child = self._lower(node.input)
            return PTopK(child, list(node.keys), node.k)
        if isinstance(node, LogicalLimit):
            child = self._lower(node.input)
            if isinstance(child, PSort):
                return PTopK(child.children[0], child.keys, node.k)
            return PLimit(child, node.k)
        if isinstance(node, LogicalProject):
            return self._lower_project(node)
        if isinstance(node, LogicalWindow):
            child = self._lower(node.input)
            out_columns = child.output_columns + [(COMPUTED, node.function)]
            return PWindow(child, list(node.partition_columns),
                           list(node.order_columns), node.function,
                           out_columns, self._width_of(out_columns))
        if isinstance(node, LogicalDistinct):
            child = self._lower(node.input)
            return PDistinct(child, list(node.columns))
        if isinstance(node, LogicalUnion):
            left = self._lower(node.left)
            right = self._lower(node.right)
            return PUnion(left, right)
        raise PlanError(f"cannot lower logical node {type(node).__name__}")

    def _lower_scan(self, node: LogicalScan) -> PTableScan:
        table = self.schema.table(node.table)
        needed = self.required.get(node.table)
        read = ([c for c in table.columns if not needed or c.name in needed]
                or table.columns[:1])
        columns = [(node.table, c.name) for c in read]
        width = sum(c.byte_width for c in read)
        # Evaluate the most selective predicates first (Umbra-style);
        # the estimator memoizes each one for the cardinality it is
        # about to be asked for.
        predicates = sorted(node.predicates,
                            key=self._estimator.raw_selectivity)
        return PTableScan(node.table, predicates, node.correlation_factor,
                          columns, width, scan_byte_width=width)

    def _lower_join(self, node: LogicalJoin) -> PhysicalOperator:
        edge = node.edge
        config = self.config
        # Small-table elimination: inner joins against tiny base tables
        # become IN predicates on the surviving side (Umbra's
        # nation/region optimization, Section 3 of the paper).
        if (config.enable_small_table_elimination and node.kind == "inner"):
            for small_side, keep_side, small_col, keep_col in (
                    (node.left, node.right,
                     (edge.left_table, edge.left_column),
                     (edge.right_table, edge.right_column)),
                    (node.right, node.left,
                     (edge.right_table, edge.right_column),
                     (edge.left_table, edge.left_column))):
                eliminated = self._try_eliminate_small_table(
                    small_side, keep_side, small_col, keep_col)
                if eliminated is not None:
                    return eliminated

        left = self._lower(node.left)
        right = self._lower(node.right)

        left_col: ColumnRef = (edge.left_table, edge.left_column)
        right_col: ColumnRef = (edge.right_table, edge.right_column)
        left_card = self._estimated(left)
        right_card = self._estimated(right)

        # Every lowered operator's output_byte_width is the summed width
        # of its output_columns, so a join's output width is the sum of
        # its inputs' widths; no column is looked up again.

        if node.kind == "inner":
            # Index nested-loop join: tiny outer probing a huge base table.
            if (config.enable_index_nl_join and isinstance(right, PTableScan)
                    and not right.predicates
                    and self.schema.table(right.table).primary_key
                    == right_col[1]
                    and left_card < right_card * config.index_join_outer_fraction):
                return PIndexNLJoin(
                    left, right.table, self.catalog.row_count(right.table),
                    left_col, right_col, edge.fanout,
                    left.output_columns + right.output_columns,
                    left.output_byte_width + right.output_byte_width)
            # Hash join: build on the smaller estimated side.
            if left_card <= right_card:
                build, probe = left, right
                build_col, probe_col = left_col, right_col
            else:
                build, probe = right, left
                build_col, probe_col = right_col, left_col
            return PHashJoin(build, probe, build_col, probe_col, edge.fanout,
                             build.output_columns + probe.output_columns,
                             build.output_byte_width
                             + probe.output_byte_width,
                             stored_byte_width=build.output_byte_width)

        # Semi/anti joins: left side is the filter set, right side survives.
        cls = PSemiJoin if node.kind == "semi" else PAntiJoin
        build_width = self._column_width(*left_col)
        return cls(left, right, left_col, right_col, edge.fanout,
                   right.output_columns, right.output_byte_width,
                   stored_byte_width=build_width)

    def _try_eliminate_small_table(
            self, small_side: LogicalNode, keep_side: LogicalNode,
            small_col: ColumnRef, keep_col: ColumnRef
            ) -> Optional[PhysicalOperator]:
        """Replace a join with a tiny filtered table by IN predicates."""
        if not isinstance(small_side, LogicalScan):
            return None
        table = small_side.table
        if self.catalog.row_count(table) > self.config.small_table_threshold:
            return None
        if keep_col[0] not in keep_side.tables():
            # The surviving side no longer contains the join column's
            # table (e.g. it was itself eliminated) — keep the join.
            return None
        # Columns of the small table must not be needed upstream (beyond
        # the join key and the scan's own filter columns).
        needed = set(self.required.get(table, set()))
        needed.discard(small_col[1])
        for predicate in small_side.predicates:
            needed -= _predicate_columns(predicate)
        if needed:
            return None
        # Qualifying keys of the small table under its filters.
        exact_keys = self._qualifying_keys(small_side, small_col)
        if exact_keys is None:
            return None
        lowered = self._lower(keep_side)
        keep_table, keep_column = keep_col
        predicates: List[Predicate] = []
        if len(exact_keys) > 1:
            predicates.append(BetweenPredicate(
                keep_table, keep_column, min(exact_keys), max(exact_keys)))
        predicates.append(InListPredicate(keep_table, keep_column, exact_keys))
        if isinstance(lowered, PTableScan):
            return PTableScan(
                lowered.table, lowered.predicates + predicates,
                lowered.correlation_factor, lowered.output_columns,
                lowered.output_byte_width, lowered.scan_byte_width)
        return PFilter(lowered, predicates)

    def _qualifying_keys(self, scan: LogicalScan,
                         key_col: ColumnRef) -> Optional[List[float]]:
        """Key values of a tiny table surviving its filters (computed at
        optimization time, like Umbra's early execution)."""
        stats = self.catalog.column_stats(key_col[0], key_col[1])
        n_keys = stats.true_distinct
        if n_keys > self.config.small_table_threshold:
            return None
        selectivity = 1.0
        for predicate in scan.predicates:
            selectivity *= predicate.true_selectivity(self.catalog)
        selectivity *= scan.correlation_factor
        n_qualifying = max(1, int(round(n_keys * min(1.0, selectivity))))
        # Deterministic representative keys: spread across the domain.
        spread = (np.arange(n_qualifying) + 0.5) / n_qualifying
        return sorted(set(stats.distribution.quantiles(spread)))

    def _lower_group_by(self, node: LogicalGroupBy) -> PhysicalOperator:
        child = self._lower(node.input)
        agg_columns: List[ColumnRef] = [
            (COMPUTED, f"agg_{i}") for i in range(len(node.aggregates))]
        if not node.group_columns:
            out_columns = agg_columns or [(COMPUTED, "agg_0")]
            return PSimpleAgg(child, node.aggregates, out_columns,
                              self._width_of(out_columns))
        out_columns = list(node.group_columns) + agg_columns
        return PGroupBy(child, node.group_columns, node.aggregates,
                        out_columns, self._width_of(out_columns))

    def _lower_project(self, node: LogicalProject) -> PhysicalOperator:
        child = self._lower(node.input)
        if not node.computed:
            # Pure column pruning is free in a push-based engine; the
            # pruning already happened via required-column analysis.
            return child
        out_columns = (list(node.columns)
                       + [(COMPUTED, c.name) for c in node.computed])
        return PMap(child, node.computed, out_columns,
                    self._width_of(out_columns))


def _predicate_columns(predicate) -> Set[str]:
    """Column names referenced by a predicate (including OR branches)."""
    columns = {predicate.column}
    for part in getattr(predicate, "parts", ()):
        columns |= _predicate_columns(part)
    inner = getattr(predicate, "inner", None)
    if inner is not None:
        columns |= _predicate_columns(inner)
    return columns


def _collect_required_columns(plan: LogicalNode) -> Dict[str, Set[str]]:
    """Per base table, the set of columns referenced anywhere in the query."""
    required: Dict[str, Set[str]] = {}

    def add(table: str, column: str) -> None:
        if table and table != COMPUTED:
            required.setdefault(table, set()).add(column)

    def add_qualified(name: Optional[str]) -> None:
        if name and "." in name:
            table, _, column = name.partition(".")
            add(table, column)

    for node in plan.walk():
        if isinstance(node, LogicalScan):
            for predicate in node.predicates:
                add(predicate.table, predicate.column)
        elif isinstance(node, LogicalJoin):
            add(node.edge.left_table, node.edge.left_column)
            add(node.edge.right_table, node.edge.right_column)
        elif isinstance(node, LogicalGroupBy):
            for table, column in node.group_columns:
                add(table, column)
            for aggregate in node.aggregates:
                add_qualified(aggregate.column)
        elif isinstance(node, (LogicalSort, LogicalTopK)):
            for table, column in node.keys:
                add(table, column)
        elif isinstance(node, LogicalProject):
            for table, column in node.columns:
                add(table, column)
            for computed in node.computed:
                for name in computed.input_columns:
                    add_qualified(name)
        elif isinstance(node, LogicalWindow):
            for table, column in (list(node.partition_columns)
                                  + list(node.order_columns)):
                add(table, column)
        elif isinstance(node, LogicalDistinct):
            for table, column in node.columns:
                add(table, column)
    return required
