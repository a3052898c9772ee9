"""Physical query plans: 19 operator types with explicit stages.

Physical plans are what T3 consumes (Section 2.1: "T3 relies on
physical query plans for detailed information about queries"). Every
node carries the column set and byte widths of the tuples it produces
and — for materializing operators — stores, so the feature extractor
can read sizes directly off the plan.

Cardinalities are *not* stored on nodes: they are provided by a
:class:`~repro.engine.cardinality.CardinalityModel`, so the same plan
can be featurized with exact, estimated, or distorted cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import PlanError
from .expressions import Aggregate, ComputedColumn, Predicate
from .stages import OperatorType, Stage, operator_stages

ColumnRef = Tuple[str, str]  # (table, column)


class PhysicalOperator:
    """Base class of all physical operators."""

    op_type: OperatorType

    def __init__(self, children: Sequence["PhysicalOperator"],
                 output_columns: Sequence[ColumnRef],
                 output_byte_width: int):
        expected = 2 if self.arity == 2 else (0 if self.arity == 0 else 1)
        if len(children) != expected:
            raise PlanError(
                f"{self.op_type.value} expects {expected} children, "
                f"got {len(children)}")
        self.children: List[PhysicalOperator] = list(children)
        self.output_columns: List[ColumnRef] = list(output_columns)
        self.output_byte_width = int(output_byte_width)
        self.node_id: Optional[int] = None  # assigned by PhysicalPlan

    #: 0 for leaves, 1 for unary, 2 for binary operators.
    arity: int = 1

    @property
    def stages(self) -> Tuple[Stage, ...]:
        return operator_stages(self.op_type)

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Yield this operator and all below it, pre-order."""
        # An explicit stack: nested ``yield from`` costs every operator
        # one generator hop per level above it.
        stack = [self]
        while stack:
            op = stack.pop()
            yield op
            stack.extend(reversed(op.children))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(id={self.node_id})"


class PTableScan(PhysicalOperator):
    """Scan of a base table with pushed-down predicate conjunction.

    ``scan_byte_width`` is the width of the columns actually read (after
    projection pushdown); predicates are evaluated in list order, which
    determines the per-class evaluation percentages (Section 3,
    "Table Scan Operators").
    """

    op_type = OperatorType.TABLE_SCAN
    arity = 0

    def __init__(self, table: str, predicates: Sequence[Predicate],
                 correlation_factor: float,
                 output_columns: Sequence[ColumnRef], output_byte_width: int,
                 scan_byte_width: int):
        super().__init__([], output_columns, output_byte_width)
        self.table = table
        self.predicates = list(predicates)
        self.correlation_factor = float(correlation_factor)
        self.scan_byte_width = int(scan_byte_width)


class PFilter(PhysicalOperator):
    """Predicates that could not be pushed into a scan."""

    op_type = OperatorType.FILTER

    def __init__(self, child: PhysicalOperator, predicates: Sequence[Predicate],
                 correlation_factor: float = 1.0):
        if not predicates:
            raise PlanError("filter needs at least one predicate")
        super().__init__([child], child.output_columns, child.output_byte_width)
        self.predicates = list(predicates)
        self.correlation_factor = float(correlation_factor)


class PMap(PhysicalOperator):
    """Computed projection expressions."""

    op_type = OperatorType.MAP

    def __init__(self, child: PhysicalOperator,
                 computed: Sequence[ComputedColumn],
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([child], output_columns, output_byte_width)
        if not computed:
            raise PlanError("map needs at least one computed column")
        self.computed = list(computed)

    @property
    def n_operations(self) -> int:
        return sum(c.n_operations for c in self.computed)


class _JoinBase(PhysicalOperator):
    """Shared fields of build/probe joins: children[0] builds, children[1] probes."""

    arity = 2

    def __init__(self, build: PhysicalOperator, probe: PhysicalOperator,
                 build_column: ColumnRef, probe_column: ColumnRef,
                 fanout: float,
                 output_columns: Sequence[ColumnRef], output_byte_width: int,
                 stored_byte_width: int):
        super().__init__([build, probe], output_columns, output_byte_width)
        self.build_column = build_column
        self.probe_column = probe_column
        self.fanout = float(fanout)
        self.stored_byte_width = int(stored_byte_width)

    @property
    def build_child(self) -> PhysicalOperator:
        return self.children[0]

    @property
    def probe_child(self) -> PhysicalOperator:
        return self.children[1]


class PHashJoin(_JoinBase):
    op_type = OperatorType.HASH_JOIN


class PSemiJoin(_JoinBase):
    op_type = OperatorType.SEMI_JOIN


class PAntiJoin(_JoinBase):
    op_type = OperatorType.ANTI_JOIN


class PBNLJoin(_JoinBase):
    op_type = OperatorType.BNL_JOIN


class PCrossProduct(PhysicalOperator):
    op_type = OperatorType.CROSS_PRODUCT
    arity = 2

    def __init__(self, build: PhysicalOperator, probe: PhysicalOperator,
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([build, probe], output_columns, output_byte_width)
        self.stored_byte_width = build.output_byte_width

    @property
    def build_child(self) -> PhysicalOperator:
        return self.children[0]

    @property
    def probe_child(self) -> PhysicalOperator:
        return self.children[1]


class PIndexNLJoin(PhysicalOperator):
    """Index nested-loop join: outer tuples probe an index on a base table."""

    op_type = OperatorType.INDEX_NL_JOIN

    def __init__(self, outer: PhysicalOperator, inner_table: str,
                 inner_rows_hint: int,
                 outer_column: ColumnRef, inner_column: ColumnRef,
                 fanout: float,
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([outer], output_columns, output_byte_width)
        self.inner_table = inner_table
        self.inner_rows_hint = int(inner_rows_hint)
        self.outer_column = outer_column
        self.inner_column = inner_column
        self.fanout = float(fanout)


class PGroupBy(PhysicalOperator):
    op_type = OperatorType.GROUP_BY

    def __init__(self, child: PhysicalOperator, group_columns: Sequence[ColumnRef],
                 aggregates: Sequence[Aggregate],
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([child], output_columns, output_byte_width)
        if not group_columns:
            raise PlanError("group-by needs keys (use SimpleAgg otherwise)")
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self.stored_byte_width = output_byte_width


class PSimpleAgg(PhysicalOperator):
    """Aggregation without group keys: always one output row."""

    op_type = OperatorType.SIMPLE_AGG

    def __init__(self, child: PhysicalOperator, aggregates: Sequence[Aggregate],
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([child], output_columns, output_byte_width)
        if not aggregates:
            raise PlanError("simple aggregation needs aggregates")
        self.aggregates = list(aggregates)
        self.stored_byte_width = output_byte_width


class PSort(PhysicalOperator):
    op_type = OperatorType.SORT

    def __init__(self, child: PhysicalOperator, keys: Sequence[ColumnRef]):
        super().__init__([child], child.output_columns, child.output_byte_width)
        if not keys:
            raise PlanError("sort needs at least one key")
        self.keys = list(keys)
        self.stored_byte_width = child.output_byte_width


class PTopK(PhysicalOperator):
    op_type = OperatorType.TOP_K

    def __init__(self, child: PhysicalOperator, keys: Sequence[ColumnRef], k: int):
        super().__init__([child], child.output_columns, child.output_byte_width)
        if k < 1:
            raise PlanError("top-k needs k >= 1")
        self.keys = list(keys)
        self.k = int(k)
        self.stored_byte_width = child.output_byte_width


class PLimit(PhysicalOperator):
    op_type = OperatorType.LIMIT

    def __init__(self, child: PhysicalOperator, k: int):
        super().__init__([child], child.output_columns, child.output_byte_width)
        if k < 1:
            raise PlanError("limit needs k >= 1")
        self.k = int(k)


class PWindow(PhysicalOperator):
    op_type = OperatorType.WINDOW

    def __init__(self, child: PhysicalOperator,
                 partition_columns: Sequence[ColumnRef],
                 order_columns: Sequence[ColumnRef], function: str,
                 output_columns: Sequence[ColumnRef], output_byte_width: int):
        super().__init__([child], output_columns, output_byte_width)
        self.partition_columns = list(partition_columns)
        self.order_columns = list(order_columns)
        self.function = function
        self.stored_byte_width = child.output_byte_width


class PDistinct(PhysicalOperator):
    op_type = OperatorType.DISTINCT

    def __init__(self, child: PhysicalOperator, columns: Sequence[ColumnRef]):
        super().__init__([child], child.output_columns, child.output_byte_width)
        if not columns:
            raise PlanError("distinct needs at least one column")
        self.columns = list(columns)
        self.stored_byte_width = child.output_byte_width


class PMaterialize(PhysicalOperator):
    """Explicit temp materialization (result buffering, CTEs)."""

    op_type = OperatorType.MATERIALIZE

    def __init__(self, child: PhysicalOperator):
        super().__init__([child], child.output_columns, child.output_byte_width)
        self.stored_byte_width = child.output_byte_width


class PUnion(PhysicalOperator):
    """Bag union: both inputs are buffered, then scanned out."""

    op_type = OperatorType.UNION
    arity = 2

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        super().__init__([left, right], left.output_columns,
                         left.output_byte_width)
        self.stored_byte_width = left.output_byte_width


class PAssertSingle(PhysicalOperator):
    """Runtime check that the input has exactly one row (scalar subqueries)."""

    op_type = OperatorType.ASSERT_SINGLE

    def __init__(self, child: PhysicalOperator):
        super().__init__([child], child.output_columns, child.output_byte_width)


@dataclass
class PhysicalPlan:
    """A rooted physical plan plus identifying metadata."""

    root: PhysicalOperator
    database: str
    query_name: str = ""

    def __post_init__(self) -> None:
        for node_id, node in enumerate(self.root.walk()):
            node.node_id = node_id

    def operators(self) -> List[PhysicalOperator]:
        return list(self.root.walk())

    @property
    def n_operators(self) -> int:
        return sum(1 for _ in self.root.walk())

    def base_tables(self) -> List[str]:
        tables = [op.table for op in self.root.walk()
                  if isinstance(op, PTableScan)]
        tables += [op.inner_table for op in self.root.walk()
                   if isinstance(op, PIndexNLJoin)]
        return tables
