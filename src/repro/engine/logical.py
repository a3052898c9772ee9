"""Logical query plans.

The query generator and the fixed benchmark suites produce logical
plans; the optimizer lowers them to physical plans. Logical nodes are
deliberately close to the generator's primitives (Section 4.2): filter,
join, aggregate, sort, project — plus window, distinct, union and limit
to cover the benchmark workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import PlanError
from .expressions import Aggregate, ComputedColumn, Predicate
from .schema import JoinEdge


class LogicalNode:
    """Base class; children in ``inputs``."""

    inputs: List["LogicalNode"]

    def tables(self) -> List[str]:
        """All base table names below this node (with duplicates preserved)."""
        result: List[str] = []
        for child in self.inputs:
            result.extend(child.tables())
        return result

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        # An explicit stack: nested ``yield from`` costs every node one
        # generator hop per level above it.
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.inputs))


@dataclass
class LogicalScan(LogicalNode):
    """Scan of a base table with conjunctive filter predicates.

    ``correlation_factor`` scales the *true* combined selectivity of the
    predicate conjunction relative to the independence product — it
    models real-world predicate correlation that estimators miss.
    """

    table: str
    predicates: List[Predicate] = field(default_factory=list)
    correlation_factor: float = 1.0
    columns: Optional[List[str]] = None  # None = all columns

    def __post_init__(self) -> None:
        self.inputs = []
        for predicate in self.predicates:
            if predicate.table != self.table:
                raise PlanError(
                    f"predicate on {predicate.table!r} attached to scan of "
                    f"{self.table!r}")

    def tables(self) -> List[str]:
        return [self.table]


@dataclass
class LogicalJoin(LogicalNode):
    """Inner/semi/anti join of two subtrees along a join edge."""

    left: LogicalNode
    right: LogicalNode
    edge: JoinEdge
    kind: str = "inner"  # inner | semi | anti

    def __post_init__(self) -> None:
        if self.kind not in ("inner", "semi", "anti"):
            raise PlanError(f"unknown join kind {self.kind!r}")
        self.inputs = [self.left, self.right]


@dataclass
class LogicalGroupBy(LogicalNode):
    """Hash aggregation. Empty ``group_columns`` = aggregation to one row."""

    input: LogicalNode
    group_columns: List[Tuple[str, str]]  # (table, column) pairs
    aggregates: List[Aggregate]

    def __post_init__(self) -> None:
        if not self.aggregates and not self.group_columns:
            raise PlanError("group-by needs keys or aggregates")
        self.inputs = [self.input]


@dataclass
class LogicalSort(LogicalNode):
    """Full sort on one or more key columns."""

    input: LogicalNode
    keys: List[Tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.keys:
            raise PlanError("sort needs at least one key")
        self.inputs = [self.input]


@dataclass
class LogicalTopK(LogicalNode):
    """Sort + limit fused into a bounded heap."""

    input: LogicalNode
    keys: List[Tuple[str, str]]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PlanError("top-k needs k >= 1")
        if not self.keys:
            raise PlanError("top-k needs at least one key")
        self.inputs = [self.input]


@dataclass
class LogicalLimit(LogicalNode):
    input: LogicalNode
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PlanError("limit needs k >= 1")
        self.inputs = [self.input]


@dataclass
class LogicalProject(LogicalNode):
    """Column subset plus computed expressions."""

    input: LogicalNode
    columns: List[Tuple[str, str]]
    computed: List[ComputedColumn] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns and not self.computed:
            raise PlanError("projection must keep at least one column")
        self.inputs = [self.input]


@dataclass
class LogicalWindow(LogicalNode):
    """Window function (rank-style) over partitions."""

    input: LogicalNode
    partition_columns: List[Tuple[str, str]]
    order_columns: List[Tuple[str, str]]
    function: str = "rank"

    def __post_init__(self) -> None:
        if not self.order_columns:
            raise PlanError("window function needs an ordering")
        self.inputs = [self.input]


@dataclass
class LogicalDistinct(LogicalNode):
    input: LogicalNode
    columns: List[Tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.columns:
            raise PlanError("distinct needs at least one column")
        self.inputs = [self.input]


@dataclass
class LogicalUnion(LogicalNode):
    """Bag union (UNION ALL) of two compatible subtrees."""

    left: LogicalNode
    right: LogicalNode

    def __post_init__(self) -> None:
        self.inputs = [self.left, self.right]


def count_joins(plan: LogicalNode) -> int:
    """Number of join nodes in a logical plan (workload statistics)."""
    return sum(1 for node in plan.walk() if isinstance(node, LogicalJoin))
