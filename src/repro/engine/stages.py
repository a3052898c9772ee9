"""Operator stages — the unit T3's features are attached to.

Section 3 of the paper distinguishes four stages (Figure 4):

* **Build** — tuples enter and are materialized (hash-table build,
  aggregation, sort input, ...). Always a pipeline breaker.
* **Probe** — tuples from the second (right) input probe materialized
  state and continue.
* **Scan** — the operator produces tuples (table scan, or scanning
  previously materialized state). Always a pipeline source.
* **Pass-through** — tuples enter and leave (filter, map, ...).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Tuple

from ..errors import PlanError


class Stage(Enum):
    BUILD = "Build"
    PROBE = "Probe"
    SCAN = "Scan"
    PASS_THROUGH = "PassThrough"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==``. It runs in C; ``Enum.__hash__`` is a Python
    # call on every dict or set lookup of the featurize path. Nothing
    # iterates a set of members, so no order depends on the hash.
    __hash__ = object.__hash__


class OperatorType(Enum):
    """The 19 physical operators of the engine."""

    TABLE_SCAN = "TableScan"
    FILTER = "Filter"
    MAP = "Map"
    HASH_JOIN = "HashJoin"
    SEMI_JOIN = "SemiJoin"
    ANTI_JOIN = "AntiJoin"
    INDEX_NL_JOIN = "IndexNLJoin"
    BNL_JOIN = "BNLJoin"
    CROSS_PRODUCT = "CrossProduct"
    GROUP_BY = "GroupBy"
    SIMPLE_AGG = "SimpleAgg"
    SORT = "Sort"
    TOP_K = "TopK"
    LIMIT = "Limit"
    WINDOW = "Window"
    DISTINCT = "Distinct"
    MATERIALIZE = "Materialize"
    UNION = "Union"
    ASSERT_SINGLE = "AssertSingle"

    __hash__ = object.__hash__      # C-level, as for :class:`Stage`


#: Stage structure of every operator. Binary operators list BUILD before
#: PROBE; materializing unary operators list BUILD before SCAN.
OPERATOR_STAGES: Dict[OperatorType, Tuple[Stage, ...]] = {
    OperatorType.TABLE_SCAN: (Stage.SCAN,),
    OperatorType.FILTER: (Stage.PASS_THROUGH,),
    OperatorType.MAP: (Stage.PASS_THROUGH,),
    OperatorType.HASH_JOIN: (Stage.BUILD, Stage.PROBE),
    OperatorType.SEMI_JOIN: (Stage.BUILD, Stage.PROBE),
    OperatorType.ANTI_JOIN: (Stage.BUILD, Stage.PROBE),
    OperatorType.INDEX_NL_JOIN: (Stage.PASS_THROUGH,),
    OperatorType.BNL_JOIN: (Stage.BUILD, Stage.PROBE),
    OperatorType.CROSS_PRODUCT: (Stage.BUILD, Stage.PROBE),
    OperatorType.GROUP_BY: (Stage.BUILD, Stage.SCAN),
    OperatorType.SIMPLE_AGG: (Stage.BUILD, Stage.SCAN),
    OperatorType.SORT: (Stage.BUILD, Stage.SCAN),
    OperatorType.TOP_K: (Stage.BUILD, Stage.SCAN),
    OperatorType.LIMIT: (Stage.PASS_THROUGH,),
    OperatorType.WINDOW: (Stage.BUILD, Stage.SCAN),
    OperatorType.DISTINCT: (Stage.BUILD, Stage.SCAN),
    OperatorType.MATERIALIZE: (Stage.BUILD, Stage.SCAN),
    OperatorType.UNION: (Stage.BUILD, Stage.SCAN),
    OperatorType.ASSERT_SINGLE: (Stage.PASS_THROUGH,),
}

#: Operators with two input pipelines (left builds, right probes).
#: IndexNLJoin is *not* here: it probes a base-table index directly and
#: has a single input pipeline (pass-through stage).
BINARY_OPERATORS = frozenset({
    OperatorType.HASH_JOIN, OperatorType.SEMI_JOIN, OperatorType.ANTI_JOIN,
    OperatorType.BNL_JOIN, OperatorType.CROSS_PRODUCT, OperatorType.UNION,
})

#: Unary operators that fully materialize their input (pipeline breakers
#: that start a fresh pipeline with their SCAN stage).
MATERIALIZING_OPERATORS = frozenset({
    OperatorType.GROUP_BY, OperatorType.SIMPLE_AGG, OperatorType.SORT,
    OperatorType.TOP_K, OperatorType.WINDOW, OperatorType.DISTINCT,
    OperatorType.MATERIALIZE,
})


def operator_stages(op_type: OperatorType) -> Tuple[Stage, ...]:
    try:
        return OPERATOR_STAGES[op_type]
    except KeyError:
        raise PlanError(f"unknown operator type {op_type!r}") from None


def all_operator_stage_pairs() -> List[Tuple[OperatorType, Stage]]:
    """Every (operator, stage) combination, in stable definition order."""
    pairs: List[Tuple[OperatorType, Stage]] = []
    for op_type in OperatorType:
        for stage in OPERATOR_STAGES[op_type]:
            pairs.append((op_type, stage))
    return pairs
