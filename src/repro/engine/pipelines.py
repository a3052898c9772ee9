"""Pipeline decomposition of physical plans (Section 2.2).

A *pipeline* is the path between two pipeline breakers: it scans some
input (a base table or previously materialized state), pushes tuples
through pass-through and probe stages, and ends by materializing —
into a hash table, an aggregate, a sort buffer, or the query result.

:func:`decompose_into_pipelines` produces pipelines in valid execution
order (all pipelines a pipeline depends on come first). Given a
cardinality model, :func:`compute_stage_flows` derives the tuple flow
through each stage — the quantities T3's features and the execution
simulator are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

from ..errors import PlanError
from .cardinality import CardinalityModel
from .physical import (
    PCrossProduct,
    PGroupBy,
    PhysicalOperator,
    PhysicalPlan,
    PSimpleAgg,
    PTableScan,
    PTopK,
    _JoinBase,
)
from .stages import (
    BINARY_OPERATORS,
    MATERIALIZING_OPERATORS,
    OperatorType,
    Stage,
)


class StageRef(NamedTuple):
    """One operator stage occurring in a pipeline.

    Stage records are named tuples, not dataclasses: a plan builds a
    dozen or more of them per featurization, and a tuple is the
    cheapest immutable record Python constructs.
    """

    operator: PhysicalOperator
    stage: Stage

    def label(self) -> str:
        """Paper-style stage name, e.g. ``HashJoin_Probe``."""
        return f"{self.operator.op_type.value}_{self.stage.value}"


@dataclass
class Pipeline:
    """An ordered sequence of stage references, source first."""

    index: int
    stages: List[StageRef]

    def __post_init__(self) -> None:
        if not self.stages:
            raise PlanError("a pipeline needs at least one stage")
        first = self.stages[0].stage
        if first not in (Stage.SCAN,):
            raise PlanError(f"pipeline must start with a scan, got {first}")

    @property
    def source(self) -> StageRef:
        return self.stages[0]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def label(self) -> str:
        return " -> ".join(ref.label() for ref in self.stages)


def decompose_into_pipelines(plan: PhysicalPlan) -> List[Pipeline]:
    """Split a physical plan into its pipelines, dependencies first."""
    completed: List[List[StageRef]] = []

    def visit(op: PhysicalOperator) -> List[StageRef]:
        """Return the open pipeline flowing out of ``op``."""
        op_type = op.op_type
        if op_type is OperatorType.TABLE_SCAN:
            return [StageRef(op, Stage.SCAN)]
        if op_type in BINARY_OPERATORS and op_type is not OperatorType.UNION:
            left_open = visit(op.children[0])
            left_open.append(StageRef(op, Stage.BUILD))
            completed.append(left_open)
            right_open = visit(op.children[1])
            right_open.append(StageRef(op, Stage.PROBE))
            return right_open
        if op_type is OperatorType.UNION:
            for child in op.children:
                child_open = visit(child)
                child_open.append(StageRef(op, Stage.BUILD))
                completed.append(child_open)
            return [StageRef(op, Stage.SCAN)]
        if op_type in MATERIALIZING_OPERATORS:
            child_open = visit(op.children[0])
            child_open.append(StageRef(op, Stage.BUILD))
            completed.append(child_open)
            return [StageRef(op, Stage.SCAN)]
        if op_type is OperatorType.INDEX_NL_JOIN or len(op.children) == 1:
            child_open = visit(op.children[0])
            child_open.append(StageRef(op, Stage.PASS_THROUGH))
            return child_open
        raise PlanError(f"cannot decompose operator {op_type}")

    final_open = visit(plan.root)
    completed.append(final_open)
    return [Pipeline(index, stages) for index, stages in enumerate(completed)]


class StageFlow(NamedTuple):
    """Tuple flow through one stage of one pipeline.

    Attributes
    ----------
    tuples_in:
        Tuples arriving at the stage from the pipeline's stream.
    tuples_out:
        Tuples the stage pushes onward (0 for terminal builds).
    state_cardinality:
        For probe stages: entries in the materialized state being probed.
    materialized_cardinality:
        For build stages: entries this stage materializes.
    stored_byte_width:
        Bytes per materialized tuple (builds) or scanned tuple (scans).
    """

    ref: StageRef
    tuples_in: float
    tuples_out: float
    state_cardinality: float = 0.0
    materialized_cardinality: float = 0.0
    stored_byte_width: int = 0


def pipeline_input_cardinality(pipeline: Pipeline,
                               model: CardinalityModel) -> float:
    """Tuples scanned at the start of the pipeline (the T3 multiplier)."""
    source = pipeline.source
    op = source.operator
    if isinstance(op, PTableScan):
        return model.base_cardinality(op)
    return model.output_cardinality(op)


def compute_stage_flows(pipeline: Pipeline,
                        model: CardinalityModel) -> List[StageFlow]:
    """Derive the tuple flow of every stage in a pipeline."""
    flows: List[StageFlow] = []
    current = 0.0
    cardinality = model.output_cardinality
    for ref in pipeline.stages:
        op, stage = ref
        # StageFlow fields, positionally: ref, tuples_in, tuples_out,
        # state_cardinality, materialized_cardinality, stored_byte_width.
        if stage is Stage.SCAN:
            if isinstance(op, PTableScan):
                tuples_in = model.base_cardinality(op)
                width = op.scan_byte_width
            else:
                tuples_in = cardinality(op)
                width = getattr(op, "stored_byte_width", op.output_byte_width)
            tuples_out = cardinality(op)
            flows.append(StageFlow(ref, tuples_in, tuples_out, 0.0, 0.0,
                                   width))
            current = tuples_out
        elif stage is Stage.PASS_THROUGH:
            tuples_out = cardinality(op)
            flows.append(StageFlow(ref, current, tuples_out))
            current = tuples_out
        elif stage is Stage.PROBE:
            if isinstance(op, (PCrossProduct, _JoinBase)):
                state = cardinality(op.build_child)
            else:
                raise PlanError(f"probe stage on non-join {op.op_type}")
            tuples_out = cardinality(op)
            flows.append(StageFlow(ref, current, tuples_out, state, 0.0,
                                   getattr(op, "stored_byte_width", 0)))
            current = tuples_out
        elif stage is Stage.BUILD:
            materialized = _materialized_count(op, current, model)
            flows.append(StageFlow(
                ref, current, 0.0, 0.0, materialized,
                getattr(op, "stored_byte_width", op.output_byte_width)))
            current = 0.0
        else:  # pragma: no cover - enum is exhaustive
            raise PlanError(f"unknown stage {stage}")
    return flows


def _materialized_count(op: PhysicalOperator, arriving: float,
                        model: CardinalityModel) -> float:
    """How many entries a build stage materializes."""
    if isinstance(op, (PGroupBy,)):
        return model.output_cardinality(op)
    if isinstance(op, PSimpleAgg):
        return 1.0
    if isinstance(op, PTopK):
        return min(arriving, float(op.k))
    if op.op_type is OperatorType.DISTINCT:
        return model.output_cardinality(op)
    # Join builds, sort, window, materialize, union: store what arrives.
    return arriving


def count_pipelines(plan: PhysicalPlan) -> int:
    return len(decompose_into_pipelines(plan))
