"""Tests for pipeline decomposition and stage flows."""

import numpy as np
import pytest

from repro.core.features import default_registry
from repro.engine import physical
from repro.engine.cardinality import ExactCardinalityModel
from repro.engine.expressions import (
    Aggregate,
    AggregateFunction,
    ComparisonOp,
    ComparisonPredicate,
    ComputedColumn,
)
from repro.engine.logical import (
    LogicalDistinct,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopK,
    LogicalUnion,
)
from repro.engine.optimizer import Optimizer, OptimizerConfig
from repro.engine.physical import (
    PAssertSingle,
    PFilter,
    PhysicalPlan,
    PMaterialize,
    PSimpleAgg,
)
from repro.engine.pipelines import (
    compute_stage_flows,
    decompose_into_pipelines,
    pipeline_input_cardinality,
)
from repro.engine.stages import (
    BINARY_OPERATORS,
    MATERIALIZING_OPERATORS,
    OPERATOR_STAGES,
    OperatorType,
    Stage,
    all_operator_stage_pairs,
)
from tests import test_engine_exotic_operators as exotic


@pytest.fixture
def optimizer(toy_instance):
    return Optimizer(toy_instance.schema, toy_instance.catalog,
                     OptimizerConfig(enable_small_table_elimination=False,
                                     enable_index_nl_join=False))


@pytest.fixture
def exact(toy_instance):
    return ExactCardinalityModel(toy_instance.catalog)


def _join_groupby_plan(schema):
    edge = schema.edge_between("customer", "orders")
    return LogicalGroupBy(
        LogicalJoin(
            LogicalScan("customer", [ComparisonPredicate(
                "customer", "c_nation", ComparisonOp.LE, 5)]),
            LogicalScan("orders"),
            edge),
        [("customer", "c_nation")],
        [Aggregate(AggregateFunction.COUNT)])


class TestDecomposition:
    def test_scan_only_is_one_pipeline(self, optimizer):
        plan = optimizer.optimize(LogicalScan("orders"))
        pipelines = decompose_into_pipelines(plan)
        assert len(pipelines) == 1
        assert pipelines[0].stages[0].stage is Stage.SCAN

    def test_join_groupby_pipeline_count(self, optimizer, toy_instance):
        logical = _join_groupby_plan(toy_instance.schema)
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        # build side, probe side (ends in group build), group scan
        assert len(pipelines) == 3

    def test_pipelines_start_with_scan(self, optimizer, toy_workload):
        for query in toy_workload:
            for pipeline in decompose_into_pipelines(query.plan):
                assert pipeline.stages[0].stage is Stage.SCAN

    def test_builds_terminate_pipelines(self, toy_workload):
        for query in toy_workload:
            for pipeline in decompose_into_pipelines(query.plan):
                for ref in pipeline.stages[:-1]:
                    assert ref.stage is not Stage.BUILD

    def test_each_stage_appears_exactly_once(self, toy_workload):
        """Every operator stage of the plan occurs in exactly one pipeline."""
        for query in toy_workload:
            seen = {}
            for pipeline in decompose_into_pipelines(query.plan):
                for ref in pipeline.stages:
                    key = (id(ref.operator), ref.stage)
                    seen[key] = seen.get(key, 0) + 1
            assert all(count == 1 for count in seen.values())

    def test_dependencies_come_first(self, toy_workload):
        """A materializing op's BUILD pipeline precedes its SCAN/PROBE."""
        for query in toy_workload:
            built = set()
            for pipeline in decompose_into_pipelines(query.plan):
                for ref in pipeline.stages:
                    if ref.stage in (Stage.PROBE,):
                        assert id(ref.operator) in built
                    if (ref.stage is Stage.SCAN
                            and ref.operator.op_type
                            is not OperatorType.TABLE_SCAN):
                        assert id(ref.operator) in built
                for ref in pipeline.stages:
                    if ref.stage is Stage.BUILD:
                        built.add(id(ref.operator))

    def test_union_produces_three_pipelines(self, optimizer):
        logical = LogicalUnion(LogicalScan("orders"), LogicalScan("orders"))
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        assert len(pipelines) == 3  # two builds + scan

    def test_label_rendering(self, optimizer):
        plan = optimizer.optimize(LogicalScan("orders"))
        pipeline = decompose_into_pipelines(plan)[0]
        assert pipeline.label() == "TableScan_Scan"


class TestStageFlows:
    def test_tablescan_flow(self, optimizer, exact, toy_instance):
        logical = LogicalScan("orders", [ComparisonPredicate(
            "orders", "o_total", ComparisonOp.LE, 5000)])
        plan = optimizer.optimize(logical)
        pipeline = decompose_into_pipelines(plan)[0]
        flows = compute_stage_flows(pipeline, exact)
        n_orders = toy_instance.catalog.row_count("orders")
        assert flows[0].tuples_in == n_orders
        assert flows[0].tuples_out == pytest.approx(n_orders / 2, rel=0.01)
        assert pipeline_input_cardinality(pipeline, exact) == n_orders

    def test_flow_conservation(self, exact, toy_workload, toy_instance):
        """Tuples flowing into a stage equal the previous stage's output."""
        model = ExactCardinalityModel(toy_instance.catalog)
        for query in toy_workload:
            for pipeline in decompose_into_pipelines(query.plan):
                flows = compute_stage_flows(pipeline, model)
                for previous, current in zip(flows, flows[1:]):
                    assert current.tuples_in == pytest.approx(
                        previous.tuples_out)

    def test_limit_caps_flow(self, optimizer, exact):
        logical = LogicalLimit(
            LogicalSort(LogicalScan("orders"), [("orders", "o_total")]), 10)
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        final = compute_stage_flows(pipelines[-1], exact)
        assert final[-1].tuples_out <= 10

    def test_topk_materializes_k(self, optimizer, exact):
        logical = LogicalTopK(LogicalScan("orders"), [("orders", "o_total")],
                              k=25)
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        build_flow = compute_stage_flows(pipelines[0], exact)[-1]
        assert build_flow.ref.stage is Stage.BUILD
        assert build_flow.materialized_cardinality == 25


def _plans_with_every_operator(toy_instance, toy_workload):
    """The toy workload's plans, the exotic-operator plans, and one
    small plan per operator neither holds."""
    schema = toy_instance.schema
    optimizer = Optimizer(schema, toy_instance.catalog)
    edge = schema.edge_between("customer", "orders")
    by_total = [("orders", "o_total")]
    logical = [
        LogicalSort(LogicalScan("orders"), by_total),
        LogicalDistinct(LogicalScan("orders"), by_total),
        LogicalUnion(LogicalScan("orders"), LogicalScan("orders")),
        LogicalProject(LogicalScan("orders"), by_total,
                       [ComputedColumn("doubled", ["o_total"], 1)]),
        LogicalJoin(LogicalScan("customer"), LogicalScan("orders"), edge,
                    kind="semi"),
        LogicalJoin(LogicalScan("customer"), LogicalScan("orders"), edge,
                    kind="anti"),
    ]
    orders = exotic._scan(toy_instance, "orders")
    item = exotic._scan(toy_instance, "item")
    roots = [
        PFilter(orders, [ComparisonPredicate(
            "orders", "o_total", ComparisonOp.LE, 5000)]),
        PMaterialize(item),
        PAssertSingle(PSimpleAgg(item, [Aggregate(AggregateFunction.COUNT)],
                                 [("#computed", "agg_0")], 8)),
    ]
    return ([query.plan for query in toy_workload]
            + [optimizer.optimize(node) for node in logical]
            + [PhysicalPlan(root, schema.name, "exotic") for root in roots]
            + [exotic.TestCrossProduct()._plan(toy_instance),
               exotic.TestBNLJoin()._plan(toy_instance)])


class TestStageInventory:
    def test_19_operators(self):
        assert len(OperatorType) == 19

    def test_decomposer_emits_the_declared_stages(self, toy_instance,
                                                  toy_workload):
        """The stage table, the physical classes and the decomposer
        agree on every operator type the engine has."""
        classes = {obj.op_type for obj in vars(physical).values()
                   if isinstance(obj, type)
                   and issubclass(obj, physical.PhysicalOperator)
                   and hasattr(obj, "op_type")}
        assert classes == set(OperatorType)
        assert not BINARY_OPERATORS & MATERIALIZING_OPERATORS

        plans = _plans_with_every_operator(toy_instance, toy_workload)
        assert {op.op_type for plan in plans
                for op in plan.root.walk()} == set(OperatorType)
        exact = ExactCardinalityModel(toy_instance.catalog)
        for plan in plans:
            emitted = {id(op): [] for op in plan.root.walk()}
            for pipeline in decompose_into_pipelines(plan):
                for op, stage in pipeline.stages:
                    if stage not in emitted[id(op)]:
                        emitted[id(op)].append(stage)
            for op in plan.root.walk():
                assert tuple(emitted[id(op)]) == OPERATOR_STAGES[op.op_type], (
                    op.op_type)
            # Every stage the decomposer emits can be featurized, probes
            # included (a probe needs a build side to read its state).
            vectors, _ = default_registry().vectors_for_plan(plan, exact)
            assert np.isfinite(vectors).all()

    def test_32_operator_stages(self):
        # The paper's Umbra implementation has 28 stages over its 19
        # operators; this engine's operator mix yields 32.
        assert len(all_operator_stage_pairs()) == 32
