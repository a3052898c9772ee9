"""Tests for the rule-based optimizer."""

import gc
import weakref

import pytest

from repro.engine.cardinality import EstimatedCardinalityModel, ExactCardinalityModel
from repro.engine.expressions import (
    Aggregate,
    AggregateFunction,
    BetweenPredicate,
    ComparisonOp,
    ComparisonPredicate,
    ComputedColumn,
    InListPredicate,
)
from repro.engine.logical import (
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.engine.optimizer import COMPUTED, Optimizer, OptimizerConfig
from repro.engine.physical import (
    PGroupBy,
    PHashJoin,
    PMap,
    PSimpleAgg,
    PTableScan,
    PTopK,
)
from repro.datagen.instances import get_instance


@pytest.fixture
def optimizer(toy_instance):
    return Optimizer(toy_instance.schema, toy_instance.catalog)


def _edge(instance, left, right):
    return instance.schema.edge_between(left, right)


class TestScanLowering:
    def test_projection_pushdown_narrows_scan(self, optimizer, toy_instance):
        logical = LogicalProject(LogicalScan("orders"),
                                 [("orders", "o_total")])
        plan = optimizer.optimize(logical)
        scan = plan.root
        assert isinstance(scan, PTableScan)
        full_width = toy_instance.schema.table("orders").row_byte_width
        assert scan.scan_byte_width < full_width
        assert scan.output_columns == [("orders", "o_total")]

    def test_predicates_ordered_by_selectivity(self, optimizer):
        weak = ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 9900)
        strong = ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 100)
        plan = optimizer.optimize(LogicalScan("orders", [weak, strong]))
        assert plan.root.predicates[0] is strong

    def test_unprojected_scan_keeps_all_columns(self, optimizer,
                                                toy_instance):
        plan = optimizer.optimize(LogicalScan("orders"))
        assert len(plan.root.output_columns) == len(
            toy_instance.schema.table("orders").columns)


class TestJoins:
    def test_build_side_is_smaller_input(self, optimizer, toy_instance):
        logical = LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                              _edge(toy_instance, "orders", "customer"))
        plan = optimizer.optimize(logical)
        join = plan.root
        assert isinstance(join, PHashJoin)
        estimator = EstimatedCardinalityModel(toy_instance.catalog)
        assert (estimator.output_cardinality(join.build_child)
                <= estimator.output_cardinality(join.probe_child))

    def test_small_table_elimination_creates_in_predicates(self):
        """The paper's TPC-H Q5 nation/region pattern (Listing 3)."""
        instance = get_instance("tpch_sf1")
        optimizer = Optimizer(instance.schema, instance.catalog)
        nation = LogicalScan("nation")
        customer = LogicalScan("customer")
        logical = LogicalJoin(customer, nation,
                              _edge(instance, "customer", "nation"))
        plan = optimizer.optimize(logical)
        scan = plan.root
        assert isinstance(scan, PTableScan)
        assert scan.table == "customer"
        kinds = {type(p) for p in scan.predicates}
        assert InListPredicate in kinds

    def test_filtered_small_table_restricts_keys(self):
        instance = get_instance("tpch_sf1")
        # Threshold of 10 rows: only region (5 rows) is eliminable.
        optimizer = Optimizer(instance.schema, instance.catalog,
                              OptimizerConfig(small_table_threshold=10))
        region = LogicalScan("region", [ComparisonPredicate(
            "region", "r_regionkey", ComparisonOp.LE, 1)])
        nation = LogicalScan("nation")
        logical = LogicalJoin(nation, region,
                              _edge(instance, "nation", "region"))
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PTableScan)
        assert plan.root.table == "nation"
        in_predicates = [p for p in plan.root.predicates
                         if isinstance(p, InListPredicate)]
        assert in_predicates and len(in_predicates[0].values) <= 2

    def test_elimination_disabled_by_config(self):
        instance = get_instance("tpch_sf1")
        optimizer = Optimizer(instance.schema, instance.catalog,
                              OptimizerConfig(
                                  enable_small_table_elimination=False))
        logical = LogicalJoin(LogicalScan("customer"), LogicalScan("nation"),
                              _edge(instance, "customer", "nation"))
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PHashJoin)

    def test_elimination_blocked_when_columns_needed(self):
        """nation.n_name used upstream: the join must survive."""
        instance = get_instance("tpch_sf1")
        optimizer = Optimizer(instance.schema, instance.catalog)
        logical = LogicalGroupBy(
            LogicalJoin(LogicalScan("customer"), LogicalScan("nation"),
                        _edge(instance, "customer", "nation")),
            [("nation", "n_name")],
            [Aggregate(AggregateFunction.COUNT)])
        plan = optimizer.optimize(logical)
        joins = [op for op in plan.root.walk() if isinstance(op, PHashJoin)]
        assert joins


class TestAggregationAndSort:
    def test_groupby_vs_simple_agg(self, optimizer):
        grouped = optimizer.optimize(LogicalGroupBy(
            LogicalScan("orders"), [("orders", "o_status")],
            [Aggregate(AggregateFunction.COUNT)]))
        assert isinstance(grouped.root, PGroupBy)
        simple = optimizer.optimize(LogicalGroupBy(
            LogicalScan("orders"), [], [Aggregate(AggregateFunction.COUNT)]))
        assert isinstance(simple.root, PSimpleAgg)

    def test_sort_limit_fused_to_topk(self, optimizer):
        logical = LogicalLimit(
            LogicalSort(LogicalScan("orders"), [("orders", "o_total")]), 5)
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PTopK)
        assert plan.root.k == 5

    def test_projection_with_computed_becomes_map(self, optimizer):
        logical = LogicalProject(
            LogicalScan("orders"), [("orders", "o_id")],
            [ComputedColumn("rev", ["orders.o_total"], n_operations=2)])
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PMap)
        assert (COMPUTED, "rev") in plan.root.output_columns

    def test_pure_projection_free(self, optimizer):
        logical = LogicalProject(LogicalScan("orders"),
                                 [("orders", "o_id")])
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PTableScan)


class TestPlanMetadata:
    def test_node_ids_assigned(self, optimizer, toy_instance):
        logical = LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                              _edge(toy_instance, "orders", "customer"))
        plan = optimizer.optimize(logical, "named")
        ids = [op.node_id for op in plan.root.walk()]
        assert ids == sorted(set(ids))
        assert plan.query_name == "named"
        assert plan.database == "toy"

    def test_base_tables(self, optimizer, toy_instance):
        logical = LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                              _edge(toy_instance, "orders", "customer"))
        plan = optimizer.optimize(logical)
        assert set(plan.base_tables()) == {"orders", "customer"}


class TestObjectLifetime:
    def test_optimizer_pins_no_plan(self, optimizer, toy_instance):
        """The estimator memo lives for one ``optimize()`` call: once the
        caller drops a plan, none of its operators survive, even while
        the optimizer that built it is still alive."""
        logical = LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                              _edge(toy_instance, "orders", "customer"))
        plan = optimizer.optimize(logical)
        assert isinstance(plan.root, PHashJoin)   # children were estimated
        refs = [weakref.ref(op) for op in plan.root.walk()]
        root = refs[0]
        assert root() is plan.root
        del plan
        gc.collect()
        assert root() is None
        assert [ref() for ref in refs] == [None] * len(refs)
