"""Tests for exact / estimated / distorted cardinality models."""

import numpy as np
import pytest

from repro.engine.cardinality import (
    DistortedCardinalityModel,
    EstimatedCardinalityModel,
    ExactCardinalityModel,
    cardenas,
)
from repro.engine.expressions import (
    Aggregate,
    AggregateFunction,
    ComparisonOp,
    ComparisonPredicate,
)
from repro.engine.logical import (
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalScan,
    LogicalSort,
)
from repro.engine.optimizer import Optimizer, OptimizerConfig
from repro.engine.physical import PFilter


@pytest.fixture
def optimizer(toy_instance):
    return Optimizer(toy_instance.schema, toy_instance.catalog,
                     OptimizerConfig(enable_small_table_elimination=False,
                                     enable_index_nl_join=False))


@pytest.fixture
def exact(toy_instance):
    return ExactCardinalityModel(toy_instance.catalog)


@pytest.fixture
def estimated(toy_instance):
    return EstimatedCardinalityModel(toy_instance.catalog)


def _edge(toy_instance, left, right):
    return toy_instance.schema.edge_between(left, right)


class TestCardenas:
    def test_small_cases(self):
        assert cardenas(1, 100) == 1.0
        assert cardenas(10, 0) == 0.0
        # With n >> d, nearly all distinct values appear.
        assert cardenas(10, 10_000) == pytest.approx(10.0, rel=1e-3)

    def test_monotone_in_rows(self):
        values = [cardenas(1000, n) for n in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounded_by_distinct(self):
        assert cardenas(50, 10_000) <= 50.0


class TestScans:
    def test_unfiltered_scan(self, optimizer, exact, toy_instance):
        plan = optimizer.optimize(LogicalScan("orders"))
        assert exact.output_cardinality(plan.root) == \
            toy_instance.catalog.row_count("orders")

    def test_filter_selectivity(self, optimizer, exact):
        plan = optimizer.optimize(LogicalScan("orders", [
            ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 1000)]))
        assert exact.output_cardinality(plan.root) == pytest.approx(
            5000, rel=0.02)

    def test_correlation_factor_applies_to_truth_only(
            self, optimizer, exact, estimated):
        predicates = [
            ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 5000),
            ComparisonPredicate("orders", "o_date", ComparisonOp.LE, 9000)]
        correlated = optimizer.optimize(
            LogicalScan("orders", predicates, correlation_factor=1.8))
        independent = optimizer.optimize(
            LogicalScan("orders", predicates, correlation_factor=1.0))
        assert exact.output_cardinality(correlated.root) == pytest.approx(
            1.8 * exact.output_cardinality(independent.root))
        assert estimated.output_cardinality(correlated.root) == pytest.approx(
            estimated.output_cardinality(independent.root))


class TestJoins:
    def test_fk_join_preserves_fact_side(self, optimizer, exact,
                                         toy_instance):
        logical = LogicalJoin(LogicalScan("customer"), LogicalScan("orders"),
                              _edge(toy_instance, "customer", "orders"))
        plan = optimizer.optimize(logical)
        n_orders = toy_instance.catalog.row_count("orders")
        assert exact.output_cardinality(plan.root) == pytest.approx(
            n_orders, rel=0.01)

    def test_filtered_dimension_scales_join(self, optimizer, exact,
                                            toy_instance):
        filtered = LogicalScan("customer", [ComparisonPredicate(
            "customer", "c_balance", ComparisonOp.LE, 4500)])
        logical = LogicalJoin(filtered, LogicalScan("orders"),
                              _edge(toy_instance, "customer", "orders"))
        plan = optimizer.optimize(logical)
        n_orders = toy_instance.catalog.row_count("orders")
        assert exact.output_cardinality(plan.root) == pytest.approx(
            n_orders / 2, rel=0.05)

    def test_semi_join_bounded_by_probe(self, optimizer, exact, toy_instance):
        logical = LogicalJoin(LogicalScan("customer"), LogicalScan("orders"),
                              _edge(toy_instance, "customer", "orders"),
                              kind="semi")
        plan = optimizer.optimize(logical)
        n_orders = toy_instance.catalog.row_count("orders")
        semi = exact.output_cardinality(plan.root)
        assert 0 < semi <= n_orders

    def test_anti_join_complements_semi(self, optimizer, exact, toy_instance):
        """semi(probe) + anti(probe) must equal the probe cardinality."""
        edge = _edge(toy_instance, "customer", "orders")
        semi = optimizer.optimize(LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"), edge, kind="semi"))
        anti = optimizer.optimize(LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"), edge, kind="anti"))
        total = (exact.output_cardinality(semi.root)
                 + exact.output_cardinality(anti.root))
        probe = exact.output_cardinality(semi.root.probe_child)
        assert total == pytest.approx(probe, rel=0.01)

    def test_estimated_misses_fanout(self, toy_instance, optimizer,
                                     estimated, exact):
        edge = _edge(toy_instance, "customer", "orders")
        fanned = type(edge)(edge.left_table, edge.left_column,
                            edge.right_table, edge.right_column, fanout=3.0)
        logical = LogicalJoin(LogicalScan("customer"), LogicalScan("orders"),
                              fanned)
        plan = optimizer.optimize(logical)
        assert exact.output_cardinality(plan.root) > \
            1.5 * estimated.output_cardinality(plan.root)


class TestAggregatesAndLimits:
    def test_group_count_respects_domain_filter(self, optimizer, exact):
        logical = LogicalGroupBy(
            LogicalScan("customer", [ComparisonPredicate(
                "customer", "c_nation", ComparisonOp.LE, 5)]),
            [("customer", "c_nation")],
            [Aggregate(AggregateFunction.COUNT)])
        plan = optimizer.optimize(logical)
        assert exact.output_cardinality(plan.root) == pytest.approx(6, abs=1)

    def test_simple_agg_is_one(self, optimizer, exact):
        logical = LogicalGroupBy(LogicalScan("orders"), [],
                                 [Aggregate(AggregateFunction.COUNT)])
        plan = optimizer.optimize(logical)
        assert exact.output_cardinality(plan.root) == 1.0

    def test_limit_caps(self, optimizer, exact):
        logical = LogicalLimit(
            LogicalSort(LogicalScan("orders"), [("orders", "o_total")]), 7)
        plan = optimizer.optimize(logical)
        assert exact.output_cardinality(plan.root) == 7.0

    def test_memoization_reset(self, optimizer, exact):
        plan = optimizer.optimize(LogicalScan("orders"))
        first = exact.output_cardinality(plan.root)
        exact.reset()
        assert exact.output_cardinality(plan.root) == first


class _OutOfRange(ExactCardinalityModel):
    """An estimator whose raw numbers leave their ranges: every
    predicate selects ``selectivity`` and every join fans out by
    ``fanout``."""

    def __init__(self, catalog, selectivity, fanout=1.0):
        super().__init__(catalog)
        self.selectivity = selectivity
        self.fanout = fanout

    def _predicate_selectivity(self, predicate):
        return self.selectivity

    def _join_fanout(self, fanout):
        return self.fanout


class TestClamps:
    """Raw estimates outside their ranges never reach a feature: every
    selectivity is a fraction, a filter never adds tuples, and no
    cardinality is negative."""

    _PREDICATES = [
        ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 5000),
        ComparisonPredicate("orders", "o_cust", ComparisonOp.GE, 10),
    ]

    @pytest.mark.parametrize("raw", [-0.5, 0.25, 3.0])
    def test_selectivities_are_fractions(self, optimizer, toy_instance, raw):
        model = _OutOfRange(toy_instance.catalog, raw)
        assert 0.0 <= model.predicate_selectivity(self._PREDICATES[0]) <= 1.0
        scan = optimizer.optimize(LogicalScan("orders", self._PREDICATES)).root
        assert 0.0 <= model.output_cardinality(scan) \
            <= model.base_cardinality(scan)

    @pytest.mark.parametrize("raw", [0.25, 3.0])
    def test_filter_never_adds_tuples(self, optimizer, toy_instance, raw):
        model = _OutOfRange(toy_instance.catalog, raw)
        scan = optimizer.optimize(LogicalScan("orders")).root
        kept = model.output_cardinality(PFilter(scan, self._PREDICATES))
        expected = min(raw, 1.0) ** 2 * model.output_cardinality(scan)
        assert kept == pytest.approx(expected)

    def test_negative_join_estimate_reads_zero(self, optimizer,
                                               toy_instance):
        model = _OutOfRange(toy_instance.catalog, 1.0, fanout=-1.0)
        plan = optimizer.optimize(LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"),
            _edge(toy_instance, "customer", "orders")))
        assert model.output_cardinality(plan.root) == 0.0


class TestDistorted:
    def test_identity_at_factor_one(self, optimizer, exact, toy_instance):
        plan = optimizer.optimize(LogicalScan("orders", [ComparisonPredicate(
            "orders", "o_total", ComparisonOp.LE, 1000)]))
        distorted = DistortedCardinalityModel(
            ExactCardinalityModel(toy_instance.catalog), 1.0)
        assert distorted.output_cardinality(plan.root) == pytest.approx(
            exact.output_cardinality(plan.root))

    def test_distortion_within_bounds(self, optimizer, toy_instance):
        plan = optimizer.optimize(LogicalScan("orders", [ComparisonPredicate(
            "orders", "o_total", ComparisonOp.LE, 1000)]))
        base = ExactCardinalityModel(toy_instance.catalog)
        truth = base.output_cardinality(plan.root)
        for factor in (2.0, 10.0, 100.0):
            distorted = DistortedCardinalityModel(
                ExactCardinalityModel(toy_instance.catalog), factor, seed=1)
            value = distorted.output_cardinality(plan.root)
            assert truth / factor <= value <= truth * factor

    def test_base_tables_not_distorted(self, optimizer, toy_instance):
        plan = optimizer.optimize(LogicalScan("orders"))
        distorted = DistortedCardinalityModel(
            ExactCardinalityModel(toy_instance.catalog), 1000.0, seed=2)
        assert distorted.output_cardinality(plan.root) == \
            toy_instance.catalog.row_count("orders")

    def test_deterministic_per_seed(self, optimizer, toy_instance):
        plan = optimizer.optimize(LogicalScan("orders", [ComparisonPredicate(
            "orders", "o_total", ComparisonOp.LE, 1000)]))
        values = []
        for _ in range(2):
            model = DistortedCardinalityModel(
                ExactCardinalityModel(toy_instance.catalog), 10.0, seed=5)
            values.append(model.output_cardinality(plan.root))
        assert values[0] == values[1]

    def test_invalid_factor(self, toy_instance):
        from repro.errors import CardinalityError
        with pytest.raises(CardinalityError):
            DistortedCardinalityModel(
                ExactCardinalityModel(toy_instance.catalog), 0.5)


class TestMemoLifetime:
    """The memo is keyed by ``id(op)``; it must therefore keep each
    memoized operator alive. If it did not, a discarded candidate
    operator's id could be recycled by a later allocation and the memo
    would serve the dead operator's cardinality for the new one — stale
    hits whose occurrence depends on allocation history, which made
    plans differ between processes (caught by a bit-identity check of
    a process-pool corpus build against a serial one)."""

    def test_memo_pins_operators(self, exact, optimizer):
        import gc
        import weakref

        plan = optimizer.optimize(LogicalScan("orders"))
        exact.output_cardinality(plan.root)
        ref = weakref.ref(plan.root)
        del plan
        gc.collect()
        assert ref() is not None, "memoized operator must stay pinned"
        exact.reset()
        gc.collect()
        assert ref() is None

    def test_memo_hit_returns_same_value(self, exact, optimizer):
        plan = optimizer.optimize(LogicalScan("orders"))
        first = exact.output_cardinality(plan.root)
        assert exact.output_cardinality(plan.root) == first
