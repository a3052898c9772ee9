"""Tests for join graphs, DPsize, and the T3 join cost model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import PlanError
from repro.engine.logical import LogicalGroupBy, LogicalJoin, LogicalScan
from repro.engine.expressions import Aggregate, AggregateFunction
from repro.datagen.instances import get_instance
from repro.datagen.benchmarks_job import job_queries
from repro.joinorder import (
    CoutJoinCost,
    JoinGraph,
    T3JoinCost,
    dpsize,
    greedy_order,
    join_tree_tables,
)
from repro.joinorder.costmodels import DPState
from repro.joinorder.dpsize import tree_to_logical
from repro.core.targets import inverse_transform


@pytest.fixture(scope="module")
def imdb():
    return get_instance("imdb")


@pytest.fixture(scope="module")
def job_graphs(imdb):
    graphs = []
    for name, logical in job_queries(imdb)[:20]:
        graphs.append((name, JoinGraph.from_logical(logical, imdb.catalog)))
    return graphs


def _toy_graph(toy_instance):
    logical = LogicalGroupBy(
        LogicalJoin(
            LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                        toy_instance.schema.edge_between("orders", "customer")),
            LogicalScan("item"),
            toy_instance.schema.edge_between("orders", "item")),
        [], [Aggregate(AggregateFunction.COUNT)])
    return JoinGraph.from_logical(logical, toy_instance.catalog)


class TestJoinGraph:
    def test_extraction(self, toy_instance):
        graph = _toy_graph(toy_instance)
        assert graph.n_relations == 3
        assert len(graph.edges) == 2

    def test_cardinality_oracle_consistency(self, toy_instance):
        graph = _toy_graph(toy_instance)
        full = graph.cardinality((1 << 3) - 1)
        # orders joins both dims on fks: full result ~ |orders|
        assert full == pytest.approx(
            toy_instance.catalog.row_count("orders"), rel=0.05)

    def test_connectivity(self, toy_instance):
        graph = _toy_graph(toy_instance)
        orders_bit = 1 << 0
        assert graph.connected(orders_bit, 0b110)
        # customer and item only connect through orders.
        assert not graph.connected(0b010, 0b100)

    def test_semi_join_rejected(self, toy_instance):
        logical = LogicalJoin(
            LogicalScan("orders"), LogicalScan("customer"),
            toy_instance.schema.edge_between("orders", "customer"),
            kind="semi")
        with pytest.raises(PlanError):
            JoinGraph.from_logical(logical, toy_instance.catalog)

    def test_job_graphs_build(self, job_graphs):
        for name, graph in job_graphs:
            assert graph.n_relations >= 2
            assert graph.cardinality((1 << graph.n_relations) - 1) >= 0


class TestDPsize:
    def test_finds_connected_tree(self, toy_instance):
        graph = _toy_graph(toy_instance)
        result = dpsize(graph, CoutJoinCost())
        tables = join_tree_tables(result.tree, graph)
        assert sorted(tables) == ["customer", "item", "orders"]
        assert result.model_calls > 0

    def test_optimal_for_cout_on_chain(self, toy_instance):
        """DPsize must beat or match any fixed order under its own cost."""
        graph = _toy_graph(toy_instance)
        result = dpsize(graph, CoutJoinCost())
        # Exhaustive check over the 3-relation space: cost is minimal.
        assert result.cost <= graph.cardinality(0b111) + min(
            graph.cardinality(0b011), graph.cardinality(0b101))

    def test_cost_model_call_ratio(self, job_graphs, toy_workload):
        """T3 makes ~2 calls per combination vs 1 for C_out (Table 5)."""
        from repro.core.model import T3Model
        from repro.trees.boosting import BoostingParams
        from repro.core.model import T3Config
        model = T3Model.train(
            toy_workload,
            T3Config(boosting=BoostingParams(n_rounds=10),
                     compile_to_native=False))
        name, graph = job_graphs[0]
        cout = dpsize(graph, CoutJoinCost())
        t3 = dpsize(graph, T3JoinCost(model.predict_raw_one))
        # Leaves add n extra calls for T3; combinations cost 2x.
        assert t3.model_calls >= 2 * cout.model_calls
        assert t3.model_calls <= 2 * cout.model_calls + graph.n_relations

    def test_all_job_prefix_optimizes(self, job_graphs):
        for name, graph in job_graphs:
            result = dpsize(graph, CoutJoinCost())
            assert len(join_tree_tables(result.tree, graph)) == \
                graph.n_relations

    def test_tree_to_logical_roundtrip(self, toy_instance):
        graph = _toy_graph(toy_instance)
        result = dpsize(graph, CoutJoinCost())
        logical = tree_to_logical(result.tree, graph)
        rebuilt = JoinGraph.from_logical(logical, toy_instance.catalog)
        assert rebuilt.n_relations == graph.n_relations

    def test_disconnected_graph_rejected(self, toy_instance):
        graph = _toy_graph(toy_instance)
        graph.edges.clear()
        with pytest.raises(PlanError):
            dpsize(graph, CoutJoinCost())


class TestGreedy:
    def test_produces_full_tree(self, toy_instance):
        graph = _toy_graph(toy_instance)
        tree = greedy_order(graph, estimation_sigma=0.5, seed=1)
        assert sorted(join_tree_tables(tree, graph)) == [
            "customer", "item", "orders"]

    def test_perfect_estimates_match_dpsize_cost_class(self, job_graphs):
        """With sigma=0, greedy should find reasonable (not absurd) orders."""
        name, graph = job_graphs[0]
        tree = greedy_order(graph, estimation_sigma=0.0)
        assert len(join_tree_tables(tree, graph)) == graph.n_relations

    def test_deterministic(self, toy_instance):
        graph = _toy_graph(toy_instance)
        a = greedy_order(graph, estimation_sigma=0.7, seed=3)
        b = greedy_order(graph, estimation_sigma=0.7, seed=3)
        assert join_tree_tables(a, graph) == join_tree_tables(b, graph)


# ---------------------------------------------------------------------------
# Level-batched DPsize against the per-pair reference
# ---------------------------------------------------------------------------


class _PerPairReference:
    """The T3 cost model costed one combination at a time: the reference.

    Two predictor calls per combination, one per leaf, each on its own
    ``ndarray.copy()``; leaf vectors come from the cost model under test
    so the comparison isolates the batching.
    """

    def __init__(self, cost: T3JoinCost, predict_raw_one):
        self.cost = cost
        self.predict = predict_raw_one
        self.model_calls = 0

    def _pipeline_time(self, vector, start):
        self.model_calls += 1
        return float(inverse_transform(self.predict(vector))) * max(start, 1.0)

    def leaf(self, relation):
        vector = self.cost._leaf_vector(relation)
        return DPState(comparison_cost=self._pipeline_time(
                           vector, relation.base_rows),
                       open_vector=vector, open_start=relation.base_rows)

    def combine(self, left, right, left_card, right_card, out_card):
        c = self.cost
        build_vector = left.open_vector.copy()
        build_vector[c._build_count] += 1.0
        build_vector[c._build_card] += left_card
        build_vector[c._build_size] += 16.0
        build_vector[c._build_pct] += left_card / max(left.open_start, 1.0)
        build_time = self._pipeline_time(build_vector, left.open_start)

        probe_vector = right.open_vector.copy()
        probe_vector[c._probe_count] += 1.0
        probe_vector[c._probe_card] += left_card
        probe_vector[c._probe_size] += 16.0
        probe_vector[c._probe_right] += right_card / max(right.open_start, 1.0)
        probe_vector[c._probe_out] += out_card / max(right.open_start, 1.0)
        open_estimate = self._pipeline_time(probe_vector, right.open_start)

        completed = left.completed_cost + right.completed_cost + build_time
        return DPState(comparison_cost=completed + open_estimate,
                       completed_cost=completed,
                       open_vector=probe_vector,
                       open_start=right.open_start)


def _per_pair_dpsize(graph, cost):
    """DPsize costing one combination at a time: (tree, cost)."""
    n = graph.n_relations
    table = {}
    by_size = [[] for _ in range(n + 1)]
    for relation in graph.relations:
        mask = 1 << relation.index
        table[mask] = (relation.index, cost.leaf(relation),
                       relation.cardinality)
        by_size[1].append(mask)
    for size in range(2, n + 1):
        for left_size in range(1, size):
            for left_mask in by_size[left_size]:
                for right_mask in by_size[size - left_size]:
                    if left_mask & right_mask or not graph.connected(
                            left_mask, right_mask):
                        continue
                    combined = left_mask | right_mask
                    left_tree, left_state, left_card = table[left_mask]
                    right_tree, right_state, right_card = table[right_mask]
                    out_card = graph.cardinality(combined)
                    state = cost.combine(left_state, right_state,
                                         left_card, right_card, out_card)
                    existing = table.get(combined)
                    if (existing is None or state.comparison_cost
                            < existing[1].comparison_cost):
                        if existing is None:
                            by_size[size].append(combined)
                        table[combined] = ((left_tree, right_tree), state,
                                           out_card)
    tree, state, _ = table[(1 << n) - 1]
    return tree, state.comparison_cost


class TestLevelBatchedT3:
    @pytest.fixture(scope="class")
    def all_job_graphs(self, imdb):
        return [JoinGraph.from_logical(logical, imdb.catalog)
                for _, logical in job_queries(imdb)]

    @pytest.fixture(scope="class")
    def compiled_model(self, toy_workload):
        from repro.core.model import T3Config, T3Model
        from repro.trees.boosting import BoostingParams
        model = T3Model.train(
            toy_workload, T3Config(boosting=BoostingParams(n_rounds=20)))
        if not model.is_compiled:
            pytest.skip("no C compiler available")
        return model

    @pytest.fixture(scope="class")
    def interpreted_model(self, compiled_model):
        from repro.core.model import T3Model
        return T3Model(compiled_model.booster,
                       replace(compiled_model.config,
                               compile_to_native=False),
                       compiled_model.registry)

    def _assert_matches_per_pair(self, graphs, catalog, registry, predict):
        for graph in graphs:
            batched = dpsize(graph, T3JoinCost(predict, registry, catalog))
            reference = _PerPairReference(
                T3JoinCost(predict, registry, catalog), predict)
            tree, cost = _per_pair_dpsize(graph, reference)
            assert batched.tree == tree
            assert batched.cost == cost          # bit-identical, not approx
            assert batched.model_calls == reference.model_calls

    def test_compiled_matches_per_pair(self, all_job_graphs, imdb,
                                       compiled_model):
        assert len(all_job_graphs) == 113
        self._assert_matches_per_pair(all_job_graphs, imdb.catalog,
                                      compiled_model.registry,
                                      compiled_model.predict_raw_one)

    def test_interpreted_matches_per_pair(self, all_job_graphs, imdb,
                                          interpreted_model):
        assert not interpreted_model.is_compiled
        self._assert_matches_per_pair(all_job_graphs, imdb.catalog,
                                      interpreted_model.registry,
                                      interpreted_model.predict_raw_one)

    def test_per_row_callable_matches_per_pair(self, all_job_graphs, imdb,
                                               compiled_model):
        booster = compiled_model.booster
        self._assert_matches_per_pair(all_job_graphs, imdb.catalog,
                                      compiled_model.registry,
                                      lambda x: booster.predict_one(x))

    def test_one_native_call_per_level(self, all_job_graphs, imdb,
                                       compiled_model):
        native = compiled_model._compiled
        single = JoinGraph.from_logical(LogicalScan("title"), imdb.catalog)
        for graph in [single] + all_job_graphs:
            before = native.ffi_calls
            result = dpsize(graph, T3JoinCost(
                compiled_model.predict_raw_one, compiled_model.registry,
                imdb.catalog))
            # One call for the leaves plus one per level 2..n.
            assert native.ffi_calls - before <= graph.n_relations
            assert result.model_calls >= graph.n_relations

    def test_one_relation_graph(self, imdb, compiled_model):
        graph = JoinGraph.from_logical(LogicalScan("title"), imdb.catalog)
        predict = compiled_model.predict_raw_one
        result = dpsize(graph, T3JoinCost(predict, compiled_model.registry,
                                          imdb.catalog))
        reference = _PerPairReference(
            T3JoinCost(predict, compiled_model.registry, imdb.catalog),
            predict)
        assert (result.tree, result.cost) == _per_pair_dpsize(graph, reference)
        assert result.model_calls == reference.model_calls == 1
        assert dpsize(graph, CoutJoinCost()).model_calls == 0
