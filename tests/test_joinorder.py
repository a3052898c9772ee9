"""Tests for join graphs, DPsize, and the T3 join cost model."""

import gc
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.engine.logical import LogicalGroupBy, LogicalJoin, LogicalScan
from repro.engine.expressions import Aggregate, AggregateFunction
from repro.datagen.instances import get_instance
from repro.datagen.benchmarks_job import job_queries
from repro.joinorder import (
    CoutJoinCost,
    GraphEdge,
    JoinGraph,
    Relation,
    T3JoinCost,
    dpsize,
    greedy_order,
    join_tree_tables,
)
from repro.joinorder import joingraph as joingraph_module
from repro.joinorder.dpsize import tree_to_logical
from repro.core.features import FeatureRegistry, default_registry
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


@pytest.fixture(scope="module")
def compiled_model(toy_workload):
    from repro.core.model import T3Config, T3Model
    from repro.trees.boosting import BoostingParams
    model = T3Model.train(
        toy_workload, T3Config(boosting=BoostingParams(n_rounds=20)))
    if not model.is_compiled:
        pytest.skip("no C compiler available")
    return model


def _toy_graph(toy_instance):
    logical = LogicalGroupBy(
        LogicalJoin(
            LogicalJoin(LogicalScan("orders"), LogicalScan("customer"),
                        toy_instance.schema.edge_between("orders", "customer")),
            LogicalScan("item"),
            toy_instance.schema.edge_between("orders", "item")),
        [], [Aggregate(AggregateFunction.COUNT)])
    return JoinGraph.from_logical(logical, toy_instance.catalog)


@st.composite
def _graphs_with_masks(draw):
    """A small random join graph, two disjoint relation subsets, and a
    set of edge positions to delete later."""
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1])
    edges = draw(st.lists(pairs, max_size=12)) if n > 1 else []
    owners = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    mask_a = sum(1 << i for i, owner in enumerate(owners) if owner == 1)
    mask_b = sum(1 << i for i, owner in enumerate(owners) if owner == 2)
    removed = (draw(st.sets(st.integers(0, len(edges) - 1)))
               if edges else set())
    graph = JoinGraph(
        [Relation(i, f"t{i}", None, 1.0, 1.0) for i in range(n)],
        [GraphEdge(left, right, None, 0.5) for left, right in edges])
    return graph, mask_a, mask_b, removed


def _edge_scan_connected(graph, mask_a, mask_b):
    """Connectivity by a plain scan over the graph's current edges."""
    return any((mask_a >> e.left & 1 and mask_b >> e.right & 1)
               or (mask_a >> e.right & 1 and mask_b >> e.left & 1)
               for e in graph.edges)


class TestJoinGraph:
    @settings(max_examples=300, deadline=None)
    @given(_graphs_with_masks())
    def test_connected_matches_edge_scan(self, case):
        graph, mask_a, mask_b, removed = case
        for a, b in ((mask_a, mask_b), (mask_b, mask_a)):
            assert graph.connected(a, b) == _edge_scan_connected(graph, a, b)
        # Edges deleted after construction, and after the neighbour
        # masks were first built, must no longer connect anything.
        for position in sorted(removed, reverse=True):
            del graph.edges[position]
        for a, b in ((mask_a, mask_b), (mask_b, mask_a)):
            assert graph.connected(a, b) == _edge_scan_connected(graph, a, b)

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

    def test_cardinality_follows_edge_changes(self, toy_instance):
        graph = _toy_graph(toy_instance)
        full = (1 << 3) - 1
        joined = graph.cardinality(full)
        graph.edges.clear()
        edgeless = JoinGraph(graph.relations, [])
        assert graph.cardinality(full) == edgeless.cardinality(full)
        assert graph.cardinality(full) != joined
        assert graph.cardinalities([0b011, full]) == \
            edgeless.cardinalities([0b011, full])

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

    def test_cost_model_call_ratio(self, job_graphs, imdb, toy_workload):
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
        t3 = dpsize(graph, T3JoinCost(model.predict_raw_one, model.registry,
                                      imdb.catalog))
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


@dataclass
class DPState:
    """The cost-model state of one DP entry, as a single object.

    ``comparison_cost`` orders candidate plans. The T3 model
    additionally carries the open pipeline's feature vector and the cost
    of all already-completed pipelines. The level loop keeps the same
    fields per entry id in parallel arrays (:class:`T3JoinCost`); this
    form is what the one-combination-at-a-time references cost with.
    """

    comparison_cost: float
    completed_cost: float = 0.0
    open_vector: Optional[np.ndarray] = None
    open_start: float = 1.0


class _PerPairReference:
    """The T3 cost model costed one combination at a time: the reference.

    Two predictor calls per combination, one per leaf, each on its own
    ``ndarray.copy()``; leaf vectors are the graph's leaf rows under the
    cost model's registry and catalog, so the comparison isolates the
    batching.
    """

    def __init__(self, cost: T3JoinCost, predict_raw_one):
        self.cost = cost
        self.predict = predict_raw_one
        self.model_calls = 0

    def _pipeline_time(self, vector, start):
        self.model_calls += 1
        return float(inverse_transform(self.predict(vector))) * max(start, 1.0)

    def leaf(self, graph, relation):
        vector = graph.leaf_rows(self.cost.registry,
                                 self.cost.catalog)[relation.index]
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


class _PerPairCout:
    """C_out costed one combination at a time: the reference."""

    def __init__(self):
        self.model_calls = 0

    def leaf(self, graph, relation):
        return DPState(comparison_cost=0.0)

    def combine(self, left, right, left_card, right_card, out_card):
        self.model_calls += 1
        return DPState(comparison_cost=out_card + left.comparison_cost
                       + right.comparison_cost)


def _per_pair_dpsize(graph, cost):
    """DPsize costing one combination at a time: (tree, cost)."""
    n = graph.n_relations
    table = {}
    by_size = [[] for _ in range(n + 1)]
    for relation in graph.relations:
        mask = 1 << relation.index
        table[mask] = (relation.index, cost.leaf(graph, relation),
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


class TestEntryIdDPsize:
    """DPsize on entry ids against the per-pair references."""

    @pytest.fixture(scope="class")
    def all_job_graphs(self, imdb):
        return [JoinGraph.from_logical(logical, imdb.catalog)
                for _, logical in job_queries(imdb)]

    def test_cout_matches_per_pair(self, all_job_graphs):
        # C_out is symmetric, so every (T1, T2)/(T2, T1) pair ties: equal
        # trees pin the first-strictly-cheaper tie-break and the
        # first-appearance order of each size's entries.
        assert len(all_job_graphs) == 113
        for graph in all_job_graphs:
            batched = dpsize(graph, CoutJoinCost())
            reference = _PerPairCout()
            tree, cost = _per_pair_dpsize(graph, reference)
            assert batched.tree == tree
            assert batched.cost == cost
            assert batched.model_calls == reference.model_calls

    def test_t3_keeps_state_for_winners_only(self, all_job_graphs, imdb):
        for graph in all_job_graphs:
            cost = T3JoinCost(lambda x: float(np.log1p(x[:16].sum())),
                              default_registry(), imdb.catalog)
            result = dpsize(graph, cost)
            # One stored open row per subset, not one per candidate.
            assert cost._size == result.n_entries


class TestLeafRowMemo:
    """Each relation's scan is featurized once per graph, per registry
    and catalog, and every later DPsize run on the graph reuses it."""

    @pytest.fixture
    def fresh_graphs(self, imdb):
        # Built per test: the memo starts empty on every graph.
        return [JoinGraph.from_logical(logical, imdb.catalog)
                for _, logical in job_queries(imdb)]

    @pytest.fixture
    def featurizations(self, monkeypatch):
        calls = []
        original = FeatureRegistry.vector_for_pipeline

        def counted(registry, pipeline, model):
            calls.append(registry)
            return original(registry, pipeline, model)

        monkeypatch.setattr(FeatureRegistry, "vector_for_pipeline", counted)
        return calls

    def _run(self, graph, model, registry, catalog):
        native = model._compiled
        before = native.ffi_calls
        result = dpsize(graph, T3JoinCost(model.predict_raw_one, registry,
                                          catalog))
        return result, native.ffi_calls - before

    def test_second_run_featurizes_nothing(self, fresh_graphs, imdb,
                                           compiled_model, featurizations):
        assert len(fresh_graphs) == 113
        registry = compiled_model.registry
        for graph in fresh_graphs:
            # The first run on a graph featurizes inside dpsize.
            featurizations.clear()
            first, first_native = self._run(graph, compiled_model, registry,
                                            imdb.catalog)
            assert len(featurizations) == graph.n_relations
            featurizations.clear()
            second, second_native = self._run(graph, compiled_model,
                                              registry, imdb.catalog)
            assert featurizations == []
            assert second.tree == first.tree
            assert second.cost == first.cost      # bit-identical
            assert second.model_calls == first.model_calls
            assert second_native == first_native

    def test_registries_do_not_share_rows(self, fresh_graphs, imdb,
                                          compiled_model, featurizations):
        other = FeatureRegistry()
        assert other is not compiled_model.registry
        for graph in fresh_graphs:
            first, _ = self._run(graph, compiled_model,
                                 compiled_model.registry, imdb.catalog)
            featurizations.clear()
            second, _ = self._run(graph, compiled_model, other, imdb.catalog)
            assert featurizations == [other] * graph.n_relations
            ours = graph.leaf_rows(compiled_model.registry, imdb.catalog)
            theirs = graph.leaf_rows(other, imdb.catalog)
            assert theirs is not ours
            assert np.array_equal(theirs, ours)   # same layout, same rows
            assert (second.tree, second.cost) == (first.tree, first.cost)

    def test_memo_pins_its_registry(self, imdb):
        # A registry that only the memo still references stays alive, so
        # its id cannot be recycled for a registry that would then read
        # its rows; it is released with the graph.
        _, logical = job_queries(imdb)[0]
        graph = JoinGraph.from_logical(logical, imdb.catalog)
        registry = FeatureRegistry()
        alive = weakref.ref(registry)
        graph.leaf_rows(registry, imdb.catalog)
        del registry
        gc.collect()
        assert alive() is not None
        del graph
        gc.collect()
        assert alive() is None

    def test_stored_rows_are_read_only(self, fresh_graphs, imdb):
        registry = default_registry()
        for graph in fresh_graphs:
            rows = graph.leaf_rows(registry, imdb.catalog)
            assert rows.shape == (graph.n_relations, registry.n_features)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0


def _is_connected(graph):
    """Connectivity of the whole graph by a plain search over its edges."""
    reached, frontier = {0}, [0]
    while frontier:
        index = frontier.pop()
        for e in graph.edges:
            for a, b in ((e.left, e.right), (e.right, e.left)):
                if a == index and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return len(reached) == graph.n_relations


def _connected_subset_count(graph):
    """Connected relation subsets, counted one mask at a time: the number
    of DP entries."""
    count = 0
    for mask in range(1, 1 << graph.n_relations):
        members = [i for i in range(graph.n_relations) if mask >> i & 1]
        sub = JoinGraph([graph.relations[i] for i in members],
                        [replace(e, left=members.index(e.left),
                                 right=members.index(e.right))
                         for e in graph.edges
                         if mask >> e.left & 1 and mask >> e.right & 1])
        count += _is_connected(sub)
    return count


def _outcome(result):
    return (result.tree, result.cost, result.model_calls, result.n_entries,
            result.cardinality)


class TestDPLevelMemo:
    """DPsize's candidate levels are enumerated once per graph; every
    later run on the graph only costs the stored levels."""

    @pytest.fixture
    def fresh_graphs(self, imdb):
        # Built per test: no graph has stored levels yet.
        return [JoinGraph.from_logical(logical, imdb.catalog)
                for _, logical in job_queries(imdb)]

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"cardinalities": 0, "enumerations": 0}
        cardinalities = JoinGraph.cardinalities
        enumerate_levels = joingraph_module._enumerate_levels

        def counted_cardinalities(graph, masks):
            counts["cardinalities"] += 1
            return cardinalities(graph, masks)

        def counted_enumeration(graph):
            counts["enumerations"] += 1
            return enumerate_levels(graph)

        monkeypatch.setattr(JoinGraph, "cardinalities",
                            counted_cardinalities)
        monkeypatch.setattr(joingraph_module, "_enumerate_levels",
                            counted_enumeration)
        return counts

    def test_warm_run_enumerates_nothing(self, fresh_graphs, imdb,
                                         compiled_model, counts):
        assert len(fresh_graphs) == 113
        native = compiled_model._compiled
        registry = compiled_model.registry
        predict = compiled_model.predict_raw_one

        def runs(graph):
            before = native.ffi_calls
            t3 = dpsize(graph, T3JoinCost(predict, registry, imdb.catalog))
            t3_native = native.ffi_calls - before
            return t3, t3_native, dpsize(graph, CoutJoinCost())

        for graph in fresh_graphs:
            counts.update(cardinalities=0, enumerations=0)
            first_t3, first_native, first_cout = runs(graph)
            assert counts["enumerations"] == 1
            counts.update(cardinalities=0, enumerations=0)
            second_t3, second_native, second_cout = runs(graph)
            assert counts == {"cardinalities": 0, "enumerations": 0}
            assert _outcome(second_t3) == _outcome(first_t3)   # bit-equal
            assert _outcome(second_cout) == _outcome(first_cout)
            assert second_native == first_native

            t3_reference = _PerPairReference(
                T3JoinCost(predict, registry, imdb.catalog), predict)
            assert (second_t3.tree, second_t3.cost) == _per_pair_dpsize(
                graph, t3_reference)
            assert second_t3.model_calls == t3_reference.model_calls
            cout_reference = _PerPairCout()
            assert (second_cout.tree, second_cout.cost) == _per_pair_dpsize(
                graph, cout_reference)
            assert second_cout.model_calls == cout_reference.model_calls
            assert second_t3.n_entries == second_cout.n_entries == \
                _connected_subset_count(graph)
            assert second_cout.cardinality == \
                graph.cardinality((1 << graph.n_relations) - 1)

    @settings(max_examples=200, deadline=None)
    @given(_graphs_with_masks())
    def test_random_graphs_twice_then_edited(self, case):
        graph, _, _, removed = case

        def check(graph):
            if not _is_connected(graph):
                for _ in range(3):
                    with pytest.raises(PlanError):
                        dpsize(graph, CoutJoinCost())
                assert graph._levels is None
                return
            first = dpsize(graph, CoutJoinCost())
            second = dpsize(graph, CoutJoinCost())
            reference = _PerPairCout()
            tree, cost = _per_pair_dpsize(graph, reference)
            for result in (first, second):
                assert (result.tree, result.cost) == (tree, cost)
                assert result.model_calls == reference.model_calls
                assert result.n_entries == _connected_subset_count(graph)

        check(graph)
        # Deleting edges drops the stored levels: the next run equals a
        # freshly built graph's.
        for position in sorted(removed, reverse=True):
            del graph.edges[position]
        check(graph)
        fresh = JoinGraph(graph.relations, list(graph.edges))
        if _is_connected(graph):
            assert _outcome(dpsize(graph, CoutJoinCost())) == \
                _outcome(dpsize(fresh, CoutJoinCost()))

    def _assert_like_fresh(self, graph, imdb):
        fresh = JoinGraph(graph.relations, list(graph.edges))
        for factory in (CoutJoinCost, lambda: T3JoinCost(
                lambda x: float(np.log1p(x[:16].sum())),
                default_registry(), imdb.catalog)):
            assert _outcome(dpsize(graph, factory())) == \
                _outcome(dpsize(fresh, factory()))

    def test_edge_edits_drop_the_levels(self, fresh_graphs, imdb):
        graphs = [graph for graph in fresh_graphs if graph.n_relations >= 3]
        for graph in graphs[::4]:
            dpsize(graph, CoutJoinCost())
            stored = graph.dp_levels()
            assert graph.dp_levels() is stored
            # Appended: a second path between two relations.
            adjacent = {(e.left, e.right) for e in graph.edges}
            a, b = next((a, b) for a in range(graph.n_relations)
                        for b in range(a + 1, graph.n_relations)
                        if (a, b) not in adjacent and (b, a) not in adjacent)
            graph.edges.append(replace(graph.edges[0], left=a, right=b,
                                       selectivity=1e-3))
            self._assert_like_fresh(graph, imdb)
            assert graph.dp_levels() is not stored
            # Replaced in place and as a whole list.
            graph.edges[0] = replace(graph.edges[0], selectivity=0.5)
            self._assert_like_fresh(graph, imdb)
            graph.edges = graph.edges[1:] + graph.edges[:1]
            self._assert_like_fresh(graph, imdb)
            # Cleared: disconnected, on every call, with nothing stored.
            graph.edges.clear()
            for _ in range(3):
                for cost in (CoutJoinCost(), T3JoinCost(
                        lambda x: 0.0, default_registry(), imdb.catalog)):
                    with pytest.raises(PlanError):
                        dpsize(graph, cost)
                assert graph._levels is None
