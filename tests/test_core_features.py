"""Tests for the pipeline feature registry."""

import ast
import hashlib
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError
from repro.engine.cardinality import (
    DistortedCardinalityModel,
    EstimatedCardinalityModel,
    ExactCardinalityModel,
)
from repro.engine.expressions import (
    BetweenPredicate,
    ComparisonOp,
    ComparisonPredicate,
    InListPredicate,
)
from repro.engine.logical import LogicalJoin, LogicalScan
from repro.engine.optimizer import Optimizer
from repro.engine.pipelines import decompose_into_pipelines
from repro.engine.stages import OperatorType, Stage
from repro.core import features
from repro.core.features import FeatureRegistry, default_registry


@pytest.fixture(scope="module")
def registry():
    return FeatureRegistry()


@pytest.fixture(scope="module")
def toy():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


@pytest.fixture(scope="module")
def exact(toy):
    return ExactCardinalityModel(toy.catalog)


@pytest.fixture(scope="module")
def optimizer(toy):
    return Optimizer(toy.schema, toy.catalog)


class TestRegistryLayout:
    def test_feature_count_near_paper(self, registry):
        """The paper's implementation has 110 features; ours has 121
        (slightly different operator mix)."""
        assert 100 <= registry.n_features <= 140

    def test_paper_feature_names_exist(self, registry):
        """Names from Listings 3 and 4 of the paper."""
        for name in ("TableScan_Scan_count", "TableScan_Scan_in_card",
                     "TableScan_Scan_out_percentage",
                     "TableScan_Scan_expr_in_percentage",
                     "TableScan_Scan_expr_between_percentage",
                     "HashJoin_Build_count", "HashJoin_Build_in_card",
                     "HashJoin_Build_in_size", "HashJoin_Build_in_percentage",
                     "HashJoin_Probe_count", "HashJoin_Probe_in_card",
                     "HashJoin_Probe_right_percentage",
                     "HashJoin_Probe_out_percentage",
                     "GroupBy_Build_out_card", "GroupBy_Build_out_size",
                     "GroupBy_Build_in_percentage"):
            assert registry.index_of(name) >= 0

    def test_indices_are_dense_and_unique(self, registry):
        indices = [registry.index_of(n) for n in registry.feature_names()]
        assert sorted(indices) == list(range(registry.n_features))

    def test_unknown_feature(self, registry):
        with pytest.raises(FeatureError):
            registry.index_of("Bogus_Stage_thing")

    def test_default_registry_singleton(self):
        assert default_registry() is default_registry()

    def test_layout_is_pinned(self, registry):
        """Names and column order of the 121 features, as every saved
        model records them: a reordered declaration fails here, not
        only when an old model refuses to load."""
        names = registry.feature_names()
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert (len(names), digest) == (
            121, "7832e12e12d11d888c5a3d9a8dec6a73e1c709aebe9850b547b441ae7a6ac2d3")


class TestRegistryRefusesBadDeclarations:
    """Declarations the registry refuses at construction, so a bad
    table never featurizes a single plan."""

    @pytest.mark.parametrize("pair, suffixes, match", [
        ((OperatorType.TABLE_SCAN, Stage.BUILD), ("in_card",),
         r"\(TableScan, Build\)"),
        ((OperatorType.SORT, Stage.SCAN), ("in_card", "out_cardinality"),
         "out_cardinality"),
        ((OperatorType.FILTER, Stage.PASS_THROUGH),
         ("in_percentage", "expr_like_percentage"), "expr_like_percentage"),
        ((OperatorType.GROUP_BY, Stage.BUILD),
         ("in_percentage", "n_keys", "n_keys"), "GroupBy_Build_n_keys"),
    ], ids=["stage-no-operator-has", "feature-without-extractor",
            "expression-feature-outside-a-scan", "duplicate-feature"])
    def test_bad_declaration(self, monkeypatch, pair, suffixes, match):
        table = dict(features._STAGE_FEATURES)
        table[pair] = suffixes
        monkeypatch.setattr(features, "_STAGE_FEATURES", table)
        with pytest.raises(FeatureError, match=match):
            FeatureRegistry()

    def test_every_extractor_arm_is_declared(self):
        # The registry only asks for declared suffixes, so an arm for a
        # suffix no stage declares would be dead code nothing else sees.
        source = textwrap.dedent(
            inspect.getsource(FeatureRegistry._basic_feature_extractor))
        arms = {node.comparators[0].value
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "suffix"
                and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.Constant)}
        declared = {suffix for suffixes in features._STAGE_FEATURES.values()
                    for suffix in suffixes}
        assert "in_card" in arms
        assert arms <= declared, sorted(arms - declared)


class TestScanVectors:
    def test_simple_scan(self, registry, exact, optimizer, toy):
        plan = optimizer.optimize(LogicalScan("orders"))
        pipeline = decompose_into_pipelines(plan)[0]
        vector = registry.vector_for_pipeline(pipeline, exact)
        assert vector[registry.index_of("TableScan_Scan_count")] == 1
        assert vector[registry.index_of("TableScan_Scan_in_card")] == \
            toy.catalog.row_count("orders")
        assert vector[registry.index_of("TableScan_Scan_out_percentage")] == 1.0

    def test_expression_class_percentages(self, registry, exact, optimizer):
        predicates = [
            BetweenPredicate("orders", "o_total", 1, 5000),     # sel 0.5
            InListPredicate("orders", "o_total", [1, 2, 3]),
        ]
        plan = optimizer.optimize(LogicalScan("orders", predicates))
        pipeline = decompose_into_pipelines(plan)[0]
        vector = registry.vector_for_pipeline(pipeline, exact)
        between = vector[registry.index_of(
            "TableScan_Scan_expr_between_percentage")]
        in_list = vector[registry.index_of(
            "TableScan_Scan_expr_in_percentage")]
        # Most selective first (the IN list), then BETWEEN on survivors.
        assert in_list == pytest.approx(1.0)
        assert between < 0.01

    def test_selective_scan_out_percentage(self, registry, exact, optimizer):
        plan = optimizer.optimize(LogicalScan("orders", [
            ComparisonPredicate("orders", "o_total", ComparisonOp.LE, 1000)]))
        pipeline = decompose_into_pipelines(plan)[0]
        vector = registry.vector_for_pipeline(pipeline, exact)
        assert vector[registry.index_of(
            "TableScan_Scan_out_percentage")] == pytest.approx(0.1, abs=0.01)


class TestJoinVectors:
    def test_probe_features(self, registry, exact, optimizer, toy):
        logical = LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"),
            toy.schema.edge_between("customer", "orders"))
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        probe_vector = registry.vector_for_pipeline(pipelines[1], exact)
        state = probe_vector[registry.index_of("HashJoin_Probe_in_card")]
        assert state == toy.catalog.row_count("customer")
        assert probe_vector[registry.index_of(
            "HashJoin_Probe_right_percentage")] == pytest.approx(1.0)

    def test_duplicate_probes_sum(self, registry, exact, optimizer, toy):
        """Two probes in one pipeline: counts and percentages add
        (the paper's Listing 4 'feature addition')."""
        inner = LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"),
            toy.schema.edge_between("customer", "orders"))
        logical = LogicalJoin(LogicalScan("item"), inner,
                              toy.schema.edge_between("item", "orders"))
        plan = optimizer.optimize(logical)
        pipelines = decompose_into_pipelines(plan)
        final = registry.vector_for_pipeline(pipelines[-1], exact)
        count = final[registry.index_of("HashJoin_Probe_count")]
        right = final[registry.index_of("HashJoin_Probe_right_percentage")]
        assert count == 2
        assert right > 1.0  # expected probes per tuple > 100 %


class TestWholePlansAndModels:
    def test_vectors_for_plan_shapes(self, registry, exact, toy_workload):
        for query in toy_workload[:20]:
            vectors, cards = registry.vectors_for_plan(query.plan, exact)
            assert vectors.shape == (query.n_pipelines, registry.n_features)
            assert (cards >= 0).all()

    def test_all_vectors_finite_nonnegative(self, registry, exact,
                                            toy_workload):
        for query in toy_workload:
            vectors, _ = registry.vectors_for_plan(query.plan, exact)
            assert np.isfinite(vectors).all()
            assert (vectors >= 0).all()

    def test_estimated_model_changes_vectors(self, registry, toy, optimizer):
        plan = optimizer.optimize(LogicalScan("customer", [
            ComparisonPredicate("customer", "c_nation", ComparisonOp.LE, 2)]))
        pipeline = decompose_into_pipelines(plan)[0]
        exact_vec = registry.vector_for_pipeline(
            pipeline, ExactCardinalityModel(toy.catalog))
        estimated_vec = registry.vector_for_pipeline(
            pipeline, EstimatedCardinalityModel(toy.catalog))
        # Zipf column: uniformity assumption gets the selectivity wrong.
        index = registry.index_of("TableScan_Scan_out_percentage")
        assert exact_vec[index] != pytest.approx(estimated_vec[index])

    def test_distorted_model_works_for_features(self, registry, toy,
                                                optimizer):
        logical = LogicalJoin(
            LogicalScan("customer"), LogicalScan("orders"),
            toy.schema.edge_between("customer", "orders"))
        plan = optimizer.optimize(logical)
        model = DistortedCardinalityModel(
            ExactCardinalityModel(toy.catalog), 100.0, seed=1)
        for pipeline in decompose_into_pipelines(plan):
            vector = registry.vector_for_pipeline(pipeline, model)
            assert np.isfinite(vector).all()

    def test_describe_vector(self, registry, exact, optimizer):
        plan = optimizer.optimize(LogicalScan("orders"))
        pipeline = decompose_into_pipelines(plan)[0]
        text = registry.describe_vector(
            registry.vector_for_pipeline(pipeline, exact))
        assert "TableScan_Scan_count: 1" in text
        assert "HashJoin" not in text  # zeros omitted, like the listings


class TestMatrixDirectFeaturization:
    """fill_matrix / fill_pipeline_row (the batch path build_dataset
    uses) must agree exactly with the one-pipeline-at-a-time path."""

    def test_fill_matrix_matches_per_pipeline_vectors(self, registry, exact,
                                                      toy_workload):
        for query in toy_workload[:20]:
            pipelines = decompose_into_pipelines(query.plan)
            out = np.zeros((len(pipelines), registry.n_features))
            cards = np.empty(len(pipelines))
            registry.fill_matrix(pipelines, exact, out, cards)
            for i, pipeline in enumerate(pipelines):
                assert np.array_equal(
                    out[i], registry.vector_for_pipeline(pipeline, exact))

    def test_fill_pipeline_row_returns_input_cardinality(self, registry,
                                                         exact, optimizer):
        plan = optimizer.optimize(LogicalScan("orders"))
        pipeline = decompose_into_pipelines(plan)[0]
        row = np.zeros(registry.n_features)
        card = registry.fill_pipeline_row(pipeline, exact, row)
        index = registry.index_of("TableScan_Scan_in_card")
        assert row[index] == card > 0

    def test_fill_matrix_rejects_wrong_shape(self, registry, exact,
                                             toy_workload):
        from repro.errors import SchemaError
        pipelines = decompose_into_pipelines(toy_workload[0].plan)
        bad = np.zeros((len(pipelines), registry.n_features + 1))
        with pytest.raises(SchemaError):
            registry.fill_matrix(pipelines, exact, bad)
