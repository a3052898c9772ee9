"""Tests for target transformation and dataset assembly."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrainingError
from repro.core.targets import (
    MAX_TUPLE_TIME,
    MIN_TUPLE_TIME,
    inverse_transform,
    transform_target,
    tuple_time_target,
)
from repro.core.ablation import TargetMode, training_matrices, transform_absolute
from repro.core.dataset import (
    CardinalityKind,
    build_dataset,
    cardinality_model_for,
    split_by_family,
)
from repro.core.features import FeatureRegistry
from repro.experiments.cache import DiskCache


class TestTargets:
    def test_roundtrip(self):
        times = np.array([1e-12, 1e-6, 1e-3, 1.0])
        assert np.allclose(inverse_transform(transform_target(times)), times)

    def test_clamping(self):
        assert transform_target(0.0) == transform_target(MIN_TUPLE_TIME)
        assert transform_target(1e9) == transform_target(MAX_TUPLE_TIME)
        # The bounds keep -log(t) finite for any time, zero and
        # overflow included.
        assert np.isfinite(transform_target([0.0, 5e-324, np.inf])).all()

    def test_tuple_time(self):
        assert tuple_time_target(2.0, 1000) == pytest.approx(0.002)
        # Cardinality below one is floored to one.
        assert tuple_time_target(2.0, 0.0) == pytest.approx(2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(TrainingError):
            tuple_time_target(-1.0, 10)

    @given(st.floats(min_value=1e-15, max_value=10.0))
    def test_property_transform_monotone_decreasing(self, t):
        assert transform_target(t) >= transform_target(min(t * 2, 10.0)) - 1e-9

    @given(st.floats(min_value=1e-14, max_value=9.0))
    def test_property_roundtrip(self, t):
        assert inverse_transform(transform_target(t)) == pytest.approx(
            t, rel=1e-9)


class TestDataset:
    def test_shapes(self, toy_workload):
        dataset = build_dataset(toy_workload)
        total_pipelines = sum(q.n_pipelines for q in toy_workload)
        assert dataset.X.shape[0] == total_pipelines
        assert dataset.y.shape == (total_pipelines,)
        assert dataset.n_queries == len(toy_workload)

    def test_query_index_maps_back(self, toy_workload):
        dataset = build_dataset(toy_workload)
        for position, query in enumerate(dataset.queries):
            rows = dataset.rows_of_query(position)
            assert len(rows) == query.n_pipelines

    def test_pipeline_times_sum_to_query_times(self, toy_workload):
        dataset = build_dataset(toy_workload)
        totals = np.zeros(dataset.n_queries)
        np.add.at(totals, dataset.query_index, dataset.pipeline_times)
        # Medians per pipeline vs median of sums: close but not equal.
        assert np.allclose(totals, dataset.query_times(), rtol=0.2)

    def test_n_runs_restriction_changes_targets(self, toy_workload):
        full = build_dataset(toy_workload)
        single = build_dataset(toy_workload, n_runs=1)
        assert not np.allclose(full.pipeline_times, single.pipeline_times)

    def test_estimated_kind_changes_features(self, toy_workload):
        exact = build_dataset(toy_workload, kind=CardinalityKind.EXACT)
        estimated = build_dataset(toy_workload,
                                  kind=CardinalityKind.ESTIMATED)
        assert not np.allclose(exact.X, estimated.X)

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            build_dataset([])

    def test_cardinality_model_factory(self, toy_workload):
        query = toy_workload[0]
        # Toy instances are not in the corpus registry, so the factory
        # must be tested via corpus queries.
        from repro.datagen.workload import WorkloadBuilder, WorkloadConfig
        from repro.datagen.instances import get_instance
        corpus_query = WorkloadBuilder(
            get_instance("financial"),
            WorkloadConfig(queries_per_structure=1,
                           include_fixed_benchmarks=False)).build()[0]
        exact = cardinality_model_for(corpus_query, CardinalityKind.EXACT)
        distorted = cardinality_model_for(corpus_query, CardinalityKind.EXACT,
                                          distortion=10.0)
        root = corpus_query.plan.root
        assert exact.output_cardinality(root) >= 0
        assert distorted.output_cardinality(root) >= 0


class TestPickling:
    """The experiment cache pickles datasets, and a dataset carries its
    registry, whose stage plans hold extractor closures."""

    def test_registry_and_dataset_round_trip(self, toy_workload, tmp_path):
        queries = toy_workload[:6]
        registry = FeatureRegistry()
        dataset = build_dataset(queries, registry=registry)
        copied = pickle.loads(pickle.dumps(registry))
        DiskCache(tmp_path).get_or_build("dataset", lambda: dataset)
        cached = DiskCache(tmp_path).get_or_build(
            "dataset", lambda: pytest.fail("cache entry was not written"))
        for other in (copied, pickle.loads(pickle.dumps(dataset)).registry,
                      cached.registry):
            assert other.feature_names() == registry.feature_names()
            for query in queries:
                model = cardinality_model_for(query)
                expected = registry.vectors_for_plan(query.plan, model)
                actual = other.vectors_for_plan(query.plan, model)
                for want, got in zip(expected, actual):
                    assert want.tobytes() == got.tobytes()
        assert cached.X.tobytes() == dataset.X.tobytes()
        assert cached.y.tobytes() == dataset.y.tobytes()


class TestTargetModes:
    def test_per_tuple_is_default_dataset_targets(self, toy_workload):
        dataset = build_dataset(toy_workload)
        X, y = training_matrices(dataset, TargetMode.PER_TUPLE)
        assert X is dataset.X and y is dataset.y

    def test_per_pipeline_targets_absolute(self, toy_workload):
        dataset = build_dataset(toy_workload)
        _, y = training_matrices(dataset, TargetMode.PER_PIPELINE)
        assert np.allclose(y, transform_absolute(dataset.pipeline_times))

    def test_per_query_sums_vectors(self, toy_workload):
        dataset = build_dataset(toy_workload)
        X, y = training_matrices(dataset, TargetMode.PER_QUERY)
        assert X.shape == (dataset.n_queries, dataset.X.shape[1])
        assert np.allclose(X.sum(axis=0), dataset.X.sum(axis=0))
        assert len(y) == dataset.n_queries


class TestSplits:
    def test_split_by_family(self, toy_workload):
        split = split_by_family(toy_workload, ["toy"])
        assert split["train"] == []
        assert len(split["test"]) == len(toy_workload)
        split2 = split_by_family(toy_workload, ["other"])
        assert len(split2["train"]) == len(toy_workload)
