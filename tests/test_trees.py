"""Tests for the gradient-boosted tree framework."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrainingError
from repro.trees import (
    BinMapper,
    BoostingParams,
    Tree,
    TreeNode,
    dumps_model,
    get_objective,
    loads_model,
    train_boosted_trees,
)
from repro.trees import boosting as boosting_module
from repro.trees import grow as grow_module
from repro.trees.grow import (
    GrowthParams,
    HistogramLayout,
    TreeGrower,
    _SplitCandidate,
)


def _toy_data(n=2000, f=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 100, size=(n, f))
    y = (np.where(X[:, 0] > 50, 10.0, 0.0) + 0.2 * X[:, 1]
         + rng.normal(0, 0.05, n))
    return X, y


class TestBinMapper:
    def test_bins_are_order_preserving(self):
        X = np.array([[1.0], [5.0], [3.0], [9.0]])
        mapper = BinMapper(max_bins=255).fit(X)
        binned = mapper.transform(X)[:, 0]
        assert binned[0] < binned[2] < binned[1] < binned[3]

    def test_bin_threshold_equivalence(self):
        """Splitting on a bin boundary must equal a raw-value split."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 1))
        mapper = BinMapper(max_bins=16).fit(X)
        binned = mapper.transform(X)[:, 0]
        for boundary in range(mapper.n_bins(0) - 1):
            threshold = mapper.bin_upper_bound(0, boundary)
            assert ((binned <= boundary) == (X[:, 0] <= threshold)).all()

    def test_constant_column_gets_one_bin(self):
        X = np.full((10, 1), 3.14)
        mapper = BinMapper().fit(X)
        assert mapper.n_bins(0) == 1

    def test_max_bins_respected(self):
        X = np.random.default_rng(0).normal(size=(10_000, 1))
        mapper = BinMapper(max_bins=32).fit(X)
        assert mapper.n_bins(0) <= 32

    def test_rejects_nan(self):
        with pytest.raises(TrainingError):
            BinMapper().fit(np.array([[np.nan]]))

    def test_rejects_bad_max_bins(self):
        with pytest.raises(TrainingError):
            BinMapper(max_bins=1)
        with pytest.raises(TrainingError):
            BinMapper(max_bins=300)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(TrainingError):
            BinMapper().transform(np.zeros((1, 1)))


class TestTree:
    def _two_level(self):
        # root: x0 <= 5 -> leaf(1.0) else x1 <= 2 -> leaf(2.0) / leaf(3.0)
        return Tree.from_nodes([
            TreeNode(feature=0, threshold=5.0, left=1, right=2),
            TreeNode(value=1.0),
            TreeNode(feature=1, threshold=2.0, left=3, right=4),
            TreeNode(value=2.0),
            TreeNode(value=3.0),
        ])

    def test_predict_one_routes_correctly(self):
        tree = self._two_level()
        assert tree.predict_one(np.array([4.0, 0.0])) == 1.0
        assert tree.predict_one(np.array([6.0, 1.0])) == 2.0
        assert tree.predict_one(np.array([6.0, 3.0])) == 3.0

    def test_batch_matches_scalar(self):
        tree = self._two_level()
        X = np.random.default_rng(0).uniform(0, 10, size=(200, 2))
        batch = tree.predict(X)
        scalar = np.array([tree.predict_one(x) for x in X])
        assert np.array_equal(batch, scalar)

    def test_counts(self):
        tree = self._two_level()
        assert tree.n_nodes == 5
        assert tree.n_leaves == 3
        assert tree.max_depth == 2
        assert list(tree.used_features()) == [0, 1]

    def test_single_leaf(self):
        tree = Tree.single_leaf(7.0)
        assert tree.predict_one(np.zeros(3)) == 7.0
        assert tree.max_depth == 0

    def test_dict_roundtrip(self):
        tree = self._two_level()
        clone = Tree.from_dict(tree.to_dict())
        X = np.random.default_rng(1).uniform(0, 10, size=(50, 2))
        assert np.array_equal(tree.predict(X), clone.predict(X))

    def test_invalid_child_rejected(self):
        with pytest.raises(TrainingError):
            Tree.from_nodes([TreeNode(feature=0, threshold=0, left=5, right=6)])


class TestGrower:
    def test_learns_step_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(2000, 8))
        y = np.where(X[:, 0] > 50, 100.0, 0.0) + rng.normal(0, 0.05, 2000)
        mapper = BinMapper().fit(X)
        grower = TreeGrower(mapper.transform(X), mapper, GrowthParams(num_leaves=8))
        grad = (np.zeros_like(y) - y)  # L2 gradient at prediction 0
        tree = grower.grow(grad, np.ones_like(y))
        # First split should be on the dominant step feature 0.
        assert tree.feature[0] == 0
        assert abs(tree.threshold[0] - 50) < 5

    def test_num_leaves_bound(self):
        X, y = _toy_data()
        mapper = BinMapper().fit(X)
        grower = TreeGrower(mapper.transform(X), mapper,
                            GrowthParams(num_leaves=5))
        tree = grower.grow(-y, np.ones_like(y))
        assert tree.n_leaves <= 5

    def test_min_data_in_leaf_respected(self):
        X, y = _toy_data(n=500)
        mapper = BinMapper().fit(X)
        params = GrowthParams(num_leaves=31, min_data_in_leaf=50)
        grower = TreeGrower(mapper.transform(X), mapper, params)
        tree = grower.grow(-y, np.ones_like(y))
        # Check every leaf holds >= 50 training rows.
        leaves = tree.predict(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 50

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).uniform(size=(100, 3))
        grad = np.zeros(100)
        mapper = BinMapper().fit(X)
        tree = TreeGrower(mapper.transform(X), mapper, GrowthParams()).grow(
            grad, np.ones(100))
        assert tree.n_leaves == 1

    def test_feature_mask_restricts_splits(self):
        X, y = _toy_data()
        mapper = BinMapper().fit(X)
        mask = np.zeros(X.shape[1], dtype=bool)
        mask[1] = True
        grower = TreeGrower(mapper.transform(X), mapper,
                            GrowthParams(num_leaves=8))
        tree = grower.grow(-y, np.ones_like(y), mask)
        assert set(tree.used_features()) <= {1}
        # The mask applies to one tree, not to the grower.
        assert 0 in grower.grow(-y, np.ones_like(y)).used_features()
        with pytest.raises(TrainingError):
            grower.grow(-y, np.ones_like(y), mask[:-1])


class TestObjectives:
    def test_l2_gradient(self):
        objective = get_objective("l2")
        y = np.array([1.0, 2.0])
        pred = np.array([2.0, 2.0])
        grad, hess = objective.gradient_hessian(y, pred)
        assert np.allclose(grad, [1.0, 0.0])
        assert np.allclose(hess, [1.0, 1.0])

    def test_mape_weights_small_targets_more(self):
        objective = get_objective("mape")
        y = np.array([0.001, 100.0])
        grad, hess = objective.gradient_hessian(y, y + 1.0)
        # Clamped at eps=1: tiny targets weight 1, big ones 1/100.
        assert grad[0] > grad[1]

    def test_unknown_objective(self):
        with pytest.raises(TrainingError):
            get_objective("nope")

    def test_l1_initial_is_median(self):
        objective = get_objective("l1")
        assert objective.initial_prediction(np.array([1.0, 9.0, 2.0])) == 2.0


class TestBoosting:
    def test_fits_nonlinear_function(self):
        X, y = _toy_data()
        model = train_boosted_trees(X, y, BoostingParams(
            n_rounds=50, objective="l2", validation_fraction=0.0))
        mae = np.mean(np.abs(model.predict(X) - y))
        assert mae < 0.5 * np.std(y)

    def test_more_rounds_reduce_training_loss(self):
        X, y = _toy_data()
        model = train_boosted_trees(X, y, BoostingParams(
            n_rounds=30, validation_fraction=0.0, objective="l2"))
        losses = model.train_loss_curve
        assert losses[-1] < losses[0]

    def test_predict_one_matches_batch(self):
        X, y = _toy_data(n=500)
        model = train_boosted_trees(X, y, BoostingParams(n_rounds=10))
        batch = model.predict(X[:20])
        scalar = np.array([model.predict_one(x) for x in X[:20]])
        assert np.allclose(batch, scalar)

    def test_early_stopping_truncates(self):
        X, y = _toy_data(n=800)
        model = train_boosted_trees(X, y, BoostingParams(
            n_rounds=200, early_stopping_rounds=5, objective="l2"))
        assert model.n_trees < 200

    def test_truncated_model(self):
        X, y = _toy_data(n=500)
        model = train_boosted_trees(X, y, BoostingParams(n_rounds=20))
        short = model.truncated(5)
        assert short.n_trees == 5
        with pytest.raises(TrainingError):
            model.truncated(100)

    def test_sample_weight_changes_model(self):
        X, y = _toy_data(n=500)
        w = np.ones_like(y)
        w[:250] = 100.0
        base = train_boosted_trees(X, y, BoostingParams(n_rounds=10))
        weighted = train_boosted_trees(X, y, BoostingParams(n_rounds=10),
                                       sample_weight=w)
        assert not np.allclose(base.predict(X[:50]), weighted.predict(X[:50]))

    def test_feature_importances_identify_signal(self):
        X, y = _toy_data()
        model = train_boosted_trees(X, y, BoostingParams(
            n_rounds=20, objective="l2"))
        importances = model.feature_importances()
        assert set(np.argsort(importances)[-2:]) == {0, 1}

    def test_input_validation(self):
        with pytest.raises(TrainingError):
            train_boosted_trees(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(TrainingError):
            train_boosted_trees(np.zeros(5), np.zeros(5))
        with pytest.raises(TrainingError):
            BoostingParams(learning_rate=0.0).validate()

    def test_seed_reproducibility(self):
        X, y = _toy_data(n=400)
        a = train_boosted_trees(X, y, BoostingParams(n_rounds=8, seed=3))
        b = train_boosted_trees(X, y, BoostingParams(n_rounds=8, seed=3))
        assert np.allclose(a.predict(X[:30]), b.predict(X[:30]))


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        X, y = _toy_data(n=500)
        model = train_boosted_trees(X, y, BoostingParams(n_rounds=12))
        clone = loads_model(dumps_model(model))
        assert np.allclose(model.predict(X[:50]), clone.predict(X[:50]))
        assert clone.n_features == model.n_features

    def test_rejects_garbage(self):
        with pytest.raises(TrainingError):
            loads_model("not json at all {")
        with pytest.raises(TrainingError):
            loads_model('{"format": "other"}')


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_property_monotone_feature_monotone_prediction(n_distinct):
    """A tree trained on a monotone 1-feature mapping stays monotone at
    the training points (split thresholds preserve order)."""
    X = np.arange(n_distinct, dtype=float)[:, None]
    y = X[:, 0] ** 2
    model = train_boosted_trees(
        X, y, BoostingParams(n_rounds=20, validation_fraction=0.0,
                             objective="l2",
                             growth=GrowthParams(num_leaves=31,
                                                 min_data_in_leaf=1)))
    predictions = model.predict(X)
    assert (np.diff(predictions) >= -1e-9).all()


class TestHistogramRegression:
    """The bincount-per-feature histogram and the single-sort BinMapper
    must reproduce their straightforward reference formulations exactly."""

    @staticmethod
    def _reference_histogram(binned, rows, grad, hess, max_bins):
        """The flat formulation: offset all codes into one bincount."""
        n_features = binned.shape[1]
        sub = binned[rows].astype(np.int64)
        offsets = np.arange(n_features, dtype=np.int64) * max_bins
        flat = (sub + offsets[None, :]).ravel()
        size = n_features * max_bins
        g = np.bincount(flat, weights=np.repeat(grad[rows], n_features),
                        minlength=size)
        h = np.bincount(flat, weights=np.repeat(hess[rows], n_features),
                        minlength=size)
        c = np.bincount(flat, minlength=size)
        return (g.reshape(n_features, max_bins),
                h.reshape(n_features, max_bins),
                c.reshape(n_features, max_bins).astype(np.int64))

    @pytest.mark.parametrize("max_bins", [4, 16, 255])
    @pytest.mark.parametrize("n_rows,n_features", [(1, 1), (200, 7), (500, 3)])
    def test_bit_identical_to_flat_formulation(self, max_bins, n_rows,
                                               n_features, monkeypatch):
        rng = np.random.default_rng(max_bins * 1000 + n_rows)
        X = rng.normal(size=(n_rows, n_features))
        X[:, -1] = rng.integers(0, 3, size=n_rows)  # low-cardinality column
        grad = rng.normal(size=n_rows)
        hess = rng.uniform(0.1, 2.0, size=n_rows)
        mapper = BinMapper(max_bins=max_bins).fit(X)
        grower = TreeGrower(mapper.transform(X), mapper, GrowthParams())
        layout = grower.layout
        n_bins = np.array([mapper.n_bins(j) for j in range(n_features)])
        used = layout.cell_bin < n_bins[layout.cell_feature]
        # A pass budget of one row forces one feature per pass.
        for budget in (grow_module._MAX_PASS_CELLS, 1):
            monkeypatch.setattr(grow_module, "_MAX_PASS_CELLS", budget)
            for rows in (np.arange(n_rows, dtype=np.int64),
                         np.arange(0, n_rows, 2, dtype=np.int64),
                         np.empty(0, dtype=np.int64)):
                hist = grower._build_histogram(rows, grad, hess)
                assert hist.shape == (3, layout.size)
                assert not hist[:, ~used].any()   # padding stays zero
                dense = np.zeros((3, n_features, max_bins))
                dense[:, layout.cell_feature[used],
                      layout.cell_bin[used]] = hist[:, used]
                reference = np.stack(self._reference_histogram(
                    grower.binned, rows, grad, hess, max_bins))
                # Single-bin features can never split and get no cells.
                assert np.array_equal(dense[:, layout.features],
                                      reference[:, layout.features])

    def test_pass_budget_bounds_histogram_temporaries(self, monkeypatch):
        # Each histogram pass is capped at _MAX_PASS_CELLS cells of
        # temporaries, so a small budget must shrink the measured peak
        # (not just split the loop) below what rows x features costs,
        # while the histogram stays bit-identical.
        rng = np.random.default_rng(4)
        n_rows, n_features = 20_000, 40
        X = rng.normal(size=(n_rows, n_features))
        grad = rng.normal(size=n_rows)
        hess = rng.uniform(0.1, 2.0, size=n_rows)
        mapper = BinMapper(max_bins=255).fit(X)
        grower = TreeGrower(mapper.transform(X), mapper, GrowthParams())
        rows = np.arange(n_rows, dtype=np.int64)

        def traced(budget):
            monkeypatch.setattr(grow_module, "_MAX_PASS_CELLS", budget)
            tracemalloc.start()
            try:
                hist = grower._build_histogram(rows, grad, hess)
                return hist, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lifted_hist, lifted_peak = traced(2 * n_rows * n_features)
        bounded_hist, bounded_peak = traced(4096)
        assert np.array_equal(bounded_hist, lifted_hist)
        assert bounded_peak <= lifted_peak / 4

    @staticmethod
    def _reference_fit_bounds(X, max_bins):
        """The per-column formulation the single-sort fit replaced."""
        bounds = []
        for j in range(X.shape[1]):
            values = np.unique(X[:, j])
            if len(values) > max_bins:
                quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
                upper = np.unique(np.quantile(X[:, j], quantiles))
            elif len(values) == 1:
                upper = np.empty(0, dtype=np.float64)
            else:
                upper = (values[:-1] + values[1:]) / 2.0
            bounds.append(np.asarray(upper, dtype=np.float64))
        return bounds

    @pytest.mark.parametrize("max_bins", [2, 16, 255])
    def test_binmapper_fit_matches_per_column_reference(self, max_bins):
        rng = np.random.default_rng(max_bins)
        X = np.column_stack([
            rng.normal(size=600),                  # continuous
            rng.integers(0, 4, size=600).astype(float),  # few distinct
            np.full(600, 2.5),                     # constant
            np.repeat(rng.normal(size=60), 10),    # heavy duplicates
        ])
        mapper = BinMapper(max_bins=max_bins).fit(X)
        reference = self._reference_fit_bounds(X, max_bins)
        for j, ref in enumerate(reference):
            assert np.array_equal(mapper._bounds[j], ref)

    def test_binmapper_fit_single_row(self):
        mapper = BinMapper().fit(np.array([[1.0, 2.0]]))
        assert mapper.n_bins(0) == 1 and mapper.n_bins(1) == 1


class _DenseReferenceGrower(TreeGrower):
    """The dense formulation the compact histograms replaced: one
    ``n_features x max_bins`` histogram per leaf from the flat bincount,
    and split search as one argmax over every (feature, bin) pair in
    feature-major order, so equal gains go to the lowest feature."""

    def _build_histogram(self, rows, grad, hess):
        return np.stack(TestHistogramRegression._reference_histogram(
            self.binned, rows, grad, hess, self.mapper.max_bins)
        ).astype(np.float64)

    def _find_best_split(self, leaf, invalid_cells):
        p = self.params
        max_bins = self.mapper.max_bins
        # Cells outside the compact layout (single-bin features, bins
        # past a feature's last) are never split points either.
        invalid = np.ones((self.n_features, 256), dtype=bool)
        invalid[self.layout.cell_feature, self.layout.cell_bin] = invalid_cells
        invalid = invalid[:, :max_bins]
        grad_left, hess_left, count_left = np.cumsum(leaf.histogram, axis=2)
        grad_right = leaf.sum_grad - grad_left
        hess_right = leaf.sum_hess - hess_left
        count_right = len(leaf.rows) - count_left
        lam = p.lambda_l2
        gain = (grad_left ** 2 / (hess_left + lam)
                + grad_right ** 2 / (hess_right + lam)
                - (leaf.sum_grad * leaf.sum_grad) / (leaf.sum_hess + lam))
        invalid = (invalid
                   | (count_left < p.min_data_in_leaf)
                   | (count_right < p.min_data_in_leaf)
                   | (hess_left < p.min_sum_hessian_in_leaf)
                   | (hess_right < p.min_sum_hessian_in_leaf))
        gain = np.where(invalid, -np.inf, gain)
        feature, bin_index = divmod(int(np.argmax(gain)), max_bins)
        best_gain = float(gain[feature, bin_index])
        if not np.isfinite(best_gain) or best_gain <= p.min_split_gain:
            return None
        return _SplitCandidate(best_gain, feature, bin_index)


def _tie_prone_data(n=1500, seed=3):
    """Columns of several histogram widths, a constant, a duplicate, and a
    two-valued column that splits exactly like column 0's first split,
    so equal gains occur across layout blocks."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 5, size=n).astype(float)
    X = np.column_stack([
        x0,
        (x0 >= 1).astype(float),                 # ties with x0 <= 0
        rng.normal(size=n),                      # 255 bins
        rng.integers(0, 40, size=n).astype(float),
        np.full(n, 7.0),                         # one bin: never splits
        x0,                                      # duplicate column
        rng.integers(0, 3, size=n).astype(float),
    ])
    y = 5.0 * (x0 >= 1) + X[:, 2] + 0.3 * X[:, 3] + X[:, 6]
    return X, y


class TestCompactHistogramGrower:
    """The compact-histogram grower must grow exactly the trees of the
    dense formulation it replaced."""

    def test_layout_packs_splittable_features_by_width(self):
        layout = HistogramLayout([1, 5, 2, 255, 3, 2])
        assert list(layout.features) == [2, 5, 4, 1, 3]
        assert list(layout.starts) == [0, 2, 4, 8, 16]
        assert layout.size == 16 + 256
        assert [block[2:] for block in layout.blocks] == [
            (2, 2), (1, 4), (1, 8), (1, 256)]
        # Split points are every bin but a feature's last.
        assert layout.is_boundary.sum() == (5 - 1) + (2 - 1) + (254) + 2 + 1

    def test_layout_without_splittable_features(self):
        layout = HistogramLayout([1, 1])
        assert layout.size == 0 and layout.blocks == []

    @pytest.mark.parametrize("extra", [
        {},
        {"feature_fraction": 0.5, "bagging_fraction": 0.7},
        {"objective": "l2", "growth": GrowthParams(num_leaves=63,
                                                   min_data_in_leaf=1)},
    ])
    def test_training_bit_identical_to_dense_reference(self, extra,
                                                       monkeypatch):
        X, y = _tie_prone_data()
        params = BoostingParams(n_rounds=12, **extra)
        model = train_boosted_trees(X, y, params)
        monkeypatch.setattr(boosting_module, "TreeGrower",
                            _DenseReferenceGrower)
        reference = train_boosted_trees(X, y, params)
        assert dumps_model(model) == dumps_model(reference)

    def test_ties_resolve_to_the_lowest_feature(self):
        X, y = _tie_prone_data()
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        grad, hess = -(y - y.mean()), np.ones_like(y)
        # Only the tied pair may split: both gains are equal, and the
        # dense scan's order picks column 0 over the narrower column 1.
        mask = np.zeros(X.shape[1], dtype=bool)
        mask[[0, 1]] = True
        params = GrowthParams(num_leaves=2)
        tree = TreeGrower(binned, mapper, params).grow(grad, hess, mask)
        reference = _DenseReferenceGrower(binned, mapper, params).grow(
            grad, hess, mask)
        assert tree.feature[0] == reference.feature[0] == 0
        assert tree.threshold[0] == reference.threshold[0]
        # Column 1 alone finds the same split with the same gain.
        mask[0] = False
        alone = TreeGrower(binned, mapper, params).grow(grad, hess, mask)
        assert alone.feature[0] == 1
        assert np.array_equal(alone.value, tree.value)
