"""Tests (incl. property-based) for column value distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.engine.distributions import (
    CategoricalCodes,
    UniformInt,
    ZipfInt,
    uniform_categorical,
    zipf_categorical,
)

DISTRIBUTIONS = st.one_of(
    st.builds(UniformInt,
              st.integers(-100, 100),
              st.integers(101, 1000)),
    st.builds(ZipfInt, st.integers(-50, 50), st.integers(1, 500),
              st.floats(0.0, 2.0)),
    st.builds(CategoricalCodes,
              st.lists(st.floats(0.01, 10.0), min_size=1, max_size=50)),
)


class TestUniformInt:
    def test_selectivity_le_endpoints(self):
        dist = UniformInt(1, 10)
        assert dist.selectivity_le(0) == 0.0
        assert dist.selectivity_le(10) == 1.0
        assert dist.selectivity_le(5) == pytest.approx(0.5)

    def test_selectivity_eq(self):
        dist = UniformInt(1, 10)
        assert dist.selectivity_eq(3) == pytest.approx(0.1)
        assert dist.selectivity_eq(3.5) == 0.0
        assert dist.selectivity_eq(99) == 0.0

    def test_between(self):
        dist = UniformInt(1, 100)
        assert dist.selectivity_between(11, 20) == pytest.approx(0.1)
        assert dist.selectivity_between(20, 11) == 0.0

    def test_quantile_inverts_selectivity(self):
        dist = UniformInt(1, 1000)
        for p in (0.1, 0.5, 0.9):
            value = dist.quantile(p)
            assert dist.selectivity_le(value) == pytest.approx(p, abs=0.01)

    def test_sample_matches_selectivity(self):
        dist = UniformInt(1, 100)
        rng = np.random.default_rng(0)
        data = dist.sample(100_000, rng)
        assert abs((data <= 50).mean() - dist.selectivity_le(50)) < 0.01

    def test_invalid_range(self):
        with pytest.raises(SchemaError):
            UniformInt(5, 4)


class TestZipfInt:
    def test_skew_concentrates_mass(self):
        flat = ZipfInt(0, 100, 0.0)
        skewed = ZipfInt(0, 100, 1.5)
        assert skewed.selectivity_eq(0) > flat.selectivity_eq(0)

    def test_cdf_monotone(self):
        dist = ZipfInt(0, 50, 1.0)
        values = [dist.selectivity_le(v) for v in range(-1, 51)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_sample_matches_pmf(self):
        dist = ZipfInt(0, 10, 1.0)
        rng = np.random.default_rng(1)
        data = dist.sample(200_000, rng)
        observed = (data == 0).mean()
        assert abs(observed - dist.selectivity_eq(0)) < 0.01

    def test_invalid(self):
        with pytest.raises(SchemaError):
            ZipfInt(0, 0)
        with pytest.raises(SchemaError):
            ZipfInt(0, 5, -1.0)


class TestCategorical:
    def test_frequencies_normalized(self):
        dist = CategoricalCodes([1.0, 3.0])
        assert dist.selectivity_eq(0) == pytest.approx(0.25)
        assert dist.selectivity_eq(1) == pytest.approx(0.75)

    def test_helpers(self):
        assert uniform_categorical(4).selectivity_eq(2) == pytest.approx(0.25)
        skewed = zipf_categorical(10, 1.0)
        assert skewed.selectivity_eq(0) > skewed.selectivity_eq(9)

    def test_invalid(self):
        with pytest.raises(SchemaError):
            CategoricalCodes([])
        with pytest.raises(SchemaError):
            CategoricalCodes([-1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(DISTRIBUTIONS, st.floats(-1e4, 1e4))
def test_property_cdf_in_unit_interval(dist, value):
    assert 0.0 <= dist.selectivity_le(value) <= 1.0
    assert 0.0 <= dist.selectivity_eq(value) <= 1.0


@settings(max_examples=60, deadline=None)
@given(DISTRIBUTIONS, st.floats(0.0, 1.0))
def test_property_quantile_within_domain(dist, p):
    value = dist.quantile(p)
    assert dist.min_value <= value <= dist.max_value


@settings(max_examples=40, deadline=None)
@given(DISTRIBUTIONS, st.floats(-1e3, 1e3), st.floats(0, 500))
def test_property_between_consistent_with_le(dist, low, width):
    high = low + width
    between = dist.selectivity_between(low, high)
    assert -1e-9 <= between <= 1.0 + 1e-9
    assert between <= dist.selectivity_le(high) + 1e-9


@settings(max_examples=30, deadline=None)
@given(DISTRIBUTIONS)
def test_property_in_list_bounded_by_union(dist):
    values = [dist.quantile(p) for p in (0.1, 0.5, 0.9)]
    combined = dist.selectivity_in(values)
    assert combined <= sum(dist.selectivity_eq(v) for v in set(values)) + 1e-9
    assert 0.0 <= combined <= 1.0


@settings(max_examples=20, deadline=None)
@given(DISTRIBUTIONS)
def test_property_samples_within_domain(dist):
    rng = np.random.default_rng(0)
    data = dist.sample(500, rng)
    assert data.min() >= dist.min_value
    assert data.max() <= dist.max_value



OFF_SUPPORT = st.one_of(
    st.floats(-600.0, 600.0),
    st.integers(-600, 600).map(lambda v: v + 0.5),
    st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"),
                     1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(DISTRIBUTIONS, st.data())
def test_property_in_list_matches_per_value_reference(dist, data):
    """The vectorized IN selectivity is bit-identical to summing
    ``selectivity_eq`` once per distinct value, in ``set`` order —
    including out-of-range, negative and non-integer values."""
    near_support = st.integers(int(dist.min_value) - 5,
                               int(dist.max_value) + 5)
    values = data.draw(st.lists(st.one_of(near_support, OFF_SUPPORT),
                                max_size=200))
    reference = min(1.0, sum(dist.selectivity_eq(v) for v in set(values)))
    assert dist.selectivity_in(values) == reference
    assert (dist._selectivities_eq(list(set(values)))
            == [dist.selectivity_eq(v) for v in set(values)])


@settings(max_examples=100, deadline=None)
@given(DISTRIBUTIONS, st.integers(1, 2500),
       st.lists(st.floats(-0.5, 1.5), max_size=50))
def test_property_quantiles_match_per_value_reference(dist, spread, extra):
    """The vectorized quantiles are bit-identical to one ``quantile``
    call per probability: the optimizer's evenly spread key picks
    (small-table elimination) and clamped out-of-range probabilities."""
    probabilities = [(i + 0.5) / spread for i in range(spread)] + extra
    assert (dist.quantiles(np.array(probabilities))
            == [dist.quantile(p) for p in probabilities])
