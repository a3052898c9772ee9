"""Value distributions of columns — the generative truth of an instance.

Every column of a database instance is described by a distribution
object. These objects serve two roles:

* the *data generator* samples actual numpy arrays from them for the
  small-scale real executor, and
* the *exact cardinality model* evaluates predicate selectivities
  analytically against them (what `explain analyze` on real data would
  report, up to sampling noise).

The optimizer's *estimated* cardinalities deliberately do not see these
objects — they only see coarse catalog statistics (min/max/approximate
distinct counts) and assume uniformity, which is what creates realistic
estimation errors.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..errors import SchemaError


class Distribution:
    """Interface for column value distributions over a numeric domain.

    String columns are dictionary-encoded: their distribution ranges over
    integer codes, and LIKE-style predicates are modeled as random subsets
    of codes.
    """

    #: Smallest representable value.
    min_value: float
    #: Largest representable value.
    max_value: float
    #: Number of distinct values.
    n_distinct: int

    def selectivity_le(self, value: float) -> float:
        """True fraction of rows with ``column <= value``."""
        raise NotImplementedError

    def selectivity_eq(self, value: float) -> float:
        """True fraction of rows with ``column = value``."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Value ``v`` such that ``selectivity_le(v)`` is approximately ``p``."""
        raise NotImplementedError

    def quantiles(self, ps: np.ndarray) -> List[float]:
        """:meth:`quantile` of each of ``ps``, bit for bit; subclasses
        vectorize it."""
        return [self.quantile(p) for p in ps.tolist()]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` concrete values (int64) for the real executor."""
        raise NotImplementedError

    def selectivity_between(self, low: float, high: float) -> float:
        """True fraction of rows with ``low <= column <= high``."""
        if high < low:
            return 0.0
        below_low = self.selectivity_le(low) - self.selectivity_eq(low)
        return max(0.0, self.selectivity_le(high) - below_low)

    def selectivity_in(self, values: Sequence[float]) -> float:
        """True fraction of rows with ``column IN (values)``.

        The per-value selectivities of the distinct values are summed
        in ``set(values)`` order as Python floats, so a vectorized
        :meth:`_selectivities_eq` gives the same bits as calling
        :meth:`selectivity_eq` once per value.
        """
        return min(1.0, sum(self._selectivities_eq(list(set(values)))))

    def _selectivities_eq(self, values: List[float]) -> List[float]:
        """:meth:`selectivity_eq` of each value; subclasses vectorize it."""
        return [self.selectivity_eq(v) for v in values]


class UniformInt(Distribution):
    """Integers uniform on ``[min_value, max_value]``.

    The optimizer's uniformity assumption is *correct* for these columns,
    so predicates on them are estimated well — the query corpus mixes
    uniform and skewed columns to get a realistic error spectrum.
    """

    def __init__(self, min_value: int, max_value: int):
        if max_value < min_value:
            raise SchemaError("max_value must be >= min_value")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.n_distinct = int(max_value - min_value + 1)

    def selectivity_le(self, value: float) -> float:
        if value < self.min_value:
            return 0.0
        if value >= self.max_value:
            return 1.0
        return (math.floor(value) - self.min_value + 1) / self.n_distinct

    def selectivity_eq(self, value: float) -> float:
        if self.min_value <= value <= self.max_value and float(value).is_integer():
            return 1.0 / self.n_distinct
        return 0.0

    def _selectivities_eq(self, values: List[float]) -> List[float]:
        v = np.asarray(values, dtype=np.float64)
        hit = (self.min_value <= v) & (v <= self.max_value) & (v == np.floor(v))
        return np.where(hit, 1.0 / self.n_distinct, 0.0).tolist()

    def quantile(self, p: float) -> float:
        p = min(max(p, 0.0), 1.0)
        return float(self.min_value + round(p * (self.n_distinct - 1)))

    def quantiles(self, ps: np.ndarray) -> List[float]:
        # np.rint rounds half to even, as round() does.
        ranks = np.rint(np.clip(ps, 0.0, 1.0) * (self.n_distinct - 1))
        return (self.min_value + ranks).tolist()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(int(self.min_value), int(self.max_value) + 1,
                            size=n, dtype=np.int64)


class ZipfInt(Distribution):
    """Skewed integers: value ``k`` (0-based rank) has weight ``1/(k+1)^s``.

    Values are ``min_value + rank``. The optimizer assumes uniformity,
    so selections and joins on these columns are *systematically*
    misestimated — the mechanism behind Figure 11's error growth.
    """

    def __init__(self, min_value: int, n_distinct: int, skew: float = 1.0):
        if n_distinct < 1:
            raise SchemaError("n_distinct must be >= 1")
        if skew < 0:
            raise SchemaError("skew must be non-negative")
        self.min_value = float(min_value)
        self.max_value = float(min_value + n_distinct - 1)
        self.n_distinct = int(n_distinct)
        self.skew = float(skew)
        ranks = np.arange(1, n_distinct + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)

    def selectivity_le(self, value: float) -> float:
        rank = math.floor(value - self.min_value)
        if rank < 0:
            return 0.0
        if rank >= self.n_distinct - 1:
            return 1.0
        return float(self._cdf[rank])

    def selectivity_eq(self, value: float) -> float:
        rank = value - self.min_value
        if not float(rank).is_integer():
            return 0.0
        rank = int(rank)
        if 0 <= rank < self.n_distinct:
            return float(self._pmf[rank])
        return 0.0

    def _selectivities_eq(self, values: List[float]) -> List[float]:
        return _pmf_at(self._pmf,
                       np.asarray(values, dtype=np.float64) - self.min_value)

    def quantile(self, p: float) -> float:
        p = min(max(p, 0.0), 1.0)
        rank = int(np.searchsorted(self._cdf, p))
        return float(self.min_value + min(rank, self.n_distinct - 1))

    def quantiles(self, ps: np.ndarray) -> List[float]:
        ranks = np.searchsorted(self._cdf, np.clip(ps, 0.0, 1.0))
        return (self.min_value
                + np.minimum(ranks, self.n_distinct - 1)).tolist()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ranks = rng.choice(self.n_distinct, size=n, p=self._pmf)
        return (ranks + int(self.min_value)).astype(np.int64)


class CategoricalCodes(Distribution):
    """Dictionary-encoded string column with explicit code frequencies."""

    def __init__(self, frequencies: Sequence[float]):
        freq = np.asarray(frequencies, dtype=np.float64)
        if freq.ndim != 1 or freq.size == 0 or np.any(freq < 0) or freq.sum() <= 0:
            raise SchemaError("frequencies must be a non-empty non-negative vector")
        self._pmf = freq / freq.sum()
        self._cdf = np.cumsum(self._pmf)
        self.min_value = 0.0
        self.max_value = float(freq.size - 1)
        self.n_distinct = int(freq.size)

    def selectivity_le(self, value: float) -> float:
        code = math.floor(value)
        if code < 0:
            return 0.0
        if code >= self.n_distinct - 1:
            return 1.0
        return float(self._cdf[code])

    def selectivity_eq(self, value: float) -> float:
        code = value
        if not float(code).is_integer():
            return 0.0
        code = int(code)
        if 0 <= code < self.n_distinct:
            return float(self._pmf[code])
        return 0.0

    def _selectivities_eq(self, values: List[float]) -> List[float]:
        return _pmf_at(self._pmf, np.asarray(values, dtype=np.float64))

    def quantile(self, p: float) -> float:
        p = min(max(p, 0.0), 1.0)
        return float(min(int(np.searchsorted(self._cdf, p)), self.n_distinct - 1))

    def quantiles(self, ps: np.ndarray) -> List[float]:
        ranks = np.searchsorted(self._cdf, np.clip(ps, 0.0, 1.0))
        return np.minimum(ranks, self.n_distinct - 1).astype(
            np.float64).tolist()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.n_distinct, size=n, p=self._pmf).astype(np.int64)


def _pmf_at(pmf: np.ndarray, ranks: np.ndarray) -> List[float]:
    """``pmf[rank]`` for each integral rank inside the support, else 0.0."""
    # The range test also rules out NaN and infinities.
    hit = (ranks >= 0) & (ranks < len(pmf)) & (ranks == np.floor(ranks))
    out = np.zeros(len(ranks))
    out[hit] = pmf[ranks[hit].astype(np.int64)]
    return out.tolist()


def uniform_categorical(n_distinct: int) -> CategoricalCodes:
    """A categorical column with equally likely codes."""
    return CategoricalCodes(np.ones(n_distinct))


def zipf_categorical(n_distinct: int, skew: float = 1.0) -> CategoricalCodes:
    """A categorical column with Zipf-distributed code frequencies."""
    ranks = np.arange(1, n_distinct + 1, dtype=np.float64)
    return CategoricalCodes(ranks ** (-skew))
