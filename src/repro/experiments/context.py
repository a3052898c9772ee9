"""The shared experiment setup (workloads, splits, trained models).

Reproduces the paper's standard protocol: train on all instances except
the TPC-DS family, evaluate on TPC-DS test queries (generated groups
plus the fixed benchmark), exact cardinalities unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..rng import DEFAULT_SEED
from ..trees.boosting import BoostingParams
from ..datagen.instances import all_instance_names
from ..datagen.workload import (
    BenchmarkedQuery,
    WorkloadConfig,
    build_corpus_workload,
)
from ..core.ablation import TargetMode
from ..core.dataset import CardinalityKind, build_dataset
from ..core.model import T3Config, T3Model
from ..baselines.zeroshot import ZeroShotConfig, ZeroShotModel
from .cache import DiskCache, default_cache, fingerprint

#: The family held out for evaluation throughout the paper.
TEST_FAMILY = "tpcds"


@dataclass(frozen=True)
class ExperimentScale:
    """Workload / training sizes.

    ``default`` keeps the full benchmark suite under a few minutes of
    compute; ``paper`` approaches the paper's 14k-query corpus (slow).
    """

    name: str
    queries_per_structure: int
    boosting_rounds: int
    zeroshot_epochs: int

    @classmethod
    def default(cls) -> "ExperimentScale":
        return cls("default", queries_per_structure=6, boosting_rounds=200,
                   zeroshot_epochs=120)

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny scale for tests."""
        return cls("smoke", queries_per_structure=2, boosting_rounds=40,
                   zeroshot_epochs=25)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls("paper", queries_per_structure=40, boosting_rounds=200,
                   zeroshot_epochs=200)


def _uncompiled(config: T3Config) -> T3Config:
    """``config`` for training a model that is only cached, never served.

    The cached payload is the ensemble; the :class:`T3Model` built from
    it compiles, so a cold build runs the C compiler once, not twice.
    """
    return replace(config, compile_to_native=False)


class ExperimentContext:
    """Builds and caches everything the benchmark targets share."""

    def __init__(self, scale: Optional[ExperimentScale] = None,
                 cache: Optional[DiskCache] = None,
                 seed: int = DEFAULT_SEED):
        self.scale = scale or ExperimentScale.default()
        self.cache = cache or default_cache()
        self.seed = seed

    # -- keys ------------------------------------------------------------

    def cache_fingerprint(self) -> str:
        """Content hash of everything that determines the artifacts.

        Covers the full :class:`ExperimentScale` and
        :class:`~repro.datagen.workload.WorkloadConfig` (simulator and
        optimizer knobs included) plus the seed, so any configuration
        change re-keys the cache automatically — no hand-maintained
        version strings. CI uses this as its artifact-cache key.
        """
        return fingerprint(self.scale, self.workload_config(), self.seed)

    def _key(self, *parts: object) -> str:
        return "-".join(str(p) for p in
                        ("exp", self.scale.name, self.cache_fingerprint())
                        + parts)

    def workload_cache_key(self) -> str:
        """Cache key of the benchmarked workload (``build-workload``
        uses it to pre-warm or force-invalidate the entry)."""
        return self._key("workload")

    # -- workloads ----------------------------------------------------------

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(
            queries_per_structure=self.scale.queries_per_structure,
            seed=self.seed)

    def workload(self) -> List[BenchmarkedQuery]:
        """The full 21-instance benchmarked workload (cached)."""
        return self.cache.get_or_build(
            self.workload_cache_key(),
            lambda: build_corpus_workload(all_instance_names(),
                                          self.workload_config()))

    def instance_workload(self, instance_name: str) -> List[BenchmarkedQuery]:
        return [q for q in self.workload()
                if q.instance_name == instance_name]

    def train_queries(self) -> List[BenchmarkedQuery]:
        """All queries outside the held-out TPC-DS family."""
        return [q for q in self.workload() if q.family != TEST_FAMILY]

    def test_queries(self) -> List[BenchmarkedQuery]:
        """All TPC-DS queries (generated + fixed, sf 1/10/100)."""
        return [q for q in self.workload() if q.family == TEST_FAMILY]

    def queries_excluding_family(self, family: str) -> List[BenchmarkedQuery]:
        return [q for q in self.workload() if q.family != family]

    def queries_of_family(self, family: str) -> List[BenchmarkedQuery]:
        return [q for q in self.workload() if q.family == family]

    def families(self) -> List[str]:
        seen: List[str] = []
        for query in self.workload():
            if query.family not in seen:
                seen.append(query.family)
        return seen

    def job_benchmark_queries(self) -> List[BenchmarkedQuery]:
        """The 113 benchmarked JOB queries (the imdb fixed group)."""
        return [q for q in self.workload()
                if q.family == "imdb" and q.group == "Fixed"]

    # -- models ----------------------------------------------------------------

    def t3_config(self, cardinalities: CardinalityKind = CardinalityKind.EXACT,
                  target_mode: TargetMode = TargetMode.PER_TUPLE) -> T3Config:
        boosting = BoostingParams(n_rounds=self.scale.boosting_rounds,
                                  objective="mape", validation_fraction=0.2)
        return T3Config(boosting=boosting, cardinalities=cardinalities,
                        target_mode=target_mode, seed=self.seed)

    def _train_t3(self, queries: Sequence[BenchmarkedQuery],
                  config: T3Config, key: str) -> T3Model:
        def build_payload():
            model = T3Model.train(queries, _uncompiled(config))
            return (model.booster, config)

        booster, config_out = self.cache.get_or_build(key, build_payload)
        return T3Model(booster, config_out)

    def t3(self) -> T3Model:
        """The paper's standard model: trained on all non-TPC-DS queries."""
        return self._train_t3(self.train_queries(), self.t3_config(),
                              self._key("t3-standard"))

    def t3_variant(self,
                   cardinalities: CardinalityKind = CardinalityKind.EXACT,
                   target_mode: TargetMode = TargetMode.PER_TUPLE,
                   exclude_family: str = TEST_FAMILY,
                   n_runs: Optional[int] = None) -> T3Model:
        """A T3 trained under a non-standard regime (ablations, Fig 9/11/14)."""
        key = self._key("t3", cardinalities.value, target_mode.value,
                        exclude_family, n_runs)
        config = self.t3_config(cardinalities, target_mode)
        queries = self.queries_excluding_family(exclude_family)

        def build_payload():
            dataset = build_dataset(queries, kind=cardinalities,
                                    n_runs=n_runs, seed=self.seed)
            model = T3Model.from_dataset(dataset, _uncompiled(config))
            return (model.booster, config)

        booster, config_out = self.cache.get_or_build(key, build_payload)
        return T3Model(booster, config_out)

    def autowlm(self):
        """The AutoWLM-style baseline (single query vector + GBDT, cached)."""
        from ..baselines.autowlm import AutoWLMModel

        key = self._key("autowlm")

        def build_payload():
            model = AutoWLMModel.train(self.train_queries(), self.t3_config())
            return (model.inner.booster, model.inner.config)

        booster, config = self.cache.get_or_build(key, build_payload)
        return AutoWLMModel(T3Model(booster, config))

    def zeroshot(self,
                 cardinalities: CardinalityKind = CardinalityKind.EXACT,
                 train_on: str = "corpus") -> ZeroShotModel:
        """The Zero-Shot baseline (cached).

        ``train_on='corpus'`` uses the standard non-TPC-DS training set;
        ``train_on='complex'`` mimics the paper's Figure 10 setup, where
        Zero Shot is trained on its *complex workload* pattern
        (selective scans + equi-joins + final aggregation — our SeJSiA /
        CSeJSiA groups) from non-IMDB instances.
        """
        key = self._key("zeroshot", cardinalities.value, train_on)

        def build() -> ZeroShotModel:
            if train_on == "complex":
                queries = [q for q in self.workload()
                           if q.family != "imdb"
                           and q.group in ("SeJSiA", "CSeJSiA", "SeJ", "J")]
            else:
                queries = self.train_queries()
            config = ZeroShotConfig(n_epochs=self.scale.zeroshot_epochs,
                                    cardinalities=cardinalities,
                                    seed=self.seed)
            return ZeroShotModel(config).fit(queries)

        return self.cache.get_or_build(key, build)
