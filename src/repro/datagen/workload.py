"""Workload assembly: generate → optimize → benchmark (Section 4).

For every instance, :class:`WorkloadBuilder` produces the generated
query groups (16 structures × N queries) plus — where the instance has a
published benchmark — the fixed suite (TPC-H 22, TPC-DS 100, JOB 113).
Each query is optimized to a physical plan and "benchmarked" on the
execution simulator with the paper's protocol: 10 repetitions, medians
as training targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..rng import DEFAULT_SEED, derive_seed
from ..engine.logical import LogicalNode
from ..engine.optimizer import Optimizer, OptimizerConfig
from ..engine.physical import PhysicalPlan
from ..engine.pipelines import Pipeline
from ..engine.simulator import ExecutionSimulator, SimulatedExecution, SimulatorConfig
from .instances import Instance, get_instance
from .querygen import RandomQueryGenerator
from .structures import QUERY_STRUCTURES

#: Group label used for fixed (published) benchmark queries in Figure 8.
FIXED_GROUP = "Fixed"


@dataclass
class BenchmarkedQuery:
    """One benchmarked query: plan, pipelines, and measured times.

    ``catalog`` is the statistics catalog of the query's instance;
    cardinality models for featurization are built from it.
    """

    name: str
    instance_name: str
    family: str
    group: str
    plan: PhysicalPlan
    execution: SimulatedExecution
    catalog: object = None

    @property
    def pipelines(self) -> List[Pipeline]:
        return self.execution.pipelines

    @property
    def n_pipelines(self) -> int:
        return len(self.execution.pipelines)

    @property
    def median_time(self) -> float:
        return self.execution.median_run_time

    @property
    def expected_time(self) -> float:
        return self.execution.total_time

    def pipeline_targets(self, n_runs: Optional[int] = None) -> np.ndarray:
        """Per-pipeline median measured times — the training targets."""
        return self.execution.median_pipeline_times(n_runs)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of workload construction.

    The paper uses 40 queries per structure per database (~14k queries);
    the default here is smaller so the full multi-experiment suite runs
    in CI-scale time. Scale ``queries_per_structure`` up freely.
    """

    queries_per_structure: int = 12
    n_runs: int = 10
    seed: int = DEFAULT_SEED
    include_fixed_benchmarks: bool = True
    #: Mix semi/anti joins and DISTINCT into generated queries (see
    #: RandomQueryGenerator.extended_operators).
    extended_operators: bool = False
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


class WorkloadBuilder:
    """Builds the benchmarked workload of one instance."""

    def __init__(self, instance: Instance,
                 config: Optional[WorkloadConfig] = None):
        self.instance = instance
        self.config = config or WorkloadConfig()
        self.optimizer = Optimizer(instance.schema, instance.catalog,
                                   self.config.optimizer)
        self.simulator = ExecutionSimulator(
            instance.catalog, self.config.simulator,
            seed=derive_seed(self.config.seed, "simulator", instance.name))
        self.generator = RandomQueryGenerator(
            self.instance, seed=derive_seed(self.config.seed, "querygen"),
            extended_operators=self.config.extended_operators)

    # -- pieces ---------------------------------------------------------

    def benchmark_logical(self, logical: LogicalNode, name: str,
                          group: str) -> BenchmarkedQuery:
        """Optimize and benchmark one logical query."""
        plan = self.optimizer.optimize(logical, name)
        execution = self.simulator.execute(plan, n_runs=self.config.n_runs)
        return BenchmarkedQuery(name, self.instance.name,
                                self.instance.family, group, plan, execution,
                                catalog=self.instance.catalog)

    def benchmark_generated(self, structure, index: int) -> BenchmarkedQuery:
        """Generate and benchmark one query of one structure group.

        Every random stream involved is derived from
        ``(seed, instance, structure, index)`` — never from call order —
        so this produces the same query whether it runs in corpus order,
        out of order, or in another process.
        """
        logical = self.generator.generate(structure, index)
        name = f"{self.instance.name}/{structure.name}/{index}"
        return self.benchmark_logical(logical, name, structure.name)

    def generated_queries(self) -> List[BenchmarkedQuery]:
        """All generated structure groups for this instance."""
        queries: List[BenchmarkedQuery] = []
        for structure in QUERY_STRUCTURES:
            for index in range(self.config.queries_per_structure):
                queries.append(self.benchmark_generated(structure, index))
        return queries

    def fixed_benchmark_queries(self) -> List[BenchmarkedQuery]:
        """The published benchmark suite of this instance's family, if any."""
        family = self.instance.family
        if family == "tpch":
            from .benchmarks_tpch import tpch_queries
            named = tpch_queries(self.instance)
        elif family == "tpcds":
            from .benchmarks_tpcds import tpcds_queries
            named = tpcds_queries(self.instance)
        elif family == "imdb":
            from .benchmarks_job import job_queries
            named = job_queries(self.instance)
        else:
            return []
        queries: List[BenchmarkedQuery] = []
        prefix = f"{self.instance.name}/"
        for name, logical in named:
            queries.append(self.benchmark_logical(
                logical, prefix + name, FIXED_GROUP))
        return queries

    def build(self) -> List[BenchmarkedQuery]:
        """Generated plus (where applicable) fixed benchmark queries."""
        queries = self.generated_queries()
        if self.config.include_fixed_benchmarks:
            queries.extend(self.fixed_benchmark_queries())
        return queries


def build_corpus_workload(instance_names: Sequence[str],
                          config: Optional[WorkloadConfig] = None
                          ) -> List[BenchmarkedQuery]:
    """Benchmarked workload across several instances."""
    config = config or WorkloadConfig()
    queries: List[BenchmarkedQuery] = []
    for name in instance_names:
        builder = WorkloadBuilder(get_instance(name), config)
        queries.extend(builder.build())
    return queries


def workload_statistics(queries: Sequence[BenchmarkedQuery]) -> Dict[str, float]:
    """Summary numbers used in docs and sanity tests."""
    times = np.array([q.median_time for q in queries])
    pipeline_counts = np.array([q.n_pipelines for q in queries])
    return {
        "n_queries": float(len(queries)),
        "median_time": float(np.median(times)),
        "max_time": float(times.max()),
        "min_time": float(times.min()),
        "mean_pipelines": float(pipeline_counts.mean()),
        "max_pipelines": float(pipeline_counts.max()),
    }
