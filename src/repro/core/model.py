"""The T3 model: training, compilation, and prediction.

``T3Model.train`` implements the paper's recipe end to end: featurize
every pipeline of every training query, transform the targets
(tuple-centric, ``-log``), train 200 gradient-boosted trees with the
MAPE objective and a 20 % validation split, and compile the ensemble to
native machine code. Prediction decomposes a plan into pipelines,
evaluates the compiled tree per pipeline, multiplies by input
cardinalities, and sums (Figure 2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import CompilationError, SchemaError, TrainingError
from ..metrics import QErrorSummary, summarize_predictions
from ..rng import DEFAULT_SEED
from ..engine.cardinality import CardinalityModel
from ..engine.physical import PhysicalPlan
from ..datagen.workload import BenchmarkedQuery
from ..trees.boosting import BoostedTreesModel, BoostingParams, train_boosted_trees
from ..trees.serialize import dumps_model, loads_model
from ..treecomp.compiler import CompiledTreeModel, compile_model, find_c_compiler
from ..treecomp.interpreter import PythonScalarModel
from .ablation import TargetMode, training_matrices
from .dataset import (
    CardinalityKind,
    PipelineDataset,
    build_dataset,
    cardinality_model_for,
)
from .features import FeatureRegistry, default_registry
from .targets import inverse_transform


class PredictionBackend(Enum):
    """How the tree ensemble is evaluated at inference time."""

    COMPILED = "compiled"        # native shared library (the paper's T3)
    INTERPRETED = "interpreted"  # scalar tree walking ("T3 interpreted")


@dataclass(frozen=True)
class T3Config:
    """Full training configuration, defaulting to the paper's recipe."""

    boosting: BoostingParams = field(default_factory=lambda: BoostingParams(
        n_rounds=200, objective="mape", validation_fraction=0.2))
    cardinalities: CardinalityKind = CardinalityKind.EXACT
    target_mode: TargetMode = TargetMode.PER_TUPLE
    compile_to_native: bool = True
    seed: int = DEFAULT_SEED


class T3Model:
    """A trained Tuple Time Tree."""

    def __init__(self, booster: BoostedTreesModel, config: T3Config,
                 registry: Optional[FeatureRegistry] = None,
                 lineage: Optional[str] = None):
        self.booster = booster
        self.config = config
        self.registry = registry or default_registry()
        #: :meth:`digest` of the model this one was retrained from
        #: (``None`` for models trained from scratch). The lifecycle
        #: layer uses it to audit promote/rollback chains.
        self.lineage = lineage
        self._compiled: Optional[CompiledTreeModel] = None
        self._digest: Optional[str] = None
        self._scalar = PythonScalarModel(booster)
        self.backend = PredictionBackend.INTERPRETED
        if config.compile_to_native:
            self.compile()

    # -- construction -----------------------------------------------------

    @classmethod
    def train(cls, queries: Sequence[BenchmarkedQuery],
              config: Optional[T3Config] = None,
              registry: Optional[FeatureRegistry] = None) -> "T3Model":
        """Train on a benchmarked workload (the paper's Section 2.5)."""
        config = config or T3Config()
        registry = registry or default_registry()
        dataset = build_dataset(queries, kind=config.cardinalities,
                                registry=registry, seed=config.seed)
        return cls.from_dataset(dataset, config)

    @classmethod
    def from_dataset(cls, dataset: PipelineDataset,
                     config: Optional[T3Config] = None) -> "T3Model":
        """Train from an already-featurized dataset."""
        config = config or T3Config()
        X, y = training_matrices(dataset, config.target_mode)
        boosting = replace(config.boosting, seed=config.seed)
        booster = train_boosted_trees(X, y, boosting)
        return cls(booster, config, dataset.registry)

    # -- backends --------------------------------------------------------------

    def compile(self) -> bool:
        """Compile the ensemble to native code; returns success.

        Falls back silently to the interpreted backend when no C
        compiler is available, so the library works everywhere and the
        latency benchmarks can still compare both paths where possible.
        """
        if self._compiled is not None:
            return True
        if find_c_compiler() is None:
            return False
        try:
            self._compiled = compile_model(self.booster)
        except CompilationError:
            return False
        self.backend = PredictionBackend.COMPILED
        return True

    def use_backend(self, backend: PredictionBackend) -> None:
        if backend is PredictionBackend.COMPILED and self._compiled is None:
            raise CompilationError("model was not compiled")
        self.backend = backend

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    # -- identity ----------------------------------------------------------

    def model_digest(self) -> str:
        """Stable identity of this model's *predictions*.

        sha256 (truncated to 16 hex chars) over the serialized ensemble
        plus the config fields that change what a prediction means —
        two models with equal digests answer identically. Computed once
        and cached (serializing 200 trees is not free); safe because
        booster and config are immutable after construction.
        """
        if self._digest is None:
            config = (f"{self.config.cardinalities.value}|"
                      f"{self.config.target_mode.value}|"
                      f"{self.config.seed}")
            blob = dumps_model(self.booster) + "|" + config
            self._digest = hashlib.sha256(
                blob.encode("utf-8")).hexdigest()[:16]
        return self._digest

    # -- low-level prediction ------------------------------------------------

    def predict_raw_one(self, vector: np.ndarray) -> float:
        """One raw (transformed-space) model evaluation — the latency path."""
        if self.backend is PredictionBackend.COMPILED:
            return self._compiled.predict_one(vector)
        return self._scalar.predict_one(vector)

    def predict_raw_batch(self, X: np.ndarray) -> np.ndarray:
        if self.backend is PredictionBackend.COMPILED:
            return self._compiled.predict(X)
        return self.booster.predict(X)

    # -- plan-level prediction ----------------------------------------------------

    def pipeline_times_from_raw(self, raw: np.ndarray,
                                cards: np.ndarray) -> np.ndarray:
        """Per-pipeline times from raw (transformed-space) predictions.

        Shared by :meth:`predict_pipeline_times` and the serving layer,
        which obtains ``raw`` through the micro-batching queue.
        """
        if self.config.target_mode is TargetMode.PER_QUERY:
            raise TrainingError(
                "per-query models do not produce pipeline times")
        if self.config.target_mode is TargetMode.PER_TUPLE:
            return inverse_transform(raw) * np.maximum(cards, 1.0)
        return inverse_transform(raw)  # PER_PIPELINE: absolute times

    def predict_pipeline_times(self, plan: PhysicalPlan,
                               model: CardinalityModel) -> np.ndarray:
        """Predicted execution time of each pipeline of ``plan``."""
        vectors, cards = self.registry.vectors_for_plan(plan, model)
        if self.config.target_mode is TargetMode.PER_QUERY:
            raise TrainingError(
                "per-query models do not produce pipeline times")
        raw = self.predict_raw_batch(np.ascontiguousarray(vectors))
        return self.pipeline_times_from_raw(raw, cards)

    def predict_query(self, plan: PhysicalPlan,
                      model: CardinalityModel) -> float:
        """Predicted total execution time of a query (Figure 2)."""
        if self.config.target_mode is TargetMode.PER_QUERY:
            vectors, _ = self.registry.vectors_for_plan(plan, model)
            return float(inverse_transform(
                self.predict_raw_one(vectors.sum(axis=0))))
        return float(self.predict_pipeline_times(plan, model).sum())

    def predict_benchmarked(self, query: BenchmarkedQuery,
                            kind: Optional[CardinalityKind] = None,
                            distortion: float = 1.0,
                            seed: int = 0) -> float:
        """Predict one benchmarked query under a cardinality regime."""
        kind = kind or self.config.cardinalities
        model = cardinality_model_for(query, kind, distortion, seed=seed)
        return self.predict_query(query.plan, model)

    # -- batch evaluation ----------------------------------------------------------

    def predict_dataset(self, dataset: PipelineDataset) -> np.ndarray:
        """Predicted total time per query of a featurized dataset (batch)."""
        if self.config.target_mode is TargetMode.PER_QUERY:
            X, _ = training_matrices(dataset, TargetMode.PER_QUERY)
            return inverse_transform(self.predict_raw_batch(X))
        raw = self.predict_raw_batch(dataset.X)
        if self.config.target_mode is TargetMode.PER_TUPLE:
            pipeline_times = (inverse_transform(raw)
                              * np.maximum(dataset.input_cards, 1.0))
        else:
            pipeline_times = inverse_transform(raw)
        totals = np.zeros(dataset.n_queries)
        np.add.at(totals, dataset.query_index, pipeline_times)
        return totals

    def evaluate(self, queries: Sequence[BenchmarkedQuery],
                 kind: Optional[CardinalityKind] = None,
                 distortion: float = 1.0,
                 seed: int = 0) -> QErrorSummary:
        """Q-error summary of query-time predictions on a workload."""
        kind = kind or self.config.cardinalities
        dataset = build_dataset(queries, kind=kind, distortion=distortion,
                                registry=self.registry, seed=seed)
        predicted = self.predict_dataset(dataset)
        return summarize_predictions(predicted, dataset.query_times())

    # -- persistence -------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Persist the trained model (config + trees) as JSON."""
        payload = {
            "model": json.loads(dumps_model(self.booster)),
            "cardinalities": self.config.cardinalities.value,
            "target_mode": self.config.target_mode.value,
            "seed": self.config.seed,
            "feature_names": self.registry.feature_names(),
        }
        if self.lineage:
            payload["lineage"] = self.lineage
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path],
             compile_to_native: bool = True) -> "T3Model":
        """Load a persisted model.

        A ``"codegen"`` field in documents saved by older versions is
        ignored: every model compiles with the one emitter.
        """
        payload = json.loads(Path(path).read_text())
        booster = loads_model(json.dumps(payload["model"]))
        saved_names = payload.get("feature_names")
        if saved_names is not None:
            live_names = default_registry().feature_names()
            if saved_names != live_names:
                raise SchemaError(
                    "persisted model was trained against a different "
                    f"feature layout ({len(saved_names)} names vs "
                    f"{len(live_names)} in this build); retrain or load "
                    "with a matching registry")
        config = T3Config(
            cardinalities=CardinalityKind(payload["cardinalities"]),
            target_mode=TargetMode(payload["target_mode"]),
            compile_to_native=compile_to_native,
            seed=payload["seed"])
        return cls(booster, config, lineage=payload.get("lineage"))

    def close(self) -> None:
        """Release the compiled library's build directory."""
        if self._compiled is not None:
            self._compiled.close()
