"""Background retraining from the observation log.

A :class:`RetrainJob` turns logged ``(features, predicted, observed)``
records into a candidate :class:`~repro.core.model.T3Model`. It keeps a
per-segment cursor and pulls only *new* records each time; a segment
it has fully consumed is never read again, however many retrains the
lifecycle goes through.

Targets are rebuilt exactly the way offline training builds them
(:mod:`repro.core.targets` / :mod:`repro.core.ablation`), with one
production twist: the log carries each query's *observed total* — real
systems measure queries, not pipeline stages — so per-pipeline observed
times are the total apportioned by the active model's own predicted
pipeline proportions. The candidate inherits the base model's config,
reseeded per retrain round through :func:`~repro.rng.derive_seed` so
retrain N of a replayed run trains bit-identical trees, and records the
base model's digest as its lineage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..core.ablation import TargetMode, transform_absolute
from ..core.model import T3Config, T3Model
from ..core.targets import transform_target, tuple_time_target
from ..errors import TrainingError
from ..rng import derive_seed
from ..trees.boosting import train_boosted_trees
from .obslog import ObservationLog, ObservationRecord, read_segment_records

__all__ = ["RetrainConfig", "RetrainJob", "observation_matrices"]


@dataclass(frozen=True)
class RetrainConfig:
    """Tunables of the incremental retrainer."""

    #: Boosting rounds for candidates (fewer than the offline 200 —
    #: candidates train on live traffic volumes, not a benchmark corpus).
    rounds: int = 40
    #: Records required before a candidate may be trained.
    min_records: int = 32


def observation_matrices(records: List[ObservationRecord],
                         mode: TargetMode):
    """(X, y) in ``mode``'s target space from logged observations.

    Per-pipeline observed times are the observed query total split by
    the predicting model's own pipeline proportions (uniform when the
    prediction was degenerate), then transformed exactly as offline
    training transforms simulator truth.
    """
    if not records:
        raise TrainingError("no observations to train on")
    X = np.vstack([record.vectors for record in records])
    if mode is TargetMode.PER_QUERY:
        y = transform_absolute(
            np.asarray([record.observed_seconds for record in records]))
        return X, y
    blocks: List[np.ndarray] = []
    for record in records:
        predicted = np.asarray(record.pipeline_seconds, dtype=np.float64)
        n = len(record.vectors)
        if len(predicted) != n or predicted.sum() <= 0.0 or \
                not np.all(np.isfinite(predicted)):
            fractions = np.full(n, 1.0 / n)
        else:
            fractions = predicted / predicted.sum()
        observed = fractions * record.observed_seconds
        if mode is TargetMode.PER_TUPLE:
            cards = (record.cards if record.cards is not None
                     else np.ones(n))
            blocks.append(transform_target(
                tuple_time_target(observed, cards)))
        else:   # PER_PIPELINE
            blocks.append(transform_absolute(observed))
    return X, np.concatenate(blocks)


class RetrainJob:
    """Incrementally consume an :class:`ObservationLog`, train candidates.

    Thread-safe; the lifecycle manager may drive it from a background
    thread while serving threads keep appending.
    """

    def __init__(self, log: ObservationLog, base: T3Model,
                 config: Optional[RetrainConfig] = None):
        self.log = log
        self.base = base
        self.config = config or RetrainConfig()
        self._lock = threading.Lock()
        self._cursor: Dict[str, int] = {}
        self._records: List[ObservationRecord] = []
        self.retrains = 0

    @property
    def records_consumed(self) -> int:
        with self._lock:
            return len(self._records)

    def consume(self) -> int:
        """Pull every not-yet-seen committed record; returns how many."""
        with self._lock:
            segments = self.log.segments()
            counts = self.log.segment_records()
            consumed = 0
            for path in segments:
                done = self._cursor.get(path.name, 0)
                have = counts.get(path.name, 0)
                if have <= done:
                    continue
                # A writer may append past the count taken above; cap
                # at it so those records are read next call, neither
                # dropped nor counted twice.
                fresh = read_segment_records(path)[done:have]
                self._records.extend(fresh)
                self._cursor[path.name] = done + len(fresh)
                consumed += len(fresh)
            return consumed

    def train_candidate(self, base: Optional[T3Model] = None) -> T3Model:
        """Train a candidate from everything consumed so far.

        ``base`` (default: the job's base model) supplies config and
        lineage — after a promotion the manager passes the newly active
        model so lineage chains stay truthful. Uncompiled on purpose:
        the registry's warmup owns compilation, off the request path.
        """
        base = base or self.base
        with self._lock:
            records = list(self._records)
            retrain_index = self.retrains
        if len(records) < self.config.min_records:
            raise TrainingError(
                f"only {len(records)} observations consumed; "
                f"need {self.config.min_records} to retrain")
        X, y = observation_matrices(records,
                                    base.config.target_mode)
        seed = derive_seed(base.config.seed, "lifecycle-retrain",
                           retrain_index)
        boosting = replace(base.config.boosting,
                           n_rounds=self.config.rounds, seed=seed)
        booster = train_boosted_trees(X, y, boosting)
        config = T3Config(
            boosting=boosting,
            cardinalities=base.config.cardinalities,
            target_mode=base.config.target_mode,
            compile_to_native=False,
            seed=seed)
        candidate = T3Model(booster, config, base.registry,
                            lineage=base.model_digest())
        with self._lock:
            self.retrains = retrain_index + 1
        return candidate
