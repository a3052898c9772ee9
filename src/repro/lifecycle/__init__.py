"""Online model lifecycle: the serving→training loop, closed.

The paper trains once and serves forever; production models drift.
This package adds the machinery a deployed T3 needs to stay accurate:

* :mod:`~repro.lifecycle.obslog` — a crash-safe append-only log of
  ``(features, predicted, observed)`` records, CRC-framed and fsync'd,
  with torn-tail recovery proven under the ``lifecycle.log_append``
  fault site.
* :mod:`~repro.lifecycle.retrain` — incremental consumption of log
  segments into candidate models, with digest lineage back to the
  model they replace.
* :mod:`~repro.lifecycle.manager` — the observe → retrain → shadow →
  canary state machine, wired into the registry's atomic pointer
  swaps and the circuit-breaker/health machinery for automatic
  rollback.
* :mod:`~repro.lifecycle.drift` — seeded drift scenarios (statistics
  shifts, machine-speed shifts) that make the whole loop exercisable
  deterministically in tests and chaos runs.
"""

from .drift import DriftScenario, generate_drift_sqls, shift_instance
from .manager import LifecycleConfig, LifecycleManager, LifecyclePhase
from .obslog import ObservationLog, ObservationRecord, read_segment_records
from .retrain import RetrainConfig, RetrainJob, observation_matrices

__all__ = [
    "DriftScenario",
    "LifecycleConfig",
    "LifecycleManager",
    "LifecyclePhase",
    "ObservationLog",
    "ObservationRecord",
    "RetrainConfig",
    "RetrainJob",
    "generate_drift_sqls",
    "observation_matrices",
    "read_segment_records",
    "shift_instance",
]
