"""The lifecycle state machine: observe → retrain → shadow → canary.

:class:`LifecycleManager` sits behind the service's observation hook
and drives one model name through the loop a production deployment
runs forever:

* **observing** — append ground truth to the crash-safe log; once
  enough has accumulated, retrain.
* **retraining** — :class:`~repro.lifecycle.retrain.RetrainJob`
  consumes the log incrementally and registers a candidate version
  (warm-compiled by the registry, *not* serving — the active pointer
  stays pinned).
* **shadow** — the candidate scores every observation alongside the
  active model, accumulating paired q-errors without touching
  responses. A candidate that does not improve is rejected here.
* **canary** — :meth:`~repro.serving.registry.ModelRegistry.set_canary`
  routes a configured traffic fraction to the candidate. Promotion
  (:meth:`~repro.serving.registry.ModelRegistry.activate`) and
  rollback (:meth:`~repro.serving.registry.ModelRegistry.clear_canary`)
  are each a single atomic pointer swap; the previous model stays
  pinned as the active version throughout, so rolling back is *not
  moving the pointer* — there is no window where a broken candidate is
  the only answer. A canary is rolled back early when its paired error
  regresses past ``rollback_threshold`` or when its circuit breaker
  leaves ``CLOSED`` (the existing breaker machinery is the blast-radius
  detector: a candidate whose compiled artifact faults trips its own
  per-entry breaker, never the active model's).

Every transition is appended to an in-memory audit list (exposed via
``/healthz``) and counted in ``/metrics``. All decisions are counts
and seeded draws — a replayed run takes bit-identical transitions.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, TrainingError
from ..faults import BreakerState
from ..metrics import q_error
from ..rng import DEFAULT_SEED
from ..serving.registry import ModelEntry
from ..serving.service import PredictionService
from .obslog import ObservationLog, ObservationRecord
from .retrain import RetrainConfig, RetrainJob

__all__ = ["LifecycleConfig", "LifecycleManager", "LifecyclePhase"]

_LOG = logging.getLogger(__name__)


class LifecyclePhase(Enum):
    OBSERVING = "observing"
    RETRAINING = "retraining"
    SHADOW = "shadow"
    CANARY = "canary"

    @property
    def code(self) -> int:
        return {"observing": 0, "retraining": 1,
                "shadow": 2, "canary": 3}[self.value]


@dataclass(frozen=True)
class LifecycleConfig:
    """Thresholds of the observe→retrain→shadow→canary loop."""

    model_name: Optional[str] = None    # None = the registry default
    #: Observations between retrain attempts.
    retrain_after: int = 128
    #: Paired samples a shadow candidate must score before judgement.
    shadow_samples: int = 48
    #: Paired samples a canary must survive before promotion.
    canary_samples: int = 48
    #: Traffic fraction routed to the canary.
    canary_fraction: float = 0.2
    #: Candidate mean q-error must be <= active * this to advance
    #: (shadow → canary, canary → promoted).
    promote_threshold: float = 0.98
    #: Canary mean q-error > active * this → immediate rollback.
    rollback_threshold: float = 1.05
    #: Canary samples before the early-rollback check may fire.
    min_canary_detect: int = 8
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    #: Run retrains on a daemon thread (the CLI serve path). Off by
    #: default: synchronous retrains keep tests deterministic.
    background: bool = False
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.retrain_after < 1:
            raise ConfigurationError(
                f"retrain_after must be >= 1, got {self.retrain_after}")
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ConfigurationError(
                "canary_fraction must be in (0, 1], got "
                f"{self.canary_fraction}")
        if self.promote_threshold <= 0.0 or self.rollback_threshold <= 0.0:
            raise ConfigurationError("thresholds must be positive")
        if self.shadow_samples < 1 or self.canary_samples < 1:
            raise ConfigurationError("sample counts must be >= 1")


class _PairedError:
    """Mean q-error of active vs candidate on the same observations."""

    __slots__ = ("samples", "active_sum", "candidate_sum")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.samples = 0
        self.active_sum = 0.0
        self.candidate_sum = 0.0

    def add(self, active_pred: float, candidate_pred: float,
            observed: float) -> None:
        self.samples += 1
        self.active_sum += q_error(active_pred, observed)
        self.candidate_sum += q_error(candidate_pred, observed)

    @property
    def active_mean(self) -> float:
        return self.active_sum / self.samples if self.samples else 0.0

    @property
    def candidate_mean(self) -> float:
        return self.candidate_sum / self.samples if self.samples else 0.0

    def describe(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "active_mean_qerror": round(self.active_mean, 6),
            "candidate_mean_qerror": round(self.candidate_mean, 6),
        }


class LifecycleManager:
    """Drives one model name through observe/retrain/shadow/canary."""

    def __init__(self, service: PredictionService, log: ObservationLog,
                 config: Optional[LifecycleConfig] = None):
        self.service = service
        self.log = log
        self.config = config or LifecycleConfig()
        self._lock = threading.RLock()
        entry = service.registry.get(self.config.model_name)
        self._name = entry.name
        # Pin the current version: from here on "newest" and "serving"
        # are decoupled — registering a candidate must not change what
        # answers until this manager promotes it.
        self._active = service.registry.activate(entry.name, entry.version)
        self._candidate: Optional[ModelEntry] = None
        self._phase = LifecyclePhase.OBSERVING
        self._since_retrain = 0
        self._errors = _PairedError()
        self._retrain_thread: Optional[threading.Thread] = None
        self.transitions: List[Dict[str, object]] = []
        self.job = RetrainJob(log, entry.model, self.config.retrain)
        self.last_swap_seconds: Optional[float] = None
        self.last_detect_samples: Optional[int] = None

        m = service.metrics
        self._m_observations = m.counter(
            "t3_lifecycle_observations_total",
            "ground-truth observations logged")
        self._m_retrains = m.counter(
            "t3_lifecycle_retrains_total", "candidate models trained")
        self._m_retrain_failures = m.counter(
            "t3_lifecycle_retrain_failures_total",
            "retrain attempts that failed")
        self._m_shadow_rejects = m.counter(
            "t3_lifecycle_shadow_rejects_total",
            "candidates rejected in shadow")
        self._m_promotions = m.counter(
            "t3_lifecycle_promotions_total", "canaries promoted to active")
        self._m_rollbacks = m.counter(
            "t3_lifecycle_rollbacks_total",
            "canaries rolled back to the previous model")
        m.gauge("t3_lifecycle_phase",
                "lifecycle phase (0 observing, 1 retraining, "
                "2 shadow, 3 canary)",
                function=lambda: float(self.phase.code))
        m.gauge("t3_lifecycle_active_version",
                "model version pinned as active",
                function=lambda: float(self.active_entry.version))
        m.gauge("t3_lifecycle_canary_version",
                "model version serving canary traffic (0 = none)",
                function=self._canary_version_metric)
        service.attach_lifecycle(self)

    # -- introspection -----------------------------------------------------

    @property
    def phase(self) -> LifecyclePhase:
        with self._lock:
            return self._phase

    @property
    def active_entry(self) -> ModelEntry:
        with self._lock:
            return self._active

    @property
    def candidate_entry(self) -> Optional[ModelEntry]:
        with self._lock:
            return self._candidate

    def _canary_version_metric(self) -> float:
        info = self.service.registry.canary_info(self._name)
        return float(info[0]) if info else 0.0

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "phase": self._phase.value,
                "model": self._name,
                "active": self._active.key,
                "active_digest": self._active.model_digest,
                "candidate": (self._candidate.key
                              if self._candidate else None),
                "since_retrain": self._since_retrain,
                "errors": self._errors.describe(),
                "log": self.log.stats(),
                "retrains": self.job.retrains,
                "last_swap_seconds": self.last_swap_seconds,
                "last_detect_samples": self.last_detect_samples,
                "transitions": list(self.transitions[-20:]),
            }

    # -- the observation hook ----------------------------------------------

    def observe_served(self, instance: str, vectors: np.ndarray,
                       cards: Optional[np.ndarray],
                       predicted_seconds: float,
                       pipeline_seconds: tuple,
                       observed_seconds: float, model_key: str) -> int:
        """Build and process one record — the service-facing hook.

        Keyword-shaped so :class:`PredictionService` never needs to
        import this package (the dependency points lifecycle → serving
        only).
        """
        return self.on_observation(ObservationRecord(
            instance=instance, vectors=vectors, cards=cards,
            predicted_seconds=predicted_seconds,
            pipeline_seconds=pipeline_seconds,
            observed_seconds=observed_seconds, model_key=model_key))

    def on_observation(self, record: ObservationRecord) -> int:
        """Log one observation and advance the state machine.

        Called by :meth:`PredictionService.observe`. The append happens
        *before* any state transition: an injected ``lifecycle.log_append``
        fault aborts the observation without advancing counters, so a
        replay under chaos stays aligned with what actually hit disk.
        """
        sequence = self.log.append(record)
        self._m_observations.inc()
        start_retrain = False
        with self._lock:
            phase = self._phase
            if phase in (LifecyclePhase.SHADOW, LifecyclePhase.CANARY):
                self._score_candidate(record)
            if phase is LifecyclePhase.SHADOW:
                self._judge_shadow(sequence)
            elif phase is LifecyclePhase.CANARY:
                self._judge_canary(sequence)
            elif phase is LifecyclePhase.OBSERVING:
                self._since_retrain += 1
                if self._since_retrain >= self.config.retrain_after:
                    # Transition under the lock; the (slow) retrain runs
                    # after release. Observations arriving meanwhile see
                    # RETRAINING and fall through to plain logging.
                    self._record_transition(LifecyclePhase.RETRAINING,
                                            "retrain_after reached",
                                            sequence)
                    self._since_retrain = 0
                    start_retrain = True
        if start_retrain:
            self._begin_retrain(sequence)
        return sequence

    # -- candidate scoring -------------------------------------------------

    def _candidate_total(self, record: ObservationRecord) -> float:
        """The candidate's predicted total for a logged observation.

        Evaluated directly on the candidate model (interpreted or
        compiled batch call), *not* through the request path — shadow
        scoring must never queue behind live traffic.
        """
        model = self._candidate.model
        raw = model.predict_raw_batch(
            np.ascontiguousarray(record.vectors, dtype=np.float64))
        return float(model.seconds_from_raw(raw, record.cards).sum())

    def _score_candidate(self, record: ObservationRecord) -> None:
        try:
            candidate_pred = self._candidate_total(record)
        except Exception as exc:
            # A candidate that cannot even score is treated as a
            # maximally wrong prediction, not a crashed server.
            _LOG.warning("candidate %s failed to score: %s",
                         self._candidate.key, exc)
            candidate_pred = 0.0
        self._errors.add(record.predicted_seconds, candidate_pred,
                         record.observed_seconds)

    # -- transitions -------------------------------------------------------

    def _record_transition(self, to_phase: LifecyclePhase, reason: str,
                           sequence: int) -> None:
        self.transitions.append({
            "sequence": sequence,
            "from": self._phase.value,
            "to": to_phase.value,
            "reason": reason,
            "active": self._active.key,
            "candidate": (self._candidate.key
                          if self._candidate else None),
        })
        _LOG.info("lifecycle %s -> %s (%s) active=%s candidate=%s",
                  self._phase.value, to_phase.value, reason,
                  self._active.key,
                  self._candidate.key if self._candidate else None)
        self._phase = to_phase

    def _begin_retrain(self, sequence: int) -> None:
        """Kick off the retrain; the RETRAINING transition has already
        been recorded (under the lock) by :meth:`on_observation`."""
        if self.config.background:
            thread = threading.Thread(
                target=self._run_retrain, args=(sequence,),
                name="lifecycle-retrain", daemon=True)
            self._retrain_thread = thread
            thread.start()
        else:
            self._run_retrain(sequence)

    def _run_retrain(self, sequence: int) -> None:
        try:
            self.job.consume()
            candidate = self.job.train_candidate(self.active_entry.model)
            entry = self.service.registry.register(
                candidate, name=self._name,
                source=f"<retrain#{self.job.retrains}>")
        except TrainingError as exc:
            self._m_retrain_failures.inc()
            with self._lock:
                self._record_transition(LifecyclePhase.OBSERVING,
                                        f"retrain failed: {exc}", sequence)
            return
        self._m_retrains.inc()
        with self._lock:
            self._candidate = entry
            self._errors.reset()
            self._record_transition(LifecyclePhase.SHADOW,
                                    "candidate registered", sequence)

    def _judge_shadow(self, sequence: int) -> None:
        if self._errors.samples < self.config.shadow_samples:
            return
        improved = (self._errors.candidate_mean
                    <= self._errors.active_mean
                    * self.config.promote_threshold)
        if improved:
            self.service.registry.set_canary(
                self._name, self._candidate.version,
                self.config.canary_fraction)
            self._errors.reset()
            self._record_transition(LifecyclePhase.CANARY,
                                    "shadow improved", sequence)
        else:
            self._m_shadow_rejects.inc()
            self._drop_candidate("shadow did not improve", sequence)

    def _judge_canary(self, sequence: int) -> None:
        breaker = self.service.breaker_state(self._candidate)
        if breaker is not BreakerState.CLOSED:
            self._rollback(f"candidate breaker {breaker.value}", sequence)
            return
        samples = self._errors.samples
        regressed = (self._errors.candidate_mean
                     > self._errors.active_mean
                     * self.config.rollback_threshold)
        if samples >= self.config.min_canary_detect and regressed:
            self._rollback("canary error regressed", sequence)
            return
        if samples < self.config.canary_samples:
            return
        if (self._errors.candidate_mean
                <= self._errors.active_mean
                * self.config.promote_threshold):
            self._promote(sequence)
        else:
            self._rollback("canary did not improve", sequence)

    def _promote(self, sequence: int) -> None:
        started = time.perf_counter()
        # One atomic pointer swap: activate() pins the candidate and
        # clears its canary under the registry lock.
        self._active = self.service.registry.activate(
            self._name, self._candidate.version)
        self.last_swap_seconds = time.perf_counter() - started
        self._m_promotions.inc()
        self._candidate = None
        self._errors.reset()
        self._record_transition(LifecyclePhase.OBSERVING,
                                "canary promoted", sequence)

    def _rollback(self, reason: str, sequence: int) -> None:
        # The active pointer never moved — rollback is just ceasing to
        # route canary traffic. The candidate version stays registered
        # (addressable for diagnosis) but serves nothing.
        self.service.registry.clear_canary(self._name)
        self.last_detect_samples = self._errors.samples
        self._m_rollbacks.inc()
        self._drop_candidate(reason, sequence)

    def _drop_candidate(self, reason: str, sequence: int) -> None:
        self._candidate = None
        self._errors.reset()
        self._record_transition(LifecyclePhase.OBSERVING, reason, sequence)

    # -- shutdown ----------------------------------------------------------

    def join(self, timeout: Optional[float] = 10.0) -> None:
        """Wait for an in-flight background retrain (CLI shutdown)."""
        thread = self._retrain_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
