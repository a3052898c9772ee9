"""Deterministic, seedable fault injection.

A :class:`FaultPlan` names *where* faults happen (injection sites), *what*
happens there (raise / delay / corrupt), and *how often* (probability,
fire cap). A :class:`FaultInjector` executes the plan: components call
:meth:`FaultInjector.fire` at their named site and the injector decides
— deterministically — whether this invocation faults.

Determinism is the point. Every decision is drawn from
:func:`repro.rng.derive_seed` over ``(plan seed, site, spec index,
invocation count)``, so a chaos run replays bit-identically: the same
plan and the same request sequence produce the same faults, the same
fallbacks, and the same telemetry. The injector with no plan installed
is a cheap no-op (one attribute read per site), so production code
keeps its sites permanently compiled in.

Sites are a closed set (:data:`KNOWN_SITES`); naming a site the code
never calls is a configuration error, not a silent no-op.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError, InjectedFaultError
from ..rng import DEFAULT_SEED, derive_rng

__all__ = [
    "KNOWN_SITES",
    "FaultPlan",
    "FaultInjector",
    "FaultSpec",
    "clear_faults",
    "get_injector",
    "install_plan",
]

_V = TypeVar("_V")

#: Every injection site compiled into the library, with the behaviour a
#: fault there simulates.
KNOWN_SITES: Dict[str, str] = {
    "registry.compile": "native compilation of a registered model fails",
    "batcher.evaluate": "the native batch evaluation raises or returns "
                        "corrupt (non-finite) predictions",
    "cache.read": "a plan/feature cache read raises or returns a "
                  "corrupt entry",
    "http.handler": "the HTTP handler fails before dispatching",
    "lifecycle.log_append": "the observation-log writer dies mid-append, "
                            "leaving a torn record tail",
}

_ACTIONS = ("raise", "delay", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what happens at one site."""

    site: str
    action: str                   # "raise" | "delay" | "corrupt"
    probability: float = 1.0      # per-invocation arming probability
    max_fires: Optional[int] = None   # stop firing after this many
    delay_s: float = 0.05         # sleep length for "delay"

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(sorted(KNOWN_SITES))}")
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"use one of {', '.join(_ACTIONS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigurationError(
                f"max_fires must be >= 0, got {self.max_fires}")
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries.

    The compact text form (CLI ``--chaos``, ``REPRO_FAULTS`` env) is a
    ``;``-separated list of ``site:action[:probability[:max_fires]]``::

        batcher.evaluate:raise:0.5;cache.read:corrupt;http.handler:delay
    """

    specs: Tuple[FaultSpec, ...]
    seed: int = DEFAULT_SEED

    @classmethod
    def parse(cls, text: str, seed: int = DEFAULT_SEED) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) < 2:
                raise ConfigurationError(
                    f"malformed fault spec {part!r}; expected "
                    "site:action[:probability[:max_fires]]")
            site, action = fields[0].strip(), fields[1].strip()
            try:
                probability = float(fields[2]) if len(fields) > 2 else 1.0
                max_fires = int(fields[3]) if len(fields) > 3 else None
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed fault spec {part!r}: {exc}") from None
            specs.append(FaultSpec(site=site, action=action,
                                   probability=probability,
                                   max_fires=max_fires))
        if not specs:
            raise ConfigurationError(
                f"fault plan {text!r} names no sites")
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> List[str]:
        out = []
        for spec in self.specs:
            cap = "" if spec.max_fires is None else f" x{spec.max_fires}"
            out.append(f"{spec.site}:{spec.action}"
                       f"@{spec.probability:g}{cap}")
        return out


class FaultInjector:
    """Executes a :class:`FaultPlan` at named sites, deterministically.

    One injector is process-global (:func:`get_injector`) so sites deep
    in the stack need no plumbing; tests may build private instances
    and hand them to components directly.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self._lock = threading.Lock()
        self._plan: Optional[FaultPlan] = None
        self._calls: Dict[int, int] = {}       # spec index -> invocations
        self._spec_fires: Dict[int, int] = {}  # spec index -> times fired
        self._fires: Dict[str, int] = {}       # site -> times fired
        if plan is not None:
            self.install(plan)

    # -- plan management ---------------------------------------------------

    def install(self, plan: Optional[FaultPlan]) -> None:
        """Install (or with ``None`` remove) the active plan; resets
        all invocation counters so runs replay from a clean slate."""
        with self._lock:
            self._plan = plan
            self._calls = {}
            self._spec_fires = {}
            self._fires = {}

    def clear(self) -> None:
        self.install(None)

    @property
    def active(self) -> bool:
        return self._plan is not None

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self._plan

    def fire_counts(self) -> Dict[str, int]:
        """site -> number of faults fired so far (for telemetry/tests)."""
        with self._lock:
            return dict(self._fires)

    # -- decision core -----------------------------------------------------

    def _decide(self, site: str, actions: Sequence[str]
                ) -> Optional[FaultSpec]:
        """The armed spec for this invocation of ``site``, if any.

        Deterministic: each spec keeps an invocation counter, and the
        arming draw is seeded by (plan seed, site, spec index, count).
        """
        plan = self._plan
        if plan is None:
            return None
        with self._lock:
            if self._plan is not plan:   # cleared/replaced concurrently
                return None
            for index, spec in enumerate(plan.specs):
                if spec.site != site or spec.action not in actions:
                    continue
                count = self._calls.get(index, 0)
                self._calls[index] = count + 1
                if spec.max_fires is not None and \
                        self._spec_fires.get(index, 0) >= spec.max_fires:
                    continue
                if spec.probability < 1.0:
                    draw = derive_rng(plan.seed, site, index, count).random()
                    if draw >= spec.probability:
                        continue
                self._spec_fires[index] = self._spec_fires.get(index, 0) + 1
                self._fires[site] = self._fires.get(site, 0) + 1
                return spec
        return None

    # -- site entry points -------------------------------------------------

    def fire(self, site: str) -> None:
        """Execute raise/delay faults armed at ``site`` (no-op otherwise)."""
        if self._plan is None:
            return
        spec = self._decide(site, ("raise", "delay"))
        if spec is None:
            return
        if spec.action == "delay":
            time.sleep(spec.delay_s)
            return
        raise InjectedFaultError(
            f"injected fault at {site}: {KNOWN_SITES[site]}")

    def corrupt(self, site: str, value: _V,
                corruptor: Callable[[_V], _V]) -> _V:
        """Return ``corruptor(value)`` when a corrupt fault is armed at
        ``site``, else ``value`` unchanged."""
        if self._plan is None:
            return value
        if self._decide(site, ("corrupt",)) is None:
            return value
        return corruptor(value)


_GLOBAL = FaultInjector()


def get_injector() -> FaultInjector:
    """The process-global injector every site defaults to."""
    return _GLOBAL


def install_plan(plan: Optional[FaultPlan]) -> FaultInjector:
    """Install ``plan`` on the global injector and return it."""
    _GLOBAL.install(plan)
    return _GLOBAL


def clear_faults() -> None:
    """Remove any globally installed plan (test teardown)."""
    _GLOBAL.clear()
