"""Model registry: load, version, and warm-compile T3 models.

The registry owns every model a service can answer with. Each
``register``/``load`` produces a new immutable :class:`ModelEntry`
under a name, with versions numbered from 1; lookups default to the
newest version, so rolling out a retrained model is ``load`` + done,
and the previous version stays addressable for comparison traffic.

Hot-swap is pointer-based and atomic: a name may carry an **active**
pointer (:meth:`ModelRegistry.activate`) pinning which version answers
default lookups, plus at most one **canary**
(:meth:`ModelRegistry.set_canary`) that receives a configured fraction
of traffic. :meth:`ModelRegistry.get` resolves canary-vs-active under
one lock acquisition, so a concurrent promote/rollback can never hand
a caller a half-updated view. Entries themselves are immutable and
never evicted — a request that already resolved its
:class:`ModelEntry` keeps using exactly that model object (its
micro-batcher and breaker are keyed by ``entry.key``), so a swap
mid-micro-batch cannot mix model versions.

Registration *warm-compiles*: the ensemble is compiled to native code
up front (never on the request path) and a throwaway prediction is run
so the first real request pays neither compile nor lazy-initialisation
cost. When :func:`~repro.treecomp.compiler.find_c_compiler` reports no
compiler, the entry degrades to the interpreted backend and records
why — the service keeps working everywhere the paper's "T3
interpreted" baseline does.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    ModelNotFoundError,
)
from ..core.model import PredictionBackend, T3Model
from ..faults import FaultInjector, get_injector
from ..treecomp.compiler import find_c_compiler

__all__ = ["DEFAULT_MODEL_NAME", "ModelEntry", "ModelRegistry"]

DEFAULT_MODEL_NAME = "default"


@dataclass
class ModelEntry:
    """One registered model version."""

    name: str
    version: int
    model: T3Model
    source: str                      # file path or "<memory>"
    backend: str = "interpreted"     # "compiled" | "interpreted"
    fallback_reason: Optional[str] = None
    warmup_seconds: float = 0.0
    registered_at: float = field(default_factory=time.time)
    #: sha256 of the source file's bytes (``load`` only); lets repeated
    #: warmups of the same artifact dedupe instead of recompiling.
    content_digest: Optional[str] = None
    #: :meth:`T3Model.model_digest` — identity of the trees themselves,
    #: computed once at registration (it serializes the ensemble).
    model_digest: str = ""

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"

    @property
    def n_features(self) -> int:
        return self.model.booster.n_features

    def describe(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "name": self.name,
            "version": self.version,
            "source": self.source,
            "backend": self.backend,
            "n_features": self.n_features,
            "n_trees": len(self.model.booster.trees),
            "warmup_seconds": round(self.warmup_seconds, 6),
        }
        if self.model_digest:
            info["model_digest"] = self.model_digest
        if self.model.lineage:
            info["lineage"] = self.model.lineage
        if self.fallback_reason:
            info["fallback_reason"] = self.fallback_reason
        if self.content_digest:
            info["content_digest"] = self.content_digest[:16]
        return info


class ModelRegistry:
    """Thread-safe, versioned collection of serveable models."""

    def __init__(self, compile_native: bool = True,
                 injector: Optional[FaultInjector] = None):
        self.compile_native = compile_native
        self._versions: Dict[str, List[ModelEntry]] = {}
        #: name -> version pinned to answer default lookups. Absent
        #: means "newest version", the pre-lifecycle behaviour.
        self._active: Dict[str, int] = {}
        #: name -> (version, traffic fraction) of the one canary.
        self._canary: Dict[str, Tuple[int, float]] = {}
        self._lock = threading.Lock()
        self._injector = injector or get_injector()

    # -- registration -----------------------------------------------------

    def register(self, model: T3Model, name: str = DEFAULT_MODEL_NAME,
                 source: str = "<memory>",
                 content_digest: Optional[str] = None) -> ModelEntry:
        """Add a model under ``name`` as the next version, warmed up.

        When ``content_digest`` matches the newest version under
        ``name``, that entry is returned instead of appending — the
        dedupe decision is (re-)made *under the lock*, so two loaders
        racing on the same artifact cannot both append (the
        check-in-``load``-then-append TOCTOU).
        """
        backend, reason, warmup = self._warm(model)
        model_digest = model.model_digest()
        with self._lock:
            versions = self._versions.setdefault(name, [])
            if content_digest is not None and versions and \
                    versions[-1].content_digest == content_digest:
                return versions[-1]
            entry = ModelEntry(name=name, version=len(versions) + 1,
                               model=model, source=source, backend=backend,
                               fallback_reason=reason, warmup_seconds=warmup,
                               content_digest=content_digest,
                               model_digest=model_digest)
            versions.append(entry)
        return entry

    def load(self, path: Union[str, Path],
             name: Optional[str] = None) -> ModelEntry:
        """Load a saved model JSON (``T3Model.save``) and register it.

        Idempotent warmup: when the newest version under ``name``
        already came from a file with identical bytes, that entry is
        returned as-is — re-running a warmup script (or several
        processes warming the same registry config) compiles each
        distinct artifact exactly once instead of stacking duplicate
        versions. The early check here is an optimisation (skip the
        load + warm); :meth:`register` re-checks under the lock, so a
        racing duplicate can cost a redundant warmup but never a
        duplicate version.
        """
        path = Path(path)
        name = name or DEFAULT_MODEL_NAME
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with self._lock:
            versions = self._versions.get(name, [])
            if versions and versions[-1].content_digest == digest:
                return versions[-1]
        model = T3Model.load(path, compile_to_native=False)
        return self.register(model, name=name, source=str(path),
                             content_digest=digest)

    def _warm(self, model: T3Model):
        """Compile (or fall back) and run one throwaway prediction.

        A compile failure — real or injected at the
        ``registry.compile`` fault site — degrades the entry to the
        interpreted backend with the reason recorded; registration
        itself never fails on compilation.
        """
        start = time.perf_counter()
        backend, reason = "interpreted", None
        if not self.compile_native:
            reason = "native compilation disabled"
        elif find_c_compiler() is None:
            reason = "no C compiler found (looked for cc/gcc/clang)"
        else:
            try:
                self._injector.fire("registry.compile")
                compiled = model.compile()
            except InjectedFaultError as exc:
                compiled = False
                reason = str(exc)
            if compiled:
                backend = "compiled"
            elif reason is None:
                reason = "compilation failed"
        if backend == "interpreted":
            model.use_backend(PredictionBackend.INTERPRETED)
        probe = np.zeros((1, model.booster.n_features), dtype=np.float64)
        model.predict_raw_batch(probe)
        return backend, reason, time.perf_counter() - start

    # -- lookup -----------------------------------------------------------

    def _resolve_name_locked(self, name: Optional[str]) -> str:
        """``None`` means the default model — ``"default"`` if
        registered, otherwise the registry's only name."""
        if name is not None:
            return name
        if DEFAULT_MODEL_NAME in self._versions:
            return DEFAULT_MODEL_NAME
        if len(self._versions) == 1:
            return next(iter(self._versions))
        raise ModelNotFoundError(
            "no default model; registered names: "
            f"{sorted(self._versions) or 'none'}")

    def _entry_locked(self, name: str, version: int) -> ModelEntry:
        versions = self._versions.get(name) or []
        for entry in versions:
            if entry.version == version:
                return entry
        raise ModelNotFoundError(
            f"model {name!r} has no version {version} "
            f"(have 1..{len(versions)})")

    def get(self, name: Optional[str] = None,
            version: Optional[int] = None,
            canary_draw: Optional[float] = None) -> ModelEntry:
        """Resolve a model under one lock acquisition.

        Precedence for an unpinned (``version=None``) lookup: the
        canary (when ``canary_draw`` — a uniform [0, 1) draw supplied
        by the caller — lands under its traffic fraction), else the
        active pointer, else the newest version. Resolving and reading
        the pointers atomically is what makes promote/rollback safe:
        a caller can observe the pre-swap or post-swap state, never a
        mix.
        """
        with self._lock:
            name = self._resolve_name_locked(name)
            versions = self._versions.get(name)
            if not versions:
                raise ModelNotFoundError(
                    f"unknown model {name!r}; registered names: "
                    f"{sorted(self._versions) or 'none'}")
            if version is not None:
                return self._entry_locked(name, version)
            canary = self._canary.get(name)
            if canary is not None and canary_draw is not None \
                    and canary_draw < canary[1]:
                return self._entry_locked(name, canary[0])
            active = self._active.get(name)
            if active is not None:
                return self._entry_locked(name, active)
            return versions[-1]

    # -- hot-swap pointers -------------------------------------------------

    def activate(self, name: Optional[str], version: int) -> ModelEntry:
        """Atomically pin ``version`` as the answer to default lookups.

        Clears the canary when the promoted version *is* the canary
        (promotion); used with the previous active version it is the
        rollback path. The swap is one pointer write under the lock —
        requests in flight keep the entry they already resolved.
        """
        with self._lock:
            name = self._resolve_name_locked(name)
            entry = self._entry_locked(name, version)
            self._active[name] = version
            canary = self._canary.get(name)
            if canary is not None and canary[0] == version:
                del self._canary[name]
            return entry

    def set_canary(self, name: Optional[str], version: int,
                   fraction: float) -> ModelEntry:
        """Route ``fraction`` of default lookups to ``version``."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"canary fraction must be in (0, 1], got {fraction}")
        with self._lock:
            name = self._resolve_name_locked(name)
            entry = self._entry_locked(name, version)
            active = self._active.get(name)
            if active == version:
                raise ConfigurationError(
                    f"version {version} of {name!r} is already active; "
                    "canarying it is meaningless")
            self._canary[name] = (version, fraction)
            return entry

    def clear_canary(self, name: Optional[str] = None) -> Optional[int]:
        """Stop routing canary traffic; returns the demoted version."""
        with self._lock:
            name = self._resolve_name_locked(name)
            canary = self._canary.pop(name, None)
            return None if canary is None else canary[0]

    def canary_info(self, name: Optional[str] = None
                    ) -> Optional[Tuple[int, float]]:
        """(version, fraction) of the canary under ``name``, if any."""
        with self._lock:
            try:
                name = self._resolve_name_locked(name)
            except ModelNotFoundError:
                return None
            return self._canary.get(name)

    def active_version(self, name: Optional[str] = None) -> Optional[int]:
        """The pinned active version (None = unpinned, newest wins)."""
        with self._lock:
            try:
                name = self._resolve_name_locked(name)
            except ModelNotFoundError:
                return None
            return self._active.get(name)

    def status(self) -> Dict[str, Dict[str, object]]:
        """Routing view per name: versions, active pointer, canary."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name, versions in self._versions.items():
                active = self._active.get(name)
                canary = self._canary.get(name)
                out[name] = {
                    "versions": len(versions),
                    "active": (active if active is not None
                               else versions[-1].version),
                    "pinned": active is not None,
                    "canary": (None if canary is None else
                               {"version": canary[0],
                                "fraction": canary[1]}),
                }
            return out

    def entries(self) -> List[ModelEntry]:
        with self._lock:
            return [entry for versions in self._versions.values()
                    for entry in versions]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def __len__(self) -> int:
        return len(self.entries())

    def close(self) -> None:
        """Release compiled-library build directories of all entries."""
        for entry in self.entries():
            entry.model.close()
