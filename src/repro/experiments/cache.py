"""Disk cache for expensive experiment artifacts.

Workload construction and model training take tens of seconds; the
benchmark suite runs 17 experiments that share them. Artifacts are
pickled under ``REPRO_CACHE_DIR`` (default: ``<repo>/.cache``) and
rebuilt transparently when missing.

The cache is safe under concurrent builders (pytest-xdist workers,
several CLI invocations): writes publish via a unique temp file and an
atomic rename, corrupt entries are quarantined rather than served, and
``get_or_build`` takes a per-key advisory file lock so N processes
racing a cold key perform exactly one build.

Keys should be *content-derived* — hash the full configuration that
determines an artifact with :func:`fingerprint` instead of maintaining
version strings by hand; any config change then yields a new key
automatically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import uuid
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: On-disk layout version; content-hashed keys handle config changes.
#: v4: cardinality memo no longer admits stale id-reuse hits, so plans
#: (and everything downstream) can differ from v3 artifacts.
#: v5: the pickled corpus holds ``StageRef``/``StageFlow`` as named
#: tuples (v4 pickled them as dataclasses, which no longer unpickle) and
#: schemas with identifier and join-edge indexes that v4 schemas lack.
#: The artifacts' contents are unchanged.
CACHE_VERSION = "v5"


def fingerprint(*objects: object) -> str:
    """Stable short content hash of configuration objects.

    Dataclasses (recursively, by field), enums, containers, and
    primitives are canonicalized before hashing, so two configs with
    equal contents fingerprint identically across processes and runs —
    the basis for content-derived cache keys.
    """
    digest = hashlib.sha256()
    for obj in objects:
        digest.update(_canonical(obj).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


def _canonical(obj: object) -> str:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in obj)) + "}"
    return repr(obj)


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # <repo>/.cache when running from a checkout; cwd fallback otherwise.
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / ".cache"
    return Path.cwd() / ".cache"


class DiskCache:
    """Pickle-backed key-value cache with namespaced keys."""

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else _default_cache_dir()
        self.enabled = enabled

    def _path(self, key: str) -> Path:
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", key)
        return self.directory / f"{CACHE_VERSION}-{safe}.pkl"

    _MISS = object()

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it if needed.

        Concurrent callers (threads or processes) racing a cold key are
        serialized on a per-key advisory file lock: the first one
        builds and publishes, the rest block and then load the
        published artifact — each artifact is built exactly once.
        """
        if not self.enabled:
            return builder()
        path = self._path(key)
        value = self._read(path)
        if value is not self._MISS:
            return value
        with self._key_lock(path):
            # Double-checked: another process may have built and
            # published while this one waited for the lock.
            value = self._read(path)
            if value is not self._MISS:
                return value
            value = builder()
            self._write_atomic(path, value)
        return value

    @contextmanager
    def _key_lock(self, path: Path) -> Iterator[None]:
        """Exclusive advisory lock scoped to one cache entry.

        The lock file lives beside the entry and is left in place after
        release — deleting it would let a late-arriving process lock a
        fresh inode while an earlier one still holds the old file.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = path.with_name(f"{path.name}.lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _read(self, path: Path) -> Any:
        """Load one entry; quarantines (never returns) corrupt files."""
        if not path.exists():
            return self._MISS
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            self._quarantine(path)
            return self._MISS

    def _quarantine(self, path: Path) -> None:
        """Move a truncated/corrupt entry aside so a rebuild can proceed
        and the bad bytes stay available for diagnosis."""
        target = path.with_name(f"{path.name}.corrupt-{uuid.uuid4().hex[:8]}")
        try:
            os.replace(path, target)
        except OSError:
            # Another process already quarantined or rebuilt it.
            pass

    def _write_atomic(self, path: Path, value: Any) -> None:
        """Publish via write-temp-then-rename so readers never observe a
        partially written pickle; the temp name is unique per writer so
        concurrent builders cannot clobber each other's temp file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def invalidate(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)

    def clear(self) -> None:
        if self.directory.exists():
            for path in self.directory.glob(f"{CACHE_VERSION}-*"):
                path.unlink()


_DEFAULT: Optional[DiskCache] = None


def default_cache() -> DiskCache:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = DiskCache()
    return _DEFAULT
