"""Native compilation and loading of generated tree code.

``compile_model`` writes the generated C to a private temporary
directory, invokes the system C compiler (``cc``/``gcc``/``clang``,
``-O2 -shared -fPIC``), and loads the resulting shared library with
:mod:`ctypes`. Compilation happens once after training and does not add
to inference latency (paper, Section 2.6).

The runtime binds only the batch entry point ``<prefix>_predict_batch``
(and ``<prefix>_n_features`` to check the ABI); single-row prediction
is a 1-row batch through a per-thread staging buffer, so the process
pays exactly **one** foreign-function call per prediction request
regardless of shape — and exactly one per micro-batch on the serving
path.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import CompilationError
from ..trees.boosting import BoostedTreesModel
from . import codegen

_COMPILER_CANDIDATES = ("cc", "gcc", "clang")


def find_c_compiler() -> Optional[str]:
    """Absolute path of the first available system C compiler, or ``None``."""
    for name in _COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


@functools.lru_cache(maxsize=1)
def compiler_info() -> Optional[str]:
    """One-line description of the system C compiler, or ``None``.

    Used by the serving health endpoint to report whether predictions
    run through the compiled or the interpreted backend. Memoized for
    the life of the process — the toolchain does not change under us,
    and ``/healthz`` calls this per snapshot, which used to shell out
    to ``cc --version`` on every scrape. Tests can reset the cache via
    ``compiler_info.cache_clear()``.
    """
    path = find_c_compiler()
    if path is None:
        return None
    try:
        result = subprocess.run([path, "--version"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return path
    first_line = (result.stdout or "").strip().splitlines()
    return first_line[0] if first_line else path


class _ThreadBuffers(threading.local):
    """Per-thread scratch space for 1-row batch calls.

    ``predict_one`` must not race concurrent callers on a shared output
    buffer, and must not allocate on the 4 µs hot path — each thread
    gets its own 1-element output array, created lazily on first use.
    """

    def __init__(self) -> None:
        self.out: np.ndarray = np.empty(1, dtype=np.float64)


class CompiledTreeModel:
    """A tree ensemble compiled to a native shared library.

    Use :func:`compile_model` to create instances. The object owns the
    temporary directory holding the generated source and shared library;
    :meth:`close` (or garbage collection) removes it.

    ``ffi_calls`` counts native invocations since load — the serving
    tests assert exactly one per micro-batch.
    """

    def __init__(self, library_path: Path, workdir: Optional[Path],
                 n_features: int, symbol_prefix: str):
        self._workdir = workdir
        self.library_path = Path(library_path)
        self.n_features = n_features
        self.ffi_calls = 0
        self._buffers = _ThreadBuffers()
        self._lib = ctypes.CDLL(str(library_path))

        self._predict_batch = getattr(self._lib, f"{symbol_prefix}_predict_batch")
        self._predict_batch.restype = None
        self._predict_batch.argtypes = [
            ctypes.POINTER(ctypes.c_double), ctypes.c_long,
            ctypes.POINTER(ctypes.c_double)]

        reported = getattr(self._lib, f"{symbol_prefix}_n_features")
        reported.restype = ctypes.c_long
        reported.argtypes = []
        if reported() != n_features:
            raise CompilationError(
                f"library reports {reported()} features, expected {n_features}")

    # -- prediction -----------------------------------------------------

    def _call_batch(self, X: np.ndarray, out: np.ndarray) -> None:
        """The one place native code is invoked: one FFI call per batch.

        ``X`` must be C-contiguous float64 ``(n, n_features)`` with
        ``n >= 1`` and ``out`` a float64 vector of length ``n``.
        """
        self._predict_batch(
            X.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctypes.c_long(len(X)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
        self.ffi_calls += 1

    def predict_one(self, x: np.ndarray) -> float:
        """Single-vector prediction — the 4 µs code path of the paper.

        Implemented as a 1-row batch: ``reshape`` on the contiguous
        vector is a zero-copy view and the output buffer is per-thread,
        so the only per-call costs are validation and one FFI hop.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise CompilationError(
                f"expected a vector of {self.n_features} features, got {x.shape}")
        out = self._buffers.out
        self._call_batch(x.reshape(1, self.n_features), out)
        return float(out[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch prediction: exactly one native call for the whole matrix.

        Accepts ``(n, n_features)`` or a single 1-D vector (returned as
        a length-1 array). An empty ``(0, n_features)`` batch returns an
        empty array without touching native code — a zero-length numpy
        array has no data pointer to hand across the FFI boundary.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim == 1:
            if X.shape != (self.n_features,):
                raise CompilationError(
                    f"expected a vector of {self.n_features} features, "
                    f"got {X.shape}")
            X = X.reshape(1, self.n_features)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise CompilationError(
                f"expected an (n, {self.n_features}) matrix, got {X.shape}")
        if len(X) == 0:
            return np.empty(0, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        self._call_batch(X, out)
        return out

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Remove the temporary build directory (library stays loaded)."""
        if self._workdir is not None and self._workdir.exists():
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def compile_model(model: BoostedTreesModel, symbol_prefix: str = "t3",
                  compiler: Optional[str] = None,
                  optimization_level: int = 2) -> CompiledTreeModel:
    """Compile ``model`` to native code and load it.

    Raises :class:`~repro.errors.CompilationError` if no C compiler is
    available or compilation fails; callers that can degrade gracefully
    should fall back to :class:`~repro.treecomp.interpreter.InterpretedModel`.
    """
    compiler = compiler or find_c_compiler()
    if compiler is None:
        raise CompilationError(
            "no C compiler found (looked for cc/gcc/clang); "
            "use the interpreted model instead")
    if optimization_level not in (0, 1, 2, 3):
        raise CompilationError(f"invalid optimization level {optimization_level}")

    # Looked up on the module so a wrapper installed on
    # codegen.generate_c_source (perfbench's span tracer) sees the call.
    source = codegen.generate_c_source(model, symbol_prefix)
    workdir = Path(tempfile.mkdtemp(prefix="repro-treecomp-"))
    # Any failure between mkdtemp and the ownership hand-off to
    # CompiledTreeModel must remove the directory, not just the two
    # compiler-error paths (a full disk at write_text used to leak it).
    try:
        source_path = workdir / "model.c"
        library_path = workdir / "model.so"
        source_path.write_text(source)

        command = [compiler, f"-O{optimization_level}", "-shared", "-fPIC",
                   "-o", str(library_path), str(source_path)]
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise CompilationError(
                f"cannot run compiler {compiler!r}: {exc}") from exc
        if result.returncode != 0:
            raise CompilationError(
                f"{compiler} failed ({result.returncode}):\n"
                f"{result.stderr[:2000]}")
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return CompiledTreeModel(library_path, workdir, model.n_features,
                             symbol_prefix)
