"""Compilation of boosted tree models to native machine code.

The paper compiles its LightGBM model with *lleaves* [3]: every internal
node becomes a compare + branch instruction pair and every leaf a return
instruction, yielding ~4 µs single-query latency versus ~22 µs
interpreted. lleaves (and LLVM bindings) are unavailable offline, so
this package reimplements the same contract on top of the system C
compiler:

* :mod:`repro.treecomp.codegen` renders a trained
  :class:`~repro.trees.boosting.BoostedTreesModel` to C in lleaves'
  shape: nested ifs, one compare + branch per internal node and one
  return per leaf,
* :mod:`repro.treecomp.compiler` invokes ``gcc``, loads the shared
  library through :mod:`ctypes`, and exposes ``predict``/``predict_one``
  — every shape routed through a single batch FFI entry point,
* :mod:`repro.treecomp.interpreter` provides the interpreted baselines
  (scalar Python, vectorized numpy, and a multi-threaded variant) used
  by the latency experiments (Table 1/2, Figure 5).
"""

from .codegen import generate_c_source
from .compiler import (
    CompiledTreeModel,
    compile_model,
    compiler_info,
    find_c_compiler,
)
from .interpreter import (
    InterpretedModel,
    MultiThreadedInterpretedModel,
    PythonScalarModel,
)

__all__ = [
    "generate_c_source",
    "CompiledTreeModel",
    "compile_model",
    "compiler_info",
    "find_c_compiler",
    "InterpretedModel",
    "MultiThreadedInterpretedModel",
    "PythonScalarModel",
]
