"""C code generation for boosted tree ensembles.

Follows the lleaves compilation strategy described in Section 2.6 of the
paper: an internal decision node compiles to one comparison and one
branch, a leaf compiles to a single return. Each tree becomes one
``static`` function; the exported ``predict`` sums the tree functions
plus the base score, and ``predict_batch`` loops over rows.

The generated translation unit is self-contained; its structural
equivalence to the trained model is proven by
:mod:`repro.checks.codegen_verify` (rules ``CG001``–``CG010``).
"""

from __future__ import annotations

import math
from typing import List

from ..errors import CompilationError
from ..trees.boosting import BoostedTreesModel
from ..trees.tree import LEAF, Tree

_HEADER = """\
/* Auto-generated by repro.treecomp - compiled decision tree model.   */
/* One comparison + one branch per internal node, one return per leaf. */
#include <math.h>
"""


def _float_literal(value: float, context: str, allow_infinite: bool) -> str:
    """Render a double so the C compiler reads back the identical bits.

    ``repr(float)`` is the shortest decimal that round-trips, but it
    spells non-finite values as ``inf``/``nan``, which are not C
    literals. Infinite leaf values and base scores become ``HUGE_VAL``
    (exactly +inf for doubles); an infinite *threshold* means one branch
    is unreachable and a NaN anywhere means the training data was
    corrupt, so both abort compilation instead of emitting garbage.
    """
    value = float(value)
    if math.isnan(value):
        raise CompilationError(f"NaN {context} cannot be compiled")
    if math.isinf(value):
        if not allow_infinite:
            raise CompilationError(
                f"non-finite {context} ({value}) would make a branch "
                "unreachable; refusing to compile")
        return "HUGE_VAL" if value > 0 else "-HUGE_VAL"
    return repr(value)


def _emit_node(tree: Tree, node: int, indent: int, lines: List[str]) -> None:
    pad = "    " * indent
    if tree.left[node] == LEAF:
        literal = _float_literal(tree.value[node], f"leaf value (node {node})",
                                 allow_infinite=True)
        lines.append(f"{pad}return {literal};")
        return
    feature = int(tree.feature[node])
    threshold = _float_literal(tree.threshold[node],
                               f"split threshold (node {node})",
                               allow_infinite=False)
    lines.append(f"{pad}if (f[{feature}] <= {threshold}) {{")
    _emit_node(tree, int(tree.left[node]), indent + 1, lines)
    lines.append(f"{pad}}} else {{")
    _emit_node(tree, int(tree.right[node]), indent + 1, lines)
    lines.append(f"{pad}}}")


def _emit_tree_function(tree: Tree, index: int) -> str:
    lines = [f"static double tree_{index}(const double *f) {{"]
    _emit_node(tree, 0, 1, lines)
    lines.append("}")
    return "\n".join(lines)


def generate_c_source(model: BoostedTreesModel,
                      symbol_prefix: str = "t3") -> str:
    """Render ``model`` to a self-contained C translation unit.

    Exported symbols:

    * ``double <prefix>_predict(const double *features)``
    * ``void <prefix>_predict_batch(const double *features, long n_rows,
      double *out)`` — ``features`` is row-major with ``n_features``
      doubles per row.
    * ``long <prefix>_n_features(void)`` — sanity-check hook for loaders.
    """
    if not symbol_prefix.isidentifier():
        raise CompilationError(f"invalid symbol prefix {symbol_prefix!r}")
    if model.n_trees == 0:
        raise CompilationError("cannot compile a model with zero trees")

    parts = [_HEADER]
    for index, tree in enumerate(model.trees):
        parts.append(_emit_tree_function(tree, index))

    calls = " + ".join(f"tree_{i}(f)" for i in range(model.n_trees))
    base = _float_literal(model.base_score, "base score", allow_infinite=True)
    parts.append(f"""
double {symbol_prefix}_predict(const double *f) {{
    return {base} + {calls};
}}

void {symbol_prefix}_predict_batch(const double *f, long n_rows, double *out) {{
    for (long i = 0; i < n_rows; i++) {{
        out[i] = {symbol_prefix}_predict(f + i * {model.n_features}L);
    }}
}}

long {symbol_prefix}_n_features(void) {{
    return {model.n_features}L;
}}
""")
    return "\n\n".join(parts)
