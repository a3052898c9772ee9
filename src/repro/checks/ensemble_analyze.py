"""Static analysis of trained tree ensembles (EA rules).

A :class:`~repro.trees.boosting.BoostedTreesModel` is a program — node
arrays are its instructions — and like any program it can contain
provably-dead code and numerically-broken constants that no test-set
evaluation will ever expose. This analyzer walks every tree symbolically,
propagating per-feature reachable intervals root-to-leaf (evaluation
goes left when ``x[f] <= t``, so the left child's interval is clipped
to ``(lo, min(hi, t)]`` and the right child's to ``(max(lo, t), hi]``),
and cross-checks the ensemble against the ``-log(t)`` target transform:
``inverse_transform(raw) = exp(-raw)`` overflows to ``inf`` once the
summed raw prediction drops below ``-log(DBL_MAX)``.

Rules
-----
EA001  dead branch: a split whose threshold lies outside the interval
       reachable at that node (one child can never be taken)
EA002  unreachable leaf (inside a dead subtree)
EA003  leaf value is NaN or infinite
EA004  reachable raw-prediction range decodes to a non-finite time
       under the ``-log`` inverse transform
EA005  two distinct thresholds on the same feature within one float32
       ulp — the compiled (float-truncated) tree may disagree
EA006  feature in the schema that no tree ever splits on
EA007  node orphaned or shared between parents (malformed topology)
EA008  split threshold is NaN or infinite
EA009  base score is NaN or infinite
EA010  split feature index outside ``[0, n_features)``
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trees.boosting import BoostedTreesModel
from ..trees.tree import LEAF, Tree
from .findings import Finding, Severity

__all__ = ["analyze_ensemble", "EXP_OVERFLOW"]

#: ``exp(x)`` overflows double precision beyond this (``log(DBL_MAX)``).
EXP_OVERFLOW = math.log(np.finfo(np.float64).max)

Interval = Tuple[float, float]  # reachable values, as the half-open (lo, hi]


def _tree_structure_findings(tree: Tree, tree_index: int, n_features: int,
                             path: str) -> List[Finding]:
    """EA007/EA008/EA010 — the checks ``Tree._validate`` does not make."""
    findings: List[Finding] = []
    where = f"tree {tree_index}"
    referenced: Dict[int, int] = {}
    for node in range(tree.n_nodes):
        if tree.left[node] == LEAF:
            continue
        for child in (int(tree.left[node]), int(tree.right[node])):
            referenced[child] = referenced.get(child, 0) + 1
        feature = int(tree.feature[node])
        if not 0 <= feature < n_features:
            findings.append(Finding(
                "EA010", Severity.ERROR, path, 0,
                f"{where} node {node}: split feature {feature} outside "
                f"[0, {n_features}); evaluation reads past the vector"))
        threshold = float(tree.threshold[node])
        if not math.isfinite(threshold):
            findings.append(Finding(
                "EA008", Severity.ERROR, path, 0,
                f"{where} node {node}: non-finite split threshold "
                f"{threshold!r}"))
    if referenced.get(0):
        findings.append(Finding(
            "EA007", Severity.ERROR, path, 0,
            f"{where}: root node 0 is referenced as a child"))
    for node in range(1, tree.n_nodes):
        count = referenced.get(node, 0)
        if count != 1:
            state = "orphaned" if count == 0 else f"shared by {count} parents"
            findings.append(Finding(
                "EA007", Severity.ERROR, path, 0,
                f"{where} node {node}: {state}; every non-root node needs "
                f"exactly one parent"))
    return findings


def _reachability_findings(tree: Tree, tree_index: int, path: str
                           ) -> Tuple[List[Finding], float]:
    """EA001/EA002/EA003 via interval propagation.

    Returns the findings plus the minimum raw value over *reachable*,
    finite leaves (``+inf`` when the tree has none) for EA004.
    """
    findings: List[Finding] = []
    where = f"tree {tree_index}"
    min_reachable = math.inf

    def visit(node: int, regions: Dict[int, Interval], dead: bool) -> None:
        nonlocal min_reachable
        if tree.left[node] == LEAF:
            value = float(tree.value[node])
            if dead:
                findings.append(Finding(
                    "EA002", Severity.ERROR, path, 0,
                    f"{where} leaf {node} (value {value:g}) is unreachable: "
                    f"no input satisfies the path conditions"))
            else:
                if not math.isfinite(value):
                    findings.append(Finding(
                        "EA003", Severity.ERROR, path, 0,
                        f"{where} leaf {node}: non-finite value {value!r} "
                        f"poisons every prediction routed through it"))
                else:
                    min_reachable = min(min_reachable, value)
            return
        feature = int(tree.feature[node])
        threshold = float(tree.threshold[node])
        lo, hi = regions.get(feature, (-math.inf, math.inf))
        left_dead = dead or threshold <= lo
        right_dead = dead or threshold >= hi
        if not dead and (left_dead or right_dead):
            side = "left" if left_dead else "right"
            cond = (f"x[{feature}] <= {threshold:g}" if left_dead
                    else f"x[{feature}] > {threshold:g}")
            findings.append(Finding(
                "EA001", Severity.ERROR, path, 0,
                f"{where} node {node}: dead branch — {cond} is "
                f"unsatisfiable given the reachable interval "
                f"({lo:g}, {hi:g}] of feature {feature}"))
        visit(int(tree.left[node]),
              {**regions, feature: (lo, min(hi, threshold))}, left_dead)
        visit(int(tree.right[node]),
              {**regions, feature: (max(lo, threshold), hi)}, right_dead)

    visit(0, {}, False)
    return findings, min_reachable


def near_tie_findings(trees: Sequence[Tree], path: str) -> List[Finding]:
    """EA005: same-feature thresholds closer than one float32 ulp.

    A warning about the ensemble itself: such a pair of splits routes
    inputs differently only across a float32-sized gap, so a port of the
    model to single precision would merge them.
    """
    findings: List[Finding] = []
    by_feature: Dict[int, List[Tuple[float, int, int]]] = {}
    for tree_index, tree in enumerate(trees):
        for node in range(tree.n_nodes):
            if tree.left[node] == LEAF:
                continue
            threshold = float(tree.threshold[node])
            if math.isfinite(threshold):
                by_feature.setdefault(int(tree.feature[node]), []).append(
                    (threshold, tree_index, node))
    for feature, entries in sorted(by_feature.items()):
        entries.sort()
        for (a, tree_a, node_a), (b, tree_b, node_b) in zip(entries,
                                                            entries[1:]):
            if a == b:
                continue  # identical splits are exact, not ambiguous
            ulp = float(np.spacing(np.float32(max(abs(a), abs(b)))))
            if b - a <= ulp:
                findings.append(Finding(
                    "EA005", Severity.WARNING, path, 0,
                    f"feature {feature}: thresholds {a!r} (tree {tree_a} "
                    f"node {node_a}) and {b!r} (tree {tree_b} node "
                    f"{node_b}) differ by less than one float32 ulp "
                    f"({ulp:g}); a single-precision evaluator cannot "
                    f"separate them"))
    return findings


def analyze_ensemble(model: BoostedTreesModel, path: str = "<model>",
                     feature_names: Optional[Sequence[str]] = None,
                     check_unused_features: bool = False) -> List[Finding]:
    """Run every EA rule over one trained ensemble.

    ``check_unused_features`` gates EA006: meaningful for real persisted
    models, pure noise for tiny synthetic self-check ensembles.
    """
    findings: List[Finding] = []

    base = float(model.base_score)
    if not math.isfinite(base):
        findings.append(Finding(
            "EA009", Severity.ERROR, path, 0,
            f"base score {base!r} is not finite; every prediction is "
            f"non-finite before any tree runs"))

    min_total = base if math.isfinite(base) else 0.0
    structure_broken = False
    for tree_index, tree in enumerate(model.trees):
        structural = _tree_structure_findings(tree, tree_index,
                                              model.n_features, path)
        findings.extend(structural)
        if any(f.rule in ("EA007", "EA010") for f in structural):
            structure_broken = True
            continue  # interval walk is meaningless on broken topology
        reach, tree_min = _reachability_findings(tree, tree_index, path)
        findings.extend(reach)
        if math.isfinite(tree_min):
            min_total += tree_min

    if not structure_broken and math.isfinite(base):
        if min_total < -EXP_OVERFLOW:
            findings.append(Finding(
                "EA004", Severity.ERROR, path, 0,
                f"reachable raw predictions go down to {min_total:g}; "
                f"inverse_transform = exp(-raw) overflows to inf below "
                f"-{EXP_OVERFLOW:.1f}, so some inputs decode to a "
                f"non-finite tuple time"))

    findings.extend(near_tie_findings(model.trees, path))

    if check_unused_features:
        used = np.zeros(model.n_features, dtype=bool)
        for tree in model.trees:
            indices = tree.used_features()
            valid = indices[(indices >= 0) & (indices < model.n_features)]
            used[valid] = True
        for index in np.nonzero(~used)[0]:
            name = (feature_names[index]
                    if feature_names is not None and index < len(feature_names)
                    else f"feature {index}")
            findings.append(Finding(
                "EA006", Severity.WARNING, path, 0,
                f"{name} is in the schema but no tree ever splits on it; "
                f"either the feature is uninformative or extraction is "
                f"broken for it"))
    return findings
