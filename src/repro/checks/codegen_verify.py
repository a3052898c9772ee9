"""Static verification of generated tree code (no compile, no execute).

T3's accuracy claim rests on the compiled ensemble being *exactly* the
trained model — one comparison and one branch per internal node
(Section 2.6). A codegen bug would silently skew every downstream
experiment, so this analyzer parses the C translation unit produced by
:func:`repro.treecomp.codegen.generate_c_source` back into a tree
structure and proves structural equivalence against the
:class:`~repro.trees.boosting.BoostedTreesModel`:

* one ``tree_<i>`` function per ensemble member (CG002),
* identical node/leaf counts and branch shape per tree (CG003),
* feature indices equal to the model's and inside ``[0, n_features)``
  (CG004),
* thresholds and leaf values that round-trip exactly through
  ``repr(float)`` (CG005/CG006),
* the exported ``predict`` summing every tree exactly once on top of the
  correct base score (CG007/CG008),
* ``predict_batch`` striding by ``n_features`` and delegating to the
  same ``predict`` symbol, and ``n_features()`` agreeing (CG008),
* the parsed representation predicting bit-identically to the Python
  model on deterministic probe vectors (CG009),
* no bare ``inf``/``nan`` literals that a C compiler would reject
  (CG010) — and a model the generator refuses to render because of a
  NaN or an infinite threshold is a CG010 finding too, not a pass.

The C parser is deliberately narrow: it accepts exactly the shape the
generator emits and treats anything else as a parse failure (CG001) —
a verifier that guesses is no verifier at all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import CheckError, CompilationError
from ..rng import DEFAULT_SEED, derive_rng
from ..trees.boosting import BoostedTreesModel
from ..trees.tree import LEAF, Tree
from ..treecomp.codegen import generate_c_source

__all__ = ["ParsedLeaf", "ParsedSplit", "ParsedTree", "ParsedModel",
           "parse_c_source", "verify_codegen", "self_check_model"]

from .findings import Finding, Severity

_RE_TREE_HEADER = re.compile(
    r"^static double tree_(\d+)\(const double \*f\) \{$")
_RE_IF = re.compile(r"^if \(f\[(\d+)\] <= (.+?)\) \{$")
_RE_RETURN = re.compile(r"^return (.+?);$")
_RE_PREDICT_HEADER = re.compile(
    r"^double (\w+)_predict\(const double \*f\) \{$")
_RE_PREDICT_BODY = re.compile(r"^return (.+?);$")
_RE_BATCH_HEADER = re.compile(
    r"^void (\w+)_predict_batch\(const double \*f, long n_rows, "
    r"double \*out\) \{$")
_RE_BATCH_ASSIGN = re.compile(r"^out\[i\] = (\w+)_predict\(f \+ i \* (\d+)L\);$")
_RE_N_FEATURES_HEADER = re.compile(r"^long (\w+)_n_features\(void\) \{$")
_RE_N_FEATURES_BODY = re.compile(r"^return (\d+)L;$")
_RE_TREE_CALL = re.compile(r"^tree_(\d+)\(f\)$")

#: Bare non-finite tokens ``repr(float)`` would emit but C rejects.
_RE_NONFINITE = re.compile(r"(?<![\w.])(-?inf|nan)(?![\w.])")


@dataclass(frozen=True)
class ParsedLeaf:
    value: float
    line: int


@dataclass(frozen=True)
class ParsedSplit:
    feature: int
    threshold: float
    line: int
    left: "ParsedNode"
    right: "ParsedNode"


ParsedNode = Union[ParsedLeaf, ParsedSplit]


@dataclass(frozen=True)
class ParsedTree:
    index: int
    root: ParsedNode
    line: int

    def count_nodes(self) -> Tuple[int, int]:
        """(n_nodes, n_leaves) of the parsed tree."""
        nodes = leaves = 0
        stack: List[ParsedNode] = [self.root]
        while stack:
            node = stack.pop()
            nodes += 1
            if isinstance(node, ParsedLeaf):
                leaves += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return nodes, leaves

    def evaluate(self, x: np.ndarray) -> float:
        node = self.root
        while isinstance(node, ParsedSplit):
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value


@dataclass(frozen=True)
class ParsedModel:
    """A generated translation unit, structurally recovered."""

    symbol_prefix: str
    trees: List[ParsedTree]
    base_score: float
    base_score_line: int
    call_indices: List[int]          # tree indices summed by predict
    batch_stride: Optional[int]
    batch_stride_line: int
    batch_predict_symbol: Optional[str]
    reported_n_features: Optional[int]
    reported_n_features_line: int

    def evaluate(self, x: np.ndarray) -> float:
        total = self.base_score
        for index in self.call_indices:
            total += self.trees[index].evaluate(x)
        return total


def _parse_literal(token: str, line: int, what: str) -> float:
    """Parse a C double literal the generator may emit."""
    token = token.strip()
    negative = token.startswith("-")
    bare = token[1:] if negative else token
    if bare == "HUGE_VAL":
        return -math.inf if negative else math.inf
    try:
        value = float(token)
    except ValueError:
        raise CheckError(
            f"line {line}: cannot parse {what} literal {token!r}") from None
    return value


class _Parser:
    """Line-oriented recursive-descent parser for the generated C."""

    def __init__(self, source: str):
        # Keep 1-based physical line numbers; strip indentation only.
        self.lines = [(i + 1, raw.strip())
                      for i, raw in enumerate(source.splitlines())]
        self.pos = 0

    def _skip_blank_and_comments(self) -> None:
        while self.pos < len(self.lines):
            text = self.lines[self.pos][1]
            if (not text or text.startswith("/*") or text.startswith("*")
                    or text.startswith("#include")):
                self.pos += 1
                continue
            return

    def peek(self) -> Tuple[int, str]:
        self._skip_blank_and_comments()
        if self.pos >= len(self.lines):
            raise CheckError("unexpected end of generated source")
        return self.lines[self.pos]

    def take(self) -> Tuple[int, str]:
        line = self.peek()
        self.pos += 1
        return line

    def expect(self, text: str, context: str) -> int:
        lineno, actual = self.take()
        if actual != text:
            raise CheckError(
                f"line {lineno}: expected {text!r} ({context}), "
                f"got {actual!r}")
        return lineno

    def at_end(self) -> bool:
        self._skip_blank_and_comments()
        return self.pos >= len(self.lines)

    # -- grammar ----------------------------------------------------------

    def parse_node(self, tree_index: int) -> ParsedNode:
        lineno, text = self.take()
        match = _RE_RETURN.match(text)
        if match:
            value = _parse_literal(match.group(1), lineno,
                                   f"tree {tree_index} leaf")
            return ParsedLeaf(value, lineno)
        match = _RE_IF.match(text)
        if match:
            feature = int(match.group(1))
            threshold = _parse_literal(match.group(2), lineno,
                                       f"tree {tree_index} threshold")
            left = self.parse_node(tree_index)
            self.expect("} else {", f"tree {tree_index} else branch")
            right = self.parse_node(tree_index)
            self.expect("}", f"tree {tree_index} closing branch")
            return ParsedSplit(feature, threshold, lineno, left, right)
        raise CheckError(
            f"line {lineno}: expected a branch or return in tree "
            f"{tree_index}, got {text!r}")

    def parse_tree(self) -> Optional[ParsedTree]:
        lineno, text = self.peek()
        match = _RE_TREE_HEADER.match(text)
        if not match:
            return None
        self.take()
        index = int(match.group(1))
        root = self.parse_node(index)
        self.expect("}", f"tree {index} function end")
        return ParsedTree(index, root, lineno)

    def parse_predict(self) -> Tuple[str, float, int, List[int]]:
        lineno, text = self.take()
        match = _RE_PREDICT_HEADER.match(text)
        if not match:
            raise CheckError(
                f"line {lineno}: expected predict function, got {text!r}")
        prefix = match.group(1)
        body_lineno, body = self.take()
        body_match = _RE_PREDICT_BODY.match(body)
        if not body_match:
            raise CheckError(
                f"line {body_lineno}: expected predict return, got {body!r}")
        terms = [term.strip() for term in body_match.group(1).split(" + ")]
        if not terms:
            raise CheckError(f"line {body_lineno}: empty predict expression")
        base = _parse_literal(terms[0], body_lineno, "base score")
        calls = []
        for term in terms[1:]:
            call = _RE_TREE_CALL.match(term)
            if not call:
                raise CheckError(
                    f"line {body_lineno}: unexpected predict term {term!r}")
            calls.append(int(call.group(1)))
        self.expect("}", "predict function end")
        return prefix, base, body_lineno, calls

    def parse_batch(self) -> Tuple[str, str, int, int]:
        lineno, text = self.take()
        match = _RE_BATCH_HEADER.match(text)
        if not match:
            raise CheckError(
                f"line {lineno}: expected predict_batch function, got {text!r}")
        prefix = match.group(1)
        self.expect("for (long i = 0; i < n_rows; i++) {", "batch loop")
        body_lineno, body = self.take()
        body_match = _RE_BATCH_ASSIGN.match(body)
        if not body_match:
            raise CheckError(
                f"line {body_lineno}: expected batch assignment, got {body!r}")
        self.expect("}", "batch loop end")
        self.expect("}", "batch function end")
        return (prefix, body_match.group(1), int(body_match.group(2)),
                body_lineno)

    def parse_n_features(self) -> Tuple[str, int, int]:
        lineno, text = self.take()
        match = _RE_N_FEATURES_HEADER.match(text)
        if not match:
            raise CheckError(
                f"line {lineno}: expected n_features function, got {text!r}")
        body_lineno, body = self.take()
        body_match = _RE_N_FEATURES_BODY.match(body)
        if not body_match:
            raise CheckError(
                f"line {body_lineno}: expected n_features return, got {body!r}")
        self.expect("}", "n_features function end")
        return match.group(1), int(body_match.group(1)), body_lineno


def parse_c_source(source: str) -> ParsedModel:
    """Recover the tree structure from a generated translation unit.

    Raises :class:`~repro.errors.CheckError` when the source does not
    have the exact shape :func:`generate_c_source` emits.
    """
    parser = _Parser(source)
    trees: List[ParsedTree] = []
    while True:
        tree = parser.parse_tree()
        if tree is None:
            break
        trees.append(tree)
    if not trees:
        raise CheckError("generated source contains no tree functions")
    prefix, base, base_line, calls = parser.parse_predict()
    batch_prefix, batch_symbol, stride, stride_line = parser.parse_batch()
    nf_prefix, n_features, nf_line = parser.parse_n_features()
    if not parser.at_end():
        lineno, text = parser.peek()
        raise CheckError(f"line {lineno}: trailing content {text!r}")
    if len({prefix, batch_prefix, nf_prefix}) != 1:
        raise CheckError(
            f"inconsistent symbol prefixes: {prefix!r}, {batch_prefix!r}, "
            f"{nf_prefix!r}")
    return ParsedModel(
        symbol_prefix=prefix, trees=trees, base_score=base,
        base_score_line=base_line, call_indices=calls,
        batch_stride=stride, batch_stride_line=stride_line,
        batch_predict_symbol=batch_symbol,
        reported_n_features=n_features, reported_n_features_line=nf_line)


# ---------------------------------------------------------------------------
# Structural comparison
# ---------------------------------------------------------------------------


def _compare_tree(parsed: ParsedTree, tree: Tree, tree_index: int,
                  n_features: int, path: str,
                  findings: List[Finding]) -> None:
    report = findings.append
    n_nodes, n_leaves = parsed.count_nodes()
    if n_nodes != tree.n_nodes or n_leaves != tree.n_leaves:
        report(Finding(
            "CG003", Severity.ERROR, path, parsed.line,
            f"tree {tree_index}: generated code has {n_nodes} nodes / "
            f"{n_leaves} leaves, model has {tree.n_nodes} / "
            f"{tree.n_leaves}"))

    # Walk both representations in lockstep; stop descending on a shape
    # mismatch but keep the traversal going elsewhere.
    stack: List[Tuple[ParsedNode, int]] = [(parsed.root, 0)]
    while stack:
        node, model_index = stack.pop()
        model_is_leaf = tree.left[model_index] == LEAF
        if isinstance(node, ParsedLeaf):
            if not model_is_leaf:
                report(Finding(
                    "CG003", Severity.ERROR, path, node.line,
                    f"tree {tree_index}: generated leaf where model node "
                    f"{model_index} is an internal split"))
                continue
            expected = float(tree.value[model_index])
            if not _floats_identical(node.value, expected):
                report(Finding(
                    "CG006", Severity.ERROR, path, node.line,
                    f"tree {tree_index}: leaf value {node.value!r} does not "
                    f"round-trip model value {expected!r} "
                    f"(node {model_index})"))
            continue
        if model_is_leaf:
            report(Finding(
                "CG003", Severity.ERROR, path, node.line,
                f"tree {tree_index}: generated split where model node "
                f"{model_index} is a leaf"))
            continue
        if not 0 <= node.feature < n_features:
            report(Finding(
                "CG004", Severity.ERROR, path, node.line,
                f"tree {tree_index}: feature index {node.feature} outside "
                f"[0, {n_features})"))
        model_feature = int(tree.feature[model_index])
        if node.feature != model_feature:
            report(Finding(
                "CG004", Severity.ERROR, path, node.line,
                f"tree {tree_index}: generated split on feature "
                f"{node.feature}, model splits on {model_feature} "
                f"(node {model_index})"))
        expected = float(tree.threshold[model_index])
        if not _floats_identical(node.threshold, expected):
            report(Finding(
                "CG005", Severity.ERROR, path, node.line,
                f"tree {tree_index}: threshold {node.threshold!r} does not "
                f"round-trip model threshold {expected!r} "
                f"(node {model_index})"))
        stack.append((node.left, int(tree.left[model_index])))
        stack.append((node.right, int(tree.right[model_index])))


def _floats_identical(a: float, b: float) -> bool:
    """Bit-for-bit equality, treating NaN as equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _probe_vectors(model: BoostedTreesModel, n_random: int = 8) -> np.ndarray:
    """Deterministic probe inputs that exercise both branch directions."""
    rng = derive_rng(DEFAULT_SEED, "checks", "codegen-verify")
    probes = [np.zeros(model.n_features),
              np.full(model.n_features, 1e12),
              np.full(model.n_features, -1e12)]
    thresholds = np.concatenate(
        [t.threshold[t.left != LEAF] for t in model.trees] or
        [np.zeros(1)])
    if len(thresholds):
        lo, hi = float(thresholds.min()), float(thresholds.max())
        span = (hi - lo) or 1.0
        probes.extend(rng.uniform(lo - 0.5 * span, hi + 0.5 * span,
                                  size=(n_random, model.n_features)))
    return np.asarray(probes, dtype=np.float64)


def verify_codegen(model: BoostedTreesModel,
                   source: Optional[str] = None,
                   path: str = "<generated C>") -> List[Finding]:
    """Statically verify generated C against ``model``.

    ``source`` defaults to code freshly generated from ``model``; pass
    an explicit string to verify a source artifact (e.g. one kept from
    an earlier compilation). Returns findings; an empty list proves
    structural equivalence. A source so malformed it cannot be parsed
    yields a single CG001 error. A model the generator refuses yields a
    single error carrying the refusal's text: CG002 for an ensemble
    with no trees, CG010 for a non-finite value.
    """
    if source is None:
        try:
            source = generate_c_source(model)
        except CompilationError as exc:
            rule = "CG002" if model.n_trees == 0 else "CG010"
            return [Finding(rule, Severity.ERROR, path, 0, str(exc))]
    findings: List[Finding] = []

    for match in _RE_NONFINITE.finditer(source):
        line = source[:match.start()].count("\n") + 1
        findings.append(Finding(
            "CG010", Severity.ERROR, path, line,
            f"bare non-finite literal {match.group(0)!r} is not valid C"))

    try:
        parsed = parse_c_source(source)
    except CheckError as exc:
        findings.append(Finding(
            "CG001", Severity.ERROR, path, 0,
            f"generated source cannot be parsed: {exc}"))
        return findings

    if len(parsed.trees) != model.n_trees:
        findings.append(Finding(
            "CG002", Severity.ERROR, path, 0,
            f"generated source defines {len(parsed.trees)} tree functions, "
            f"model has {model.n_trees} trees"))
    for position, tree in enumerate(parsed.trees):
        if tree.index != position:
            findings.append(Finding(
                "CG002", Severity.ERROR, path, tree.line,
                f"tree function index {tree.index} at position {position}"))

    for parsed_tree, model_tree in zip(parsed.trees, model.trees):
        _compare_tree(parsed_tree, model_tree, parsed_tree.index,
                      model.n_features, path, findings)

    if not _floats_identical(parsed.base_score, model.base_score):
        findings.append(Finding(
            "CG007", Severity.ERROR, path, parsed.base_score_line,
            f"base score {parsed.base_score!r} does not round-trip model "
            f"base score {model.base_score!r}"))

    if parsed.call_indices != list(range(model.n_trees)):
        findings.append(Finding(
            "CG008", Severity.ERROR, path, parsed.base_score_line,
            f"predict sums tree indices {parsed.call_indices}, expected "
            f"each of 0..{model.n_trees - 1} exactly once, in order"))
    if parsed.batch_stride != model.n_features:
        findings.append(Finding(
            "CG008", Severity.ERROR, path, parsed.batch_stride_line,
            f"predict_batch strides by {parsed.batch_stride} doubles per "
            f"row, model has {model.n_features} features"))
    if parsed.batch_predict_symbol != parsed.symbol_prefix:
        findings.append(Finding(
            "CG008", Severity.ERROR, path, parsed.batch_stride_line,
            f"predict_batch delegates to "
            f"{parsed.batch_predict_symbol!r}_predict, expected "
            f"{parsed.symbol_prefix!r}_predict"))
    if parsed.reported_n_features != model.n_features:
        findings.append(Finding(
            "CG008", Severity.ERROR, path, parsed.reported_n_features_line,
            f"n_features() returns {parsed.reported_n_features}, model "
            f"has {model.n_features}"))

    # Semantic cross-check: only meaningful while the structure matches,
    # otherwise it would just repeat the structural findings.
    if not findings and parsed.call_indices == list(range(model.n_trees)):
        for x in _probe_vectors(model):
            expected = model.predict_one(x)
            actual = parsed.evaluate(x)
            if not _floats_identical(actual, expected):
                findings.append(Finding(
                    "CG009", Severity.ERROR, path, 0,
                    f"parsed code predicts {actual!r} on a probe vector, "
                    f"model predicts {expected!r}"))
                break
    return findings


def self_check_model(n_trees: int = 5, n_features: int = 7
                     ) -> BoostedTreesModel:
    """A small deterministic ensemble for driver self-checks and tests.

    Built directly from node arrays (no training) so ``repro-t3 check``
    can exercise the codegen path without any saved model artifact.
    Thresholds include negative, subnormal-ish, and integral values to
    stress literal round-tripping.
    """
    rng = derive_rng(DEFAULT_SEED, "checks", "codegen-self-check")
    trees = []
    for _ in range(n_trees):
        # Node 1 must split on a different feature than node 0: nesting
        # the same feature with a random tighter threshold can produce a
        # provably dead branch (flagged by EA001).
        root_feature = int(rng.integers(0, n_features))
        child_feature = (root_feature + 1
                         + int(rng.integers(0, n_features - 1))) % n_features
        feature = [root_feature, child_feature, LEAF, LEAF, LEAF]
        threshold = [float(rng.normal()), float(rng.normal()) * 1e-7,
                     0.0, 0.0, 0.0]
        left = [1, 3, LEAF, LEAF, LEAF]
        right = [2, 4, LEAF, LEAF, LEAF]
        value = [0.0, 0.0, float(rng.normal()), float(rng.normal()),
                 float(rng.normal())]
        trees.append(Tree(
            feature=np.array(feature), threshold=np.array(threshold),
            left=np.array(left), right=np.array(right),
            value=np.array(value)))
    return BoostedTreesModel(trees, base_score=0.125, n_features=n_features)
