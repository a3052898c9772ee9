"""Pipeline-decomposition and featurization invariant verifier (PI rules).

T3's accuracy story rests on structural invariants the engine never
proves at runtime: every operator lands in exactly one decomposition
category, pipeline breakers terminate their pipeline, fresh pipelines
start with a scan, cardinalities stay non-negative and monotone through
filters, percentage features are always normalized by the pipeline's
starting cardinality, and the ``-log(t)`` target transform stays
finite. This analyzer proves them per (operator, stage) pair — partly
against the *live* stage tables (so a new operator cannot be declared
inconsistently) and partly against the *AST* of the decomposer,
featurizer, cardinality model, and target transform (so the proofs
survive refactors that keep runtime behaviour accidentally correct).

Rules
-----
PI001  operator missing a stage declaration or physical implementation
PI002  operator declared both binary and materializing (ambiguous)
PI003  operator no pipeline-decomposition branch can handle
PI004  declared stages disagree with what the decomposer emits
PI005  malformed stage tuple (not one of the four legal shapes)
PI006  pipeline-breaker BUILD append not followed by pipeline completion
PI007  fresh pipeline returned by the decomposer does not start with SCAN
PI008  PROBE declared for an operator ``compute_stage_flows`` rejects
PI009  percentage feature emitted without dividing by the pipeline start
PI010  expression-percentage emit does not partition the expression classes
PI011  cardinality model missing a non-negativity/selectivity clamp
PI012  target-transform bounds not finite or the clip is missing
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..engine.stages import Stage
from .astutils import (
    PACKAGE_ROOT,
    dotted_name,
    enum_member,
    find_class_function,
    find_function,
    load_module_ast,
    module_assignment,
    repo_relative,
)
from .findings import Finding, Severity

__all__ = [
    "OperatorInfo",
    "check_plan_invariants",
    "verify_cardinality_ast",
    "verify_decomposer_ast",
    "verify_featurization_ast",
    "verify_stage_tables",
    "verify_target_transform",
]

_STAGES_PATH = PACKAGE_ROOT / "engine" / "stages.py"
_PIPELINES_PATH = PACKAGE_ROOT / "engine" / "pipelines.py"
_CARDINALITY_PATH = PACKAGE_ROOT / "engine" / "cardinality.py"
_FEATURES_PATH = PACKAGE_ROOT / "core" / "features.py"
_TARGETS_PATH = PACKAGE_ROOT / "core" / "targets.py"

#: The four stage shapes the decomposer can produce.
_LEGAL_SHAPES = {
    (Stage.SCAN,),
    (Stage.PASS_THROUGH,),
    (Stage.BUILD, Stage.PROBE),
    (Stage.BUILD, Stage.SCAN),
}


@dataclass(frozen=True)
class OperatorInfo:
    """Everything the table checks need to know about one operator."""

    name: str                                # OperatorType.value
    stages: Optional[Tuple[Stage, ...]]      # None: no OPERATOR_STAGES entry
    arity: Optional[int]                     # None: no physical class
    probe_capable: bool                      # compute_stage_flows accepts PROBE
    binary: bool                             # in BINARY_OPERATORS
    materializing: bool                      # in MATERIALIZING_OPERATORS


# -- PI001..PI005, PI008: the stage tables -----------------------------------

def _decomposer_shape(info: OperatorInfo) -> Optional[Tuple[Stage, ...]]:
    """Stage tuple the decomposer emits for this operator, or ``None``."""
    if info.name == "TableScan":
        return (Stage.SCAN,)
    if info.name == "Union":
        return (Stage.BUILD, Stage.SCAN)
    if info.binary:
        return (Stage.BUILD, Stage.PROBE)
    if info.materializing:
        return (Stage.BUILD, Stage.SCAN)
    if info.name == "IndexNLJoin" or info.arity == 1:
        return (Stage.PASS_THROUGH,)
    return None


def verify_stage_tables(operators: Sequence[OperatorInfo],
                        path: str = "src/repro/engine/stages.py",
                        line: int = 0) -> List[Finding]:
    """PI001..PI005 and PI008 over the (live) operator/stage tables."""
    findings: List[Finding] = []
    for info in operators:
        if info.stages is None or info.arity is None:
            missing = ("OPERATOR_STAGES entry" if info.stages is None
                       else "physical operator class")
            findings.append(Finding(
                "PI001", Severity.ERROR, path, line,
                f"{info.name}: no {missing}; featurization is not total "
                f"over OperatorType"))
            continue
        if info.binary and info.materializing:
            findings.append(Finding(
                "PI002", Severity.ERROR, path, line,
                f"{info.name} is in both BINARY_OPERATORS and "
                f"MATERIALIZING_OPERATORS; decomposition would not be "
                f"disjoint"))
        shape = _decomposer_shape(info)
        if shape is None:
            findings.append(Finding(
                "PI003", Severity.ERROR, path, line,
                f"{info.name} (arity {info.arity}) matches no pipeline-"
                f"decomposition branch; decompose_into_pipelines would "
                f"raise on any plan containing it"))
        if tuple(info.stages) not in _LEGAL_SHAPES:
            declared = ", ".join(s.value for s in info.stages) or "<empty>"
            findings.append(Finding(
                "PI005", Severity.ERROR, path, line,
                f"{info.name}: stage tuple ({declared}) is not one of the "
                f"four legal shapes (Scan | PassThrough | Build,Probe | "
                f"Build,Scan)"))
        elif shape is not None and tuple(info.stages) != shape:
            declared = ", ".join(s.value for s in info.stages)
            derived = ", ".join(s.value for s in shape)
            findings.append(Finding(
                "PI004", Severity.ERROR, path, line,
                f"{info.name}: OPERATOR_STAGES declares ({declared}) but "
                f"the decomposer emits ({derived}); features would attach "
                f"to stages that never execute"))
        if (info.stages and Stage.PROBE in info.stages
                and not info.probe_capable):
            findings.append(Finding(
                "PI008", Severity.ERROR, path, line,
                f"{info.name} declares a Probe stage but its physical "
                f"class has no build_child; compute_stage_flows raises "
                f"PlanError on every plan using it"))
    return findings


def _collect_operator_infos() -> List[OperatorInfo]:
    from ..engine import physical, stages

    classes: Dict[stages.OperatorType, type] = {}
    for obj in vars(physical).values():
        if (isinstance(obj, type)
                and issubclass(obj, physical.PhysicalOperator)
                and isinstance(getattr(obj, "op_type", None),
                               stages.OperatorType)):
            classes.setdefault(obj.op_type, obj)

    infos: List[OperatorInfo] = []
    for op_type in stages.OperatorType:
        cls = classes.get(op_type)
        declared = stages.OPERATOR_STAGES.get(op_type)
        probe_capable = cls is not None and (
            issubclass(cls, physical._JoinBase)
            or cls is physical.PCrossProduct)
        infos.append(OperatorInfo(
            name=op_type.value,
            stages=tuple(declared) if declared is not None else None,
            arity=cls.arity if cls is not None else None,
            probe_capable=probe_capable,
            binary=op_type in stages.BINARY_OPERATORS,
            materializing=op_type in stages.MATERIALIZING_OPERATORS))
    return infos


# -- PI006/PI007: the decomposer's AST ---------------------------------------

def _stageref_stage(call: ast.expr) -> Optional[str]:
    """``StageRef(op, Stage.X)`` -> ``"X"``."""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "StageRef" and len(call.args) == 2):
        return None
    member = enum_member(call.args[1])
    if member is not None and member[0] == "Stage":
        return member[1]
    return None


def _append_call(stmt: ast.stmt) -> Optional[ast.Call]:
    if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "append"):
        return stmt.value
    return None


def _statement_lists(func: ast.AST) -> List[List[ast.stmt]]:
    lists = []
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if (isinstance(stmts, list) and stmts
                    and all(isinstance(s, ast.stmt) for s in stmts)):
                lists.append(stmts)
    return lists


def verify_decomposer_ast(path: Union[str, Path] = _PIPELINES_PATH
                          ) -> List[Finding]:
    """PI006/PI007 over ``decompose_into_pipelines``'s inner ``visit``."""
    tree = load_module_ast(path)
    rel = repo_relative(path)
    outer = find_function(tree, "decompose_into_pipelines")
    visit = find_function(outer, "visit")
    findings: List[Finding] = []

    for stmts in _statement_lists(visit):
        for position, stmt in enumerate(stmts):
            call = _append_call(stmt)
            if call is None or not call.args:
                continue
            if _stageref_stage(call.args[0]) != "BUILD":
                continue
            target = call.func.value  # type: ignore[union-attr]
            follower = (stmts[position + 1]
                        if position + 1 < len(stmts) else None)
            follower_call = (_append_call(follower)
                             if follower is not None else None)
            completes = (
                follower_call is not None
                and isinstance(follower_call.func, ast.Attribute)
                and isinstance(follower_call.func.value, ast.Name)
                and follower_call.func.value.id == "completed"
                and len(follower_call.args) == 1
                and ast.dump(follower_call.args[0]) == ast.dump(target))
            if not completes:
                name = (target.id if isinstance(target, ast.Name)
                        else ast.unparse(target))
                findings.append(Finding(
                    "PI006", Severity.ERROR, rel, stmt.lineno,
                    f"BUILD stage appended to {name} is not immediately "
                    f"completed; a pipeline breaker must terminate its "
                    f"pipeline (completed.append({name}) expected next)"))

    for node in ast.walk(visit):
        if not (isinstance(node, ast.Return)
                and isinstance(node.value, ast.List)):
            continue
        elements = node.value.elts
        if not elements:
            findings.append(Finding(
                "PI007", Severity.ERROR, rel, node.lineno,
                "decomposer returns an empty pipeline"))
            continue
        first = _stageref_stage(elements[0])
        if first is not None and first != "SCAN":
            findings.append(Finding(
                "PI007", Severity.ERROR, rel, node.lineno,
                f"fresh pipeline starts with Stage.{first}; every pipeline "
                f"must start with a SCAN source"))
    return findings


# -- PI009/PI010: the featurizer's AST ---------------------------------------

_PERCENTAGE_SUFFIXES = {"in_percentage", "right_percentage",
                        "out_percentage"}


def _divides_by_start(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
                and isinstance(sub.right, ast.Name)
                and sub.right.id == "start"):
            return True
    return False


def _suffix_branches(func: ast.AST) -> List[Tuple[str, ast.If]]:
    """(string literal, branch) for each ``suffix == "..."`` arm."""
    branches = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "suffix"
                and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.comparators[0], ast.Constant)
                and isinstance(test.comparators[0].value, str)):
            branches.append((test.comparators[0].value, node))
    return branches


def _declared_expr_suffixes(tree: ast.Module) -> Set[str]:
    """``expr_*`` suffixes declared for (TableScan, Scan)."""
    table = module_assignment(tree, "_STAGE_FEATURES")
    suffixes: Set[str] = set()
    if not isinstance(table, ast.Dict):
        return suffixes
    for key, value in zip(table.keys, table.values):
        if not (isinstance(key, ast.Tuple) and len(key.elts) == 2):
            continue
        members = [enum_member(e) for e in key.elts]
        if (members[0] == ("OperatorType", "TABLE_SCAN")
                and members[1] == ("Stage", "SCAN")
                and isinstance(value, ast.Tuple)):
            for element in value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                        and element.value.startswith("expr_")):
                    suffixes.add(element.value)
    return suffixes


def verify_featurization_ast(path: Union[str, Path] = _FEATURES_PATH
                             ) -> List[Finding]:
    """PI009/PI010 over ``FeatureRegistry``'s emit sites."""
    tree = load_module_ast(path)
    rel = repo_relative(path)
    findings: List[Finding] = []

    basic = find_class_function(tree, "FeatureRegistry",
                                "_basic_feature_extractor")
    for literal, branch in _suffix_branches(basic):
        if literal not in _PERCENTAGE_SUFFIXES:
            continue
        if not all(_divides_by_start(stmt) for stmt in branch.body):
            findings.append(Finding(
                "PI009", Severity.ERROR, rel, branch.lineno,
                f"percentage feature {literal!r} is emitted without "
                f"dividing by the pipeline's starting cardinality; the "
                f"value would not be a fraction of start"))

    expr = find_class_function(tree, "FeatureRegistry",
                               "_expression_percentages")
    if not _divides_by_start(expr):
        findings.append(Finding(
            "PI009", Severity.ERROR, rel, expr.lineno,
            "_expression_percentages never divides by start; expression "
            "percentages would not be normalized to the pipeline"))

    # PI010: class list <-> fractions[...] uses <-> emitted keys must be
    # a bijection, which is what makes the group provably sum to the
    # total evaluated fraction at every emit site.
    classes_node = module_assignment(tree, "_EXPRESSION_CLASSES")
    declared_classes: List[str] = []
    if isinstance(classes_node, (ast.Tuple, ast.List)):
        for element in classes_node.elts:
            member = enum_member(element)
            if member is not None and member[0] == "ExpressionKind":
                declared_classes.append(member[1])

    return_dict: Optional[ast.Dict] = None
    for node in ast.walk(expr):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            return_dict = node.value
    if return_dict is None:
        findings.append(Finding(
            "PI010", Severity.ERROR, rel, expr.lineno,
            "_expression_percentages does not return a literal dict; the "
            "partition of expression classes cannot be verified"))
        return findings

    emitted: Dict[str, List[str]] = {}
    for key, value in zip(return_dict.keys, return_dict.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        used: List[str] = []
        for sub in ast.walk(value):
            if (isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "fractions"):
                member = enum_member(sub.slice)
                if member is not None and member[0] == "ExpressionKind":
                    used.append(member[1])
        emitted[key.value] = used

    line = return_dict.lineno
    used_members = [m for members in emitted.values() for m in members]
    for key, members in emitted.items():
        if len(members) != 1:
            findings.append(Finding(
                "PI010", Severity.ERROR, rel, line,
                f"emitted feature {key!r} draws on {len(members)} "
                f"expression classes; each key must read exactly one "
                f"fractions[...] entry"))
    for member in declared_classes:
        if used_members.count(member) != 1:
            findings.append(Finding(
                "PI010", Severity.ERROR, rel, line,
                f"ExpressionKind.{member} is read {used_members.count(member)} "
                f"times by the emit dict; the emit must partition "
                f"_EXPRESSION_CLASSES exactly (group sums break otherwise)"))

    declared_suffixes = _declared_expr_suffixes(tree)
    if declared_suffixes and declared_suffixes != set(emitted):
        missing = declared_suffixes - set(emitted)
        extra = set(emitted) - declared_suffixes
        detail = "; ".join(filter(None, [
            f"declared but never emitted: {', '.join(sorted(missing))}"
            if missing else "",
            f"emitted but never declared: {', '.join(sorted(extra))}"
            if extra else ""]))
        findings.append(Finding(
            "PI010", Severity.ERROR, rel, line,
            f"expr_* schema and emit keys disagree ({detail})"))
    return findings


# -- PI011: cardinality clamps -----------------------------------------------

def _has_bounded_call(node: ast.AST, fn: str, bound: float) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == fn
                and any(isinstance(a, ast.Constant) and a.value == bound
                        for a in sub.args)):
            return True
    return False


def _calls_method(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Call)
               and isinstance(sub.func, ast.Attribute)
               and sub.func.attr == name
               for sub in ast.walk(node))


def verify_cardinality_ast(path: Union[str, Path] = _CARDINALITY_PATH
                           ) -> List[Finding]:
    """PI011: the clamps that keep cardinalities sane."""
    tree = load_module_ast(path)
    rel = repo_relative(path)
    findings: List[Finding] = []

    sites = [
        ("output_cardinality", "max", 0.0,
         "memoized output cardinality is not clamped to >= 0"),
        ("predicate_selectivity", "min", 1.0,
         "predicate selectivity is not clamped to <= 1"),
        ("predicate_selectivity", "max", 0.0,
         "predicate selectivity is not clamped to >= 0"),
        ("_conjunction_selectivity", "min", 1.0,
         "conjunction selectivity is not clamped to <= 1 (filters would "
         "not be monotone)"),
        ("_conjunction_selectivity", "max", 0.0,
         "conjunction selectivity is not clamped to >= 0"),
    ]
    for method, fn, bound, message in sites:
        func = find_class_function(tree, "CardinalityModel", method)
        if not _has_bounded_call(func, fn, bound):
            findings.append(Finding(
                "PI011", Severity.ERROR, rel, func.lineno,
                f"CardinalityModel.{method}: {message}"))

    compute = find_class_function(tree, "CardinalityModel", "_compute")
    filter_ok = False
    for node in ast.walk(compute):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.Call)
                and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance"
                and any("PFilter" in ast.dump(a) for a in test.args[1:])):
            continue
        # Monotonicity: the filter branch must multiply the child's
        # cardinality by the (clamped <= 1) conjunction selectivity.
        for sub in ast.walk(node):
            if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                    and (_calls_method(sub, "_conjunction_selectivity"))):
                filter_ok = True
    if not filter_ok:
        findings.append(Finding(
            "PI011", Severity.ERROR, rel, compute.lineno,
            "CardinalityModel._compute: PFilter branch does not multiply "
            "the child cardinality by _conjunction_selectivity; filter "
            "outputs are not provably <= their input"))
    return findings


# -- PI012: target transform -------------------------------------------------

def verify_target_transform(path: Union[str, Path] = _TARGETS_PATH
                            ) -> List[Finding]:
    """PI012: finite, ordered clamp bounds and a clip before the log."""
    tree = load_module_ast(path)
    rel = repo_relative(path)
    findings: List[Finding] = []

    bounds: Dict[str, Optional[float]] = {}
    for name in ("MIN_TUPLE_TIME", "MAX_TUPLE_TIME"):
        node = module_assignment(tree, name)
        try:
            bounds[name] = float(ast.literal_eval(node))  # type: ignore[arg-type]
        except (TypeError, ValueError, SyntaxError):
            bounds[name] = None
            findings.append(Finding(
                "PI012", Severity.ERROR, rel,
                getattr(node, "lineno", 0),
                f"{name} is not a numeric literal; clamp bounds must be "
                f"statically known"))

    low, high = bounds.get("MIN_TUPLE_TIME"), bounds.get("MAX_TUPLE_TIME")
    if low is not None and high is not None:
        problems = []
        if not (low > 0.0 and math.isfinite(low)):
            problems.append(f"MIN_TUPLE_TIME={low!r} must be finite and > 0"
                            f" (otherwise -log(t) diverges)")
        if not (math.isfinite(high) and high > low):
            problems.append(f"MAX_TUPLE_TIME={high!r} must be finite and "
                            f"> MIN_TUPLE_TIME")
        if not problems and not all(
                math.isfinite(-math.log(b)) for b in (low, high)):
            problems.append("transformed bounds are not finite")
        for problem in problems:
            findings.append(Finding("PI012", Severity.ERROR, rel, 0, problem))

    transform = find_function(tree, "transform_target")
    clip_ok = False
    for node in ast.walk(transform):
        if (isinstance(node, ast.Call)
                and dotted_name(node.func) in ("np.clip", "numpy.clip")):
            names = {sub.id for a in node.args
                     for sub in ast.walk(a) if isinstance(sub, ast.Name)}
            if {"MIN_TUPLE_TIME", "MAX_TUPLE_TIME"} <= names:
                clip_ok = True
    if not clip_ok:
        findings.append(Finding(
            "PI012", Severity.ERROR, rel, transform.lineno,
            "transform_target does not clip to [MIN_TUPLE_TIME, "
            "MAX_TUPLE_TIME] before the log; zero inputs would produce "
            "non-finite targets"))
    if not any(isinstance(n, ast.Call)
               and dotted_name(n.func) in ("np.log", "numpy.log")
               for n in ast.walk(transform)):
        findings.append(Finding(
            "PI012", Severity.ERROR, rel, transform.lineno,
            "transform_target does not apply the log transform"))

    inverse = find_function(tree, "inverse_transform")
    if not any(isinstance(n, ast.Call)
               and dotted_name(n.func) in ("np.exp", "numpy.exp")
               for n in ast.walk(inverse)):
        findings.append(Finding(
            "PI012", Severity.ERROR, rel, inverse.lineno,
            "inverse_transform does not invert via exp; round-tripping "
            "predictions would be wrong"))
    return findings


# -- entry point -------------------------------------------------------------

def check_plan_invariants() -> List[Finding]:
    """Run every PI rule against the live tables and real sources."""
    stages_tree = load_module_ast(_STAGES_PATH)
    table_node = module_assignment(stages_tree, "OPERATOR_STAGES")
    table_line = getattr(table_node, "lineno", 0)

    findings = verify_stage_tables(
        _collect_operator_infos(),
        path=repo_relative(_STAGES_PATH), line=table_line)
    findings.extend(verify_decomposer_ast())
    findings.extend(verify_featurization_ast())
    findings.extend(verify_cardinality_ast())
    findings.extend(verify_target_transform())
    return findings
