"""Feature-schema drift detection (declaration vs. extraction vs. model).

The ~110-feature pipeline vector is the contract between featurization,
training, and serving; T3's predictions are garbage the moment the
layout drifts. Three artifacts must agree:

1. the **declarations** — ``_STAGE_FEATURES`` in ``core/features.py``
   and ``OPERATOR_STAGES`` in ``engine/stages.py``,
2. the **emit sites** — the ``suffix == "..."`` dispatch chain in
   ``FeatureRegistry._basic_feature_extractor`` (which the registry runs
   once per declared feature to pick its extractor), plus the keys
   returned by ``_expression_percentages`` and the ``count`` write in
   ``_fill_stage``,
3. any **persisted model** — ``n_features`` and, when present, the
   ``feature_names`` layout saved by :meth:`repro.core.model.T3Model.save`.

This analyzer reads 1 and 2 from the AST (no execution of the extractor)
and cross-checks them against each other and against the live
:class:`~repro.core.features.FeatureRegistry` layout:

* FS001 — extractor emits a feature no declaration mentions (the value
  would be silently dropped),
* FS002 — declared feature with no extractor branch (KeyError at the
  first pipeline that reaches it),
* FS003 — index/order drift between the declared layout, the live
  registry, or a persisted model's ``feature_names``,
* FS004 — persisted model ``n_features`` disagrees with the registry,
* FS005 — ``_STAGE_FEATURES`` declares a ``(operator, stage)`` pair the
  engine's ``OPERATOR_STAGES`` does not produce (dead declaration),
* FS006 — duplicate basic-feature name within one stage declaration.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import CheckError
from .astutils import (
    PACKAGE_ROOT,
    find_class_function,
    load_module_ast,
    repo_relative,
)
from .findings import Finding, Severity

__all__ = ["DeclaredSchema", "extract_declared_schema",
           "extract_emitted_features", "check_feature_schema"]

_FEATURES_PATH = PACKAGE_ROOT / "core" / "features.py"
_STAGES_PATH = PACKAGE_ROOT / "engine" / "stages.py"


@dataclass
class DeclaredSchema:
    """``_STAGE_FEATURES`` as written in the source."""

    #: (operator enum member, stage enum member) -> list of (suffix, line)
    stage_features: Dict[Tuple[str, str], List[Tuple[str, int]]]
    #: dict-key line per pair, for findings about the pair itself
    pair_lines: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def all_suffixes(self) -> Set[str]:
        return {suffix for entries in self.stage_features.values()
                for suffix, _ in entries}


@dataclass
class EmittedFeatures:
    """What the extractor dispatch chain can actually produce."""

    #: suffixes with an explicit ``suffix == "..."`` dispatch branch
    handled: Dict[str, int]
    #: prefixes routed to ``_expression_percentages`` (e.g. ``expr_``)
    prefixes: Dict[str, int]
    #: keys of the dict `_expression_percentages` returns
    expression_keys: Dict[str, int]
    #: features emitted structurally (``count`` via the stage plan's
    #: ``count_index`` write in ``_fill_stage``)
    direct: Dict[str, int]

    def covers(self, suffix: str) -> bool:
        if suffix in self.handled or suffix in self.direct:
            return True
        return any(suffix.startswith(prefix) and suffix in self.expression_keys
                   for prefix in self.prefixes)


def _enum_pair(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``(OperatorType.X, Stage.Y)`` -> ``("X", "Y")``."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
        return None
    names = []
    for element in node.elts:
        if not isinstance(element, ast.Attribute):
            return None
        names.append(element.attr)
    return names[0], names[1]


def extract_declared_schema(features_path: Union[str, Path] = _FEATURES_PATH
                            ) -> DeclaredSchema:
    """Read ``_STAGE_FEATURES`` from the source, without importing it."""
    tree = load_module_ast(features_path)
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "_STAGE_FEATURES"
                   for t in targets):
            continue
        value = node.value
        if not isinstance(value, ast.Dict):
            raise CheckError("_STAGE_FEATURES is not a dict literal")
        schema = DeclaredSchema(stage_features={})
        for key, entry in zip(value.keys, value.values):
            pair = _enum_pair(key) if key is not None else None
            if pair is None:
                raise CheckError(
                    f"_STAGE_FEATURES key at line {key.lineno if key else '?'}"
                    " is not an (OperatorType, Stage) tuple")
            if not isinstance(entry, (ast.Tuple, ast.List)):
                raise CheckError(
                    f"_STAGE_FEATURES value for {pair} is not a tuple")
            suffixes = []
            for element in entry.elts:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    raise CheckError(
                        f"_STAGE_FEATURES entry for {pair} holds a "
                        "non-string element")
                suffixes.append((element.value, element.lineno))
            schema.stage_features[pair] = suffixes
            schema.pair_lines[pair] = key.lineno
        return schema
    raise CheckError(f"_STAGE_FEATURES not found in {features_path}")


def extract_operator_stages(stages_path: Union[str, Path] = _STAGES_PATH
                            ) -> Dict[str, List[str]]:
    """Read ``OPERATOR_STAGES`` (operator member -> stage members)."""
    tree = load_module_ast(stages_path)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        if not any(isinstance(t, ast.Name) and t.id == "OPERATOR_STAGES"
                   for t in targets):
            continue
        value = node.value
        if not isinstance(value, ast.Dict):
            raise CheckError("OPERATOR_STAGES is not a dict literal")
        stages: Dict[str, List[str]] = {}
        for key, entry in zip(value.keys, value.values):
            if not isinstance(key, ast.Attribute):
                raise CheckError("OPERATOR_STAGES key is not OperatorType.X")
            if not isinstance(entry, (ast.Tuple, ast.List)):
                raise CheckError("OPERATOR_STAGES value is not a tuple")
            stages[key.attr] = [element.attr for element in entry.elts
                                if isinstance(element, ast.Attribute)]
        return stages
    raise CheckError(f"OPERATOR_STAGES not found in {stages_path}")


def extract_emitted_features(features_path: Union[str, Path] = _FEATURES_PATH
                             ) -> EmittedFeatures:
    """Read the extractor dispatch chain's emit capability from the source."""
    tree = load_module_ast(features_path)
    emitted = EmittedFeatures(handled={}, prefixes={},
                              expression_keys={}, direct={})

    basic = find_class_function(tree, "FeatureRegistry",
                                "_basic_feature_extractor")
    for node in ast.walk(basic):
        if isinstance(node, ast.Compare):
            left, ops, comparators = node.left, node.ops, node.comparators
            if (isinstance(left, ast.Name) and left.id == "suffix"
                    and len(ops) == 1 and isinstance(ops[0], ast.Eq)
                    and isinstance(comparators[0], ast.Constant)
                    and isinstance(comparators[0].value, str)):
                emitted.handled.setdefault(comparators[0].value, node.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "startswith"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "suffix" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                emitted.prefixes.setdefault(node.args[0].value, node.lineno)

    expressions = find_class_function(tree, "FeatureRegistry", "_expression_percentages")
    for node in ast.walk(expressions):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    emitted.expression_keys.setdefault(key.value, key.lineno)

    fill_stage = find_class_function(tree, "FeatureRegistry", "_fill_stage")
    for node in ast.walk(fill_stage):
        if isinstance(node, ast.Attribute) and node.attr == "count_index":
            emitted.direct.setdefault("count", node.lineno)
    return emitted


def _expected_feature_names(schema: DeclaredSchema,
                            operator_stages: Dict[str, List[str]]) -> List[str]:
    """Reconstruct the registry layout from declarations alone.

    Mirrors ``FeatureRegistry.__init__``: definition order of
    ``OPERATOR_STAGES``, a ``count`` per pair, then the declared basic
    features. Enum *members* map to their values by the repo convention
    (``TABLE_SCAN`` -> ``TableScan``); the live enum supplies the value.
    """
    from ..engine.stages import OperatorType, Stage
    names = []
    for op_member, stage_members in operator_stages.items():
        op_value = OperatorType[op_member].value
        for stage_member in stage_members:
            stage_value = Stage[stage_member].value
            names.append(f"{op_value}_{stage_value}_count")
            for suffix, _ in schema.stage_features.get(
                    (op_member, stage_member), []):
                names.append(f"{op_value}_{stage_value}_{suffix}")
    return names


def check_feature_schema(features_path: Union[str, Path] = _FEATURES_PATH,
                         stages_path: Union[str, Path] = _STAGES_PATH,
                         model_path: Optional[Union[str, Path]] = None
                         ) -> List[Finding]:
    """Run the drift detector; optionally include a saved model file."""
    findings: List[Finding] = []
    features_path = Path(features_path)
    rel = repo_relative(features_path)
    schema = extract_declared_schema(features_path)
    emitted = extract_emitted_features(features_path)
    operator_stages = extract_operator_stages(stages_path)

    valid_pairs = {(op, stage) for op, stages in operator_stages.items()
                   for stage in stages}

    # FS005 / FS006 / FS002: declaration-side problems.
    for pair, entries in schema.stage_features.items():
        line = schema.pair_lines.get(pair, 0)
        if pair not in valid_pairs:
            findings.append(Finding(
                "FS005", Severity.ERROR, rel, line,
                f"_STAGE_FEATURES declares ({pair[0]}, {pair[1]}) but "
                "OPERATOR_STAGES never produces that stage"))
        seen: Set[str] = set()
        for suffix, suffix_line in entries:
            if suffix in seen:
                findings.append(Finding(
                    "FS006", Severity.ERROR, rel, suffix_line,
                    f"duplicate feature {suffix!r} declared for "
                    f"({pair[0]}, {pair[1]})"))
            seen.add(suffix)
            if not emitted.covers(suffix):
                findings.append(Finding(
                    "FS002", Severity.ERROR, rel, suffix_line,
                    f"feature {suffix!r} declared for ({pair[0]}, "
                    f"{pair[1]}) has no extractor branch in "
                    "_basic_feature_extractor"))

    # FS001: extractor-side emissions nothing declares.
    declared_suffixes = schema.all_suffixes()
    for suffix, line in emitted.expression_keys.items():
        if suffix not in declared_suffixes:
            findings.append(Finding(
                "FS001", Severity.ERROR, rel, line,
                f"_expression_percentages emits {suffix!r} but no stage "
                "declares it; the value is silently dropped"))
    for suffix, line in emitted.handled.items():
        if suffix not in declared_suffixes:
            findings.append(Finding(
                "FS001", Severity.WARNING, rel, line,
                f"extractor branch for {suffix!r} is dead: no stage "
                "declares that feature"))

    # FS003: declared layout vs. the live registry.
    from ..core.features import FeatureRegistry
    expected = _expected_feature_names(schema, operator_stages)
    live = FeatureRegistry().feature_names()
    if expected != live:
        drift = next((i for i, (a, b) in enumerate(zip(expected, live))
                      if a != b), min(len(expected), len(live)))
        findings.append(Finding(
            "FS003", Severity.ERROR, rel, 0,
            f"declared layout and live registry diverge at index {drift}: "
            f"declared {expected[drift] if drift < len(expected) else '<end>'!r}"
            f", live {live[drift] if drift < len(live) else '<end>'!r} "
            f"({len(expected)} declared vs {len(live)} live features)"))

    # FS003 / FS004: persisted model vs. the live registry.
    if model_path is not None:
        findings.extend(_check_model_file(Path(model_path), live))
    return findings


def _check_model_file(model_path: Path, live: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    if not model_path.exists():
        raise CheckError(f"model file not found: {model_path}")
    try:
        payload = json.loads(model_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"model file {model_path} is not JSON: {exc}") from exc
    rel = model_path.name
    inner = payload.get("model", payload)
    n_features = inner.get("n_features")
    if n_features is not None and n_features != len(live):
        findings.append(Finding(
            "FS004", Severity.ERROR, rel, 0,
            f"model was trained on {n_features} features, the registry "
            f"now has {len(live)}"))
    names = payload.get("feature_names")
    if names is not None and list(names) != live:
        drift = next((i for i, (a, b) in enumerate(zip(names, live))
                      if a != b), min(len(names), len(live)))
        findings.append(Finding(
            "FS003", Severity.ERROR, rel, 0,
            f"model feature_names diverge from the registry at index "
            f"{drift}: saved "
            f"{names[drift] if drift < len(names) else '<end>'!r}, live "
            f"{live[drift] if drift < len(live) else '<end>'!r}"))
    return findings
