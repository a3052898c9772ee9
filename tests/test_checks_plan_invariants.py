"""Plan-invariant verifier (PI rules): per-rule triggers and clean passes.

The table rules (PI001..PI005, PI008) are driven by planted
:class:`OperatorInfo` lists; the AST rules (PI006..PI012) by fixture
source files with one planted defect each, next to a clean fixture of
the same shape. ``check_plan_invariants`` against the live repo proves
the engine itself satisfies every invariant.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.checks.plan_invariants import (
    OperatorInfo,
    check_plan_invariants,
    verify_cardinality_ast,
    verify_decomposer_ast,
    verify_featurization_ast,
    verify_stage_tables,
    verify_target_transform,
)
from repro.engine.stages import Stage
from repro.errors import CheckError


def _info(name="HashJoin", stages=(Stage.BUILD, Stage.PROBE), arity=2,
          probe_capable=True, binary=True, materializing=False):
    return OperatorInfo(name=name, stages=stages, arity=arity,
                        probe_capable=probe_capable, binary=binary,
                        materializing=materializing)


def _table_rules(*infos):
    return {f.rule for f in verify_stage_tables(list(infos))}


# ---------------------------------------------------------------------------
# PI001..PI005, PI008 — the stage tables
# ---------------------------------------------------------------------------

def test_pi001_missing_stage_declaration():
    assert _table_rules(_info(stages=None)) == {"PI001"}


def test_pi001_missing_physical_class():
    assert _table_rules(_info(arity=None)) == {"PI001"}


def test_pi002_binary_and_materializing():
    assert "PI002" in _table_rules(_info(binary=True, materializing=True))


def test_pi003_undecomposable_operator():
    undecomposable = _info(name="Mystery", stages=(Stage.SCAN,), arity=3,
                           probe_capable=False, binary=False,
                           materializing=False)
    assert _table_rules(undecomposable) == {"PI003"}


def test_pi004_declared_stages_disagree_with_decomposer():
    drifted = _info(name="Filter", stages=(Stage.SCAN,), arity=1,
                    probe_capable=False, binary=False, materializing=False)
    # arity-1 operators decompose to PassThrough, not Scan.
    assert _table_rules(drifted) == {"PI004"}


def test_pi005_malformed_stage_tuple():
    malformed = _info(stages=(Stage.PROBE,))
    assert _table_rules(malformed) == {"PI005"}


def test_pi008_probe_without_probe_capability():
    assert _table_rules(_info(probe_capable=False)) == {"PI008"}


def test_stage_tables_clean_fixture():
    clean = [
        _info(name="TableScan", stages=(Stage.SCAN,), arity=0,
              probe_capable=False, binary=False, materializing=False),
        _info(name="Filter", stages=(Stage.PASS_THROUGH,), arity=1,
              probe_capable=False, binary=False, materializing=False),
        _info(name="HashJoin"),
        _info(name="Sort", stages=(Stage.BUILD, Stage.SCAN), arity=1,
              probe_capable=False, binary=False, materializing=True),
        _info(name="Union", stages=(Stage.BUILD, Stage.SCAN), arity=2,
              probe_capable=False, binary=True, materializing=False),
        _info(name="IndexNLJoin", stages=(Stage.PASS_THROUGH,), arity=1,
              probe_capable=False, binary=False, materializing=False),
    ]
    assert verify_stage_tables(clean) == []


# ---------------------------------------------------------------------------
# PI006/PI007 — decomposer AST
# ---------------------------------------------------------------------------

_DECOMPOSER_CLEAN = '''
def decompose_into_pipelines(plan):
    def visit(op, pipeline):
        if op.breaker:
            pipeline.append(StageRef(op, Stage.BUILD))
            completed.append(pipeline)
            return [StageRef(op, Stage.SCAN)]
        return [StageRef(op, Stage.SCAN)]
    completed = []
    visit(plan, [])
    return completed
'''


def _write(tmp_path, source):
    path = tmp_path / "pipelines_fixture.py"
    path.write_text(textwrap.dedent(source))
    return path


def test_pi006_build_append_without_completion(tmp_path):
    broken = _DECOMPOSER_CLEAN.replace(
        "            completed.append(pipeline)\n", "")
    findings = verify_decomposer_ast(_write(tmp_path, broken))
    assert {f.rule for f in findings} == {"PI006"}
    assert "completed.append" in findings[0].message


def test_pi007_fresh_pipeline_not_starting_with_scan(tmp_path):
    broken = _DECOMPOSER_CLEAN.replace(
        "            return [StageRef(op, Stage.SCAN)]",
        "            return [StageRef(op, Stage.PROBE)]")
    findings = verify_decomposer_ast(_write(tmp_path, broken))
    assert {f.rule for f in findings} == {"PI007"}


def test_decomposer_clean_fixture(tmp_path):
    assert verify_decomposer_ast(_write(tmp_path, _DECOMPOSER_CLEAN)) == []


# ---------------------------------------------------------------------------
# PI009/PI010 — featurizer AST
# ---------------------------------------------------------------------------

_FEATURES_CLEAN = '''
_EXPRESSION_CLASSES = (
    ExpressionKind.COMPARISON,
    ExpressionKind.ARITHMETIC,
)

_STAGE_FEATURES = {
    (OperatorType.TABLE_SCAN, Stage.SCAN): (
        "expr_comparison_percentage",
        "expr_arithmetic_percentage",
    ),
}


class FeatureRegistry:
    @staticmethod
    def _basic_feature_extractor(suffix, op_type, stage):
        if suffix == "in_percentage":
            return lambda flow, op, start: flow.tuples_in / start
        if suffix == "right_percentage":
            return lambda flow, op, start: flow.tuples_in / start
        if suffix == "out_percentage":
            return lambda flow, op, start: flow.tuples_out / start
        return None

    def _expression_percentages(self, fractions, start, scale):
        scale = scale / start
        return {
            "expr_comparison_percentage":
                fractions[ExpressionKind.COMPARISON] * scale,
            "expr_arithmetic_percentage":
                fractions[ExpressionKind.ARITHMETIC] * scale,
        }
'''


def _features(tmp_path, source):
    path = tmp_path / "features_fixture.py"
    path.write_text(textwrap.dedent(source))
    return verify_featurization_ast(path)


def test_pi009_percentage_without_start_division(tmp_path):
    broken = _FEATURES_CLEAN.replace(
        'return lambda flow, op, start: flow.tuples_in / start\n'
        '        if suffix == "right_percentage"',
        'return lambda flow, op, start: flow.tuples_in\n'
        '        if suffix == "right_percentage"')
    assert broken != _FEATURES_CLEAN
    findings = _features(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI009"}
    assert "in_percentage" in findings[0].message


def test_pi009_expression_percentages_without_start(tmp_path):
    broken = _FEATURES_CLEAN.replace("scale = scale / start",
                                     "scale = scale")
    findings = _features(tmp_path, broken)
    assert any(f.rule == "PI009" for f in findings)


def test_pi010_key_reading_two_classes(tmp_path):
    broken = _FEATURES_CLEAN.replace(
        "fractions[ExpressionKind.COMPARISON] * scale",
        "(fractions[ExpressionKind.COMPARISON]"
        " + fractions[ExpressionKind.ARITHMETIC]) * scale")
    findings = _features(tmp_path, broken)
    rules = {f.rule for f in findings}
    assert rules == {"PI010"}
    # The double-read key AND the twice-consumed class are both reported.
    assert len(findings) == 2


def test_pi010_declared_class_never_emitted(tmp_path):
    broken = _FEATURES_CLEAN.replace(
        '            "expr_arithmetic_percentage":\n'
        '                fractions[ExpressionKind.ARITHMETIC] * scale,\n', "")
    findings = _features(tmp_path, broken)
    assert all(f.rule == "PI010" for f in findings)
    assert any("ARITHMETIC" in f.message for f in findings)
    # The schema/emit mismatch is reported too.
    assert any("declared but never emitted" in f.message for f in findings)


def test_featurizer_clean_fixture(tmp_path):
    assert _features(tmp_path, _FEATURES_CLEAN) == []


def test_pi009_fires_on_the_real_featurizer(tmp_path):
    """PI009 reads the real extractor dispatch: dropping ``/ start``
    from its ``in_percentage`` extractor is caught."""
    import repro.core.features as features
    anchor = ('if suffix == "in_percentage":\n'
              '            return lambda flow, op, start: flow.tuples_in / start')
    source = Path(features.__file__).read_text()
    assert source.count(anchor) == 1
    mutated = tmp_path / "features.py"
    mutated.write_text(source.replace(
        anchor, anchor.replace("flow.tuples_in / start", "flow.tuples_in")))
    assert verify_featurization_ast(features.__file__) == []
    findings = verify_featurization_ast(mutated)
    assert [f.rule for f in findings] == ["PI009"]
    assert "in_percentage" in findings[0].message


# ---------------------------------------------------------------------------
# PI011 — cardinality clamps
# ---------------------------------------------------------------------------

_CARDINALITY_CLEAN = '''
class CardinalityModel:
    def output_cardinality(self, op):
        return max(0.0, self._compute(op))

    def predicate_selectivity(self, pred):
        return min(1.0, max(0.0, self._estimate(pred)))

    def _conjunction_selectivity(self, preds):
        total = 1.0
        for pred in preds:
            total *= self.predicate_selectivity(pred)
        return min(1.0, max(0.0, total))

    def _compute(self, op):
        if isinstance(op, PFilter):
            child = self.output_cardinality(op.child)
            return child * self._conjunction_selectivity(op.predicates)
        return op.base_rows
'''


def _cardinality(tmp_path, source):
    path = tmp_path / "cardinality_fixture.py"
    path.write_text(textwrap.dedent(source))
    return verify_cardinality_ast(path)


def test_pi011_missing_nonnegativity_clamp(tmp_path):
    broken = _CARDINALITY_CLEAN.replace(
        "return max(0.0, self._compute(op))",
        "return self._compute(op)")
    findings = _cardinality(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI011"}
    assert "output_cardinality" in findings[0].message


def test_pi011_missing_selectivity_upper_clamp(tmp_path):
    broken = _CARDINALITY_CLEAN.replace(
        "return min(1.0, max(0.0, total))",
        "return max(0.0, total)")
    findings = _cardinality(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI011"}
    assert "monotone" in findings[0].message


def test_pi011_filter_branch_not_multiplicative(tmp_path):
    broken = _CARDINALITY_CLEAN.replace(
        "return child * self._conjunction_selectivity(op.predicates)",
        "return child")
    findings = _cardinality(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI011"}
    assert "_compute" in findings[0].message


def test_cardinality_clean_fixture(tmp_path):
    assert _cardinality(tmp_path, _CARDINALITY_CLEAN) == []


# ---------------------------------------------------------------------------
# PI012 — target transform
# ---------------------------------------------------------------------------

_TARGETS_CLEAN = '''
import numpy as np

MIN_TUPLE_TIME = 1e-15
MAX_TUPLE_TIME = 10.0


def transform_target(t):
    clipped = np.clip(t, MIN_TUPLE_TIME, MAX_TUPLE_TIME)
    return -np.log(clipped)


def inverse_transform(raw):
    return np.exp(-raw)
'''


def _targets(tmp_path, source):
    path = tmp_path / "targets_fixture.py"
    path.write_text(textwrap.dedent(source))
    return verify_target_transform(path)


def test_pi012_zero_lower_bound(tmp_path):
    broken = _TARGETS_CLEAN.replace("MIN_TUPLE_TIME = 1e-15",
                                    "MIN_TUPLE_TIME = 0.0")
    findings = _targets(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI012"}
    assert "diverges" in findings[0].message


def test_pi012_non_literal_bound(tmp_path):
    broken = _TARGETS_CLEAN.replace("MAX_TUPLE_TIME = 10.0",
                                    "MAX_TUPLE_TIME = compute_bound()")
    findings = _targets(tmp_path, broken)
    assert any(f.rule == "PI012" for f in findings)


def test_pi012_missing_clip(tmp_path):
    broken = _TARGETS_CLEAN.replace(
        "    clipped = np.clip(t, MIN_TUPLE_TIME, MAX_TUPLE_TIME)\n"
        "    return -np.log(clipped)",
        "    return -np.log(t)")
    findings = _targets(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI012"}
    assert "clip" in findings[0].message


def test_pi012_inverse_without_exp(tmp_path):
    broken = _TARGETS_CLEAN.replace("return np.exp(-raw)", "return -raw")
    findings = _targets(tmp_path, broken)
    assert {f.rule for f in findings} == {"PI012"}
    assert "inverse" in findings[0].message


def test_targets_clean_fixture(tmp_path):
    assert _targets(tmp_path, _TARGETS_CLEAN) == []


# ---------------------------------------------------------------------------
# the repo itself
# ---------------------------------------------------------------------------

def test_repo_satisfies_every_plan_invariant():
    assert check_plan_invariants() == []


def test_missing_fixture_path_is_typed_error():
    with pytest.raises(CheckError):
        verify_decomposer_ast("/nonexistent/pipelines.py")
