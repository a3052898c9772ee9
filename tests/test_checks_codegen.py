"""Codegen verifier: mutation detection, round-trips, and speed.

The mutation tests are the verifier's own test oracle: corrupt one
aspect of the model after generating the C source and assert the
verifier pins the divergence on the right rule.
"""

from __future__ import annotations

import copy
import json
import math
import time

import numpy as np
import pytest

from repro.checks import parse_c_source, self_check_model, verify_codegen
from repro.cli import main
from repro.errors import CheckError, CompilationError
from repro.rng import DEFAULT_SEED, derive_rng
from repro.treecomp.codegen import generate_c_source
from repro.trees.boosting import (
    BoostedTreesModel,
    BoostingParams,
    train_boosted_trees,
)
from repro.trees.serialize import dumps_model
from repro.trees.tree import LEAF


def _rules(findings):
    return {f.rule for f in findings}


def _mutated(mutate):
    """Source from the pristine model, verified against a mutated copy."""
    model = self_check_model()
    source = generate_c_source(model)
    corrupt = copy.deepcopy(model)
    mutate(corrupt)
    return verify_codegen(corrupt, source=source)


def test_clean_self_check_model_verifies():
    assert verify_codegen(self_check_model()) == []


def test_flipped_threshold_detected():
    findings = _mutated(lambda m: m.trees[0].threshold.__setitem__(0, 42.5))
    assert "CG005" in _rules(findings)


def test_swapped_children_detected():
    def swap(m):
        tree = m.trees[0]
        tree.left[0], tree.right[0] = tree.right[0], tree.left[0]
    assert "CG003" in _rules(_mutated(swap))


def test_out_of_range_feature_index_detected():
    model = self_check_model()
    model.trees[0].feature[0] = model.n_features + 3
    findings = verify_codegen(model)
    assert "CG004" in _rules(findings)


def test_feature_index_mismatch_detected():
    def reroute(m):
        tree = m.trees[0]
        tree.feature[0] = (tree.feature[0] + 1) % m.n_features
    assert "CG004" in _rules(_mutated(reroute))


def test_wrong_base_score_detected():
    def bump(m):
        m.base_score += 1e-9
    assert "CG007" in _rules(_mutated(bump))


def test_missing_tree_function_detected():
    model = self_check_model()
    source = generate_c_source(model)
    truncated = source.replace("static double tree_4",
                               "static double shed_4")
    findings = verify_codegen(model, source=truncated)
    assert _rules(findings) & {"CG001", "CG002", "CG008"}


def test_unparseable_source_is_cg001():
    findings = verify_codegen(self_check_model(), source="int main() {}")
    assert _rules(findings) == {"CG001"}


def test_bare_nonfinite_literal_is_cg010():
    model = self_check_model()
    source = generate_c_source(model)
    first = repr(float(model.trees[0].value[2]))
    poisoned = source.replace(f"return {first};", "return nan;", 1)
    assert "CG010" in _rules(verify_codegen(model, source=poisoned))


def test_huge_val_leaves_round_trip():
    model = self_check_model()
    model.trees[1].value[3] = math.inf
    model.trees[2].value[4] = -math.inf
    assert verify_codegen(model) == []


def test_parse_recovers_exact_structure():
    model = self_check_model()
    parsed = parse_c_source(generate_c_source(model))
    assert len(parsed.trees) == model.n_trees
    assert parsed.base_score == model.base_score
    for parsed_tree, tree in zip(parsed.trees, model.trees):
        nodes, leaves = parsed_tree.count_nodes()
        assert nodes == len(tree.feature)
        assert leaves == int((tree.left == LEAF).sum())


def test_parsed_model_evaluates_like_the_booster():
    model = self_check_model()
    parsed = parse_c_source(generate_c_source(model))
    rng = derive_rng(DEFAULT_SEED, "tests", "codegen-eval")
    for x in rng.normal(size=(32, model.n_features)):
        assert parsed.evaluate(x) == model.predict_one(x)


def _trained_model(n_rounds: int):
    rng = derive_rng(DEFAULT_SEED, "tests", "codegen-trained", n_rounds)
    X = rng.uniform(0.0, 100.0, size=(256, 10))
    y = np.abs(X[:, 0] * 0.3 + X[:, 3] + rng.normal(size=256)) + 0.1
    params = BoostingParams(n_rounds=n_rounds, validation_fraction=0.2)
    return train_boosted_trees(X, y, params)


def test_trained_model_round_trips():
    assert verify_codegen(_trained_model(25)) == []


def test_200_tree_model_verifies_under_two_seconds():
    model = _trained_model(200)
    assert model.n_trees == 200
    started = time.perf_counter()
    findings = verify_codegen(model)
    elapsed = time.perf_counter() - started
    assert findings == []
    assert elapsed < 2.0, f"verification took {elapsed:.2f}s"


def test_codegen_rejects_nan_threshold():
    model = self_check_model()
    model.trees[0].threshold[0] = math.nan
    with pytest.raises(CompilationError):
        generate_c_source(model)


def test_codegen_rejects_infinite_threshold():
    model = self_check_model()
    model.trees[0].threshold[0] = math.inf
    with pytest.raises(CompilationError):
        generate_c_source(model)


def test_codegen_rejects_nan_leaf_and_base():
    model = self_check_model()
    model.trees[0].value[2] = math.nan
    with pytest.raises(CompilationError):
        generate_c_source(model)
    model = self_check_model()
    model.base_score = math.nan
    with pytest.raises(CompilationError):
        generate_c_source(model)


def test_parse_c_source_raises_typed_error():
    with pytest.raises(CheckError):
        parse_c_source("static double tree_0(const double *f) {")


def test_zero_tree_model_is_cg002():
    findings = verify_codegen(BoostedTreesModel([], 0.0, 4))
    assert [f.rule for f in findings] == ["CG002"]


def test_check_cli_reports_model_it_cannot_compile(tmp_path, capsys):
    # A saved model with a NaN split threshold: the emitter refuses it,
    # so `check --only codegen` must fail instead of reporting clean.
    model = self_check_model()
    model.trees[0].threshold[0] = math.nan
    with pytest.raises(CompilationError) as refusal:
        generate_c_source(model)
    path = tmp_path / "nan_threshold.json"
    path.write_text(dumps_model(model))
    assert main(["check", "--only", "codegen", "--model", str(path),
                 "--format", "json"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(f["rule"], f["severity"], f["message"]) for f in findings] == [
        ("CG010", "error", str(refusal.value))]
