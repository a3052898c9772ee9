"""Regression tests for defects the static analyzers surfaced.

Each test pins a fix recorded in the PR: typed errors where untyped
ones leaked out, and schema validation on persisted models.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.checks import self_check_model
from repro.core.features import FeatureRegistry
from repro.core.model import T3Config, T3Model
from repro.engine.stages import OperatorType, Stage
from repro.errors import ReproError, SchemaError
from repro.trees.boosting import BoostingParams
from repro.trees.serialize import dumps_model


@pytest.fixture(scope="module")
def toy_model(toy_workload):
    config = T3Config(
        boosting=BoostingParams(n_rounds=10, objective="mape",
                                validation_fraction=0.2),
        compile_to_native=False)
    return T3Model.train(toy_workload, config)


def test_unknown_operator_stage_pair_raises_schema_error():
    registry = FeatureRegistry()
    # TABLE_SCAN only has a SCAN stage; BUILD is not a registered pair.
    flow = SimpleNamespace(ref=SimpleNamespace(
        operator=SimpleNamespace(op_type=OperatorType.TABLE_SCAN),
        stage=Stage.BUILD))
    vector = np.zeros(registry.n_features)
    with pytest.raises(SchemaError) as excinfo:
        registry._fill_stage(vector, flow, 1.0, model=None)
    assert "TableScan" in str(excinfo.value)
    assert isinstance(excinfo.value, ReproError)


def test_describe_vector_rejects_wrong_length():
    registry = FeatureRegistry()
    with pytest.raises(SchemaError):
        registry.describe_vector(np.zeros(registry.n_features + 1))


def test_model_save_records_feature_names(tmp_path, toy_model):
    path = tmp_path / "model.json"
    toy_model.save(path)
    payload = json.loads(path.read_text())
    assert payload["feature_names"] == toy_model.registry.feature_names()
    assert len(payload["feature_names"]) == toy_model.registry.n_features


def test_model_load_rejects_foreign_feature_layout(tmp_path, toy_model):
    path = tmp_path / "model.json"
    toy_model.save(path)
    payload = json.loads(path.read_text())
    payload["feature_names"] = payload["feature_names"][:-1] + ["intruder"]
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        T3Model.load(path, compile_to_native=False)


def test_model_load_accepts_legacy_files_without_names(tmp_path, toy_model):
    path = tmp_path / "model.json"
    toy_model.save(path)
    payload = json.loads(path.read_text())
    del payload["feature_names"]
    path.write_text(json.dumps(payload))
    loaded = T3Model.load(path, compile_to_native=False)
    assert loaded.booster.n_trees == toy_model.booster.n_trees


def test_model_load_rejects_foreign_feature_count(tmp_path, toy_model):
    # A legacy document (no feature_names) whose booster reads another
    # number of features fails at load, not at its first prediction.
    path = tmp_path / "model.json"
    toy_model.save(path)
    payload = json.loads(path.read_text())
    del payload["feature_names"]
    payload["model"] = json.loads(dumps_model(self_check_model()))
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="reads 7 features"):
        T3Model.load(path, compile_to_native=False)


def test_model_construction_rejects_foreign_feature_count():
    # The same refusal as load, raised before save could write a
    # document whose feature_names disagree with its booster.
    with pytest.raises(SchemaError, match="reads 7 features"):
        T3Model(self_check_model(), T3Config(compile_to_native=False))
