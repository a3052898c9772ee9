"""Tests for the HTTP front end and the ``repro-t3 serve`` CLI."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.faults  # noqa: F401  (its ServingError subclasses count)
from repro.errors import (
    ModelNotFoundError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    SchemaError,
    ServingError,
)
from repro.core.model import T3Config, T3Model
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServingConfig,
    ServingServer,
    error_response,
)
from repro.trees.boosting import BoostingParams

SQL = "SELECT count(*) FROM orders WHERE o_total <= 500"


@pytest.fixture(scope="module")
def toy_instance():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


@pytest.fixture(scope="module")
def toy_model(toy_instance):
    from repro.datagen.workload import WorkloadBuilder, WorkloadConfig
    workload = WorkloadBuilder(
        toy_instance, WorkloadConfig(queries_per_structure=2,
                                     include_fixed_benchmarks=False)).build()
    return T3Model.train(workload, T3Config(
        boosting=BoostingParams(n_rounds=15, objective="mape",
                                validation_fraction=0.2),
        compile_to_native=True))


@pytest.fixture(scope="module")
def server(toy_model, toy_instance):
    def resolve(name):
        if name == "toy":
            return toy_instance
        raise SchemaError(f"unknown instance {name!r}")

    registry = ModelRegistry()
    registry.register(toy_model, "toy-model")
    service = PredictionService(
        registry, ServingConfig(batch_wait_s=0.001),
        instance_resolver=resolve)
    server = ServingServer(service, port=0).start()
    yield server
    # stop HTTP only; the module-scoped model's library must stay loaded
    server._httpd.shutdown()
    server._httpd.server_close()


def _post(server, payload, path="/predict"):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=body,
                                     method="POST")
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(server.url + path) as response:
        return response.status, response.read().decode()


class TestErrorMapping:
    def test_typed_errors_to_status_codes(self):
        assert error_response(QueueFullError("x")) == (429, "queue_full")
        assert error_response(RequestTimeoutError("x")) == (504, "timeout")
        assert error_response(ModelNotFoundError("x")) == (
            404, "model_not_found")
        assert error_response(SchemaError("x")) == (400, "bad_request")
        assert error_response(ReproError("x")) == (400, "bad_request")
        assert error_response(RuntimeError("x")) == (500, "internal_error")

    def test_every_serving_error_has_its_own_envelope(self):
        """A ``ServingError`` subclass with no ``isinstance`` arm in
        ``error_response`` falls through to the generic 400 and hides
        its meaning from clients; an inherited arm counts."""
        subclasses, queue = [], list(ServingError.__subclasses__())
        while queue:
            cls = queue.pop()
            subclasses.append(cls)
            queue.extend(cls.__subclasses__())
        assert len(subclasses) >= 8
        for cls in subclasses:
            code = error_response(cls("x"))[1]
            assert code not in ("bad_request", "internal_error"), cls


class TestHTTPEndpoints:
    def test_predict_round_trip(self, server):
        status, payload = _post(server, {"sql": SQL, "instance": "toy"})
        assert status == 200
        assert payload["predicted_seconds"] > 0
        assert payload["model"] == "toy-model"
        assert payload["backend"] in ("compiled", "interpreted")
        assert set(payload["stages"]) == {
            "parse_seconds", "featurize_seconds", "infer_seconds",
            "total_seconds"}

    def test_predict_batch_round_trip(self, server):
        status, payload = _post(server, [
            {"sql": SQL, "instance": "toy"},
            {"sql": "SELECT count(*) FROM customer", "instance": "toy"}])
        assert status == 200
        assert isinstance(payload, list) and len(payload) == 2
        assert all(item["predicted_seconds"] > 0 for item in payload)

    def test_predict_batch_validates_every_item(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, [{"sql": SQL, "instance": "toy"},
                           {"sql": SQL}])
        assert excinfo.value.code == 400

    def test_metrics_exposition(self, server):
        _post(server, {"sql": SQL, "instance": "toy"})
        status, text = _get(server, "/metrics")
        assert status == 200
        assert "# TYPE t3_serving_requests_total counter" in text
        assert "t3_serving_queue_capacity" in text

    def test_healthz(self, server):
        status, text = _get(server, "/healthz")
        payload = json.loads(text)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"][0]["name"] == "toy-model"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, b"{not json")
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "invalid_json"

    def test_missing_fields_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, {"sql": SQL})
        assert excinfo.value.code == 400

    def test_bad_sql_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, {"sql": "SELECT FROM", "instance": "toy"})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "bad_request"

    def test_unknown_instance_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, {"sql": SQL, "instance": "missing"})
        assert excinfo.value.code == 404
        assert json.loads(
            excinfo.value.read())["error"] == "instance_not_found"

    def test_unknown_model_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, {"sql": SQL, "instance": "toy",
                           "model": "absent"})
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"] == "model_not_found"


class TestServeCLI:
    """End-to-end: ``repro-t3 serve`` as a real subprocess."""

    @pytest.fixture(scope="class")
    def model_file(self, toy_model, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-cli") / "model.json"
        toy_model.save(path)
        return path

    def test_serve_subprocess_smoke(self, model_file, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "-m", str(model_file), "--port", "0",
             "--port-file", str(port_file), "--no-compile"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() and time.monotonic() < deadline:
                assert process.poll() is None, \
                    process.communicate()[1].decode()
                time.sleep(0.1)
            assert port_file.exists(), "server never wrote its port file"
            url = f"http://127.0.0.1:{int(port_file.read_text())}"

            body = json.dumps({
                "sql": "SELECT count(*) FROM lineitem "
                       "WHERE l_quantity <= 10",
                "instance": "tpch_sf1"}).encode()
            request = urllib.request.Request(url + "/predict", data=body,
                                             method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read())
            assert payload["predicted_seconds"] > 0
            assert payload["backend"] == "interpreted"  # --no-compile

            with urllib.request.urlopen(url + "/metrics",
                                        timeout=30) as response:
                metrics = response.read().decode()
            assert "t3_serving_requests_total 1" in metrics

            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr.decode()
            assert "shutting down" in stderr.decode()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
