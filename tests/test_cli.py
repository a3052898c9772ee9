"""Tests for the repro-t3 command-line interface."""

import json
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.datagen.workload import WorkloadConfig, build_corpus_workload


class TestInstances:
    def test_lists_corpus(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "tpch_sf1" in out and "imdb" in out
        assert len(out.strip().splitlines()) == 22  # header + 21


class TestWorkloadCommand:
    ARGS = ["workload", "--instances", "financial",
            "--queries-per-structure", "1", "--no-fixed-benchmarks"]

    def test_writes_the_serial_corpus(self, tmp_path):
        path = tmp_path / "workload.pkl"
        assert main(self.ARGS + ["-o", str(path)]) == 0
        with open(path, "rb") as handle:
            written = pickle.load(handle)
        expected = build_corpus_workload(
            ["financial"], WorkloadConfig(queries_per_structure=1,
                                          include_fixed_benchmarks=False))
        assert [q.name for q in written] == [q.name for q in expected]
        assert [q.median_time for q in written] == \
            [q.median_time for q in expected]
        for a, b in zip(written, expected):
            assert np.array_equal(a.pipeline_targets(), b.pipeline_targets())

    def test_jobs_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--jobs", "2", "-o", str(tmp_path / "w.pkl")])


class TestWorkloadTrainEvaluatePredict:
    @pytest.fixture(scope="class")
    def workload_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "workload.pkl"
        code = main(["workload", "--instances", "financial,hepatitis",
                     "--queries-per-structure", "2",
                     "--no-fixed-benchmarks", "-o", str(path)])
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def model_path(self, workload_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-model") / "model.json"
        code = main(["train", "-w", str(workload_path), "-o", str(path),
                     "--rounds", "20", "--no-compile"])
        assert code == 0
        return path

    def test_workload_file_loads(self, workload_path):
        with open(workload_path, "rb") as handle:
            queries = pickle.load(handle)
        assert len(queries) == 2 * 16 * 2  # structures x per x instances

    def test_train_writes_model(self, model_path, capsys):
        payload = json.loads(model_path.read_text())
        assert payload["model"]["format"] == "repro-gbdt"

    def test_evaluate(self, model_path, workload_path, capsys):
        assert main(["evaluate", "-m", str(model_path),
                     "-w", str(workload_path)]) == 0
        out = capsys.readouterr().out
        assert "q-error" in out and "p50=" in out

    def test_predict_sql(self, model_path, capsys):
        code = main(["predict", "-m", str(model_path), "-i", "tpch_sf1",
                     "SELECT count(*) FROM lineitem "
                     "WHERE l_quantity <= 10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted query time" in out

    def test_missing_workload_errors(self, tmp_path):
        code = main(["train", "-w", str(tmp_path / "nope.pkl"),
                     "-o", str(tmp_path / "m.json")])
        assert code == 1 or code is None


class TestExplain:
    def test_explain_plan_and_pipelines(self, capsys):
        code = main(["explain", "-i", "tpch_sf1",
                     "SELECT o_orderpriority, count(*) FROM orders, lineitem "
                     "WHERE o_orderkey = l_orderkey AND o_totalprice <= 1000 "
                     "GROUP BY o_orderpriority"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HashJoin" in out
        assert "Pipeline" in out

    def test_explain_with_features(self, capsys):
        code = main(["explain", "-i", "tpch_sf1", "--features",
                     "SELECT count(*) FROM region"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TableScan_Scan_count" in out

    def test_bad_sql_reports_error(self, capsys):
        code = main(["explain", "-i", "tpch_sf1", "SELECT FROM"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
