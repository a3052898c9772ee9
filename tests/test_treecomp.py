"""Tests for tree-to-native-code compilation and the interpreters."""

import json
import threading

import numpy as np
import pytest

import repro.treecomp.compiler as compiler_mod
from repro.checks.codegen_verify import self_check_model, verify_codegen
from repro.core.model import PredictionBackend, T3Config, T3Model
from repro.errors import CompilationError
from repro.serving.batching import MicroBatcher
from repro.trees import BoostingParams, train_boosted_trees
from repro.trees.tree import Tree, TreeNode
from repro.trees.boosting import BoostedTreesModel
from repro.treecomp import (
    CompiledTreeModel,
    InterpretedModel,
    MultiThreadedInterpretedModel,
    PythonScalarModel,
    compile_model,
    compiler_info,
    find_c_compiler,
    generate_c_source,
)

HAVE_CC = find_c_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler available")


@pytest.fixture(scope="module")
def small_model() -> BoostedTreesModel:
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(1500, 6))
    y = np.sin(X[:, 0]) + np.where(X[:, 1] > 5, 2.0, 0.0)
    return train_boosted_trees(X, y, BoostingParams(n_rounds=25))


@pytest.fixture(scope="module")
def compiled(small_model):
    if not HAVE_CC:
        pytest.skip("no C compiler")
    model = compile_model(small_model)
    yield model
    model.close()


class TestCodegen:
    def test_source_structure(self, small_model):
        source = generate_c_source(small_model, "m")
        assert "double m_predict(const double *f)" in source
        assert "m_predict_batch" in source
        assert source.count("static double tree_") == small_model.n_trees

    def test_one_return_per_leaf(self, small_model):
        source = generate_c_source(small_model)
        # lleaves contract: every leaf compiles to exactly one return;
        # plus the three exported functions' returns.
        n_leaves = small_model.n_leaves_total
        assert source.count("return") == n_leaves + 3

    def test_invalid_prefix_rejected(self, small_model):
        with pytest.raises(CompilationError):
            generate_c_source(small_model, "1bad prefix")

    def test_empty_model_rejected(self):
        empty = BoostedTreesModel([], 0.0, 4)
        with pytest.raises(CompilationError):
            generate_c_source(empty)

    def test_manual_tree_codegen(self):
        tree = Tree.from_nodes([
            TreeNode(feature=0, threshold=0.0, left=1, right=2),
            TreeNode(value=1.0), TreeNode(value=2.0)])
        model = BoostedTreesModel([tree], 0.5, 1)
        source = generate_c_source(model)
        assert "if (f[0] <= 0.0)" in source
        assert "0.5" in source

    def test_clean_generation_verifies(self, small_model):
        assert verify_codegen(small_model) == []

    def test_self_check_model_verifies(self):
        assert verify_codegen(self_check_model()) == []


@needs_cc
class TestCompiledModel:
    def test_matches_interpreter_exactly(self, small_model, compiled):
        rng = np.random.default_rng(1)
        X = rng.uniform(-5, 15, size=(500, 6))
        assert np.allclose(compiled.predict(X), small_model.predict(X),
                           rtol=0, atol=1e-12)

    def test_bit_identical_to_interpreter(self, small_model, compiled):
        # same double arithmetic in the same order: bit-identical
        X = np.random.default_rng(8).uniform(-5, 15, size=(400, 6))
        reference = InterpretedModel(small_model).predict(X)
        assert np.array_equal(compiled.predict(X), reference)
        singles = np.array([compiled.predict_one(x) for x in X[:32]])
        assert np.array_equal(singles, reference[:32])

    def test_single_matches_batch(self, compiled):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 10, size=(50, 6))
        singles = np.array([compiled.predict_one(x) for x in X])
        assert np.allclose(singles, compiled.predict(X))

    def test_wrong_feature_count_rejected(self, compiled):
        with pytest.raises(CompilationError):
            compiled.predict_one(np.zeros(3))
        with pytest.raises(CompilationError):
            compiled.predict(np.zeros((5, 3)))

    def test_non_contiguous_input_handled(self, compiled):
        X = np.asfortranarray(np.random.default_rng(3).uniform(size=(20, 6)))
        assert np.isfinite(compiled.predict(X)).all()

    def test_close_removes_workdir(self, small_model):
        model = compile_model(small_model)
        workdir = model._workdir
        assert workdir.exists()
        model.close()
        assert not workdir.exists()
        # Library stays loaded and usable after close.
        assert np.isfinite(model.predict_one(np.zeros(6)))

    def test_missing_compiler_error(self, small_model):
        with pytest.raises(CompilationError):
            compile_model(small_model, compiler="/nonexistent/cc")

    def test_predict_one_thread_safe(self, small_model, compiled):
        # per-thread 1-row buffers: concurrent predict_one calls must
        # not race on shared output storage
        X = np.random.default_rng(8).uniform(-5, 15, size=(400, 6))
        expected = small_model.predict(X)
        errors = []

        def worker(offset):
            try:
                for i in range(offset, len(X), 4):
                    got = compiled.predict_one(X[i])
                    if got != expected[i]:
                        errors.append((i, got, expected[i]))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_empty_batch(self, compiled):
        before = compiled.ffi_calls
        out = compiled.predict(np.empty((0, 6)))
        assert out.shape == (0,) and out.dtype == np.float64
        assert compiled.ffi_calls == before  # no null pointer crossed FFI

    def test_one_dimensional_input(self, compiled):
        x = np.full(6, 1.5)
        out = compiled.predict(x)
        assert out.shape == (1,)
        assert out[0] == compiled.predict_one(x)
        with pytest.raises(CompilationError):
            compiled.predict(np.zeros(3))       # wrong-length vector
        with pytest.raises(CompilationError):
            compiled.predict(np.zeros((2, 3)))  # wrong column count
        with pytest.raises(CompilationError):
            compiled.predict(np.zeros((2, 2, 6)))  # wrong rank

    def test_ffi_call_accounting(self, small_model):
        model = compile_model(small_model)
        try:
            assert model.ffi_calls == 0
            model.predict(np.zeros((10, 6)))
            assert model.ffi_calls == 1       # one call for the batch
            model.predict_one(np.zeros(6))
            assert model.ffi_calls == 2       # one call for one row
        finally:
            model.close()

    def test_exactly_one_ffi_call_per_microbatch(self):
        # end to end through the serving batcher: each micro-batch the
        # worker evaluates is exactly one native call
        t3 = T3Model(self_check_model(), T3Config(compile_to_native=True))
        assert t3.backend is PredictionBackend.COMPILED
        compiled = t3._compiled
        batcher = MicroBatcher(t3.predict_raw_batch, max_batch_rows=64,
                               max_wait_s=0.005)
        try:
            before = compiled.ffi_calls
            rows = np.random.default_rng(3).normal(
                size=(24, t3.booster.n_features))
            results = []
            threads = [threading.Thread(
                target=lambda r=row: results.append(
                    batcher.submit(r.reshape(1, -1))))
                for row in rows]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = batcher.stats()
            assert stats.requests == 24
            assert stats.batches >= 1
            assert compiled.ffi_calls - before == stats.batches
            assert len(results) == 24
        finally:
            batcher.close()
            t3.close()

    def test_compiled_is_faster_than_python_scalar(self, small_model, compiled):
        import time
        x = np.zeros(6)
        scalar = PythonScalarModel(small_model)
        t0 = time.perf_counter()
        for _ in range(300):
            compiled.predict_one(x)
        compiled_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(300):
            scalar.predict_one(x)
        python_time = time.perf_counter() - t0
        assert compiled_time < python_time


class TestInterpreters:
    def test_python_scalar_matches_numpy(self, small_model):
        X = np.random.default_rng(4).uniform(0, 10, size=(40, 6))
        scalar = PythonScalarModel(small_model).predict(X)
        vectorized = InterpretedModel(small_model).predict(X)
        assert np.allclose(scalar, vectorized)

    def test_multithreaded_matches_single(self, small_model):
        X = np.random.default_rng(5).uniform(0, 10, size=(700, 6))
        mt = MultiThreadedInterpretedModel(small_model, n_threads=4)
        try:
            assert np.allclose(mt.predict(X),
                               InterpretedModel(small_model).predict(X))
        finally:
            mt.close()

    def test_multithreaded_small_batch_shortcut(self, small_model):
        mt = MultiThreadedInterpretedModel(small_model, n_threads=2,
                                           min_chunk=64)
        X = np.random.default_rng(6).uniform(0, 10, size=(10, 6))
        assert len(mt.predict(X)) == 10
        mt.close()

    def test_1d_input(self, small_model):
        x = np.zeros(6)
        assert InterpretedModel(small_model).predict(x).shape == (1,)
        assert PythonScalarModel(small_model).predict(x).shape == (1,)

    def test_interpreted_backends_agree(self, small_model):
        X = np.random.default_rng(8).uniform(-5, 15, size=(400, 6))
        reference = InterpretedModel(small_model).predict(X)
        assert np.array_equal(PythonScalarModel(small_model).predict(X),
                              reference)
        mt = MultiThreadedInterpretedModel(small_model)
        try:
            assert np.array_equal(mt.predict(X), reference)
        finally:
            mt.close()

    def test_empty_batch(self, small_model):
        empty = np.empty((0, 6))
        for backend in (PythonScalarModel(small_model),
                        InterpretedModel(small_model)):
            out = backend.predict(empty)
            assert out.shape == (0,) and out.dtype == np.float64
        mt = MultiThreadedInterpretedModel(small_model)
        try:
            assert mt.predict(empty).shape == (0,)
        finally:
            mt.close()


class TestCompilerInfoMemoized:
    def test_shells_out_exactly_once(self, monkeypatch):
        calls = []
        real_run = compiler_mod.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(compiler_mod.subprocess, "run", counting_run)
        compiler_info.cache_clear()
        try:
            first = compiler_info()
            second = compiler_info()
            assert first == second
            assert len(calls) <= 1   # 0 when no compiler is installed
        finally:
            compiler_info.cache_clear()  # drop result built under the patch


@needs_cc
class TestPersistedModel:
    @pytest.mark.parametrize(
        "legacy_codegen", ["nested_if", "flat_array", "flat_array_f32", None],
        ids=["nested_if", "flat_array", "flat_array_f32", "missing"])
    def test_legacy_payload_defaults_to_nested_if(self, tmp_path,
                                                  legacy_codegen):
        # Older versions wrote a "codegen" field naming one of several
        # C emitters (or none at all); load ignores it and compiles
        # with the one emitter.
        model = T3Model(self_check_model(), T3Config(compile_to_native=False))
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        assert "codegen" not in payload
        if legacy_codegen is not None:
            payload["codegen"] = legacy_codegen
        path.write_text(json.dumps(payload))
        loaded = T3Model.load(path)
        try:
            assert loaded.backend is PredictionBackend.COMPILED
            assert loaded.model_digest() == model.model_digest()
            X = np.random.default_rng(9).normal(
                size=(64, loaded.booster.n_features))
            assert np.array_equal(loaded._compiled.predict(X),
                                  InterpretedModel(model.booster).predict(X))
        finally:
            loaded.close()
