"""Resource-lifecycle analyzer (RS rules): planted defects and clean twins.

The seeded-mutation test reintroduces the ``compile_model`` temp-dir
leak in the *real* ``treecomp/compiler.py`` source and asserts
RS008 flags the mutated corpus while the shipped source stays clean —
the analyzer guards the actual code shape, not a toy reduction of it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.checks.resources import check_resource_lifecycles

_COMPILER_SOURCE = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "treecomp" / "compiler.py")


def _findings(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return check_resource_lifecycles(roots=[tmp_path])


def _rules(tmp_path, files):
    return {f.rule for f in _findings(tmp_path, files)}


# ---------------------------------------------------------------------------
# RS001/RS002 — manual lock discipline
# ---------------------------------------------------------------------------


def test_rs001_lock_held_at_exit(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        class Guard:
            def bad(self, flag):
                self._lock.acquire()
                if flag:
                    return None
                self._lock.release()
    """}) if f.rule == "RS001"]
    assert len(findings) == 1
    assert "self._lock" in findings[0].message


def test_rs002_release_only_on_normal_path(tmp_path):
    assert "RS002" in _rules(tmp_path, {"mod.py": """
        class Guard:
            def risky(self, work):
                self._lock.acquire()
                work()
                self._lock.release()
    """})


def test_lock_try_finally_is_clean(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        class Guard:
            def good(self, work):
                self._lock.acquire()
                try:
                    work()
                finally:
                    self._lock.release()
    """}) == set()


_MANUAL_PAIR = """
    import threading

    class Manual:
        def __init__(self):
            self._lock = threading.Lock()
            self._n = 0

        def bump(self):
            self._lock.acquire()
            try:
                self._n += 1
            finally:
                self._lock.release()
"""


def test_rs001_clean_on_correct_manual_pair(tmp_path):
    assert _rules(tmp_path, {"mod.py": _MANUAL_PAIR}) == set()


def test_rs001_mutation_deleting_release_fires(tmp_path):
    # Mutation test: delete the release() from the correct pattern and
    # the analyzer must notice the lock can leak out of the function.
    mutated = _MANUAL_PAIR.replace(
        "                self._lock.release()\n", "                pass\n")
    assert mutated != _MANUAL_PAIR
    findings = [f for f in _findings(tmp_path, {"mod.py": mutated})
                if f.rule == "RS001"]
    assert len(findings) == 1
    assert "self._lock" in findings[0].message


def test_rs001_fires_when_one_branch_skips_release(tmp_path):
    assert "RS001" in _rules(tmp_path, {"mod.py": """
        import threading

        class Leaky:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = False

            def maybe(self):
                self._lock.acquire()
                if self._ready:
                    self._lock.release()
    """})


def test_rs001_exempts_explicit_lock_protocol_methods(tmp_path):
    # __enter__/acquire return with the lock held by contract; the
    # matching __exit__/release pays it back.
    assert _rules(tmp_path, {"mod.py": """
        import threading

        class Guard:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                self._lock.acquire()
                return self

            def __exit__(self, *exc):
                self._lock.release()

            def acquire(self, work):
                self._lock.acquire()
                work()
    """}) == set()


# ---------------------------------------------------------------------------
# RS003/RS004/RS007/RS008 — handle lifecycles
# ---------------------------------------------------------------------------


def test_rs003_file_leaked_on_early_return(tmp_path):
    assert "RS003" in _rules(tmp_path, {"mod.py": """
        def head(path, flag):
            handle = open(path)
            if flag:
                return None
            handle.close()
    """})


def test_rs003_with_statement_is_clean(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        def head(path, probe):
            with open(path) as handle:
                if probe(handle):
                    return None
    """}) == set()


def test_rs003_return_transfers_ownership(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        def acquire(path):
            handle = open(path)
            return handle
    """}) == set()


def test_rs004_pool_not_shut_down(tmp_path):
    assert "RS004" in _rules(tmp_path, {"mod.py": """
        from concurrent.futures import ThreadPoolExecutor

        def run(tasks, check):
            pool = ThreadPoolExecutor(4)
            if not check(tasks):
                return []
            results = [pool.submit(t) for t in tasks]
            pool.shutdown()
            return results
    """})


def test_rs004_attribute_assignment_transfers_ownership(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        from concurrent.futures import ThreadPoolExecutor

        class Runner:
            def __init__(self):
                pool = ThreadPoolExecutor(4)
                self._pool = pool
    """}) == set()


def test_rs007_socket_leaked_on_early_return(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        import socket

        def ping(address, flag):
            sock = socket.create_connection(address)
            if flag:
                return None
            sock.close()
    """}) == {"RS007"}


def test_rs008_tempdir_leaked_on_exception_path(tmp_path):
    # The PR 5 compile_model shape: mkdtemp, fallible work that never
    # touches the directory variable, cleanup only on the happy path —
    # a raise in between leaks the directory.
    assert "RS008" in _rules(tmp_path, {"mod.py": """
        import shutil
        import tempfile

        def build(source_path, data):
            workdir = tempfile.mkdtemp()
            source_path.write_text(data)
            shutil.rmtree(workdir)
            return data
    """})


def test_rs008_cleanup_in_except_is_clean(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        import shutil
        import tempfile

        def build(write):
            workdir = tempfile.mkdtemp()
            try:
                write(workdir)
                artifact = load(workdir)
            except BaseException:
                shutil.rmtree(workdir, ignore_errors=True)
                raise
            return artifact, workdir
    """}) == set()


# ---------------------------------------------------------------------------
# RS005 — unguarded resolution of shared futures
# ---------------------------------------------------------------------------


def test_rs005_shared_future_unguarded(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        class Batcher:
            def flush(self, request, value):
                request.future.set_result(value)
    """}) if f.rule == "RS005"]
    assert len(findings) == 1
    assert "InvalidStateError" in findings[0].message


def test_rs005_guarded_resolution_is_clean(tmp_path):
    assert "RS005" not in _rules(tmp_path, {"mod.py": """
        class Batcher:
            def flush(self, request, value):
                try:
                    request.future.set_result(value)
                except Exception:
                    pass
    """})


def test_rs005_locally_created_future_is_clean(tmp_path):
    assert "RS005" not in _rules(tmp_path, {"mod.py": """
        from concurrent.futures import Future

        def completed(value):
            future = Future()
            future.set_result(value)
            return future
    """})


# ---------------------------------------------------------------------------
# RS008 — the compile_model workdir leak, seeded in the real source
# ---------------------------------------------------------------------------


def test_rs008_seeded_workdir_leak_in_real_compiler(tmp_path):
    # Drop the cleanup handler around the build, as compile_model once
    # stood: a failed write or compile then leaves the directory
    # behind, since only the normal path hands it to the model.
    source = _COMPILER_SOURCE.read_text()
    guard = "    try:\n        source_path = workdir"
    cleanup = ("    except BaseException:\n"
               "        shutil.rmtree(workdir, ignore_errors=True)\n"
               "        raise\n")
    assert source.count(guard) == 1 and source.count(cleanup) == 1
    line = next(number for number, text
                in enumerate(source.splitlines(), start=1)
                if "tempfile.mkdtemp(" in text)
    corpus = tmp_path / "treecomp"
    corpus.mkdir()
    (corpus / "compiler.py").write_text(source)
    assert check_resource_lifecycles(roots=[tmp_path]) == []
    mutated = source.replace(
        guard, "    if True:\n        source_path = workdir").replace(
        cleanup, "")
    (corpus / "compiler.py").write_text(mutated)
    findings = check_resource_lifecycles(roots=[tmp_path])
    assert [(f.rule, f.line) for f in findings] == [("RS008", line)]
    assert "may never be released" in findings[0].message


def test_rs008_narrowed_cleanup_in_real_compiler(tmp_path):
    # A cleanup handler that catches only CompilationError protects
    # nothing against a failing write_text: the directory leaks.
    source = _COMPILER_SOURCE.read_text()
    cleanup = "    except BaseException:\n        shutil.rmtree(workdir"
    assert source.count(cleanup) == 1
    line = next(number for number, text
                in enumerate(source.splitlines(), start=1)
                if "tempfile.mkdtemp(" in text)
    corpus = tmp_path / "treecomp"
    corpus.mkdir()
    (corpus / "compiler.py").write_text(source.replace(
        cleanup, "    except CompilationError:\n        shutil.rmtree(workdir"))
    findings = check_resource_lifecycles(roots=[tmp_path])
    assert [(f.rule, f.line) for f in findings] == [("RS008", line)]
    assert "released only on the normal path" in findings[0].message


# ---------------------------------------------------------------------------
# the real repo is clean
# ---------------------------------------------------------------------------


def test_repo_has_no_resource_findings():
    assert check_resource_lifecycles() == []
