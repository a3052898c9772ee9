"""Resource-lifecycle analyzer (RS rules): planted defects and clean twins.

The seeded-mutation test reintroduces the PR 5 probe-slot leak by
stripping the ``record_aborted()`` repayment from the *real*
``serving/service.py`` source and asserting RS006 flags the mutated
corpus while the shipped source stays clean — the analyzer guards the
actual code shape, not a toy reduction of it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.checks.resources import check_resource_lifecycles

_SERVICE_SOURCE = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "serving" / "service.py")


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
# RS006 — breaker probe slots (the PR 5 leak, as a rule)
# ---------------------------------------------------------------------------


def test_rs006_probe_slot_not_repaid_on_raise_path(tmp_path):
    assert "RS006" in _rules(tmp_path, {"mod.py": """
        class Service:
            def infer(self, breaker, submit):
                if breaker.allow():
                    try:
                        return submit()
                    except Exception:
                        pass
                return None
    """})


def test_rs006_every_path_repaid_is_clean(tmp_path):
    assert "RS006" not in _rules(tmp_path, {"mod.py": """
        class Service:
            def infer(self, breaker, submit):
                if breaker.allow():
                    try:
                        result = submit()
                    except Exception:
                        breaker.record_failure()
                    else:
                        breaker.record_success()
                        return result
                return None
    """})


def test_rs006_seeded_pr5_mutation_in_real_service_source(tmp_path):
    # Strip the record_aborted() repayment from the real service.py:
    # the shed-path re-raise then leaks the half-open probe slot —
    # exactly the PR 5 bug before review caught it.
    source = _SERVICE_SOURCE.read_text()
    assert "breaker.record_aborted()" in source
    mutated = "\n".join(
        line for line in source.splitlines()
        if "breaker.record_aborted()" not in line)
    corpus = tmp_path / "serving"
    corpus.mkdir()
    (corpus / "service.py").write_text(mutated)
    findings = [f for f in check_resource_lifecycles(roots=[tmp_path])
                if f.rule == "RS006"]
    assert len(findings) == 1
    assert "probe slot" in findings[0].message


def test_real_service_source_is_rs006_clean(tmp_path):
    corpus = tmp_path / "serving"
    corpus.mkdir()
    (corpus / "service.py").write_text(_SERVICE_SOURCE.read_text())
    assert [f for f in check_resource_lifecycles(roots=[tmp_path])
            if f.rule == "RS006"] == []


# ---------------------------------------------------------------------------
# the real repo is clean
# ---------------------------------------------------------------------------


def test_repo_has_no_resource_findings():
    assert check_resource_lifecycles() == []
