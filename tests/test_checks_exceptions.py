"""Exception-contract analyzer (EX rules): planted defects and clean twins.

Fixture corpora place modules under ``serving/`` so they fall inside the
boundary packages; each defines a local ``ReproError`` hierarchy, which
the analyzer resolves by name exactly as it does the real one.
"""

from __future__ import annotations

import textwrap

from repro.checks.exceptions import check_exception_contracts

_ERRORS = """
    class ReproError(Exception):
        pass

    class ServingError(ReproError):
        pass

    class QueueFullError(ServingError):
        pass
"""


def _findings(tmp_path, files):
    files = dict(files)
    files.setdefault("errors.py", _ERRORS)
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return check_exception_contracts(roots=[tmp_path])


def _rules(tmp_path, files):
    return {f.rule for f in _findings(tmp_path, files)}


# ---------------------------------------------------------------------------
# EX001 — untyped escape from a public boundary function
# ---------------------------------------------------------------------------


def test_ex001_untyped_escape_from_boundary(tmp_path):
    findings = [f for f in _findings(tmp_path, {"serving/api.py": """
        def predict(x):
            if x < 0:
                raise RuntimeError("negative")
            return x
    """}) if f.rule == "EX001"]
    assert len(findings) == 1
    assert "RuntimeError" in findings[0].message


def test_ex001_typed_escape_is_clean(tmp_path):
    assert "EX001" not in _rules(tmp_path, {"serving/api.py": """
        from errors import ServingError

        class PredictError(ServingError):
            pass

        def predict(x):
            if x < 0:
                raise PredictError("negative")
            return x
    """})


def test_ex001_escape_through_private_helper(tmp_path):
    # The raise is two calls deep in private helpers; the summary
    # still carries it to the public boundary.
    assert "EX001" in _rules(tmp_path, {"serving/api.py": """
        def _deep(x):
            raise KeyError(x)

        def _mid(x):
            return _deep(x)

        def predict(x):
            return _mid(x)
    """})


def test_ex001_handler_discharges_the_contract(tmp_path):
    assert "EX001" not in _rules(tmp_path, {"serving/api.py": """
        def _deep(x):
            raise KeyError(x)

        def predict(x):
            try:
                return _deep(x)
            except KeyError:
                return None
    """})


def test_ex001_outside_boundary_packages_is_exempt(tmp_path):
    assert "EX001" not in _rules(tmp_path, {"engine/core.py": """
        def evaluate(x):
            raise RuntimeError("engine internals may stay untyped")
    """})


# ---------------------------------------------------------------------------
# EX002 — except BaseException without re-raise
# ---------------------------------------------------------------------------


def test_ex002_swallowed_base_exception(tmp_path):
    assert "EX002" in _rules(tmp_path, {"serving/api.py": """
        def guard(fn):
            try:
                return fn()
            except BaseException:
                return None
    """})


def test_ex002_reraise_is_clean(tmp_path):
    assert "EX002" not in _rules(tmp_path, {"serving/api.py": """
        def guard(fn, log):
            try:
                return fn()
            except BaseException:
                log()
                raise
    """})


# ---------------------------------------------------------------------------
# EX007 — untyped raise anywhere in library code
# ---------------------------------------------------------------------------


def test_ex007_untyped_raise_outside_boundary_packages(tmp_path):
    findings = [f for f in _findings(tmp_path, {"core/model.py": """
        def fit(rows):
            if not rows:
                raise ValueError("no rows")
            return rows
    """}) if f.rule == "EX007"]
    assert [f.line for f in findings] == [4]
    assert "ValueError" in findings[0].message


def test_ex007_typed_raises_are_clean(tmp_path):
    assert "EX007" not in _rules(tmp_path, {"core/model.py": """
        from errors import ServingError

        class FitError(ServingError):
            pass

        def fit(rows):
            if not rows:
                raise FitError("no rows")
            raise NotImplementedError
    """})


# ---------------------------------------------------------------------------
# EX004 — ServingError subclass with no envelope mapping
# ---------------------------------------------------------------------------

_ENVELOPE = """
    from errors import QueueFullError, ReproError, ServingError

    class UnmappedError(ServingError):
        pass

    def error_response(exc):
        if isinstance(exc, QueueFullError):
            return 429, "queue_full"
        if isinstance(exc, ReproError):
            return 400, "bad_request"
        return 500, "internal_error"
"""


def test_ex004_unmapped_serving_subclass(tmp_path):
    findings = [f for f in _findings(
        tmp_path, {"serving/front.py": _ENVELOPE})
        if f.rule == "EX004"]
    assert len(findings) == 1
    assert "UnmappedError" in findings[0].message


def test_ex004_mapped_ancestor_suffices(tmp_path):
    # LoadShed subclassing QueueFullError inherits its 429 mapping.
    assert "EX004" not in _rules(tmp_path, {"serving/front.py": """
        from errors import QueueFullError, ReproError

        class LoadShedError(QueueFullError):
            pass

        def error_response(exc):
            if isinstance(exc, QueueFullError):
                return 429, "queue_full"
            if isinstance(exc, ReproError):
                return 400, "bad_request"
            return 500, "internal_error"
    """})


# ---------------------------------------------------------------------------
# EX005 — broad handler swallows load-control errors
# ---------------------------------------------------------------------------


def test_ex005_swallowed_load_control(tmp_path):
    assert "EX005" in _rules(tmp_path, {"serving/api.py": """
        from errors import QueueFullError

        def submit(queue, item):
            try:
                queue.put(item)
                raise QueueFullError("full")
            except Exception:
                return None
    """})


def test_ex005_earlier_specific_handler_is_clean(tmp_path):
    assert "EX005" not in _rules(tmp_path, {"serving/api.py": """
        from errors import QueueFullError

        def submit(queue, item):
            try:
                queue.put(item)
                raise QueueFullError("full")
            except QueueFullError:
                raise
            except Exception:
                return None
    """})


# ---------------------------------------------------------------------------
# EX006 — raising the bare base class
# ---------------------------------------------------------------------------


def test_ex006_bare_base_raise(tmp_path):
    findings = [f for f in _findings(tmp_path, {"serving/api.py": """
        from errors import ServingError

        def predict(x):
            raise ServingError("something went wrong")
    """}) if f.rule == "EX006"]
    assert len(findings) == 1
    assert "specific subtype" in findings[0].message


def test_ex006_subtype_raise_is_clean(tmp_path):
    assert "EX006" not in _rules(tmp_path, {"serving/api.py": """
        from errors import QueueFullError

        def predict(x):
            raise QueueFullError("shedding")
    """})


# ---------------------------------------------------------------------------
# the real repo is clean
# ---------------------------------------------------------------------------


def test_repo_has_no_exception_findings():
    assert check_exception_contracts() == []
