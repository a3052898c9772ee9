"""Exception-contract analyzer (EX rules): planted defects and clean twins.

Fixture corpora place modules under ``serving/`` so they fall inside the
scope packages; each defines a local ``ReproError`` hierarchy, which
the analyzer resolves by name exactly as it does the real one. The
seeded-mutation tests plant past defects in the real sources.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.checks.exceptions import check_exception_contracts

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

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
# An untyped escape from a serving boundary: EX007 flags the raise itself,
# however many private helpers it passes on its way out
# ---------------------------------------------------------------------------


def test_ex001_untyped_escape_from_boundary(tmp_path):
    findings = [f for f in _findings(tmp_path, {"serving/api.py": """
        def predict(x):
            if x < 0:
                raise RuntimeError("negative")
            return x
    """}) if f.rule == "EX007"]
    assert [f.line for f in findings] == [4]
    assert "RuntimeError" in findings[0].message


def test_ex001_typed_escape_is_clean(tmp_path):
    assert _rules(tmp_path, {"serving/api.py": """
        from errors import ServingError

        class PredictError(ServingError):
            pass

        def predict(x):
            if x < 0:
                raise PredictError("negative")
            return x
    """}) == set()


def test_ex001_escape_through_private_helper(tmp_path):
    findings = _findings(tmp_path, {"serving/api.py": """
        def _deep(x):
            raise KeyError(x)

        def _mid(x):
            return _deep(x)

        def predict(x):
            return _mid(x)
    """})
    assert [(f.rule, f.line) for f in findings] == [("EX007", 3)]


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
# seeded mutations of the real sources
# ---------------------------------------------------------------------------


def _seeded(tmp_path, rel, anchor, replacement):
    """Findings on the real ``rel`` (beside the real ``errors.py``) with
    ``anchor`` replaced."""
    source = (_SRC / rel).read_text()
    assert anchor in source
    line = source[:source.index(anchor)].count("\n") + 1
    mutated = source.replace(anchor, replacement, 1)
    return line, _findings(tmp_path, {
        "errors.py": (_SRC / "errors.py").read_text(), rel: mutated})


def test_ex006_seeded_bare_serving_error_in_real_service(tmp_path):
    # Non-finite backend output was once raised as the bare
    # ServingError; it is the typed NonFinitePredictionError now.
    line, findings = _seeded(
        tmp_path, "serving/service.py",
        "raise NonFinitePredictionError(", "raise ServingError(")
    assert [(f.rule, f.line) for f in findings] == [("EX006", line)]


def test_ex002_seeded_swallowed_cleanup_in_real_compiler(tmp_path):
    # compile_model's workdir cleanup catches BaseException; without
    # its re-raise a failed build (or Ctrl-C) would return normally.
    line, findings = _seeded(
        tmp_path, "treecomp/compiler.py",
        "        shutil.rmtree(workdir, ignore_errors=True)\n        raise\n",
        "        shutil.rmtree(workdir, ignore_errors=True)\n")
    assert [f.rule for f in findings] == ["EX002"]
    assert findings[0].line == line - 1   # the except clause


# ---------------------------------------------------------------------------
# the real repo is clean
# ---------------------------------------------------------------------------


def test_repo_has_no_exception_findings():
    assert check_exception_contracts() == []
