"""Determinism analyzer (DT rules): planted defects and clean twins.

Each rule gets a corpus that fires it and a near-identical corpus that
does not. The seeded-mutation tests reintroduce the ``CardinalityModel``
memo bug (an ``id()``-keyed memo that does not pin the keyed object),
in a reduction and in the real ``engine/cardinality.py``, and assert
DT002 flags it, while the shipped pinned shape stays clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.checks.determinism import check_determinism

_CARDINALITY_SOURCE = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "engine" / "cardinality.py")


def _findings(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return check_determinism(roots=[tmp_path])


def _rules(tmp_path, files):
    return {f.rule for f in _findings(tmp_path, files)}


# ---------------------------------------------------------------------------
# DT002 — id() keys of persistent containers (the PR 4 bug class)
# ---------------------------------------------------------------------------

# Pre-PR4 CardinalityModel memo shape: id() key, no pin. CPython reuses
# addresses after GC, so the key can alias two distinct plan operators.
_PR4_MUTANT = """
    class CardinalityModel:
        def __init__(self):
            self._memo = {}

        def estimate(self, op):
            key = id(op)
            if key in self._memo:
                return self._memo[key]
            value = float(len(op.children))
            self._memo[key] = value
            return value
"""

# The shipped fix pins the operator in the stored value, keeping the
# address alive for the memo's lifetime.
_PR4_FIXED = """
    class CardinalityModel:
        def __init__(self):
            self._memo = {}

        def estimate(self, op):
            key = id(op)
            if key in self._memo:
                return self._memo[key][1]
            value = float(len(op.children))
            self._memo[key] = (op, value)
            return value
"""


def test_dt002_seeded_pr4_memo_mutation_flagged(tmp_path):
    findings = [f for f in _findings(tmp_path, {"model.py": _PR4_MUTANT})
                if f.rule == "DT002"]
    assert len(findings) == 1
    assert "pinning" in findings[0].message
    assert "op" in findings[0].message


def test_dt002_pinned_memo_is_clean(tmp_path):
    assert "DT002" not in _rules(tmp_path, {"model.py": _PR4_FIXED})


@pytest.mark.parametrize("pinned", [
    "self._memo[key] = (op, value)",
    "self._selectivities[id(predicate)] = (predicate, value)",
])
def test_dt002_seeded_unpinned_memo_in_real_cardinality_source(tmp_path,
                                                              pinned):
    # Drop the pinned object from one of the real memo writes: the
    # shipped engine/cardinality.py is clean, the mutant fires DT002 at
    # exactly the planted line.
    source = _CARDINALITY_SOURCE.read_text()
    assert source.count(pinned) == 1
    line = source[:source.index(pinned)].count("\n") + 1
    corpus = tmp_path / "engine"
    corpus.mkdir()
    (corpus / "cardinality.py").write_text(source)
    assert check_determinism(roots=[tmp_path]) == []
    unpinned = pinned.replace("(op,", "(None,").replace(
        "(predicate,", "(None,")
    (corpus / "cardinality.py").write_text(source.replace(pinned, unpinned))
    findings = check_determinism(roots=[tmp_path])
    assert [(f.rule, f.line) for f in findings] == [("DT002", line)]


def test_dt002_module_global_container(tmp_path):
    assert "DT002" in _rules(tmp_path, {"mod.py": """
        _SEEN = {}

        def note(obj):
            _SEEN[id(obj)] = True
    """})


def test_dt002_local_container_is_clean(tmp_path):
    # A container that dies with the call cannot see address reuse.
    assert "DT002" not in _rules(tmp_path, {"mod.py": """
        def dedupe(items):
            seen = {}
            for item in items:
                seen[id(item)] = item
            return list(seen.values())
    """})


# ---------------------------------------------------------------------------
# DT003 — unseeded random (stdlib or numpy) outside the rng module
# ---------------------------------------------------------------------------


def test_dt003_random_outside_rng(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        import random

        def pick(items):
            return random.choice(items)
    """}) if f.rule == "DT003"]
    assert len(findings) == 1
    assert "derive_rng" in findings[0].message


def test_dt003_rng_module_is_exempt(tmp_path):
    assert "DT003" not in _rules(tmp_path, {"rng.py": """
        import random

        def make_rng(seed):
            return random.Random(seed)
    """})


def test_dt003_unseeded_numpy_random_is_flagged(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        import numpy as np

        def noise(n):
            rng = np.random.default_rng()
            return np.random.rand(n) + rng.random(n)
    """}) if f.rule == "DT003"]
    assert sorted(f.line for f in findings) == [5, 6]
    assert any("np.random.rand()" in f.message for f in findings)
    assert any("np.random.default_rng()" in f.message for f in findings)


def test_dt003_seeded_numpy_generator_is_clean(tmp_path):
    assert "DT003" not in _rules(tmp_path, {
        "mod.py": """
            import numpy as np

            def noise(n, seed):
                return np.random.default_rng(seed).random(n)
        """,
        "rng.py": """
            import numpy as np

            def entropy_rng():
                return np.random.default_rng()
        """})


# ---------------------------------------------------------------------------
# the real repo is clean
# ---------------------------------------------------------------------------


def test_repo_has_no_determinism_findings():
    assert check_determinism() == []
