"""Hot-path cost analyzer (HP rules): planted defects and clean twins.

A seeded-mutation test guards the roadmap's perf debts the way the
RS006 oracle guards the breaker probe leak: it reintroduces the old
``_build_histogram`` O(rows x features) temporaries shape into a copy
of the *real* ``trees/grow.py`` and asserts HP002 flags it. The
repo-level test pins ``check_hotpath()`` to exactly the one
grandfathered finding ``checks_baseline.toml`` suppresses.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.checks.hotpath import check_hotpath

_REPO = Path(__file__).resolve().parents[1]
_GROW_SOURCE = _REPO / "src" / "repro" / "trees" / "grow.py"


def _findings(tmp_path, files, hot_roots=("hot",), per_element_roots=()):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return check_hotpath(roots=[tmp_path], hot_roots=list(hot_roots),
                         per_element_roots=list(per_element_roots))


def _rules(tmp_path, files, **kwargs):
    return {f.rule for f in _findings(tmp_path, files, **kwargs)}


_NATIVE = """
    import ctypes

    class Native:
        def __init__(self, path):
            self._lib = ctypes.CDLL(path)
            self._eval = getattr(self._lib, "predict")

        def hot(self, rows):
            out = []
            for row in rows:
                out.append(self._eval(row))
            return out

        def batch(self, buffer):
            return self._eval(buffer)

        def one(self, row):
            return self._eval(row)

        def via_helper(self, rows):
            return [self.one(row) for row in rows]
    """


# ---------------------------------------------------------------------------
# hot-root gating (rules only fire where a root can reach)
# ---------------------------------------------------------------------------


def test_hp001_ffi_call_in_hot_loop(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": _NATIVE},
                                     hot_roots=["Native.hot"])
                if f.rule == "HP001"]
    assert len(findings) == 1
    assert "FFI round-trip" in findings[0].message
    assert "hot via Native.hot" in findings[0].message


def test_hp001_batched_ffi_call_is_clean(tmp_path):
    assert _rules(tmp_path, {"mod.py": _NATIVE},
                  hot_roots=["Native.batch"]) == set()


def test_hp001_via_callee_summary(tmp_path):
    # The loop itself is FFI-free; the effect arrives through the cost
    # summary of the helper it calls per element.
    findings = [f for f in _findings(tmp_path, {"mod.py": _NATIVE},
                                     hot_roots=["Native.via_helper"])
                if "via_helper" in f.message and f.rule == "HP001"]
    assert len(findings) == 1
    assert "per element" in findings[0].message


def test_cold_functions_never_fire(tmp_path):
    assert _rules(tmp_path, {"mod.py": _NATIVE},
                  hot_roots=["no_such_root"]) == set()


def test_hot_set_propagates_across_functions(tmp_path):
    # `encode` is only hot because `serve` (the root) reaches it; the
    # finding names the seeding root so triage starts from the entry
    # point, not the leaf.
    findings = _findings(tmp_path, {"app.py": """
        import ctypes

        def encode(lib, row):
            return ctypes.c_double(lib.predict(row))

        def serve(lib, rows):
            return [encode(lib, row) for row in rows]
    """}, hot_roots=["serve"])
    assert [f.rule for f in findings] == ["HP001"]
    assert "hot via serve" in findings[0].message


def test_hp001_per_element_entry_point(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": _NATIVE},
                                     hot_roots=[],
                                     per_element_roots=["Native.one"])
                if f.rule == "HP001"]
    assert len(findings) == 1
    assert "per-element entry point" in findings[0].message
    assert "per prediction" in findings[0].message


# ---------------------------------------------------------------------------
# HP002 — accumulating whole-array allocation
# ---------------------------------------------------------------------------


def test_hp002_np_append_accumulator(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        import numpy as np

        def hot(parts):
            acc = np.zeros(0)
            for part in parts:
                acc = np.append(acc, part)
            return acc
    """}) if f.rule == "HP002"]
    assert len(findings) == 1
    assert "acc" in findings[0].message
    assert "every iteration" in findings[0].message


def test_hp002_list_rebuild_accumulator(tmp_path):
    assert "HP002" in _rules(tmp_path, {"mod.py": """
        def hot(rows):
            total = []
            for row in rows:
                total = total + [row * 2.0]
            return total
    """})


def test_hp002_collect_then_concatenate_is_clean(tmp_path):
    assert _rules(tmp_path, {"mod.py": """
        import numpy as np

        def hot(parts):
            collected = []
            for part in parts:
                collected.append(part)
            return np.concatenate(collected)
    """}) == set()


def test_hp002_seeded_pr4_histogram_mutation(tmp_path):
    # Reintroduce the pre-PR-4 shape: grow the gradient histogram by
    # whole-array concatenation once per pass instead of filling the
    # preallocated matrix — the O(rows x features) temporaries bug.
    source = _GROW_SOURCE.read_text()
    fill = ("            hist[0, first:end] = np.bincount(\n"
            "                cells, weights=np.repeat(g, hi - lo), "
            "minlength=end)[first:]\n")
    assert fill in source
    mutated = source.replace(fill, (
        "            part = np.bincount(\n"
        "                cells, weights=np.repeat(g, hi - lo), "
        "minlength=end)[first:]\n"
        "            grad_hist = np.concatenate([grad_hist, part])\n"))
    corpus = tmp_path / "trees"
    corpus.mkdir()
    (corpus / "grow.py").write_text(mutated)
    findings = [f for f in check_hotpath(roots=[tmp_path],
                                         hot_roots=["_build_histogram"],
                                         per_element_roots=[])
                if f.rule == "HP002"]
    assert len(findings) == 1
    assert "grad_hist" in findings[0].message


def test_real_histogram_source_is_hp002_clean(tmp_path):
    corpus = tmp_path / "trees"
    corpus.mkdir()
    (corpus / "grow.py").write_text(_GROW_SOURCE.read_text())
    assert [f for f in check_hotpath(roots=[tmp_path],
                                     hot_roots=["_build_histogram"],
                                     per_element_roots=[])
            if f.rule == "HP002"] == []


# ---------------------------------------------------------------------------
# HP004 — blocking while holding a lock
# ---------------------------------------------------------------------------


def test_hp004_sleep_while_holding_lock(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def hot(self):
                with self._lock:
                    time.sleep(0.05)
    """}, hot_roots=["Store.hot"]) if f.rule == "HP004"]
    assert len(findings) == 1
    assert "self._lock" in findings[0].message


def test_hp004_blocking_effect_via_callee(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def _flush(self, path, payload):
                path.write_text(payload)

            def hot(self, path, payload):
                with self._lock:
                    self._flush(path, payload)
    """}, hot_roots=["Store.hot"]) if f.rule == "HP004"]
    assert len(findings) == 1
    assert "outside the lock" in findings[0].message


def test_hp004_blocking_outside_lock_is_clean(tmp_path):
    assert "HP004" not in _rules(tmp_path, {"mod.py": """
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def hot(self):
                time.sleep(0.05)
                with self._lock:
                    self._count = 0
    """}, hot_roots=["Store.hot"])


# ---------------------------------------------------------------------------
# HP005 — loop-invariant pure calls
# ---------------------------------------------------------------------------


def test_hp005_invariant_len_in_loop(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        def hot(rows, bounds):
            out = []
            for row in rows:
                width = len(bounds)
                out.append(row * width)
            return out
    """}) if f.rule == "HP005"]
    assert len(findings) == 1
    assert "len()" in findings[0].message


def test_hp005_variant_argument_is_clean(tmp_path):
    assert "HP005" not in _rules(tmp_path, {"mod.py": """
        def hot(rows):
            out = []
            for row in rows:
                out.append(len(row))
            return out
    """})


def test_hp005_mutated_container_is_clean(tmp_path):
    # `len(seen)` looks invariant by rebinding alone, but `seen.add`
    # mutates it per iteration — the LRU-eviction false positive.
    assert "HP005" not in _rules(tmp_path, {"mod.py": """
        def hot(rows):
            seen = set()
            out = []
            for row in rows:
                seen.add(row)
                out.append(len(seen))
            return out
    """})


# ---------------------------------------------------------------------------
# HP006 — per-iteration label formatting / eager logging
# ---------------------------------------------------------------------------


def test_hp006_fully_invariant_fstring(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        class Renderer:
            def hot(self, rows):
                lines = []
                for row in rows:
                    header = f"model={self.name}"
                    lines.append(header + str(row))
                return lines
    """}, hot_roots=["Renderer.hot"]) if f.rule == "HP006"]
    assert len(findings) == 1
    assert "loop-invariant" in findings[0].message


def test_hp006_invariant_attribute_part(tmp_path):
    # The metric-label shape: `self.name` re-resolved and re-formatted
    # per sample even though only `row` varies.
    assert "HP006" in _rules(tmp_path, {"mod.py": """
        class Renderer:
            def hot(self, rows):
                return [f"{self.name}:{row}" for row in rows]
    """}, hot_roots=["Renderer.hot"])


def test_hp006_varying_local_parts_are_clean(tmp_path):
    assert "HP006" not in _rules(tmp_path, {"mod.py": """
        def hot(rows, prefix):
            return [f"{prefix}:{row}" for row in rows]
    """})


def test_hp006_failure_path_fstring_is_exempt(tmp_path):
    # Raise/assert messages only format on the failure path — leave
    # them readable.
    assert "HP006" not in _rules(tmp_path, {"mod.py": """
        class Renderer:
            def hot(self, rows):
                for row in rows:
                    if row < 0:
                        raise ValueError(f"negative row in {self.name}")
                return rows
    """}, hot_roots=["Renderer.hot"])


def test_hp006_eager_logging_format(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        def hot(logger, rows):
            logger.debug(f"predicting {len(rows)} rows")
            return rows
    """}) if f.rule == "HP006"]
    assert len(findings) == 1
    assert "%-style" in findings[0].message


def test_hp006_lazy_logging_is_clean(tmp_path):
    assert "HP006" not in _rules(tmp_path, {"mod.py": """
        def hot(logger, rows):
            logger.debug("predicting %d rows", len(rows))
            return rows
    """})


# ---------------------------------------------------------------------------
# HP008 — list membership per iteration
# ---------------------------------------------------------------------------


def test_hp008_membership_against_list(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        def hot(rows, names):
            allowed = sorted(names)
            hits = 0
            for row in rows:
                if row in allowed:
                    hits += 1
            return hits
    """}) if f.rule == "HP008"]
    assert len(findings) == 1
    assert "allowed" in findings[0].message


def test_hp008_membership_against_set_is_clean(tmp_path):
    assert "HP008" not in _rules(tmp_path, {"mod.py": """
        def hot(rows, names):
            allowed = set(names)
            hits = 0
            for row in rows:
                if row in allowed:
                    hits += 1
            return hits
    """})


# ---------------------------------------------------------------------------
# HP009 — repeated attribute-chain resolution
# ---------------------------------------------------------------------------


def test_hp009_repeated_attribute_chain(tmp_path):
    findings = [f for f in _findings(tmp_path, {"mod.py": """
        class Scorer:
            def hot(self, rows):
                total = 0.0
                for row in rows:
                    total = total + self.model.bias.scale * row
                    total = total + self.model.bias.scale
                    total = total + self.model.bias.scale
                return total
    """}, hot_roots=["Scorer.hot"]) if f.rule == "HP009"]
    assert len(findings) == 1
    assert "self.model.bias.scale" in findings[0].message


def test_hp009_hoisted_chain_is_clean(tmp_path):
    assert "HP009" not in _rules(tmp_path, {"mod.py": """
        class Scorer:
            def hot(self, rows):
                scale = self.model.bias.scale
                total = 0.0
                for row in rows:
                    total = total + scale * row
                    total = total + scale
                    total = total + scale
                return total
    """}, hot_roots=["Scorer.hot"])


# ---------------------------------------------------------------------------
# explicit hot roots
# ---------------------------------------------------------------------------


def test_config_path_drives_the_hot_set(tmp_path):
    # The same per-element FFI loop fires only where an explicit hot
    # root reaches it.
    (tmp_path / "app.py").write_text(textwrap.dedent("""
        import ctypes

        def serve(rows):
            return [ctypes.c_double(row) for row in rows]

        def cold(rows):
            return [ctypes.c_double(row) for row in rows]
    """))
    findings = check_hotpath(roots=[tmp_path], hot_roots=["serve"],
                             per_element_roots=[])
    assert [f.rule for f in findings] == ["HP001"]
    assert "hot via serve" in findings[0].message


# ---------------------------------------------------------------------------
# the real repo: exactly the one grandfathered roadmap debt
# ---------------------------------------------------------------------------


def test_repo_findings_are_exactly_the_roadmap_debts():
    # HP001 (per-prediction FFI in CompiledTreeModel.predict_one) was
    # retired by the batch-native codegen work: predict_one now routes
    # through a 1-row batch buffer. What remains is the lifecycle log's
    # intentional mid-frame fault site (HP004, baselined with a reason).
    findings = check_hotpath()
    assert [(f.rule, f.path) for f in findings] == [
        ("HP004", "src/repro/lifecycle/obslog.py"),
    ]
    assert all("hot via" in f.message for f in findings)
