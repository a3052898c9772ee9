"""Tests for the experiment disk cache: the exactly-one-build guarantee
under process races and content-derived cache keys."""

import multiprocessing
import time

from repro.experiments.cache import DiskCache, fingerprint
from repro.datagen.workload import WorkloadConfig


def _stampede_worker(cache_dir, token_dir, barrier):
    cache = DiskCache(cache_dir)

    def build():
        token = token_dir / f"build-{multiprocessing.current_process().pid}"
        token.write_text("built")
        time.sleep(0.2)  # widen the window a lost race would exploit
        return "artifact"

    barrier.wait()
    assert cache.get_or_build("hot-key", build) == "artifact"


class TestCacheStampede:
    def test_concurrent_processes_build_exactly_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_stampede_worker,
                             args=(cache_dir, token_dir, barrier))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert len(list(token_dir.iterdir())) == 1
        assert not list(cache_dir.glob("*.tmp"))
        assert not list(cache_dir.glob("*.corrupt-*"))
        assert DiskCache(cache_dir).get_or_build(
            "hot-key", lambda: "rebuilt") == "artifact"


class TestFingerprint:
    def test_equal_configs_fingerprint_identically(self):
        a = WorkloadConfig(queries_per_structure=6)
        b = WorkloadConfig(queries_per_structure=6)
        assert fingerprint(a) == fingerprint(b)

    def test_any_field_change_rekeys(self):
        base = WorkloadConfig(queries_per_structure=6)
        assert fingerprint(base) != \
            fingerprint(WorkloadConfig(queries_per_structure=7))
        assert fingerprint(base) != \
            fingerprint(WorkloadConfig(queries_per_structure=6, seed=1))

    def test_argument_boundaries_matter(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")

    def test_dict_key_order_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
