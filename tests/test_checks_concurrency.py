"""Concurrency checker (LK rules): per-rule triggers and clean passes.

Each LK rule gets at least one planted-defect fixture that fires it and
one clean fixture that exercises the same shape without the defect —
the clean side is what separates a dataflow analysis from a grep.
LK009–LK011 (unbounded queue/future/thread waits) are lexical and run
over every call in the file, locked or not. LK004 also gets seeded
mutations of the real ``serving/batching.py`` and ``serving/service.py``:
a sleep or a file write planted inside a shipped critical section must
be flagged at exactly the planted line.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.checks.concurrency import analyze_source, check_lock_discipline
from repro.errors import CheckError


def _findings(source):
    return analyze_source(textwrap.dedent(source), "fixture.py")


def _rules(source):
    return {f.rule for f in _findings(source)}


# ---------------------------------------------------------------------------
# LK001 — guarded elsewhere, unguarded here
# ---------------------------------------------------------------------------

_LK001_BAD = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def hit(self):
        with self._lock:
            self._hits += 1

    def hit_unsafely(self):
        self._hits += 1
'''

_LK001_CLEAN = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def hit(self):
        with self._lock:
            self._hits += 1

    def snapshot(self):
        with self._lock:
            return self._hits
'''


def test_lk001_fires_on_unguarded_access():
    findings = [f for f in _findings(_LK001_BAD) if f.rule == "LK001"]
    assert len(findings) == 1
    assert findings[0].line == 14
    assert "hit_unsafely" in findings[0].message


def test_lk001_clean_when_every_access_guarded():
    assert _rules(_LK001_CLEAN) == set()


def test_lk001_manual_acquire_release_counts_as_guarded():
    # A manual acquire/try/finally/release pair guards exactly like a
    # `with` block — the lexical predecessor could not see this.
    source = '''
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def hit(self):
        with self._lock:
            self._hits += 1

    def hit_manually(self):
        self._lock.acquire()
        try:
            self._hits += 1
        finally:
            self._lock.release()
'''
    assert _rules(source) == set()


def test_lk001_early_return_path_still_guarded():
    source = '''
import threading

class Gate:
    def __init__(self):
        self._lock = threading.Lock()
        self._open = False

    def toggle(self):
        with self._lock:
            if self._open:
                return False
            self._open = True
        return True
'''
    assert _rules(source) == set()


# ---------------------------------------------------------------------------
# LK002 — never guarded anywhere
# ---------------------------------------------------------------------------

def test_lk002_fires_on_never_guarded_write():
    source = '''
import threading

class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n):
        self._total = self._total + n
'''
    findings = [f for f in _findings(source) if f.rule == "LK002"]
    assert len(findings) == 1
    assert "_total" in findings[0].message


def test_lk002_ignores_call_receivers():
    source = '''
import threading

class Done:
    def __init__(self):
        self._lock = threading.Lock()
        self._event = threading.Event()

    def finish(self):
        self._event.set()
'''
    assert _rules(source) == set()


# ---------------------------------------------------------------------------
# LK003 — lock-order inversion
# ---------------------------------------------------------------------------

_LK003_BAD = '''
import threading

class TwoLocks:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            with self._a:
                pass
'''


def test_lk003_fires_on_inverted_order():
    findings = [f for f in _findings(_LK003_BAD) if f.rule == "LK003"]
    assert len(findings) == 1
    assert "inversion" in findings[0].message


def test_lk003_clean_when_order_is_consistent():
    consistent = _LK003_BAD.replace("with self._b:\n            "
                                    "with self._a:",
                                    "with self._a:\n            "
                                    "with self._b:")
    assert _rules(consistent) == set()


# ---------------------------------------------------------------------------
# LK004 — blocking call under a lock
# ---------------------------------------------------------------------------

def test_lk004_fires_on_sleep_under_lock():
    source = '''
import threading
import time

class Poller:
    def __init__(self):
        self._lock = threading.Lock()

    def poll(self):
        with self._lock:
            time.sleep(0.1)
'''
    findings = [f for f in _findings(source) if f.rule == "LK004"]
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_lk004_clean_when_sleep_is_outside_lock():
    source = '''
import threading
import time

class Poller:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def poll(self):
        with self._lock:
            self._n += 1
        time.sleep(0.1)
'''
    assert _rules(source) == set()


def test_lk004_condition_wait_is_not_blocking():
    # Condition.wait releases the lock atomically while sleeping; it is
    # the designed pattern, not a bug.
    source = '''
import threading

class Queueish:
    def __init__(self):
        self._cond = threading.Condition()
        self._items = 0

    def take(self):
        with self._cond:
            while self._items == 0:
                self._cond.wait()
            self._items -= 1
'''
    assert _rules(source) == set()


def test_lk004_thread_join_under_lock():
    source = '''
import threading

class Stopper:
    def __init__(self):
        self._lock = threading.Lock()
        self._worker = threading.Thread(target=lambda: None)

    def stop(self):
        with self._lock:
            self._worker.join()
'''
    assert "LK004" in _rules(source)


@pytest.mark.parametrize("call", [
    'open(path, "a").write("x")',
    "Path(path).read_text()",
    "Path(path).write_bytes(b'x')",
    "subprocess.Popen(['true'])",
    "os.system('true')",
])
def test_lk004_fires_on_file_io_and_spawn_under_lock(call):
    source = f'''
import os
import subprocess
import threading
from pathlib import Path

class Journal:
    def __init__(self):
        self._lock = threading.Lock()

    def append(self, path):
        with self._lock:
            {call}
'''
    assert [f.line for f in _findings(source) if f.rule == "LK004"] == [13]


# The seeded mutations below plant a blocking call inside a real
# critical section of the shipped serving code — the shape the fault
# model forbids (a wedged holder stalls every request contending for
# the lock). Each anchor is asserted present, so a refactor of the
# real source breaks the test loudly instead of making it vacuous.
_SERVING = Path(__file__).resolve().parents[1] / "src" / "repro" / "serving"

_LOCK_SITES = {
    "batching": ("batching.py",
                 '    def __enter__(self) -> "Pending":\n'
                 '        with self._lock:\n'),
    "service": ("service.py",
                '    def _batcher_for(self, entry: ModelEntry) '
                '-> MicroBatcher:\n'
                '        with self._batchers_lock:\n'),
}

_BLOCKING_STATEMENTS = {
    "sleep": "time.sleep(0.01)",
    "open-write": 'open("pending.log", "a").write("entered\\n")',
    "path-write": 'Path("pending.log").write_text("entered")',
}


@pytest.mark.parametrize("statement", sorted(_BLOCKING_STATEMENTS))
@pytest.mark.parametrize("site", sorted(_LOCK_SITES))
def test_lk004_seeded_blocking_call_in_real_serving_lock(tmp_path, site,
                                                        statement):
    filename, anchor = _LOCK_SITES[site]
    source = (_SERVING / filename).read_text()
    assert source.count(anchor) == 1
    planted = f"            {_BLOCKING_STATEMENTS[statement]}\n"
    mutated = source.replace(anchor, anchor + planted)
    planted_line = mutated[:mutated.index(planted)].count("\n") + 1
    (tmp_path / filename).write_text(mutated)
    findings = [f for f in check_lock_discipline([tmp_path])
                if f.rule == "LK004"]
    assert [f.line for f in findings] == [planted_line]


# ---------------------------------------------------------------------------
# LK005 — await under a lock
# ---------------------------------------------------------------------------

def test_lk005_fires_on_await_under_lock():
    source = '''
import threading

class AsyncThing:
    def __init__(self):
        self._lock = threading.Lock()

    async def run(self, coro):
        with self._lock:
            await coro
'''
    findings = [f for f in _findings(source) if f.rule == "LK005"]
    assert len(findings) == 1


def test_lk005_clean_when_await_is_outside_lock():
    source = '''
import threading

class AsyncThing:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    async def run(self, coro):
        with self._lock:
            self._n += 1
        await coro
'''
    assert _rules(source) == set()


# ---------------------------------------------------------------------------
# Manual acquire/release pair (LK007's clean twin; "still held at exit"
# is RS001's, see test_checks_resources.py)
# ---------------------------------------------------------------------------

_MANUAL_PAIR = '''
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
'''


# ---------------------------------------------------------------------------
# LK007 — release of a lock not held
# ---------------------------------------------------------------------------

def test_lk007_fires_on_unpaired_release():
    source = '''
import threading

class Sloppy:
    def __init__(self):
        self._lock = threading.Lock()

    def oops(self):
        self._lock.release()
'''
    findings = [f for f in _findings(source) if f.rule == "LK007"]
    assert len(findings) == 1
    assert "RuntimeError" in findings[0].message


def test_lk007_clean_when_release_follows_acquire():
    assert "LK007" not in _rules(_MANUAL_PAIR)


# ---------------------------------------------------------------------------
# LK008 — re-acquiring a held non-reentrant lock
# ---------------------------------------------------------------------------

_LK008_BAD = '''
import threading

class Deadlock:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def outer(self):
        with self._lock:
            with self._lock:
                self._n += 1
'''


def test_lk008_fires_on_nested_plain_lock():
    findings = [f for f in _findings(_LK008_BAD) if f.rule == "LK008"]
    assert len(findings) == 1
    assert "self-deadlock" in findings[0].message


def test_lk008_clean_for_rlock():
    reentrant = _LK008_BAD.replace("threading.Lock()", "threading.RLock()")
    assert _rules(reentrant) == set()


# ---------------------------------------------------------------------------
# scope rules and entry points
# ---------------------------------------------------------------------------

def test_closures_are_analyzed_with_their_own_lockset():
    # The closure runs later, on another thread: the definition-point
    # lock does not protect it, but its own `with` does.
    source = '''
import threading

class Spawner:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def start(self):
        def work():
            with self._lock:
                self._n += 1
        return work
'''
    assert _rules(source) == set()


def test_closure_without_its_own_lock_is_unguarded():
    source = '''
import threading

class Spawner:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def guarded(self):
        with self._lock:
            self._n += 1

    def start(self):
        def work():
            self._n += 1
        return work
'''
    assert "LK001" in _rules(source)


def test_classes_without_locks_are_skipped():
    source = '''
class Plain:
    def __init__(self):
        self._n = 0

    def bump(self):
        self._n += 1
'''
    assert _findings(source) == []


def test_serving_layer_is_clean_under_dataflow_analysis():
    assert check_lock_discipline() == []


def test_missing_path_is_typed_error():
    with pytest.raises(CheckError):
        check_lock_discipline(paths=["/nonexistent/nowhere.py"])


def test_syntax_error_is_typed_error():
    with pytest.raises(CheckError):
        analyze_source("def broken(:", "broken.py")


# ---------------------------------------------------------------------------
# LK009–LK011 — unbounded blocking waits
# ---------------------------------------------------------------------------

_UNBOUNDED_WAITS = '''
def drain(work_queue, future, worker_thread):
    item = work_queue.get()
    value = future.result()
    worker_thread.join()
    return item, value
'''


def test_lk009_to_lk011_fire_on_unbounded_waits():
    findings = _findings(_UNBOUNDED_WAITS)
    assert [(f.rule, f.line) for f in findings] == [
        ("LK009", 3), ("LK010", 4), ("LK011", 5)]
    assert "work_queue.get()" in findings[0].message
    assert "future.result()" in findings[1].message
    assert "worker_thread.join()" in findings[2].message


def test_lk009_to_lk011_fire_inside_lock_owning_classes():
    source = '''
import threading

class Pump:
    def __init__(self):
        self._lock = threading.Lock()

    def run(self, task_queue):
        return task_queue.get(True, None)
'''
    assert [f.rule for f in _findings(source)] == ["LK009"]


@pytest.mark.parametrize("call", [
    "work_queue.get(timeout=0.1)",
    "work_queue.get(True, 0.1)",
    "work_queue.get(block=False)",
    "work_queue.get(False)",
    "work_queue.get_nowait()",
    "future.result(timeout=1.0)",
    "future.result(1.0)",
    "worker_thread.join(timeout=2.0)",
    "worker_thread.join(2.0)",
    "\", \".join(names)",
    "options.get('queue')",
    "config_dict.get('future')",
])
def test_lk009_to_lk011_bounded_or_unrelated_calls_are_clean(call):
    source = f"def poll(work_queue, future, worker_thread, names, " \
             f"options, config_dict):\n    return {call}\n"
    assert _findings(source) == []


def test_repo_serving_has_no_unbounded_waits():
    assert [f for f in check_lock_discipline()
            if f.rule in ("LK009", "LK010", "LK011")] == []
