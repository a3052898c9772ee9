"""In-memory span tracing recorded from the benchmark's own wrappers.

The program under test is never edited: :class:`Tracer` replaces a
layer's public entry points (module functions or class methods, named
by dotted path) with thin wrappers for the length of a traced phase and
restores the originals afterwards. Each call records one span::

    (span_id, parent_id, name, start_ns, end_ns, request_id, thread, rows)

``parent_id`` is the innermost open span on the same thread (0 at the
top), ``request_id`` is the unit of work the load generator was running
on that thread (0 on helper threads such as the micro-batcher worker),
and ``rows`` is an optional work count taken from the call (rows of a
native batch, tasks of a process map, rows of a dataset).

Span names are the layer names of ``layers.json`` so runtime spans added
to the program later can reuse them.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, int, int, int, int, int]
#: ``(args, kwargs, result) -> rows`` for spans that count work.
RowCounter = Callable[[tuple, dict, object], int]
_NONE = object()


def _resolve(path: str):
    """``"pkg.module:Class.attr"`` -> (owner object, attribute), or None
    when the target does not exist in this version of the program."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Collects spans in memory; patches are undone on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             rows: Optional[RowCounter] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = rows(args, kwargs, result) if rows else 0
                tracer.spans.append(
                    (span_id, parent, name, start, end,
                     getattr(tracer._local, "request", 0),
                     threading.get_ident(), count))

        return traced

    def root(self, fn: Callable, next_request: Callable[[], int]
             ) -> Callable:
        """``fn`` as a unit of work: a ``request`` span with a fresh id."""
        traced = self.wrap("request", fn)
        local = self._local

        def call(*args, **kwargs):
            local.request = next_request()
            try:
                return traced(*args, **kwargs)
            finally:
                local.request = 0

        return call

    # -- patching -----------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, Optional[RowCounter]]]
                ) -> List[str]:
        """Wrap every ``(path, span name, rows)`` target that exists.

        Returns the paths that were missing (skipped, not an error: a
        later version of the program may have renamed them).
        """
        missing = []
        for path, name, rows in targets:
            resolved = _resolve(path)
            if resolved is None:
                missing.append(path)
                continue
            owner, attr = resolved
            # An inherited method has no entry of its own to restore.
            self._patched.append((owner, attr, vars(owner).get(attr, _NONE)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), rows))
        return missing

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _NONE:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump the spans as CSV (times in ns since an arbitrary origin)."""
        with open(path, "w") as handle:
            handle.write("span,parent,name,start_ns,end_ns,request,"
                         "thread,rows\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


# -- analysis ---------------------------------------------------------------


class LayerStats:
    """Per-layer totals derived from a span list."""

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.durations_ns: List[int] = []
        self.self_ns: List[int] = []
        #: Blocking time charged to requests (counted once per request
        #: that waited on the span; differs from sum(self_ns) only for
        #: spans run on a helper thread on behalf of several requests).
        self.charged_ns = 0


def analyze(spans: Sequence[Span], handoff_parent: str = "",
            handoff_child: str = "") -> Tuple[Dict[str, LayerStats],
                                               Dict[int, int]]:
    """Layer statistics plus each submit span's handed-off child time.

    Self time is a span's duration minus its children's. Spans a helper
    thread runs on a request's behalf (the micro-batcher's native call)
    have no parent on that thread; a top-level ``handoff_child`` span
    is charged as a child of the latest ``handoff_parent`` span that
    wholly contains it, once per such waiting request.
    """
    children_ns: Dict[int, int] = defaultdict(int)
    for span_id, parent, _, start, end, *_ in spans:
        if parent:
            children_ns[parent] += end - start

    handoff_ns: Dict[int, int] = {}
    charges: Dict[int, int] = defaultdict(int)
    if handoff_parent and handoff_child:
        detached = sorted((s for s in spans
                           if s[2] == handoff_child and s[1] == 0),
                          key=lambda s: s[4])
        ends = [s[4] for s in detached]
        for span in spans:
            if span[2] != handoff_parent:
                continue
            index = bisect.bisect_right(ends, span[4]) - 1
            if index >= 0 and detached[index][3] >= span[3]:
                child = detached[index]
                handoff_ns[span[0]] = child[4] - child[3]
                children_ns[span[0]] += child[4] - child[3]
                charges[child[0]] += 1

    layers: Dict[str, LayerStats] = defaultdict(LayerStats)
    for span_id, parent, name, start, end, _, _, rows in spans:
        stats = layers[name]
        duration = end - start
        own = duration - children_ns.get(span_id, 0)
        stats.calls += 1
        stats.rows += rows
        stats.durations_ns.append(duration)
        stats.self_ns.append(own)
        if parent or name == "request":
            stats.charged_ns += own
        else:
            stats.charged_ns += own * charges.get(span_id, 0)
    return layers, handoff_ns
