"""CFG-based lock-discipline and responsiveness analysis for serving.

PR 2 shipped a *lexical* lock checker: a ``with``-depth counter that
could not see early returns, ``try/finally`` release patterns, or
manual ``acquire()``/``release()`` pairs. This rewrite computes real
lock-held sets per program point: every method gets a control-flow
graph (:mod:`.cfg`), and two forward dataflow passes propagate the set
of class-owned locks held at each event —

* **must-held** (meet = intersection): a lock provably held on *every*
  path. Used where claiming protection needs proof (LK001/LK002
  guardedness, LK004/LK005 blocking-under-lock, LK008 re-acquire,
  LK003 ordering edges).
* **may-held** (meet = union): a lock possibly held on *some* path.
  Used where the bug is "might not be held" (LK007). "Might still be
  held at exit" is the resource analyzer's RS001.

Rules
-----
LK001  attribute guarded elsewhere but accessed with no lock held
LK002  shared mutable attribute never accessed under a lock
LK003  lock-order inversion (lock A held acquiring B, and B held
       acquiring A, anywhere in the same class)
LK004  blocking call (``time.sleep``, ``subprocess.*``, ``os.system``,
       ``open()``, ``Path.read_*``/``write_*``, ``.result()``,
       thread/process ``.join()``) while a lock is held
LK005  ``await`` while holding a lock
LK007  ``release()`` of a lock not held on any path
LK008  re-acquiring a held non-reentrant ``Lock`` (self-deadlock)
LK009  ``<queue>.get()`` with no timeout (and not ``block=False``)
LK010  ``<future>.result()`` with no timeout
LK011  ``<thread>.join()`` with no timeout

LK009–LK011 guard responsiveness: a serving thread that blocks forever
cannot shed load, honor a deadline, or drain on shutdown. They apply
to every call in the scanned files, lock or no lock, and identify
receivers by naming convention — a ``.get()`` on something called
``*queue*`` is a :class:`queue.Queue`, not a dict. ``get_nowait`` and
any call passing a non-``None`` timeout (positional or keyword) are
bounded.

Scope and soundness choices: ``__init__``/``__new__``/``__del__`` are
single-threaded and exempt from attribute rules; nested functions and
lambdas escape their lock scope, so their bodies are analyzed with an
empty entry lockset; calls *on* an attribute (``self._evt.set()``) are
not writes, so thread-safe members assigned once never trigger;
``Condition.wait`` atomically releases and re-acquires, so it is
neither a state change nor a blocking violation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import CheckError
from .astutils import (
    PACKAGE_ROOT,
    dotted_name,
    innermost_self_attr,
    iter_py_files,
    repo_relative,
    self_attr,
)
from .cfg import WithEnter, WithExit, build_cfg, forward_dataflow
from .findings import Finding, Severity

__all__ = ["AttributeAccess", "analyze_source", "check_lock_discipline"]

_DEFAULT_SCOPE = (PACKAGE_ROOT / "serving",)

#: lock factory -> reentrancy. ``Condition()`` wraps an RLock.
_LOCK_FACTORIES = {"Lock": False, "RLock": True, "Condition": True}

_EXEMPT_METHODS = {"__init__", "__new__", "__del__"}

#: Methods whose contract is "the caller already holds the lock", so a
#: release with no in-method acquire is the point, not a bug.
_LK007_EXEMPT = {"__exit__", "release", "release_lock", "unlock"}

#: Module-level callables that block the calling thread.
_BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.Popen",
    "subprocess.check_call", "subprocess.check_output",
    "os.system",
    "open",
    "socket.create_connection",
    "urllib.request.urlopen",
}

#: Methods that read or write a whole file, whatever the receiver
#: (the ``pathlib.Path`` shape).
_FILE_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: ``Condition`` methods that are coordination, not lock-state changes.
_CONDITION_METHODS = {"wait", "wait_for", "notify", "notify_all"}

#: Receiver-name fragments identifying each blocking receiver kind.
_QUEUE_HINTS = ("queue",)
_FUTURE_HINTS = ("future", "fut", "promise")
_THREAD_HINTS = ("thread", "worker", "proc", "process")


@dataclass(frozen=True)
class AttributeAccess:
    """One access to ``self.<attr>``, with its dataflow guard state."""

    attr: str
    line: int
    method: str
    write: bool
    guarded: bool    # a class lock is must-held at this program point


@dataclass(frozen=True)
class _LockOp:
    kind: str        # "acquire" | "release"
    attr: str
    line: int
    via_with: bool


# -- lock discovery ----------------------------------------------------------

def _lock_factory(node: ast.expr) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    return name if name in _LOCK_FACTORIES else None


def _class_locks(cls: ast.ClassDef) -> Dict[str, bool]:
    """``self.<attr> = threading.Lock()`` attrs -> reentrant flag."""
    locks: Dict[str, bool] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            factory = _lock_factory(node.value)
            if factory is None:
                continue
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None:
                    locks[attr] = _LOCK_FACTORIES[factory]
    return locks


# -- event decoding ----------------------------------------------------------

def _ordered_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, source-order walk that stays in the current scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield child
        yield from _ordered_walk(child)


def _event_lock_ops(event: object, locks: Dict[str, bool]) -> List[_LockOp]:
    """Acquire/release operations an event performs, in order."""
    if isinstance(event, (WithEnter, WithExit)):
        attr = self_attr(event.item.context_expr)
        if attr in locks:
            kind = "acquire" if isinstance(event, WithEnter) else "release"
            return [_LockOp(kind, attr, event.line, via_with=True)]
        return []
    if not isinstance(event, ast.AST):
        return []
    ops: List[_LockOp] = []
    nodes = [event] if isinstance(event, ast.Call) else []
    for node in _ordered_walk(event):
        if isinstance(node, ast.Call):
            nodes.append(node)
    for node in nodes:
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        attr = self_attr(func.value)
        if attr not in locks:
            continue
        if func.attr == "acquire":
            ops.append(_LockOp("acquire", attr, node.lineno, via_with=False))
        elif func.attr == "release":
            ops.append(_LockOp("release", attr, node.lineno, via_with=False))
        # locked()/wait()/notify() do not change the held set.
    return ops


def _make_transfer(locks: Dict[str, bool]):
    def transfer(state: FrozenSet[str], event: object) -> FrozenSet[str]:
        for op in _event_lock_ops(event, locks):
            if op.kind == "acquire":
                state = state | {op.attr}
            else:
                state = state - {op.attr}
        return state
    return transfer


# -- per-event rule checks ---------------------------------------------------

def _receiver_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _blocking_calls(event: ast.AST,
                    locks: Dict[str, bool]) -> List[Tuple[int, str]]:
    """(line, description) for calls that block the thread."""
    out: List[Tuple[int, str]] = []
    nodes = [event] if isinstance(event, ast.Call) else []
    nodes.extend(n for n in _ordered_walk(event) if isinstance(n, ast.Call))
    for node in nodes:
        func = node.func
        dotted = dotted_name(func)
        if dotted in _BLOCKING_CALLS:
            out.append((node.lineno, f"{dotted}()"))
            continue
        if not isinstance(func, ast.Attribute):
            continue
        if self_attr(func.value) in locks:
            continue  # lock-op or Condition coordination, handled elsewhere
        receiver = _receiver_name(func.value)
        if func.attr in _FILE_IO_METHODS:
            out.append((node.lineno, f"{receiver or '<expr>'}.{func.attr}()"))
        elif func.attr == "result":
            out.append((node.lineno,
                        f"{receiver or '<expr>'}.result()"))
        elif func.attr == "join" and _matches(receiver, _THREAD_HINTS):
            out.append((node.lineno, f"{receiver}.join()"))
    return out


def _matches(name: Optional[str], hints: Sequence[str]) -> bool:
    return name is not None and any(hint in name.lower() for hint in hints)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_timeout(call: ast.Call, positional_index: int) -> bool:
    """True when the call passes a (non-``None``) timeout bound."""
    if len(call.args) > positional_index and \
            not _is_none(call.args[positional_index]):
        return True
    return any(keyword.arg == "timeout" and not _is_none(keyword.value)
               for keyword in call.keywords)


def _is_nonblocking_get(call: ast.Call) -> bool:
    """``get(False)`` / ``get(block=False)`` return immediately."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and call.args[0].value is False:
        return True
    return any(keyword.arg == "block"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value is False
               for keyword in call.keywords)


def _unbounded_wait(call: ast.Call, rel: str) -> Optional[Finding]:
    """LK009–LK011: a queue/future/thread wait with no timeout."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver_name(func.value)
    if func.attr == "get" and _matches(receiver, _QUEUE_HINTS):
        # Queue.get(block=True, timeout=None): timeout is positional 1.
        if _is_nonblocking_get(call) or _has_timeout(call, 1):
            return None
        return Finding(
            "LK009", Severity.ERROR, rel, call.lineno,
            f"{receiver}.get() blocks forever without a timeout; a "
            f"wedged producer leaves this thread unresponsive to "
            f"shutdown and deadlines — use get(timeout=...) in a loop")
    if func.attr == "result" and _matches(receiver, _FUTURE_HINTS):
        if _has_timeout(call, 0):
            return None
        return Finding(
            "LK010", Severity.ERROR, rel, call.lineno,
            f"{receiver}.result() blocks forever without a timeout; a "
            f"lost worker leaves the caller waiting indefinitely — "
            f"pass result(timeout=...)")
    if func.attr == "join" and _matches(receiver, _THREAD_HINTS):
        if _has_timeout(call, 0):
            return None
        return Finding(
            "LK011", Severity.ERROR, rel, call.lineno,
            f"{receiver}.join() blocks forever without a timeout; a "
            f"hung thread turns shutdown into a hang — pass "
            f"join(timeout=...) and handle the still-alive case")
    return None


def _awaits(event: ast.AST) -> List[int]:
    found = [event.lineno] if isinstance(event, ast.Await) else []
    found.extend(n.lineno for n in _ordered_walk(event)
                 if isinstance(n, ast.Await))
    return found


# -- attribute-access extraction ---------------------------------------------

def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def _nested_store_bases(event: ast.AST) -> Set[int]:
    """ids of ``self.x`` nodes that are the base of a nested store.

    ``self.x.y = v`` / ``self.x[k] = v`` mutate the object in ``self.x``
    even though the ``self.x`` node itself has Load context.
    """
    bases: Set[int] = set()
    nodes = [event] if isinstance(event, ast.stmt) else []
    nodes.extend(n for n in _ordered_walk(event))
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets: Sequence[ast.expr] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for target in targets:
            for leaf in _flatten_targets(target):
                base = innermost_self_attr(leaf)
                if base is not None:
                    bases.add(id(base))
    return bases


def _collect_accesses(node: ast.AST, locks: Dict[str, bool],
                      write_bases: Set[int], guarded: bool, method: str,
                      out: List[AttributeAccess]) -> None:
    if isinstance(node, ast.Lambda):
        # Deferred execution: the definition-point lockset is meaningless.
        _collect_accesses(node.body, locks, write_bases, False, method, out)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return  # analyzed as their own scope by the caller
    attr = self_attr(node)
    if attr is not None and attr not in locks:
        write = (isinstance(node.ctx, (ast.Store, ast.Del))  # type: ignore[attr-defined]
                 or id(node) in write_bases)
        out.append(AttributeAccess(attr=attr, line=node.lineno,
                                   method=method, write=write,
                                   guarded=guarded))
    for child in ast.iter_child_nodes(node):
        _collect_accesses(child, locks, write_bases, guarded, method, out)


def _event_accesses(event: object, locks: Dict[str, bool], guarded: bool,
                    method: str, out: List[AttributeAccess]) -> None:
    if isinstance(event, WithExit):
        return
    if isinstance(event, WithEnter):
        item = event.item
        if self_attr(item.context_expr) not in locks:
            _collect_accesses(item.context_expr, locks, set(), guarded,
                              method, out)
        if item.optional_vars is not None:
            bases = {id(b) for leaf in _flatten_targets(item.optional_vars)
                     for b in [innermost_self_attr(leaf)] if b is not None}
            _collect_accesses(item.optional_vars, locks, bases, guarded,
                              method, out)
        return
    if not isinstance(event, ast.AST):
        return
    _collect_accesses(event, locks, _nested_store_bases(event), guarded,
                      method, out)


# -- per-function analysis ---------------------------------------------------

class _ClassAnalysis:
    def __init__(self, cls_name: str, locks: Dict[str, bool], rel: str):
        self.cls_name = cls_name
        self.locks = locks
        self.rel = rel
        self.accesses: List[AttributeAccess] = []
        self.findings: List[Finding] = []
        #: (held, acquired) -> first line where the edge was observed.
        self.order_edges: Dict[Tuple[str, str], int] = {}

    def analyze_function(self, func: ast.AST, method: str) -> None:
        cfg = build_cfg(func)
        transfer = _make_transfer(self.locks)
        must = forward_dataflow(cfg, transfer, frozenset(),
                                lambda a, b: a & b)
        simple_name = method.rsplit(".", 1)[-1].strip("<>")
        may_entry = (frozenset(self.locks)
                     if simple_name in _LK007_EXEMPT else frozenset())
        may = forward_dataflow(cfg, transfer, may_entry,
                               lambda a, b: a | b)

        for block in cfg.blocks:
            must_state, may_state = must[block.index], may[block.index]
            for event in block.events:
                self._check_event(event, must_state, may_state, method)
                self._nested_scopes(event, method)
                must_state = transfer(must_state, event)
                may_state = transfer(may_state, event)

    def _check_event(self, event: object, must_state: FrozenSet[str],
                     may_state: FrozenSet[str], method: str) -> None:
        for op in _event_lock_ops(event, self.locks):
            if op.kind == "acquire":
                for held in sorted(must_state):
                    if held != op.attr:
                        self.order_edges.setdefault((held, op.attr), op.line)
                if op.attr in must_state and not self.locks[op.attr]:
                    self.findings.append(Finding(
                        "LK008", Severity.ERROR, self.rel, op.line,
                        f"{self.cls_name}.{method}() re-acquires "
                        f"non-reentrant Lock self.{op.attr} while already "
                        f"holding it: guaranteed self-deadlock"))
            elif not op.via_with and op.attr not in may_state:
                self.findings.append(Finding(
                    "LK007", Severity.ERROR, self.rel, op.line,
                    f"{self.cls_name}.{method}() releases self.{op.attr} "
                    f"but the lock is not held on any path here "
                    f"(release() would raise RuntimeError)"))
            # Fold this op before judging the next one in the same event.
            if op.kind == "acquire":
                must_state = must_state | {op.attr}
                may_state = may_state | {op.attr}
            else:
                must_state = must_state - {op.attr}
                may_state = may_state - {op.attr}

        guarded = bool(must_state)
        _event_accesses(event, self.locks, guarded, method, self.accesses)

        if guarded and isinstance(event, ast.AST):
            held = ", ".join(f"self.{name}" for name in sorted(must_state))
            for line, call in _blocking_calls(event, self.locks):
                self.findings.append(Finding(
                    "LK004", Severity.ERROR, self.rel, line,
                    f"{self.cls_name}.{method}() calls blocking {call} "
                    f"while holding {held}"))
            for line in _awaits(event):
                self.findings.append(Finding(
                    "LK005", Severity.ERROR, self.rel, line,
                    f"{self.cls_name}.{method}() awaits while holding "
                    f"{held}: the event loop stalls every other task "
                    f"contending for it"))

    def _nested_scopes(self, event: object, method: str) -> None:
        if isinstance(event, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Closures escape the lock scope: fresh CFG, empty lockset.
            self.analyze_function(event, f"{method}.<{event.name}>")

    # -- class-level verdicts ------------------------------------------------

    def finish(self) -> List[Finding]:
        self._judge_order()
        self._judge_guardedness()
        return self.findings

    def _judge_order(self) -> None:
        reported: Set[Tuple[str, str]] = set()
        for (a, b), line in sorted(self.order_edges.items()):
            if (b, a) in self.order_edges and (b, a) not in reported:
                reported.add((a, b))
                other = self.order_edges[(b, a)]
                self.findings.append(Finding(
                    "LK003", Severity.ERROR, self.rel, line,
                    f"{self.cls_name}: lock-order inversion — self.{b} "
                    f"acquired under self.{a} here, but self.{a} acquired "
                    f"under self.{b} at line {other}; concurrent callers "
                    f"can deadlock"))

    def _judge_guardedness(self) -> None:
        guarded_attrs = {a.attr for a in self.accesses if a.guarded}
        written_attrs = {a.attr for a in self.accesses if a.write}
        by_attr: Dict[str, List[AttributeAccess]] = {}
        for access in self.accesses:
            by_attr.setdefault(access.attr, []).append(access)

        lock_names = ", ".join(sorted(self.locks))
        for attr, attr_accesses in sorted(by_attr.items()):
            if attr in guarded_attrs:
                if attr not in written_attrs:
                    continue  # guarded reads of effectively-immutable state
                for access in attr_accesses:
                    if access.guarded:
                        continue
                    verb = "written" if access.write else "read"
                    self.findings.append(Finding(
                        "LK001", Severity.ERROR, self.rel, access.line,
                        f"{self.cls_name}.{attr} is guarded by {lock_names} "
                        f"elsewhere but {verb} with no lock held in "
                        f"{access.method}()"))
            else:
                writes = [a for a in attr_accesses if a.write]
                if not writes:
                    continue
                methods = sorted({a.method for a in attr_accesses})
                for access in writes:
                    self.findings.append(Finding(
                        "LK002", Severity.ERROR, self.rel, access.line,
                        f"{self.cls_name}.{attr} is shared mutable state "
                        f"written in {access.method}() but never accessed "
                        f"under a lock (class holds {lock_names}; accessed "
                        f"from: {', '.join(methods)})"))


# -- entry points ------------------------------------------------------------

def analyze_source(source: str, path: str) -> List[Finding]:
    """Analyze every lock-owning class and every wait in one file."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise CheckError(f"cannot parse {path}: {exc}") from exc
    rel = repo_relative(path) if Path(path).exists() else path
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            finding = _unbounded_wait(node, rel)
            if finding is not None:
                findings.append(finding)
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        locks = _class_locks(node)
        if not locks:
            continue
        analysis = _ClassAnalysis(node.name, locks, rel)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _EXEMPT_METHODS:
                continue
            analysis.analyze_function(item, item.name)
        findings.extend(analysis.finish())
    return findings


def check_lock_discipline(paths: Optional[Sequence[Union[str, Path]]] = None
                          ) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` (default: serving/)."""
    findings: List[Finding] = []
    for file_path in iter_py_files(paths or _DEFAULT_SCOPE):
        findings.extend(analyze_source(file_path.read_text(),
                                       str(file_path)))
    return list(dict.fromkeys(findings))
