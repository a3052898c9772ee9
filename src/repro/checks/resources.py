"""RS: resource-lifecycle analysis (rules RS001-RS005, RS007, RS008).

Must-release analysis over the per-function CFGs of
:mod:`repro.checks.cfg`: a manually acquired resource (lock
``acquire()``, ``open()`` handle, executor pool, socket, temp
dir/file) must be released, or its ownership transferred, on *every*
path out of the function — including the paths an early ``return`` or
a ``raise`` takes. ``with``-managed acquisitions carry no obligation
(the context manager releases), and generator functions are skipped
(their resources outlive any one frame).

Two classifications per leaked token:

* **explicit-path leak** (ERROR): the CFG says some return/raise path
  reaches the function exit with the obligation still open;
* **exception-unsafe** (WARNING): every explicit path releases, but a
  statement between acquisition and release can raise while no
  enclosing ``try`` releases the resource in its ``finally`` or in a
  catch-all handler (bare, ``Exception`` or ``BaseException``) — the
  PR 5 ``compile_model`` workdir leak shape.

Lock-protocol methods (``__enter__``, ``acquire``, ``lock``, ...)
return with the lock held by contract and carry no RS001/RS002
obligation.

RS005 is a shape rule on top of the same machinery: it flags
``set_result``/``set_exception`` on a future the function did not
itself create unless the call is guarded by a ``try`` (another
resolver may have won the race — ``InvalidStateError``). That a
circuit breaker's half-open probe slot is repaid on every shed path is
a runtime test in ``tests/test_faults.py``, not a rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, \
    Union

from ..errors import CheckError
from .astutils import SourceFunction, dotted_name, load_package
from .cfg import CFG, WithEnter, WithExit, build_cfg, forward_dataflow
from .findings import Finding, Severity

__all__ = ["check_resource_lifecycles"]

#: resource kind -> (rule id, human noun).
_KIND_RULES: Dict[str, Tuple[str, str]] = {
    "file": ("RS003", "file handle"),
    "pool": ("RS004", "executor/pool"),
    "socket": ("RS007", "socket"),
    "tempdir": ("RS008", "temporary file/directory"),
}

_ACQUIRE_CALLS: Dict[str, str] = {
    "open": "file", "os.open": "file", "os.fdopen": "file",
    "socket.socket": "socket", "socket.create_connection": "socket",
    "tempfile.mkdtemp": "tempdir", "mkdtemp": "tempdir",
    "tempfile.mkstemp": "tempdir", "mkstemp": "tempdir",
    "tempfile.NamedTemporaryFile": "tempdir",
    "NamedTemporaryFile": "tempdir",
}
_ACQUIRE_SUFFIXES: Dict[str, str] = {
    "ProcessPoolExecutor": "pool", "ThreadPoolExecutor": "pool",
    "Pool": "pool",
}

#: Lock-protocol methods whose contract *is* "return with the lock
#: held" (the caller's ``__exit__``/``release`` pays it back).
_LOCK_PROTOCOL_METHODS = frozenset(
    {"__enter__", "acquire", "acquire_lock", "lock"})


def _acquisition_kind(value: ast.expr) -> Optional[str]:
    """Resource kind acquired anywhere inside ``value``, if any."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name in _ACQUIRE_CALLS:
            return _ACQUIRE_CALLS[name]
        last = name.split(".")[-1]
        if last in _ACQUIRE_SUFFIXES:
            return _ACQUIRE_SUFFIXES[last]
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _event_discharges(event: object, name: str) -> bool:
    """Does this CFG event release ``name`` or transfer its ownership?"""
    if isinstance(event, (WithEnter, WithExit)):
        return False
    if not isinstance(event, ast.AST):
        return False
    node = event
    # return <expr referencing name>: ownership moves to the caller.
    if isinstance(node, ast.Return):
        return node.value is not None and name in _names_in(node.value)
    # self.x = name / container[k] = name: ownership moves to the object.
    if isinstance(node, ast.Assign):
        if name in _names_in(node.value) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets):
            return True
    # Any call that touches the name — name.close(), rmtree(name),
    # os.close(name), helper(name) — releases it or hands it off.
    for call in [c for c in ast.walk(node) if isinstance(c, ast.Call)]:
        receiver = dotted_name(call.func)
        if receiver is not None and "." in receiver \
                and receiver.split(".")[0] == name:
            return True
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if name in _names_in(arg):
                return True
    return False


def _lock_acquire_target(event: object) -> Optional[str]:
    """Dotted receiver of a manual ``<recv>.acquire()`` statement."""
    node = event
    if isinstance(node, ast.Assign):
        node = node.value
    elif isinstance(node, ast.Expr):
        node = node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "acquire":
        return dotted_name(node.func.value)
    return None


def _lock_releases(event: object, receiver: str) -> bool:
    if not isinstance(event, ast.AST):
        return False
    for call in [c for c in ast.walk(event) if isinstance(c, ast.Call)]:
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr == "release" and \
                dotted_name(call.func.value) == receiver:
            return True
    return False


def _is_generator(info: SourceFunction) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in info.statements)


def _acquisitions(info: SourceFunction) -> List[Tuple[str, str, int]]:
    """(kind, var name, line) for every manual acquisition assignment."""
    out: List[Tuple[str, str, int]] = []
    for node in info.statements:
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        kind = _acquisition_kind(value)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.append((kind, target.id, node.lineno))
                break
            if isinstance(target, ast.Tuple):
                # fd, path = tempfile.mkstemp(): the fd carries the
                # obligation (the path is just a string).
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        out.append((kind, element.id, node.lineno))
                        break
                break
    return out


def _token(kind: str, name: str, line: int) -> str:
    return f"{kind}:{name}:{line}"


def _may_leak(cfg: CFG, tokens: Sequence[Tuple[str, str, int]],
              lock_tokens: Sequence[Tuple[str, int]]) -> FrozenSet[str]:
    """Tokens still open in some state reaching the CFG exit."""
    all_tokens = {(_token(kind, name, line), name, line)
                  for kind, name, line in tokens}
    all_tokens |= {(_token("lock", receiver, line), receiver, line)
                   for receiver, line in lock_tokens}
    lock_names = {receiver for receiver, _ in lock_tokens}

    def transfer(state: FrozenSet[str], event: object) -> FrozenSet[str]:
        out = set(state)
        for token, name, line in all_tokens:
            if token not in out:
                continue
            if token.startswith("lock:"):
                if _lock_releases(event, name):
                    out.discard(token)
                continue
            if _event_discharges(event, name):
                out.discard(token)
        line_no = getattr(event, "lineno", None)
        if isinstance(event, (ast.Assign, ast.AnnAssign)):
            for token, name, line in all_tokens:
                if line_no == line:
                    out.add(token)
        receiver = _lock_acquire_target(event)
        if receiver is not None and receiver in lock_names:
            for token, name, line in all_tokens:
                if token.startswith("lock:") and name == receiver \
                        and line_no == line:
                    out.add(token)
        return frozenset(out)

    states = forward_dataflow(
        cfg, transfer, frozenset(),
        lambda a, b: a | b)   # may-analysis: union at joins
    return states[CFG.EXIT]


#: Handler types that catch whatever the try body raises.
_CATCH_ALL = frozenset({"BaseException", "Exception"})


def _catches_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(dotted_name(t) in _CATCH_ALL for t in types)


def _releasing_trys(func: ast.AST, name: str,
                    is_lock: bool) -> List[ast.Try]:
    """Trys whose finally, or a catch-all handler, releases ``name``.

    A handler for a narrower type does not protect the resource: an
    exception it does not catch leaves the try without the release.
    """
    out = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        protected: List[ast.stmt] = list(node.finalbody)
        for handler in node.handlers:
            if _catches_all(handler):
                protected.extend(handler.body)
        for stmt in protected:
            released = (_lock_releases(stmt, name) if is_lock
                        else _event_discharges(stmt, name))
            if released:
                out.append(node)
                break
    return out


def _statement_region(func: ast.AST, try_nodes: Sequence[ast.Try]
                      ) -> Set[int]:
    """Line numbers covered by the bodies of the given trys."""
    lines: Set[int] = set()
    for try_node in try_nodes:
        for stmt in try_node.body + try_node.orelse:
            for child in ast.walk(stmt):
                line = getattr(child, "lineno", None)
                if line is not None:
                    lines.add(line)
    return lines


def _exception_unsafe(info: SourceFunction, name: str, acquired_line: int,
                      is_lock: bool) -> Optional[int]:
    """Line of the first risky, unprotected statement — or ``None``.

    A statement is risky when it contains a call (so it can raise),
    sits after the acquisition, is not itself a discharge of the
    resource, and is not inside a ``try`` that releases the resource
    in its ``finally`` or a catch-all handler.
    """
    covered = _statement_region(
        info.node, _releasing_trys(info.node, name, is_lock))
    last_discharge = 0
    for node in info.statements:
        line = getattr(node, "lineno", 0)
        if line <= acquired_line:
            continue
        discharges = (_lock_releases(node, name) if is_lock
                      else _event_discharges(node, name))
        if discharges:
            last_discharge = max(last_discharge, line)
    if last_discharge == 0:
        return None   # never discharged: the CFG pass owns this case
    for node in info.statements:
        line = getattr(node, "lineno", 0)
        if not (acquired_line < line < last_discharge):
            continue
        if line in covered:
            continue
        if not any(isinstance(c, ast.Call) for c in ast.walk(node)):
            continue
        discharges = (_lock_releases(node, name) if is_lock
                      else _event_discharges(node, name))
        if discharges:
            continue
        return line
    return None


def _lifecycle_findings(info: SourceFunction) -> List[Finding]:
    if _is_generator(info):
        return []
    tokens = _acquisitions(info)
    lock_tokens: List[Tuple[str, int]] = []
    if info.name not in _LOCK_PROTOCOL_METHODS:
        for node in info.statements:
            if isinstance(node, (ast.Expr, ast.Assign)):
                receiver = _lock_acquire_target(node)
                if receiver is not None:
                    lock_tokens.append((receiver, node.lineno))
    if not tokens and not lock_tokens:
        return []
    try:
        cfg = build_cfg(info.node)
    except CheckError:
        return []
    leaked = _may_leak(cfg, tokens, lock_tokens)

    findings: List[Finding] = []
    for kind, name, line in tokens:
        rule, noun = _KIND_RULES[kind]
        if _token(kind, name, line) in leaked:
            findings.append(Finding(
                rule, Severity.ERROR, info.rel_path, line,
                f"{noun} '{name}' acquired here may never be released: "
                f"some path out of {info.name}() exits with it open"))
            continue
        risky = _exception_unsafe(info, name, line, is_lock=False)
        if risky is not None:
            findings.append(Finding(
                rule, Severity.WARNING, info.rel_path, line,
                f"{noun} '{name}' is released only on the normal path: "
                f"an exception at line {risky} leaks it; release it in "
                f"a finally (or guard with try/except that cleans up)"))
    for receiver, line in lock_tokens:
        if _token("lock", receiver, line) in leaked:
            findings.append(Finding(
                "RS001", Severity.ERROR, info.rel_path, line,
                f"lock {receiver} acquired here may still be held when "
                f"{info.name}() exits; release it on every path or use "
                f"'with'"))
            continue
        risky = _exception_unsafe(info, receiver, line, is_lock=True)
        if risky is not None:
            findings.append(Finding(
                "RS002", Severity.WARNING, info.rel_path, line,
                f"lock {receiver} is released only on the normal path: "
                f"an exception at line {risky} leaves it held; use "
                f"'with' or release in a finally"))
    return findings


# -- RS005: unguarded future resolution -----------------------------------


def _local_future_names(info: SourceFunction) -> Set[str]:
    names: Set[str] = set()
    for node in info.statements:
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            # future: "Future[T]" = Future() — the batcher's idiom.
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call):
            continue
        callee = dotted_name(value.func) or ""
        if callee.split(".")[-1] == "Future":
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _future_findings(info: SourceFunction) -> List[Finding]:
    if not any(isinstance(node, ast.Attribute)
               and node.attr in ("set_result", "set_exception")
               for node in info.statements):
        return []
    local = _local_future_names(info)
    findings = []

    def scan(node: ast.AST, guarded: bool) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr in ("set_result", "set_exception"):
                receiver = dotted_name(child.func.value)
                base = (receiver or "").split(".")[0]
                if base in local:
                    continue   # just created: nobody can race it
                if not guarded:
                    findings.append(Finding(
                        "RS005", Severity.WARNING, info.rel_path,
                        child.lineno,
                        f"unguarded {child.func.attr}() on shared "
                        f"future {receiver or '<expr>'}: a concurrent "
                        f"resolver (timeout, shutdown drain) raises "
                        f"InvalidStateError; wrap in try/except"))

    def walk(statements: Sequence[ast.stmt], guarded: bool) -> None:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, ast.Try):
                walk(node.body, True)
                walk(node.orelse, guarded)
                for handler in node.handlers:
                    walk(handler.body, guarded)
                walk(node.finalbody, guarded)
            elif isinstance(node, (ast.If, ast.While)):
                scan(node.test, guarded)
                walk(node.body, guarded)
                walk(node.orelse, guarded)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                scan(node.iter, guarded)
                walk(node.body, guarded)
                walk(node.orelse, guarded)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    scan(item.context_expr, guarded)
                walk(node.body, guarded)
            else:
                scan(node, guarded)

    walk(info.node.body, False)
    return findings


def check_resource_lifecycles(
        roots: Optional[Sequence[Union[str, Path]]] = None
        ) -> List[Finding]:
    """Run the RS rules over ``roots`` (default: the repro package)."""
    findings: List[Finding] = []
    for info in load_package(roots).functions:
        findings.extend(_lifecycle_findings(info))
        findings.extend(_future_findings(info))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
