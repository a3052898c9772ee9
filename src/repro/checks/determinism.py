"""DT: determinism-taint analysis (rules DT001-DT010).

T3's replay guarantee — same seed, same inputs, bit-identical outputs —
only holds if no nondeterministic value ever feeds a seed-critical
computation. This analyzer proves that statically: it taints the known
nondeterminism sources (wall clock, ``id()`` addresses, unseeded
``random``, OS entropy, ``hash()``, set iteration order, process
identity, environment variables) and tracks them interprocedurally via
:mod:`repro.checks.interproc` summaries into the seed-critical sinks
(``repro.rng`` seed derivation, ``repro.faults`` arming,
``repro.treecomp`` emission).

Two lexical rules ride along: DT002 also fires on ``id()`` used as the
key of a *persistent* container without pinning the keyed object in
the stored value (the PR 4 ``CardinalityModel`` bug: CPython reuses
addresses after GC, so an unpinned ``id()`` key can alias two distinct
objects across a run), and DT003 fires on any unseeded random call
outside ``repro.rng`` regardless of where the value flows: stdlib
``random``, numpy's legacy module-level ``np.random.*`` functions
(global state), and an argument-less ``np.random.default_rng()``
(OS entropy).

=====  ========================================================
DT001  wall-clock value reaches a seed-critical sink
DT002  id() used as persistent key without pinning / reaches sink
DT003  unseeded random call (stdlib / numpy) outside repro.rng
DT004  OS entropy (urandom/uuid4/secrets) reaches a sink
DT005  builtin hash() value reaches a sink
DT006  set iteration order reaches a sink
DT007  process/thread identity reaches a sink
DT008  os.environ value reaches a sink
DT009  set.pop() arbitrary element reaches a sink
DT010  nondeterministic argument forwarded into a sink via a call
=====  ========================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .astutils import dotted_name, self_attr
from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .findings import Finding, Severity
from .interproc import SINK_NAMES, SOURCE_KINDS, classify_source, \
    compute_taint_summaries

__all__ = ["check_determinism"]

#: taint kind -> (rule id, severity) for sink-reaching findings.
_KIND_RULES: Dict[str, Tuple[str, Severity]] = {
    "clock": ("DT001", Severity.ERROR),
    "id": ("DT002", Severity.ERROR),
    "random": ("DT003", Severity.ERROR),
    "entropy": ("DT004", Severity.ERROR),
    "hash": ("DT005", Severity.ERROR),
    "set-order": ("DT006", Severity.WARNING),
    "procid": ("DT007", Severity.WARNING),
    "env": ("DT008", Severity.WARNING),
    "set-pop": ("DT009", Severity.WARNING),
}

_ERROR_KINDS = frozenset(k for k, (_, sev) in _KIND_RULES.items()
                         if sev is Severity.ERROR)


def _is_rng_module(module: str) -> bool:
    return module == "rng" or module.endswith(".rng")


def _sink_findings(graph: CallGraph) -> List[Finding]:
    summaries = compute_taint_summaries(graph)
    findings: List[Finding] = []
    for qname, summary in summaries.items():
        info = graph.functions[qname]
        for hit in summary.hits:
            contract = SINK_NAMES[hit.sink]
            if hit.via_call:
                severity = (Severity.ERROR
                            if hit.kinds & _ERROR_KINDS
                            else Severity.WARNING)
                kinds = ", ".join(
                    SOURCE_KINDS.get(k, k) for k in sorted(hit.kinds))
                findings.append(Finding(
                    "DT010", severity, info.rel_path, hit.line,
                    f"nondeterministic value ({kinds}) forwarded "
                    f"through a call into {hit.sink}() "
                    f"({contract})"))
                continue
            for kind in sorted(hit.kinds):
                rule, severity = _KIND_RULES.get(
                    kind, ("DT010", Severity.WARNING))
                findings.append(Finding(
                    rule, severity, info.rel_path, hit.line,
                    f"{SOURCE_KINDS.get(kind, kind)} reaches "
                    f"seed-critical sink {hit.sink}() ({contract})"))
    return findings


def _random_call_findings(graph: CallGraph) -> List[Finding]:
    findings = []
    for module in graph.modules.values():
        if _is_rng_module(module.name):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    classify_source(node) == "random":
                findings.append(Finding(
                    "DT003", Severity.ERROR, module.rel_path, node.lineno,
                    f"unseeded random call "
                    f"{dotted_name(node.func) or '<random>'}() outside "
                    f"repro.rng; use derive_rng()/make_rng() so the draw "
                    f"is seeded and replayable"))
    return findings


# -- DT002: id() keys of persistent containers ----------------------------


def _names_outside_id_calls(node: ast.AST) -> Set[str]:
    """Names referenced in ``node``, excluding ``id(...)`` arguments."""
    out: Set[str] = set()
    queue: List[ast.AST] = [node]
    while queue:
        current = queue.pop()
        if isinstance(current, ast.Call) and \
                isinstance(current.func, ast.Name) and \
                current.func.id == "id":
            continue
        if isinstance(current, ast.Name):
            out.add(current.id)
        queue.extend(ast.iter_child_nodes(current))
    return out


def _id_arg_names(node: ast.AST) -> Set[str]:
    """Argument names of every ``id(<name>)`` call inside ``node``."""
    out: Set[str] = set()
    for current in ast.walk(node):
        if isinstance(current, ast.Call) and \
                isinstance(current.func, ast.Name) and \
                current.func.id == "id":
            for arg in current.args:
                if isinstance(arg, ast.Name):
                    out.add(arg.id)
    return out


def _contains_id_call(node: ast.AST) -> bool:
    return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
               and c.func.id == "id" for c in ast.walk(node))


def _module_globals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _container_label(node: ast.expr) -> str:
    return dotted_name(node) or "<container>"


def _id_key_findings_for(info: FunctionInfo,
                         module_globals: Set[str]) -> List[Finding]:
    #: local var -> names of the objects its id() came from
    id_vars: Dict[str, Set[str]] = {}
    for node in info.own_statements():
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _contains_id_call(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                id_vars.setdefault(target.id, set()).update(
                    _id_arg_names(value))

    def is_persistent(container: ast.expr) -> bool:
        if self_attr(container) is not None:
            return True
        return (isinstance(container, ast.Name)
                and container.id in module_globals)

    def key_pin_names(expr: ast.AST) -> Optional[Set[str]]:
        """Object names whose id() feeds ``expr``; None if id-free."""
        if _contains_id_call(expr):
            pins = _id_arg_names(expr)
            for name in _names_outside_id_calls(expr):
                pins |= id_vars.get(name, set())
            return pins
        referenced = _names_outside_id_calls(expr)
        involved = referenced & id_vars.keys()
        if not involved:
            return None
        pins = set()
        for name in involved:
            pins |= id_vars[name]
        return pins

    findings: List[Finding] = []

    def report(line: int, container: ast.expr,
               pins: Set[str]) -> None:
        objects = ", ".join(sorted(pins)) if pins else "an object"
        findings.append(Finding(
            "DT002", Severity.ERROR, info.rel_path, line,
            f"id() of {objects} used as key/member of persistent "
            f"container {_container_label(container)} without pinning "
            f"the object in the stored value; CPython reuses addresses "
            f"after GC, so the key can alias distinct objects"))

    for node in info.own_statements():
        # container[<id-derived key>] = value
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                if not is_persistent(target.value):
                    continue
                pins = key_pin_names(target.slice)
                if pins is None:
                    continue
                stored = _names_outside_id_calls(node.value)
                if not (pins & stored):
                    report(node.lineno, target.value, pins)
        # container.add/append(<id-derived value>)
        elif isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Attribute) and \
                node.value.func.attr in ("add", "append"):
            call = node.value
            func = call.func
            assert isinstance(func, ast.Attribute)
            if not is_persistent(func.value) or not call.args:
                continue
            arg = call.args[0]
            pins = key_pin_names(arg)
            if pins is None:
                continue
            stored = _names_outside_id_calls(arg) - id_vars.keys()
            if not (pins & stored):
                report(node.lineno, func.value, pins)
    return findings


def _id_key_findings(graph: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    globals_by_module = {
        name: _module_globals(module.tree)
        for name, module in graph.modules.items()}
    for info in graph.functions.values():
        findings.extend(_id_key_findings_for(
            info, globals_by_module.get(info.module, set())))
    return findings


def check_determinism(roots: Optional[Sequence[Union[str, Path]]] = None
                      ) -> List[Finding]:
    """Run DT001-DT010 over ``roots`` (default: the repro package)."""
    graph = build_call_graph(roots)
    findings = (_sink_findings(graph) + _random_call_findings(graph)
                + _id_key_findings(graph))
    unique: List[Finding] = []
    seen: Set[Tuple[str, str, int, str]] = set()
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    unique.sort(key=lambda f: (f.path, f.line, f.rule))
    return unique
