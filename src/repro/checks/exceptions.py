"""EX: exception-contract analysis (rules EX001-EX007).

The serving and faults packages promise their callers a
closed error vocabulary: everything that escapes a public function is
a typed :class:`~repro.errors.ReproError` subtype, and the HTTP front
end maps each declared service error to a specific JSON envelope. This
analyzer proves the contract with the interprocedural raises summaries
of :mod:`repro.checks.interproc` — a ``raise`` five calls deep still
counts if no intermediate handler catches it.

=====  ==========================================================
EX001  public boundary function may raise a non-ReproError type
EX002  ``except BaseException`` without re-raise (eats Ctrl-C/SystemExit)
EX004  ServingError subclass with no specific envelope in error_response
EX005  broad handler swallows load-control errors the body can raise
EX006  raising the bare ReproError/ServingError base class
EX007  library code raises a type outside the ReproError hierarchy
=====  ==========================================================

EX001's summaries only see raises *written in this corpus*; a builtin
raising ``ValueError`` inside an unresolved call is invisible. That is
the honest trade: the rule enforces "we never wrote an untyped escape",
not "CPython cannot produce one".

EX007 is the lexical, package-wide twin of EX001: every ``raise`` of a
named type anywhere in the package must name a ``ReproError`` subtype
(resolved through the same corpus hierarchy, so a module-local
subclass counts), so callers can catch one base class. ``cli.py`` and
``serving/http.py`` are process edges (exit codes, HTTP) and exempt;
``NotImplementedError`` and bare re-raises are always fine. Raising
without ``from`` inside a handler is ruff's B904.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .astutils import dotted_name
from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .findings import Finding, Severity
from .interproc import (
    ExceptionHierarchy,
    RaisesSummary,
    compute_raises_summaries,
    escapes_of_statements,
    handler_type_names,
)

__all__ = ["check_exception_contracts"]

#: Packages whose public functions form the typed-error boundary.
_BOUNDARY_PACKAGES = ("serving", "faults")
#: Packages held to handler hygiene (EX005/EX006).
_SCOPE_PACKAGES = ("serving", "faults", "treecomp")

#: Overload/deadline errors that double as control flow: swallowing one
#: in a broad handler silently converts load shedding into wrong answers.
_LOAD_CONTROL = frozenset({
    "QueueFullError", "LoadShedError", "RequestTimeoutError",
    "DeadlineExceeded", "ServiceClosedError",
})

#: Exceptions any library module may raise besides ReproError subclasses.
_ALWAYS_ALLOWED_RAISES = frozenset({"NotImplementedError", "StopIteration",
                                    "KeyboardInterrupt"})

#: Modules allowed to raise anything (process edges: exit codes, HTTP).
_RAISE_EXEMPT_MODULES = frozenset({"cli", "serving.http"})

_EXEMPT_ESCAPES = frozenset({"<unknown>", "Exception", "BaseException"}) \
    | _ALWAYS_ALLOWED_RAISES


def _in_packages(module: str, packages: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in packages)


def _has_bare_raise(body: Sequence[ast.stmt]) -> bool:
    for node in body:
        for child in ast.walk(node):
            if isinstance(child, ast.Raise) and child.exc is None:
                return True
    return False


def _references_name(body: Sequence[ast.stmt], name: str) -> bool:
    for node in body:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id == name:
                return True
    return False


def _escape_findings(graph: CallGraph, hierarchy: ExceptionHierarchy,
                     summaries: Dict[str, RaisesSummary]) -> List[Finding]:
    findings = []
    for qname, info in graph.functions.items():
        if not info.is_public or \
                not _in_packages(info.module, _BOUNDARY_PACKAGES):
            continue
        for escape in sorted(summaries[qname].escapes):
            if escape in _EXEMPT_ESCAPES:
                continue
            if "ReproError" in hierarchy.ancestors(escape):
                continue
            line = summaries[qname].raise_lines.get(escape, 0) \
                or info.node.lineno
            findings.append(Finding(
                "EX001", Severity.ERROR, info.rel_path, line,
                f"public {info.module}.{info.name}() may raise "
                f"{escape}, which is not a ReproError subtype; the "
                f"boundary contract promises typed errors only"))
    return findings


def _handler_findings(graph: CallGraph, hierarchy: ExceptionHierarchy,
                      summaries: Dict[str, RaisesSummary]) -> List[Finding]:
    findings = []
    for info in graph.functions.values():
        in_scope = _in_packages(info.module, _SCOPE_PACKAGES)
        for node in info.own_statements():
            if not isinstance(node, ast.Try):
                continue
            for index, handler in enumerate(node.handlers):
                names = handler_type_names(handler)
                if "BaseException" in names and handler.type is not None \
                        and not _has_bare_raise(handler.body):
                    findings.append(Finding(
                        "EX002", Severity.ERROR, info.rel_path,
                        handler.lineno,
                        "except BaseException without re-raise also "
                        "swallows KeyboardInterrupt/SystemExit; catch "
                        "Exception or re-raise"))
                if in_scope:
                    findings.extend(_swallow_findings(
                        graph, hierarchy, summaries, info, node,
                        index, handler, names))
    return findings


def _swallow_findings(graph: CallGraph, hierarchy: ExceptionHierarchy,
                      summaries: Dict[str, RaisesSummary],
                      info: FunctionInfo, node: ast.Try, index: int,
                      handler: ast.ExceptHandler,
                      names: List[str]) -> List[Finding]:
    if not ({"Exception", "BaseException"} & set(names)):
        return []
    # ``orelse`` raises are not caught by this try's handlers, so only
    # the body's escapes can be swallowed here.
    body_escapes = escapes_of_statements(
        graph, info, summaries, hierarchy, list(node.body))
    at_risk = {e for e in body_escapes if e in _LOAD_CONTROL}
    for earlier in node.handlers[:index]:
        earlier_names = handler_type_names(earlier)
        at_risk = {e for e in at_risk
                   if not any(hierarchy.catches(h, e)
                              for h in earlier_names)}
    if not at_risk:
        return []
    if _has_bare_raise(handler.body):
        return []
    if handler.name is not None and \
            _references_name(handler.body, handler.name):
        return []   # logged/re-wrapped/forwarded, not silently eaten
    return [Finding(
        "EX005", Severity.WARNING, info.rel_path, handler.lineno,
        f"broad except swallows load-control error(s) "
        f"{', '.join(sorted(at_risk))} the try body can raise; "
        f"re-raise them so overload handling stays visible")]


def _base_raise_findings(graph: CallGraph) -> List[Finding]:
    findings = []
    for info in graph.functions.values():
        if not _in_packages(info.module, _SCOPE_PACKAGES):
            continue
        for node in info.own_statements():
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted_name(target)
            base = name.split(".")[-1] if name else ""
            if base in ("ReproError", "ServingError"):
                findings.append(Finding(
                    "EX006", Severity.ERROR, info.rel_path, node.lineno,
                    f"raising the bare {base} base class; raise a "
                    f"specific subtype so callers and the HTTP envelope "
                    f"map can distinguish it"))
    return findings


def _untyped_raise_findings(graph: CallGraph,
                             hierarchy: ExceptionHierarchy) -> List[Finding]:
    findings = []
    for module in graph.modules.values():
        if module.name in _RAISE_EXEMPT_MODULES:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            else:
                continue
            if name in _ALWAYS_ALLOWED_RAISES \
                    or "ReproError" in hierarchy.ancestors(name):
                continue
            findings.append(Finding(
                "EX007", Severity.ERROR, module.rel_path, node.lineno,
                f"raises {name}; library code must raise ReproError "
                f"subclasses (see errors.py) so callers can catch one "
                f"base class"))
    return findings


def _isinstance_names(func: Union[ast.FunctionDef,
                                  ast.AsyncFunctionDef]) -> Set[str]:
    handled: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1]
            elements = (types.elts if isinstance(types, ast.Tuple)
                        else [types])
            for element in elements:
                name = dotted_name(element)
                if name:
                    handled.add(name.split(".")[-1])
    return handled


def _envelope_findings(graph: CallGraph,
                       hierarchy: ExceptionHierarchy) -> List[Finding]:
    mapper: Optional[FunctionInfo] = None
    for info in graph.functions.values():
        if info.name == "error_response" and info.cls is None:
            mapper = info
            break
    if mapper is None:
        return []
    handled = _isinstance_names(mapper.node)
    findings = []
    serving_classes = sorted(
        name for name in hierarchy.bases
        if name != "ServingError"
        and "ServingError" in hierarchy.ancestors(name))
    for cls in serving_classes:
        ancestors = hierarchy.ancestors(cls) - {
            "ReproError", "Exception", "BaseException"}
        if handled & ancestors:
            continue
        findings.append(Finding(
            "EX004", Severity.ERROR, mapper.rel_path, mapper.node.lineno,
            f"ServingError subclass {cls} has no specific envelope "
            f"mapping in error_response(); it would fall through to "
            f"the generic ReproError 400, hiding its meaning from "
            f"clients"))
    return findings


def check_exception_contracts(
        roots: Optional[Sequence[Union[str, Path]]] = None
        ) -> List[Finding]:
    """Run EX001-EX007 over ``roots`` (default: the repro package)."""
    graph = build_call_graph(roots)
    hierarchy = ExceptionHierarchy.from_graph(graph)
    summaries = compute_raises_summaries(graph, hierarchy)
    findings = (_escape_findings(graph, hierarchy, summaries)
                + _handler_findings(graph, hierarchy, summaries)
                + _base_raise_findings(graph)
                + _untyped_raise_findings(graph, hierarchy)
                + _envelope_findings(graph, hierarchy))
    unique: List[Finding] = []
    seen: Set[Tuple[str, str, int, str]] = set()
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    unique.sort(key=lambda f: (f.path, f.line, f.rule))
    return unique
