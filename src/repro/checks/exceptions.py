"""EX: exception-contract rules (EX002, EX006, EX007).

The library promises its callers a closed error vocabulary: everything
it raises is a typed :class:`~repro.errors.ReproError` subtype, so a
caller catches one base class and the HTTP front end maps each service
error to its own JSON envelope. One walk per module checks the raise
and handler sites that contract rests on:

=====  ==========================================================
EX002  ``except BaseException`` without re-raise (eats Ctrl-C/SystemExit)
EX006  raising the bare ReproError/ServingError base class
EX007  library code raises a type outside the ReproError hierarchy
=====  ==========================================================

EX007 resolves names through the package's own class definitions, so a
module-local ``ReproError`` subclass counts. ``cli.py`` and
``serving/http.py`` are process edges (exit codes, HTTP) and exempt;
``NotImplementedError`` and bare re-raises are always fine. Raising
without ``from`` inside a handler is ruff's B904. That every
``ServingError`` subclass has its own envelope is a runtime test
(``tests/test_serving_http.py``), not a rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from .astutils import SourceModule, dotted_name, load_package
from .findings import Finding, Severity

__all__ = ["check_exception_contracts"]

#: Packages held to handler hygiene (EX006).
_SCOPE_PACKAGES = ("serving", "faults", "treecomp")

#: Exceptions any library module may raise besides ReproError subclasses.
_ALWAYS_ALLOWED_RAISES = frozenset({"NotImplementedError", "StopIteration",
                                    "KeyboardInterrupt"})

#: Modules allowed to raise anything (process edges: exit codes, HTTP).
_RAISE_EXEMPT_MODULES = frozenset({"cli", "serving.http"})


def _class_bases(modules: Sequence[SourceModule]) -> Dict[str, Set[str]]:
    """Class name -> the base-class names it is declared with."""
    bases: Dict[str, Set[str]] = {}
    for module in modules:
        for node in module.nodes:
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    name.split(".")[-1] for name in map(dotted_name,
                                                        node.bases) if name)
    return bases


def _is_repro_error(name: str, bases: Dict[str, Set[str]]) -> bool:
    seen: Set[str] = set()
    queue = [name]
    while queue:
        current = queue.pop()
        if current == "ReproError":
            return True
        if current not in seen:
            seen.add(current)
            queue.extend(bases.get(current, ()))
    return False


def _raised_name(node: ast.Raise) -> Optional[str]:
    """Simple name of the raised type; ``None`` for a bare re-raise or
    an expression that names no type."""
    target = node.exc
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _catches_base_exception(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return False   # bare ``except:`` is ruff's E722
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any((dotted_name(t) or "").split(".")[-1] == "BaseException"
               for t in types)


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(child, ast.Raise) and child.exc is None
               for stmt in handler.body for child in ast.walk(stmt))


def _module_findings(module: SourceModule,
                     bases: Dict[str, Set[str]]) -> List[Finding]:
    in_scope = any(module.name == p or module.name.startswith(p + ".")
                   for p in _SCOPE_PACKAGES)
    exempt = module.name in _RAISE_EXEMPT_MODULES
    findings = []
    for node in module.nodes:
        if isinstance(node, ast.ExceptHandler):
            if _catches_base_exception(node) and not _reraises(node):
                findings.append(Finding(
                    "EX002", Severity.ERROR, module.rel_path, node.lineno,
                    "except BaseException without re-raise also "
                    "swallows KeyboardInterrupt/SystemExit; catch "
                    "Exception or re-raise"))
            continue
        if not isinstance(node, ast.Raise):
            continue
        name = _raised_name(node)
        if name is None:
            continue
        if in_scope and name in ("ReproError", "ServingError"):
            findings.append(Finding(
                "EX006", Severity.ERROR, module.rel_path, node.lineno,
                f"raising the bare {name} base class; raise a specific "
                f"subtype so callers and the HTTP envelope map can "
                f"distinguish it"))
        elif not exempt and name not in _ALWAYS_ALLOWED_RAISES \
                and not _is_repro_error(name, bases):
            findings.append(Finding(
                "EX007", Severity.ERROR, module.rel_path, node.lineno,
                f"raises {name}; library code must raise ReproError "
                f"subclasses (see errors.py) so callers can catch one "
                f"base class"))
    return findings


def check_exception_contracts(
        roots: Optional[Sequence[Union[str, Path]]] = None
        ) -> List[Finding]:
    """Run EX002, EX006 and EX007 over ``roots`` (default: the repro
    package)."""
    modules = load_package(roots).modules
    bases = _class_bases(modules)
    findings = [finding for module in modules
                for finding in _module_findings(module, bases)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
