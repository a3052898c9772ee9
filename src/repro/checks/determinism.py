"""DT: determinism rules (DT002, DT003).

T3's replay guarantee — same seed, same inputs, bit-identical outputs —
holds only if no nondeterministic value feeds a seed-critical
computation. Two per-function and per-module rules guard the shapes a
runtime test cannot pin reliably:

* DT002 fires on ``id()`` used as the key of a *persistent* container
  without pinning the keyed object in the stored value (an early
  ``CardinalityModel`` memo had this shape: CPython reuses addresses
  after GC, so an unpinned ``id()`` key can alias two distinct objects
  across a run — whether a test sees it depends on the allocator);
* DT003 fires on any unseeded random call outside ``repro.rng``,
  wherever its value flows: stdlib ``random``, numpy's legacy
  module-level ``np.random.*`` functions (global state), and an
  argument-less ``np.random.default_rng()`` (OS entropy).

A nondeterministic value that reaches a seed sink (``derive_rng``,
fault arming, C emission) changes the seeded stream, which the pinned
digests and replay tests catch at runtime (DESIGN §3.2 lists them).

=====  ========================================================
DT002  id() used as persistent key without pinning the object
DT003  unseeded random call (stdlib / numpy) outside repro.rng
=====  ========================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from .astutils import SourceFunction, SourceModule, dotted_name, \
    load_package, self_attr
from .findings import Finding, Severity

__all__ = ["check_determinism"]

#: numpy.random module-level functions that use the unseeded global state.
_LEGACY_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "normal", "uniform",
    "standard_normal", "exponential", "poisson", "binomial", "bytes",
})


def _is_unseeded_random(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    if name.startswith("random."):
        return True
    parts = name.split(".")
    if len(parts) != 3 or parts[0] not in ("np", "numpy") \
            or parts[1] != "random":
        return False
    if parts[2] == "default_rng":   # seeded from OS entropy
        return not call.args and not call.keywords
    return parts[2] in _LEGACY_NP_RANDOM


def _random_call_findings(module: SourceModule) -> List[Finding]:
    if module.name == "rng" or module.name.endswith(".rng"):
        return []
    return [Finding(
        "DT003", Severity.ERROR, module.rel_path, node.lineno,
        f"unseeded random call {dotted_name(node.func)}() outside "
        f"repro.rng; use derive_rng()/make_rng() so the draw is seeded "
        f"and replayable")
        for node in module.nodes
        if isinstance(node, ast.Call) and _is_unseeded_random(node)]


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


def _id_key_findings(info: SourceFunction,
                     module_globals: Set[str]) -> List[Finding]:
    #: local var -> names of the objects its id() came from
    id_vars: Dict[str, Set[str]] = {}
    for node in info.statements:
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

    for node in info.statements:
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


def check_determinism(roots: Optional[Sequence[Union[str, Path]]] = None
                      ) -> List[Finding]:
    """Run DT002 and DT003 over ``roots`` (default: the repro package)."""
    package = load_package(roots)
    findings: List[Finding] = []
    for module in package.modules:
        findings.extend(_random_call_findings(module))
    for info in package.functions:
        if any(isinstance(node, ast.Name) and node.id == "id"
               for node in info.statements):
            findings.extend(_id_key_findings(
                info, _module_globals(info.module.tree)))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
