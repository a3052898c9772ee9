"""Shared AST helpers for the static-analysis subsystem.

Every analyzer in :mod:`repro.checks` reads Python source into
:mod:`ast` trees and asks the same small questions — "is this
``self.x``?", "what dotted name is being called?". This module owns
those answers, and the one shared parse of the package, so the
analyzers stay about *their* rules, not about AST plumbing.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CheckError

__all__ = [
    "PACKAGE_ROOT",
    "SourceFunction",
    "SourceModule",
    "SourcePackage",
    "dotted_name",
    "innermost_self_attr",
    "iter_py_files",
    "load_package",
    "repo_relative",
    "self_attr",
]

#: Root of the installed ``repro`` package (``src/repro``).
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def repo_relative(path: Union[str, Path]) -> str:
    """Repo-relative, '/'-separated rendering of a source path.

    Paths inside the ``repro`` package render as ``src/repro/...`` so
    findings line up with the repository layout; anything else keeps
    its last two components.
    """
    parts = Path(path).resolve().parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(("src",) + parts[index:])
    return "/".join(parts[-2:])


def self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` -> ``"x"``; anything else -> ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def innermost_self_attr(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``self.x`` at the base of ``self.x.y[z]...``, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if self_attr(node) is not None:
            return node  # type: ignore[return-value]
        node = node.value
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_py_files(roots: Iterable[Union[str, Path]]) -> List[Path]:
    """All ``.py`` files under the given roots, sorted and deduplicated."""
    files: List[Path] = []
    for root in roots:
        root = Path(root)
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.exists():
            files.append(root)
        else:
            raise CheckError(f"analysis path not found: {root}")
    seen = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


class SourceModule:
    """One parsed source file of an analyzed package."""

    def __init__(self, name: str, rel_path: str, tree: ast.Module):
        self.name = name              # dotted, relative to its root
        self.rel_path = rel_path      # repo-relative, for findings
        self.tree = tree
        #: every node of the tree, in :func:`ast.walk` order
        self.nodes: List[ast.AST] = []


class SourceFunction:
    """One function or method (nested ones included) of a module."""

    def __init__(self, module: SourceModule,
                 node: Union[ast.FunctionDef, ast.AsyncFunctionDef]):
        self.module = module
        self.rel_path = module.rel_path
        self.node = node
        self.name = node.name
        #: every node below the def, breadth-first, except nested defs
        #: and classes and everything inside them
        self.statements: List[ast.AST] = []


class SourcePackage:
    """Parsed modules of a package and every function in them.

    One breadth-first walk per module lists its nodes and each
    function's own statements, so the per-function and per-module
    rules never walk a tree again.
    """

    def __init__(self, modules: List[SourceModule]):
        self.modules = modules
        self.functions: List[SourceFunction] = []
        for module in modules:
            self._index(module)

    def _index(self, module: SourceModule) -> None:
        # (node, statements of the innermost enclosing function, if any)
        queue = deque([(module.tree, None)])
        while queue:
            node, owner = queue.popleft()
            module.nodes.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    function = SourceFunction(module, child)
                    self.functions.append(function)
                    queue.append((child, function.statements))
                elif isinstance(child, ast.ClassDef):
                    queue.append((child, None))
                else:
                    if owner is not None:
                        owner.append(child)
                    queue.append((child, owner))


def _module_name(path: Path, root: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(parts) if parts else "__init__"


#: (path, mtime_ns, size) fingerprints -> parsed package.
_PACKAGE_CACHE: Dict[Tuple[Tuple[str, int, int], ...], SourcePackage] = {}


def load_package(roots: Optional[Sequence[Union[str, Path]]] = None
                 ) -> SourcePackage:
    """Parse every module under ``roots`` (default: the ``repro``
    package) once per run: the per-function analyzers share the parse.

    The cache key is the (path, mtime, size) fingerprint of every
    source file, so tests that write a corpus in place get a fresh
    parse.
    """
    root_paths = [Path(r) for r in (roots or [PACKAGE_ROOT])]
    files = iter_py_files(root_paths)
    key = tuple(sorted(
        (str(p.resolve()), p.stat().st_mtime_ns, p.stat().st_size)
        for p in files))
    cached = _PACKAGE_CACHE.get(key)
    if cached is not None:
        return cached
    modules = []
    for path in files:
        base = next((r for r in root_paths
                     if r.is_dir() and r.resolve() in path.resolve().parents),
                    path.parent)
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            raise CheckError(f"cannot parse {path}: {exc}") from exc
        modules.append(SourceModule(_module_name(path, base),
                                    repo_relative(path), tree))
    if len(_PACKAGE_CACHE) > 8:   # tests parse many tiny corpora
        _PACKAGE_CACHE.clear()
    _PACKAGE_CACHE[key] = SourcePackage(modules)
    return _PACKAGE_CACHE[key]
