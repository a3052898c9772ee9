"""Corpus loading and call-graph construction for interprocedural checks.

The per-function CFGs in :mod:`repro.checks.cfg` answer *intra*procedural
questions. The determinism-taint (DT), exception-contract (EX), and
resource-lifecycle (RS) analyzers need the next layer up: which function
calls which, so per-function summaries (:mod:`repro.checks.interproc`)
can flow facts across call boundaries.

Resolution is deliberately pragmatic — Python has no static types, so
the builder layers cheap, high-precision strategies and falls back to
class-hierarchy-analysis by method name only when nothing better is
known:

1. plain names: functions/classes of the same module, then imports,
2. ``self.method()`` / ``cls.method()``: the enclosing class and its
   corpus bases,
3. annotation typing: parameters and locals whose type annotation (or
   constructor assignment, or the return annotation of a called corpus
   function) names a corpus class resolve their method calls exactly,
4. CHA fallback: a method name defined by at most
   :data:`_CHA_CANDIDATE_CAP` corpus classes resolves to all of them;
   names on :data:`_CHA_STOP_NAMES` (ubiquitous builtin-container
   methods) never resolve this way.

Unresolved calls stay in the graph as sites with no callees — analyses
must treat them as "unknown effect", which every consumer in this
package does conservatively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .astutils import PACKAGE_ROOT, repo_relative

__all__ = ["CallGraph", "CallSite", "FunctionInfo", "ModuleInfo",
           "build_call_graph"]

#: Method names too generic for class-hierarchy fallback resolution —
#: they collide with dict/list/set/str/file methods constantly.
_CHA_STOP_NAMES = frozenset({
    "get", "items", "keys", "values", "append", "extend", "insert",
    "pop", "popitem", "setdefault", "update", "copy", "index", "count",
    "sort", "split", "rsplit", "join", "strip", "lstrip", "rstrip",
    "format", "encode", "decode", "read", "write", "readline", "add",
    "discard", "remove", "replace", "startswith", "endswith", "lower",
    "upper", "exists", "resolve", "mkdir", "open",
})

#: CHA gives up when a method name is defined by more classes than this.
_CHA_CANDIDATE_CAP = 3


@dataclass
class ModuleInfo:
    """One parsed source file of the corpus."""

    name: str                 # dotted, relative to the corpus root
    path: Path
    rel_path: str             # repo-relative, for findings
    tree: ast.Module
    #: local alias -> dotted target ("derive_rng" -> "rng.derive_rng").
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression inside a corpus function."""

    node: ast.Call
    line: int
    #: qualified names of the possible corpus callees (empty: unknown).
    callees: Tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function or method of the corpus."""

    qname: str                # "serving.service:PredictionService.close"
    module: str
    cls: Optional[str]
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    path: Path
    rel_path: str
    is_public: bool
    calls: List[CallSite] = field(default_factory=list)
    _statements: Optional[List[ast.AST]] = field(default=None, repr=False)

    @property
    def class_qname(self) -> Optional[str]:
        return f"{self.module}:{self.cls}" if self.cls else None

    def own_statements(self) -> List[ast.AST]:
        """Cached :func:`iter_own_statements` — the fixpoint engines walk
        each function many times and the BFS is the hot path."""
        if self._statements is None:
            self._statements = list(iter_own_statements(self.node))
        return self._statements


class CallGraph:
    """Functions, classes, and resolved call edges of one corpus."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qname -> simple base-class names (as written).
        self.class_bases: Dict[str, List[str]] = {}
        #: method simple name -> qnames of every corpus method so named.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: class qname -> attribute -> class qname (from ``self.x = C()``).
        self.attr_types: Dict[str, Dict[str, str]] = {}
        #: class simple name -> class qnames (usually one).
        self.classes_by_name: Dict[str, List[str]] = {}

    # -- lookup helpers -----------------------------------------------------

    def function(self, qname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qname)

    def callers_of(self) -> Dict[str, List[str]]:
        """callee qname -> caller qnames (reverse call edges)."""
        out: Dict[str, List[str]] = {}
        for qname, info in self.functions.items():
            for site in info.calls:
                for callee in site.callees:
                    callers = out.setdefault(callee, [])
                    if qname not in callers:
                        callers.append(qname)
        return out

    def resolve_method(self, class_qname: str,
                       method: str) -> Optional[str]:
        """Resolve a method on a class, walking corpus base classes."""
        seen = set()
        queue = [class_qname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            candidate = f"{current}.{method}"
            if candidate in self.functions:
                return candidate
            for base in self.class_bases.get(current, []):
                for base_qname in self.classes_by_name.get(base, []):
                    queue.append(base_qname)
        return None

    def class_of_annotation(self, annotation: Optional[ast.expr],
                            module: ModuleInfo) -> Optional[str]:
        """Corpus class qname named by a type annotation, if any."""
        if annotation is None:
            return None
        name: Optional[str] = None
        if isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            name = annotation.attr
        elif isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            name = annotation.value.split(".")[-1].strip()
        elif isinstance(annotation, ast.Subscript):
            # Optional[X] / "Optional[X]" style — use the first argument.
            inner = annotation.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return self.class_of_annotation(inner, module)
        if name is None:
            return None
        return self._resolve_class_name(name, module)

    def _resolve_class_name(self, name: str,
                            module: ModuleInfo) -> Optional[str]:
        local = f"{module.name}:{name}"
        if local in self.class_bases:
            return local
        target = module.imports.get(name)
        if target is not None:
            mod, _, attr = target.rpartition(".")
            qname = f"{mod}:{attr}"
            if qname in self.class_bases:
                return qname
        matches = self.classes_by_name.get(name, [])
        if len(matches) == 1:
            return matches[0]
        return None


# -- corpus construction ------------------------------------------------------


def _module_name(path: Path, root: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(parts) if parts else "__init__"


def _record_imports(info: ModuleInfo) -> None:
    package_parts = info.name.split(".")[:-1]
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - (node.level - 1)]
            elif node.module and node.module.split(".")[0] == "repro":
                base = node.module.split(".")[1:]
                info.imports.update({
                    alias.asname or alias.name:
                        ".".join(base + [alias.name])
                    for alias in node.names})
                continue
            else:
                continue  # absolute import of a third-party module
            mod = base + (node.module.split(".") if node.module else [])
            for alias in node.names:
                local = alias.asname or alias.name
                info.imports[local] = ".".join(mod + [alias.name])


def _is_public(module: str, cls: Optional[str], name: str) -> bool:
    if any(part.startswith("_") and part != "__init__"
           for part in module.split(".")):
        return False
    if cls is not None and cls.startswith("_"):
        return False
    if name.startswith("_") and not (name.startswith("__")
                                     and name.endswith("__")):
        return False
    return True


class _FunctionCollector(ast.NodeVisitor):
    """Indexes every function/method (including nested ones)."""

    def __init__(self, graph: CallGraph, module: ModuleInfo):
        self.graph = graph
        self.module = module
        self.class_stack: List[str] = []
        self.func_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qname = f"{self.module.name}:{node.name}"
        self.module.classes[node.name] = node
        self.graph.class_bases[qname] = [
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else "?"
            for base in node.bases]
        self.graph.classes_by_name.setdefault(node.name, []).append(qname)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node: Union[ast.FunctionDef,
                                          ast.AsyncFunctionDef]) -> None:
        cls = self.class_stack[-1] if self.class_stack else None
        local = ".".join(self.func_stack + [node.name])
        qname = (f"{self.module.name}:{cls}.{local}" if cls
                 else f"{self.module.name}:{local}")
        info = FunctionInfo(
            qname=qname, module=self.module.name, cls=cls,
            name=node.name, node=node, path=self.module.path,
            rel_path=self.module.rel_path,
            is_public=(not self.func_stack
                       and _is_public(self.module.name, cls, node.name)))
        self.graph.functions[qname] = info
        if cls is not None and not self.func_stack:
            self.graph.methods_by_name.setdefault(
                node.name, []).append(qname)
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


def iter_own_statements(func: ast.AST) -> Iterable[ast.AST]:
    """All descendant nodes of a function, nested defs excluded."""
    queue: List[ast.AST] = list(ast.iter_child_nodes(func))
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        queue.extend(ast.iter_child_nodes(node))


class _TypeEnv:
    """Best-effort local variable -> corpus class typing."""

    def __init__(self, graph: CallGraph, module: ModuleInfo,
                 info: FunctionInfo):
        self.graph = graph
        self.module = module
        self.types: Dict[str, str] = {}
        args = info.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            cls = graph.class_of_annotation(arg.annotation, module)
            if cls is not None:
                self.types[arg.arg] = cls

    def note_assignment(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        cls = self._value_class(value)
        if cls is not None:
            self.types[target.id] = cls

    def _value_class(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call):
            callee = value.func
            if isinstance(callee, ast.Name):
                cls = self.graph._resolve_class_name(callee.id, self.module)
                if cls is not None:
                    return cls
            # x = helper(...) where helper's return annotation names a
            # corpus class (resolved later via the call-site callees).
        return None


def _resolve_call(graph: CallGraph, module: ModuleInfo,
                  info: FunctionInfo, call: ast.Call,
                  types: _TypeEnv) -> Tuple[str, ...]:
    func = call.func
    out: List[str] = []

    def add(qname: Optional[str]) -> None:
        if qname is not None and qname in graph.functions \
                and qname not in out:
            out.append(qname)

    def add_class_init(class_qname: Optional[str]) -> None:
        if class_qname is None:
            return
        for ctor in ("__init__", "__post_init__"):
            add(graph.resolve_method(class_qname, ctor))

    if isinstance(func, ast.Name):
        name = func.id
        add(f"{module.name}:{name}")
        add_class_init(graph._resolve_class_name(name, module))
        target = module.imports.get(name)
        if target is not None:
            mod, _, attr = target.rpartition(".")
            add(f"{mod}:{attr}")
            add_class_init(graph._resolve_class_name(name, module))
        return tuple(out)

    if not isinstance(func, ast.Attribute):
        return ()

    method = func.attr
    receiver = func.value

    # self.method() / cls.method() and typed receivers.
    if isinstance(receiver, ast.Name):
        if receiver.id in ("self", "cls") and info.cls is not None:
            add(graph.resolve_method(f"{module.name}:{info.cls}", method))
            if out:
                return tuple(out)
        receiver_cls = types.types.get(receiver.id)
        if receiver_cls is not None:
            add(graph.resolve_method(receiver_cls, method))
            if out:
                return tuple(out)
        # module alias: mod.func()
        target = module.imports.get(receiver.id)
        if target is not None:
            add(f"{target}:{method}")
            cls_qname = graph._resolve_class_name(receiver.id, module)
            if cls_qname is not None:   # ClassName.method (unbound)
                add(graph.resolve_method(cls_qname, method))
            if out:
                return tuple(out)
        cls_qname = graph._resolve_class_name(receiver.id, module)
        if cls_qname is not None:
            add(graph.resolve_method(cls_qname, method))
            if out:
                return tuple(out)

    # self.attr.method() through the attribute-type map.
    if isinstance(receiver, ast.Attribute) \
            and isinstance(receiver.value, ast.Name) \
            and receiver.value.id == "self" and info.cls is not None:
        attr_map = graph.attr_types.get(f"{module.name}:{info.cls}", {})
        receiver_cls = attr_map.get(receiver.attr)
        if receiver_cls is not None:
            add(graph.resolve_method(receiver_cls, method))
            if out:
                return tuple(out)

    # CHA fallback by method name.
    if method not in _CHA_STOP_NAMES:
        candidates = graph.methods_by_name.get(method, [])
        if 0 < len(candidates) <= _CHA_CANDIDATE_CAP:
            for qname in candidates:
                add(qname)
    return tuple(out)


def _collect_attr_types(graph: CallGraph) -> None:
    for info in graph.functions.values():
        if info.cls is None:
            continue
        module = graph.modules[info.module]
        class_qname = f"{info.module}:{info.cls}"
        attr_map = graph.attr_types.setdefault(class_qname, {})
        for node in iter_own_statements(info.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if value is None and isinstance(target, ast.Attribute):
                    cls = graph.class_of_annotation(node.annotation, module)
                    if cls is not None and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        attr_map.setdefault(target.attr, cls)
                    continue
            if target is None or value is None:
                continue
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name):
                cls = graph._resolve_class_name(value.func.id, module)
                if cls is not None:
                    attr_map.setdefault(target.attr, cls)


def _resolve_all_calls(graph: CallGraph) -> None:
    # Return-annotation typing: helper() -> CorpusClass.
    return_types: Dict[str, str] = {}
    for qname, info in graph.functions.items():
        module = graph.modules[info.module]
        cls = graph.class_of_annotation(info.node.returns, module)
        if cls is not None:
            return_types[qname] = cls

    for info in graph.functions.values():
        module = graph.modules[info.module]
        types = _TypeEnv(graph, module, info)
        # first pass: constructor + annotated assignments type locals
        for node in iter_own_statements(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                types.note_assignment(node.targets[0], node.value)
                if isinstance(node.value, ast.Call):
                    callees = _resolve_call(graph, module, info,
                                            node.value, types)
                    for callee in callees:
                        cls = return_types.get(callee)
                        if cls is not None and \
                                isinstance(node.targets[0], ast.Name):
                            types.types[node.targets[0].id] = cls
                            break
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                cls = graph.class_of_annotation(node.annotation, module)
                if cls is not None:
                    types.types[node.target.id] = cls
        for node in iter_own_statements(info.node):
            if isinstance(node, ast.Call):
                info.calls.append(CallSite(
                    node=node, line=node.lineno,
                    callees=_resolve_call(graph, module, info, node, types)))


#: (path, mtime_ns, size) fingerprints -> built graph.
_GRAPH_CACHE: Dict[Tuple[Tuple[str, int, int], ...], CallGraph] = {}


def build_call_graph(roots: Optional[Sequence[Union[str, Path]]] = None
                     ) -> CallGraph:
    """Build (or fetch from cache) the call graph under ``roots``.

    Defaults to the installed ``repro`` package. The cache key is the
    (path, mtime, size) fingerprint of every source file, so tests that
    rewrite a corpus in place get a fresh graph.
    """
    from .astutils import iter_py_files, load_module_ast

    root_paths = [Path(r) for r in (roots or [PACKAGE_ROOT])]
    files = iter_py_files(root_paths)
    key = tuple(sorted(
        (str(p.resolve()), p.stat().st_mtime_ns, p.stat().st_size)
        for p in files))
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached

    graph = CallGraph()
    for path in files:
        root = next((r for r in root_paths
                     if r.is_dir() and r.resolve() in path.resolve().parents
                     or r.resolve() == path.resolve()), root_paths[0])
        base = root if root.is_dir() else root.parent
        info = ModuleInfo(
            name=_module_name(path, base), path=path,
            rel_path=repo_relative(path), tree=load_module_ast(path))
        _record_imports(info)
        graph.modules[info.name] = info
        _FunctionCollector(graph, info).visit(info.tree)
    _collect_attr_types(graph)
    _resolve_all_calls(graph)
    if len(_GRAPH_CACHE) > 8:   # tests build many tiny corpora
        _GRAPH_CACHE.clear()
    _GRAPH_CACHE[key] = graph
    return graph
