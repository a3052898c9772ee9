"""Interprocedural hot-path cost analyzer (HP rules).

The correctness analyzers (DT/EX/RS/LK/...) prove the system does the
right thing; this one proves it does the right thing *fast enough to
matter*. T3's usefulness hinges on prediction latency (the paper's
22 µs → 4 µs headline), and the roadmap named a standing perf debt —
one ctypes FFI round-trip per prediction in ``treecomp`` (item 2).
Every HP rule below detects that shape, or a close cousin, statically.

The engine: :func:`~repro.checks.interproc.compute_cost_summaries`
computes a bottom-up fixpoint of per-function **cost summaries**
(FFI/IO/subprocess/sleep effects, loop-nest depth, per-iteration
allocation) over the shared call graph. A fixed set of **hot roots**
(:data:`DEFAULT_HOT_ROOTS`) — the serving predict chain, the
micro-batcher, featurization fill, the treecomp predict entry points
and the lifecycle observation hook — seeds a forward reachability pass;
rules only fire inside functions a hot root can reach, so cold setup
code (training, CLI, compilation) never produces noise.
:data:`DEFAULT_PER_ELEMENT_ROOTS` are entry points *called once per
element* by their callers; a single FFI call in one costs a round-trip
per prediction even with no loop in sight. Tests pass their own roots
through :func:`check_hotpath`'s ``hot_roots``/``per_element_roots``.

Rules
-----
HP001  per-element ctypes/FFI round-trip on a hot path (ROADMAP item 2)
HP002  accumulating whole-array allocation in a hot loop (the PR 4
       histogram-temporaries shape)
HP004  blocking IO/subprocess/sleep while holding a lock on a hot path
       (must-held lock dataflow from :mod:`.cfg`, callee effects from
       the cost summaries)
HP005  loop-invariant pure call hoistable out of a hot loop
HP006  loop-invariant f-string parts / eager logging format in a hot
       loop (precompute the label outside)
HP008  membership test against a list inside a hot loop (use a set)
HP009  the same loop-invariant attribute chain resolved repeatedly in
       one hot loop (hoist it into a local)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .astutils import dotted_name
from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .cfg import build_cfg, forward_dataflow
# The must-held lock machinery is concurrency.py's; HP004 reuses it
# rather than re-deriving lock discovery and transfer semantics.
from .concurrency import _class_locks, _make_transfer
from .findings import Finding, Severity
from .interproc import (
    COST_EFFECTS,
    CostSummary,
    classify_cost_effect,
    collect_ffi_attrs,
    compute_cost_summaries,
    is_copy_allocator,
)

__all__ = [
    "DEFAULT_HOT_ROOTS",
    "DEFAULT_PER_ELEMENT_ROOTS",
    "check_hotpath",
]

#: Hot roots, matched against function qnames: ``"Class.method"`` and
#: ``"module:Class.method"`` match exactly, a bare name matches every
#: function with that simple name.
DEFAULT_HOT_ROOTS: Tuple[str, ...] = (
    # serving request path
    "PredictionService.predict",
    "PredictionService.predict_many",
    "MicroBatcher._evaluate",
    # metrics scrape path (rendered per Prometheus poll)
    "MetricsRegistry.render",
    "Counter.render",
    "Gauge.render",
    "Histogram.render",
    # featurization fill
    "FeatureRegistry.fill_matrix",
    # model inference entry points (batch)
    "T3Model.predict_raw_batch",
    "CompiledTreeModel.predict",
    "PythonScalarModel.predict",
    # lifecycle: the observation hook rides the serving request path
    "PredictionService.observe",
    "LifecycleManager.on_observation",
    "ObservationLog.append",
)

#: Entry points invoked once per element by their callers.
DEFAULT_PER_ELEMENT_ROOTS: Tuple[str, ...] = (
    "CompiledTreeModel.predict_one",
    "T3Model.predict_raw_one",
    "PythonScalarModel.predict_one",
)

_BLOCKING_TAGS = frozenset({"sleep", "subprocess", "io"})

#: Pure builtins worth hoisting when every argument is loop-invariant.
_PURE_CALLS = frozenset({
    "len", "min", "max", "sum", "abs", "float", "int", "str", "bool",
    "round", "repr", "tuple", "frozenset",
    "math.sqrt", "math.log", "math.exp", "math.floor", "math.ceil",
})

_LOG_METHODS = frozenset({"debug", "info", "warning", "error",
                          "exception", "critical"})


# -- hot set ----------------------------------------------------------------


def _matches(pattern: str, info: FunctionInfo) -> bool:
    if ":" in pattern:
        return info.qname == pattern
    if "." in pattern:
        return info.qname.endswith(f":{pattern}")
    return info.name == pattern


def _match_roots(graph: CallGraph,
                 patterns: Sequence[str]) -> Dict[str, str]:
    """qname -> the root pattern that selected it."""
    out: Dict[str, str] = {}
    for qname, info in graph.functions.items():
        for pattern in patterns:
            if _matches(pattern, info):
                out.setdefault(qname, pattern)
                break
    return out


def _hot_set(graph: CallGraph, roots: Dict[str, str]) -> Dict[str, str]:
    """Forward reachability from the roots: qname -> seeding root."""
    via: Dict[str, str] = dict(roots)
    queue = list(roots)
    while queue:
        qname = queue.pop(0)
        info = graph.functions.get(qname)
        if info is None:
            continue
        for site in info.calls:
            for callee in site.callees:
                if callee not in via:
                    via[callee] = via[qname]
                    queue.append(callee)
    return via


# -- scope walking helpers ---------------------------------------------------


def _walk_scope(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """BFS over descendants, staying out of nested def/class/lambda."""
    queue: List[ast.AST] = list(nodes)
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        queue.extend(ast.iter_child_nodes(node))


def _store_names(nodes: Sequence[ast.AST]) -> Set[str]:
    return {node.id for node in _walk_scope(nodes)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)}


def _mutated_chains(nodes: Sequence[ast.AST]) -> Set[str]:
    """Dotted chains plausibly mutated per iteration.

    Covers receivers of method calls (``in_tree.add``,
    ``self._entries.popitem``) and attribute assignment targets —
    rebinding alone misses container mutation, which would make
    ``len(self._entries)`` in an eviction loop look hoistable. Bare
    ``self``/``cls`` receivers are exempt: a self-method call rarely
    invalidates reading an unrelated field, and treating it as a wild
    write would silence every method body.
    """
    out: Set[str] = set()
    for node in _walk_scope(nodes):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            chain = dotted_name(node.func.value)
            if chain is not None and chain not in ("self", "cls"):
                out.add(chain)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            chain = dotted_name(node)
            if chain is not None:
                out.add(chain)
    return out


def _touches_mutated(chain: str, mutated: Set[str]) -> bool:
    return any(chain == c or chain.startswith(f"{c}.")
               or c.startswith(f"{chain}.") for c in mutated)


@dataclass
class _Loop:
    """One per-iteration scope of a hot function."""

    line: int
    #: nodes evaluated once per iteration.
    body: List[ast.AST]
    #: names rebound per iteration — everything else is loop-invariant.
    variant: Set[str]
    #: dotted chains mutated per iteration (method-call receivers).
    mutated: Set[str]
    #: False for comprehensions (statement rules don't apply there).
    is_statement_loop: bool

    def is_invariant(self, node: ast.AST) -> bool:
        """No per-iteration name, mutated chain, or call in ``node``."""
        for child in _walk_scope([node]):
            if isinstance(child, ast.Call):
                return False
            if isinstance(child, ast.Name):
                # Exact match only: reading `self` stays invariant when
                # `self._queue` is mutated, but `in_tree` does not once
                # `in_tree.add` runs in-loop.
                if child.id in self.variant or child.id in self.mutated:
                    return False
            elif isinstance(child, ast.Attribute):
                chain = dotted_name(child)
                if chain is not None \
                        and _touches_mutated(chain, self.mutated):
                    return False
        return True


def _loops_of(info: FunctionInfo) -> List[_Loop]:
    loops: List[_Loop] = []
    for node in info.own_statements():
        if isinstance(node, (ast.For, ast.AsyncFor)):
            body: List[ast.AST] = list(node.body)
            variant = _store_names(body) | _store_names([node.target])
            loops.append(_Loop(node.lineno, body, variant,
                               _mutated_chains(body), True))
        elif isinstance(node, ast.While):
            body = list(node.body) + [node.test]
            loops.append(_Loop(node.lineno, body, _store_names(body),
                               _mutated_chains(body), True))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            body = []
            if isinstance(node, ast.DictComp):
                body.extend([node.key, node.value])
            else:
                body.append(node.elt)
            targets: List[ast.AST] = []
            for index, gen in enumerate(node.generators):
                body.extend(gen.ifs)
                if index > 0:
                    body.append(gen.iter)
                targets.append(gen.target)
            variant = _store_names(body) | _store_names(targets)
            loops.append(_Loop(node.lineno, body, variant,
                               _mutated_chains(body), False))
    return loops


def _unconditional_calls(body: Sequence[ast.AST]) -> List[ast.Call]:
    """Calls executed on every iteration (no branch/try/nested loop)."""
    out: List[ast.Call] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda, ast.If, ast.IfExp,
                             ast.Try, ast.For, ast.AsyncFor, ast.While,
                             ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return
        if isinstance(node, ast.BoolOp):
            visit(node.values[0])   # later operands may short-circuit
            return
        if isinstance(node, ast.Call):
            out.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for node in body:
        visit(node)
    return out


# -- the per-function scan ---------------------------------------------------


class _FunctionScan:
    """All HP rule checks for one hot function."""

    def __init__(self, graph: CallGraph, info: FunctionInfo,
                 summaries: Dict[str, CostSummary],
                 ffi_attrs: Dict[str, FrozenSet[str]],
                 hot_via: str, per_element: bool):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        cls_key = (f"{info.module}:{info.cls}"
                   if info.cls is not None else "")
        self.class_ffi = ffi_attrs.get(cls_key, frozenset())
        self.hot_via = hot_via
        self.per_element = per_element
        self.findings: List[Finding] = []
        self._callees: Dict[int, Tuple[str, ...]] = {
            id(site.node): site.callees for site in info.calls}
        self._list_names = self._find_list_names()

    # -- shared helpers ------------------------------------------------------

    def _label(self) -> str:
        name = (f"{self.info.cls}.{self.info.name}"
                if self.info.cls else self.info.name)
        return f"{name}() (hot via {self.hot_via})"

    def _emit(self, rule: str, severity: Severity, line: int,
              message: str) -> None:
        self.findings.append(Finding(rule, severity, self.info.rel_path,
                                     line, message))

    def _callee_effects(self, call: ast.Call) -> Dict[str, str]:
        """effect tag -> callee qname, over every resolved callee."""
        out: Dict[str, str] = {}
        for qname in self._callees.get(id(call), ()):
            summary = self.summaries.get(qname)
            if summary is None:
                continue
            for tag in summary.effects:
                out.setdefault(tag, qname)
        return out

    def _find_list_names(self) -> Set[str]:
        """Local names assigned from list-producing expressions."""
        names: Set[str] = set()
        for node in self.info.own_statements():
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            is_list = isinstance(value, (ast.List, ast.ListComp))
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                is_list = name in ("list", "sorted")
            if is_list:
                names.add(node.targets[0].id)
        return names

    # -- entry point ---------------------------------------------------------

    def run(self) -> List[Finding]:
        for loop in _loops_of(self.info):
            self._scan_loop_calls(loop)
            # HP006 is expression-level, so it applies inside
            # comprehensions too; the statement rules below do not.
            self._scan_hp006(loop)
            if loop.is_statement_loop:
                self._scan_hp002(loop)
                self._scan_hp005(loop)
                self._scan_hp008(loop)
                self._scan_hp009(loop)
        if self.per_element:
            self._scan_per_element()
        self._scan_hp004()
        self._scan_logging()
        return self.findings

    # -- HP001: calls per iteration ------------------------------------------

    def _scan_loop_calls(self, loop: _Loop) -> None:
        for call in (n for n in _walk_scope(loop.body)
                     if isinstance(n, ast.Call)):
            if classify_cost_effect(call, self.class_ffi) == "ffi":
                self._emit(
                    "HP001", Severity.ERROR, call.lineno,
                    f"{self._label()}: ctypes FFI round-trip inside a "
                    f"loop — one native call per element; batch the "
                    f"elements into a single FFI call")
            else:
                effects = self._callee_effects(call)
                if "ffi" in effects:
                    self._emit(
                        "HP001", Severity.ERROR, call.lineno,
                        f"{self._label()}: calls {effects['ffi']} inside "
                        f"a loop, paying a ctypes FFI round-trip per "
                        f"element; batch the elements into a single FFI "
                        f"call")

    # -- HP002: accumulating allocation --------------------------------------

    def _scan_hp002(self, loop: _Loop) -> None:
        for node in _walk_scope(loop.body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                value = node.value
                if isinstance(value, ast.Call) \
                        and is_copy_allocator(value) \
                        and self._name_in(target, value.args):
                    self._emit(
                        "HP002", Severity.ERROR, node.lineno,
                        f"{self._label()}: {target} re-allocated by "
                        f"{dotted_name(value.func)}() every iteration — "
                        f"O(n²) copying; preallocate once and fill, or "
                        f"collect parts and concatenate after the loop")
                    continue
                if isinstance(value, ast.BinOp) \
                        and isinstance(value.op, ast.Add) \
                        and self._name_in(target, [value.left,
                                                   value.right]) \
                        and any(isinstance(n, ast.List) for n in
                                _walk_scope([value])):
                    self._emit(
                        "HP002", Severity.ERROR, node.lineno,
                        f"{self._label()}: {target} = {target} + [...] "
                        f"copies the whole list every iteration — "
                        f"append in place instead")
                    continue
            if isinstance(node, ast.Call) and is_copy_allocator(node):
                name = dotted_name(node.func)
                self._emit(
                    "HP002", Severity.ERROR, node.lineno,
                    f"{self._label()}: {name}() allocates a fresh array "
                    f"copy every iteration — hoist it out of the loop "
                    f"or preallocate")

    @staticmethod
    def _name_in(name: str, nodes: Sequence[ast.AST]) -> bool:
        return any(isinstance(n, ast.Name) and n.id == name
                   for n in _walk_scope(list(nodes)))

    # -- HP005: loop-invariant pure calls ------------------------------------

    def _scan_hp005(self, loop: _Loop) -> None:
        for call in _unconditional_calls(loop.body):
            name = dotted_name(call.func)
            if name is None or name not in _PURE_CALLS:
                continue
            if call.keywords or not call.args:
                continue
            if all(loop.is_invariant(arg) for arg in call.args):
                self._emit(
                    "HP005", Severity.WARNING, call.lineno,
                    f"{self._label()}: {name}() has loop-invariant "
                    f"arguments but runs every iteration — hoist it "
                    f"out of the loop")

    # -- HP006: label formatting per iteration -------------------------------

    def _scan_hp006(self, loop: _Loop) -> None:
        skip = self._failure_path_nodes(loop.body)
        for node in _walk_scope(loop.body):
            if not isinstance(node, ast.JoinedStr) or id(node) in skip:
                continue
            parts = [part for part in node.values
                     if isinstance(part, ast.FormattedValue)]
            if not parts:
                continue
            invariant = [part for part in parts
                         if loop.is_invariant(part.value)]
            if len(invariant) == len(parts):
                self._emit(
                    "HP006", Severity.WARNING, node.lineno,
                    f"{self._label()}: f-string is entirely "
                    f"loop-invariant but re-formats every iteration — "
                    f"build it once outside the loop")
            elif any(isinstance(part.value, ast.Attribute)
                     for part in invariant):
                # An invariant *attribute chain* formatted per
                # iteration (the `self.name` metric-label shape);
                # plain invariant locals mixed into a varying string
                # are left alone — there is nothing cheaper to hoist.
                self._emit(
                    "HP006", Severity.WARNING, node.lineno,
                    f"{self._label()}: loop-invariant attribute "
                    f"re-resolved and re-formatted every iteration — "
                    f"precompute the label prefix outside the loop")

    @staticmethod
    def _failure_path_nodes(body: Sequence[ast.AST]) -> Set[int]:
        """ids of nodes only evaluated on raise/assert-failure paths."""
        out: Set[int] = set()
        for node in _walk_scope(body):
            if isinstance(node, ast.Raise) and node.exc is not None:
                out.update(id(n) for n in _walk_scope([node.exc]))
            elif isinstance(node, ast.Assert) and node.msg is not None:
                out.update(id(n) for n in _walk_scope([node.msg]))
        return out

    # -- HP008: list membership in a loop ------------------------------------

    def _scan_hp008(self, loop: _Loop) -> None:
        for node in _walk_scope(loop.body):
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if isinstance(comparator, ast.Name) \
                        and comparator.id in self._list_names \
                        and comparator.id not in loop.variant:
                    self._emit(
                        "HP008", Severity.WARNING, node.lineno,
                        f"{self._label()}: membership test against "
                        f"list {comparator.id!r} every iteration — "
                        f"O(n) per probe; build a set once outside "
                        f"the loop")

    # -- HP009: repeated attribute-chain resolution --------------------------

    def _scan_hp009(self, loop: _Loop) -> None:
        nodes = list(_walk_scope(loop.body))
        call_funcs = {id(n.func) for n in nodes
                      if isinstance(n, ast.Call)}
        inner = {id(n.value) for n in nodes
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Attribute)}
        counts: Dict[str, List[int]] = {}
        for node in nodes:
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.ctx, ast.Load) \
                    or id(node) in inner or id(node) in call_funcs:
                continue
            chain = dotted_name(node)
            if chain is None:
                continue
            root = chain.split(".", 1)[0]
            if root in loop.variant:
                continue
            if _touches_mutated(chain, loop.mutated):
                continue   # the chain (or a prefix) is written in-loop
            counts.setdefault(chain, []).append(node.lineno)
        for chain, lines in counts.items():
            depth = chain.count(".")
            if (depth >= 2 and len(lines) >= 3) \
                    or (depth == 1 and len(lines) >= 4):
                self._emit(
                    "HP009", Severity.WARNING, lines[0],
                    f"{self._label()}: {chain} resolved {len(lines)} "
                    f"times in one loop — {depth + 1} dict lookups per "
                    f"use; hoist it into a local before the loop")

    # -- per-element roots: HP001 without a loop -----------------------------

    def _scan_per_element(self) -> None:
        ffi_lines = [node.lineno for node in self.info.own_statements()
                     if isinstance(node, ast.Call)
                     and classify_cost_effect(node, self.class_ffi) == "ffi"]
        if ffi_lines:
            self._emit(
                "HP001", Severity.ERROR, min(ffi_lines),
                f"{self._label()}: per-element entry point pays "
                f"{len(set(ffi_lines))} ctypes FFI round-trip(s) per "
                f"prediction — route bulk work through the batch entry "
                f"point")

    # -- HP004: blocking while holding a lock --------------------------------

    def _scan_hp004(self) -> None:
        if self.info.cls is None:
            return
        module = self.graph.modules.get(self.info.module)
        if module is None:
            return
        cls_node = module.classes.get(self.info.cls)
        if cls_node is None:
            return
        locks = _class_locks(cls_node)
        if not locks:
            return
        cfg = build_cfg(self.info.node)
        transfer = _make_transfer(locks)
        must = forward_dataflow(cfg, transfer, frozenset(),
                                lambda a, b: a & b)
        for block in cfg.blocks:
            state = must[block.index]
            for event in block.events:
                if state and isinstance(event, ast.AST):
                    held = ", ".join(f"self.{name}"
                                     for name in sorted(state))
                    self._blocking_in_event(event, held)
                state = transfer(state, event)

    def _blocking_in_event(self, event: ast.AST, held: str) -> None:
        for call in (n for n in _walk_scope([event])
                     if isinstance(n, ast.Call)):
            tag = classify_cost_effect(call, self.class_ffi)
            if tag in _BLOCKING_TAGS:
                self._emit(
                    "HP004", Severity.ERROR, call.lineno,
                    f"{self._label()}: {COST_EFFECTS[tag]} while "
                    f"holding {held} — every hot-path caller "
                    f"contending for the lock stalls behind it")
                continue
            effects = self._callee_effects(call)
            for blocking in sorted(_BLOCKING_TAGS & set(effects)):
                self._emit(
                    "HP004", Severity.ERROR, call.lineno,
                    f"{self._label()}: calls {effects[blocking]} "
                    f"(which performs {COST_EFFECTS[blocking]}) while "
                    f"holding {held} — move the slow work outside "
                    f"the lock")
                break

    # -- HP006 (function-wide): eager logging format -------------------------

    def _scan_logging(self) -> None:
        for call in (n for n in _walk_scope(list(self.info.node.body))
                     if isinstance(n, ast.Call)):
            func = call.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _LOG_METHODS):
                continue
            receiver = dotted_name(func.value)
            if receiver is None \
                    or "log" not in receiver.rsplit(".", 1)[-1].lower():
                continue
            if any(isinstance(arg, ast.JoinedStr) for arg in call.args):
                self._emit(
                    "HP006", Severity.WARNING, call.lineno,
                    f"{self._label()}: {receiver}.{func.attr}(f\"...\") "
                    f"formats eagerly even when the level is disabled — "
                    f"use lazy %-style arguments on the hot path")


# -- entry point -------------------------------------------------------------


def check_hotpath(roots: Optional[Sequence[Union[str, Path]]] = None,
                  hot_roots: Sequence[str] = DEFAULT_HOT_ROOTS,
                  per_element_roots: Sequence[str] = DEFAULT_PER_ELEMENT_ROOTS
                  ) -> List[Finding]:
    """Run the HP rules over the corpus under ``roots``.

    ``hot_roots``/``per_element_roots`` override the built-in roots
    (used by tests with synthetic corpora); ``roots`` selects the source
    tree (default: the installed ``repro`` package).
    """
    graph = build_call_graph(roots=roots)
    summaries = compute_cost_summaries(graph)
    ffi_attrs = collect_ffi_attrs(graph)

    root_map = _match_roots(graph, list(hot_roots))
    per_element_map = _match_roots(graph, list(per_element_roots))
    for qname, pattern in per_element_map.items():
        root_map.setdefault(qname, pattern)
    hot_via = _hot_set(graph, root_map)

    findings: List[Finding] = []
    for qname in sorted(hot_via):
        info = graph.functions[qname]
        findings.extend(_FunctionScan(
            graph, info, summaries, ffi_attrs, hot_via[qname],
            per_element=qname in per_element_map).run())

    deduped: Dict[Tuple[str, str, int], Finding] = {}
    for finding in findings:
        deduped.setdefault((finding.rule, finding.path, finding.line),
                           finding)
    return sorted(deduped.values(),
                  key=lambda f: (f.path, f.line, f.rule))
