"""Per-function dataflow summaries over the call graph.

Two summary engines live here, both computed as bottom-up fixpoints
over :class:`~repro.checks.callgraph.CallGraph`:

* **Taint summaries** (:func:`compute_taint_summaries`) for the DT
  determinism analyzer: which nondeterminism *kinds* (wall clock,
  ``id()`` addresses, unseeded ``random``, OS entropy, set iteration
  order, ...) a function returns, which parameters flow to its return
  value, and which parameters it forwards into a seed-critical sink.
  The intra-function pass is flow-insensitive (a variable once tainted
  stays tainted) — sound for a "prove taint never reaches a sink"
  property, at the cost of some precision.

* **Raises summaries** (:func:`compute_raises_summaries`) for the EX
  exception-contract analyzer: the set of exception *type names* that
  may escape a function, with ``try`` handlers filtered through a
  class hierarchy (corpus ``errors.py`` classes + builtin exceptions).
  Unresolved calls contribute nothing — the summary answers "which
  raises *written in this corpus* escape", not "can CPython raise".

Both engines cap their fixpoint iteration count; the call graphs here
are small (a few hundred functions) and monotone, so the caps exist
only to turn a future non-monotonicity bug into a loud
:class:`~repro.errors.CheckError` instead of a hang.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import CheckError
from .astutils import dotted_name, self_attr
from .callgraph import CallGraph, FunctionInfo

__all__ = [
    "SINK_NAMES",
    "SOURCE_KINDS",
    "RaisesSummary",
    "TaintKind",
    "TaintSummary",
    "ExceptionHierarchy",
    "classify_source",
    "compute_raises_summaries",
    "compute_taint_summaries",
    "escapes_of_statements",
    "handler_type_names",
    "sink_name_of_call",
]

# -- taint ---------------------------------------------------------------

TaintKind = str

#: kind -> human-readable description of the nondeterminism source.
SOURCE_KINDS: Dict[TaintKind, str] = {
    "clock": "wall-clock reading",
    "id": "id() object address",
    "random": "unseeded random (stdlib random / numpy global state)",
    "entropy": "OS entropy (os.urandom/uuid4/secrets)",
    "hash": "builtin hash() (PYTHONHASHSEED-dependent)",
    "set-order": "set iteration order",
    "procid": "process/thread identity",
    "env": "os.environ value",
    "set-pop": "set.pop() arbitrary element",
}

#: Marker kind: the value *is* a set (iterating it yields "set-order").
_IS_SET = "is-set"

#: Seed-critical sinks, by callee name. Values name the contract the
#: sink belongs to (used in finding messages).
SINK_NAMES: Dict[str, str] = {
    "derive_seed": "repro.rng seed derivation",
    "derive_rng": "repro.rng seed derivation",
    "make_rng": "repro.rng seed derivation",
    "FaultSpec": "repro.faults arming",
    "FaultPlan": "repro.faults arming",
    "generate_c_source": "repro.treecomp emission order",
}

_CLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter",
    "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
    "time.process_time", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})
_ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
})
_PROCID_CALLS = frozenset({
    "os.getpid", "os.getppid", "threading.get_ident",
    "threading.get_native_id",
})
_RANDOM_CALLS = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.uniform", "random.gauss", "random.Random",
})
#: numpy.random module-level functions that use the unseeded global state.
_LEGACY_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "normal", "uniform",
    "standard_normal", "exponential", "poisson", "binomial", "bytes",
})
#: Calls whose result launders set-order (deterministic ordering).
_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len",
                               "frozenset"})


def classify_source(call: ast.Call) -> Optional[TaintKind]:
    """Nondeterminism kind produced by this call, if it is a source."""
    name = dotted_name(call.func)
    if name is None:
        return None
    if name in _CLOCK_CALLS:
        return "clock"
    if name in _ENTROPY_CALLS:
        return "entropy"
    if name in _PROCID_CALLS:
        return "procid"
    if name in _RANDOM_CALLS or name.startswith("random."):
        return "random"
    parts = name.split(".")
    if len(parts) == 3 and parts[0] in ("np", "numpy") \
            and parts[1] == "random":
        if parts[2] in _LEGACY_NP_RANDOM:
            return "random"
        if parts[2] == "default_rng" and not call.args \
                and not call.keywords:
            return "random"   # seeded from OS entropy
    if name == "id":
        return "id"
    if name == "hash":
        return "hash"
    return None


def sink_name_of_call(call: ast.Call) -> Optional[str]:
    """The sink key for this call, if its callee is seed-critical."""
    func = call.func
    name: Optional[str] = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
        # FaultPlan.parse — classmethod constructor of the arming plan.
        if name == "parse" and isinstance(func.value, ast.Name) \
                and func.value.id == "FaultPlan":
            return "FaultPlan"
    if name in SINK_NAMES:
        return name
    return None


def _param_token(index: int) -> TaintKind:
    return f"P{index}"


def _is_param_token(kind: TaintKind) -> bool:
    return kind.startswith("P") and kind[1:].isdigit()


@dataclass
class SinkHit:
    """One tainted value reaching a seed-critical sink."""

    sink: str                 # key into SINK_NAMES
    kinds: FrozenSet[TaintKind]
    line: int
    #: the argument expression that carried the taint
    arg: ast.expr
    #: True when the taint reaches the sink through a callee's
    #: parameter (reported at the caller, as DT010).
    via_call: bool = False


@dataclass
class TaintSummary:
    """What one function does with nondeterministic values."""

    returns: Set[TaintKind] = field(default_factory=set)
    #: param index -> sink keys it is forwarded into.
    param_to_sink: Dict[int, Set[str]] = field(default_factory=dict)
    #: direct (non-parameter) taint reaching sinks inside this function.
    hits: List[SinkHit] = field(default_factory=list)

    def param_returns(self) -> Set[int]:
        return {int(k[1:]) for k in self.returns if _is_param_token(k)}

    def fingerprint(self) -> Tuple[object, ...]:
        return (frozenset(self.returns),
                frozenset((k, frozenset(v))
                          for k, v in self.param_to_sink.items()),
                len(self.hits))


class _TaintPass:
    """One flow-insensitive taint pass over one function."""

    def __init__(self, graph: CallGraph, info: FunctionInfo,
                 summaries: Dict[str, TaintSummary],
                 class_env: Dict[str, Dict[str, Set[TaintKind]]]):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.class_env = class_env
        self.env: Dict[str, Set[TaintKind]] = {}
        self.summary = TaintSummary()
        self._callees: Dict[int, Tuple[str, ...]] = {
            id(site.node): site.callees for site in info.calls}
        args = info.node.args
        self._params = [a.arg for a in (list(args.posonlyargs)
                                        + list(args.args)
                                        + list(args.kwonlyargs))]
        for index, name in enumerate(self._params):
            if name in ("self", "cls"):
                continue
            self.env[name] = {_param_token(index)}

    # -- expression evaluation -------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Set[TaintKind]:
        if node is None:
            return set()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            attr = self_attr(node)
            if attr is not None and self.info.cls is not None:
                cls_key = f"{self.info.module}:{self.info.cls}"
                return set(self.class_env.get(cls_key, {}).get(attr, ()))
            name = dotted_name(node)
            if name == "os.environ":
                return {"env"}
            return self.eval(node.value) if isinstance(
                node.value, ast.expr) else set()
        if isinstance(node, (ast.Set, ast.SetComp)):
            kinds = self._eval_children(node)
            kinds.add(_IS_SET)
            return kinds
        if isinstance(node, ast.IfExp):
            return (self.eval(node.body) | self.eval(node.orelse)
                    | self.eval(node.test))
        if isinstance(node, ast.Subscript):
            kinds = self.eval(node.value)
            if isinstance(node.slice, ast.expr):
                kinds |= self.eval(node.slice)
            return kinds
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._eval_children(node)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, (ast.Lambda, ast.FunctionDef)):
            return set()
        return self._eval_children(node)

    def _eval_children(self, node: ast.AST) -> Set[TaintKind]:
        kinds: Set[TaintKind] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                kinds |= self.eval(child)
            elif isinstance(child, (ast.comprehension,)):
                iter_kinds = self.eval(child.iter)
                if _IS_SET in iter_kinds:
                    iter_kinds.discard(_IS_SET)
                    iter_kinds.add("set-order")
                if isinstance(child.target, ast.Name):
                    self.env.setdefault(child.target.id,
                                        set()).update(iter_kinds)
                kinds |= iter_kinds
        return kinds

    def _arg_exprs(self, call: ast.Call) -> List[ast.expr]:
        out: List[ast.expr] = list(call.args)
        out.extend(kw.value for kw in call.keywords)
        return out

    def _eval_call(self, call: ast.Call) -> Set[TaintKind]:
        name = dotted_name(call.func)
        arg_kinds = [self.eval(arg) for arg in self._arg_exprs(call)]
        merged: Set[TaintKind] = set()
        for kinds in arg_kinds:
            merged |= kinds

        source = classify_source(call)
        if source is not None:
            # id()/hash() of a tainted value stays tainted too.
            return {source} | (merged - {_IS_SET})

        if name is not None:
            base = name.split(".")[-1]
            if base in _ORDER_SANITIZERS:
                merged.discard("set-order")
                merged.discard(_IS_SET)
                if base == "len":
                    return set()
                return merged
            if base in ("set",):
                merged.add(_IS_SET)
                return merged
            if base in ("list", "tuple", "iter"):
                # materialising a set fixes an arbitrary order
                if _IS_SET in merged:
                    merged.discard(_IS_SET)
                    merged.add("set-order")
                return merged
            if isinstance(call.func, ast.Attribute) and \
                    call.func.attr == "pop" and \
                    _IS_SET in self.eval(call.func.value):
                return merged | {"set-pop"}

        self._check_sink(call, arg_kinds)

        callees = self._callees.get(id(call), ())
        if callees:
            result: Set[TaintKind] = set()
            for qname in callees:
                summary = self.summaries.get(qname)
                if summary is None:
                    continue
                result |= {k for k in summary.returns
                           if not _is_param_token(k)}
                callee = self.graph.functions[qname]
                offset = 1 if callee.cls is not None else 0
                for ret_param in summary.param_returns():
                    pos = ret_param - offset
                    if 0 <= pos < len(arg_kinds):
                        result |= arg_kinds[pos]
                # taint forwarded into a sink inside the callee
                for param, sinks in summary.param_to_sink.items():
                    pos = param - offset
                    if 0 <= pos < len(arg_kinds):
                        concrete = {k for k in arg_kinds[pos]
                                    if k != _IS_SET
                                    and not _is_param_token(k)}
                        params = {int(k[1:]) for k in arg_kinds[pos]
                                  if _is_param_token(k)}
                        if concrete:
                            args = self._arg_exprs(call)
                            for sink in sinks:
                                self.summary.hits.append(SinkHit(
                                    sink=sink,
                                    kinds=frozenset(concrete),
                                    line=call.lineno, arg=args[pos],
                                    via_call=True))
                        for param_index in params:
                            self.summary.param_to_sink.setdefault(
                                param_index, set()).update(sinks)
            return result
        # Unknown callee: assume it pipes argument taint through.
        merged.discard(_IS_SET)
        return merged

    def _check_sink(self, call: ast.Call,
                    arg_kinds: Sequence[Set[TaintKind]]) -> None:
        sink = sink_name_of_call(call)
        if sink is None:
            return
        args = self._arg_exprs(call)
        for arg, kinds in zip(args, arg_kinds):
            effective = set(kinds)
            if _IS_SET in effective:
                effective.discard(_IS_SET)
                effective.add("set-order")
            real = {k for k in effective if not _is_param_token(k)}
            params = {int(k[1:]) for k in effective if _is_param_token(k)}
            if real:
                self.summary.hits.append(SinkHit(
                    sink=sink, kinds=frozenset(real),
                    line=call.lineno, arg=arg))
            for param in params:
                self.summary.param_to_sink.setdefault(
                    param, set()).add(sink)

    # -- statement walk ----------------------------------------------------

    def run(self) -> TaintSummary:
        changed = True
        rounds = 0
        while changed:
            rounds += 1
            if rounds > 20:
                raise CheckError(
                    f"taint pass over {self.info.qname} did not converge")
            before = {k: frozenset(v) for k, v in self.env.items()}
            hits = len(self.summary.hits)
            self.summary.hits = self.summary.hits[:0]
            self._walk()
            changed = (before != {k: frozenset(v)
                                  for k, v in self.env.items()}
                       or hits != len(self.summary.hits))
        return self.summary

    def _walk(self) -> None:
        for node in self.info.own_statements():
            if isinstance(node, ast.Assign):
                kinds = self.eval(node.value)
                for target in node.targets:
                    self._assign(target, kinds, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._assign(node.target, self.eval(node.value), node.value)
            elif isinstance(node, ast.AugAssign):
                kinds = self.eval(node.value) | self.eval(
                    node.target if isinstance(node.target, ast.expr)
                    else None)
                self._assign(node.target, kinds, node.value)
            elif isinstance(node, ast.Return):
                self.summary.returns |= {
                    k for k in self.eval(node.value) if k != _IS_SET}
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                kinds = self.eval(node.iter)
                if _IS_SET in kinds:
                    kinds.discard(_IS_SET)
                    kinds.add("set-order")
                self._assign(node.target, kinds, node.iter)
            elif isinstance(node, ast.Expr):
                self.eval(node.value)
            elif isinstance(node, (ast.If, ast.While)):
                self.eval(node.test)
            elif isinstance(node, ast.Assert):
                self.eval(node.test)
            elif isinstance(node, ast.Raise):
                if node.exc is not None:
                    self.eval(node.exc)

    def _assign(self, target: ast.expr, kinds: Set[TaintKind],
                value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if kinds:
                self.env.setdefault(target.id, set()).update(kinds)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, set(kinds), value)
            return
        persistent = {k for k in kinds if not _is_param_token(k)
                      and k != _IS_SET}
        if not persistent:
            return
        attr = self_attr(target)
        if attr is None and isinstance(target, ast.Subscript):
            attr = self_attr(target.value)
        if attr is not None and self.info.cls is not None:
            cls_key = f"{self.info.module}:{self.info.cls}"
            self.class_env.setdefault(cls_key, {}).setdefault(
                attr, set()).update(persistent)


def compute_taint_summaries(graph: CallGraph
                            ) -> Dict[str, TaintSummary]:
    """Bottom-up taint fixpoint over every function of the graph.

    A worklist keyed on reverse call edges: a function is recomputed
    only when one of its callees' summaries (or its own class's
    attribute-taint environment) changed since its last pass. The cap
    turns a future non-monotonicity bug into a loud error, not a hang.
    """
    summaries: Dict[str, TaintSummary] = {
        qname: TaintSummary() for qname in graph.functions}
    class_env: Dict[str, Dict[str, Set[TaintKind]]] = {}
    callers = graph.callers_of()
    methods_by_class: Dict[str, List[str]] = {}
    for qname, info in graph.functions.items():
        if info.cls is not None:
            methods_by_class.setdefault(
                f"{info.module}:{info.cls}", []).append(qname)

    queue = list(graph.functions)
    queued = set(queue)
    iterations = 0
    cap = 60 * max(1, len(graph.functions))
    while queue:
        iterations += 1
        if iterations > cap:
            raise CheckError(
                "interprocedural taint summaries did not converge "
                f"({iterations} function passes)")
        qname = queue.pop(0)
        queued.discard(qname)
        info = graph.functions[qname]
        cls_key = (f"{info.module}:{info.cls}"
                   if info.cls is not None else None)
        env_before = {a: frozenset(v) for a, v in
                      class_env.get(cls_key, {}).items()} \
            if cls_key is not None else {}
        new = _TaintPass(graph, info, summaries, class_env).run()
        changed = new.fingerprint() != summaries[qname].fingerprint()
        summaries[qname] = new
        if changed:
            for caller in callers.get(qname, ()):
                if caller not in queued:
                    queued.add(caller)
                    queue.append(caller)
        if cls_key is not None:
            env_after = {a: frozenset(v) for a, v in
                         class_env.get(cls_key, {}).items()}
            if env_after != env_before:
                for method in methods_by_class.get(cls_key, ()):
                    if method not in queued:
                        queued.add(method)
                        queue.append(method)
    return summaries


# -- raises --------------------------------------------------------------

_RERAISE = "<reraise>"

#: Builtins that subclass BaseException directly (never Exception).
_BASE_ONLY = frozenset({"KeyboardInterrupt", "SystemExit", "GeneratorExit"})


class ExceptionHierarchy:
    """Name-level subclass relation over corpus + builtin exceptions."""

    def __init__(self, bases: Dict[str, List[str]]):
        #: class name -> direct base names
        self.bases = dict(bases)

    def ancestors(self, name: str) -> Set[str]:
        out: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop()
            if current in out:
                continue
            out.add(current)
            if current in self.bases:
                queue.extend(self.bases[current])
            elif current in _BASE_ONLY:
                out.add("BaseException")
            elif current not in ("BaseException",):
                # Unknown/builtin exception: assume Exception subtype.
                out.add("Exception")
                out.add("BaseException")
        out.add("BaseException")
        return out

    def catches(self, handler_type: str, raised: str) -> bool:
        if raised == "<unknown>":
            return handler_type in ("Exception", "BaseException")
        return handler_type in self.ancestors(raised)

    @classmethod
    def from_graph(cls, graph: CallGraph) -> "ExceptionHierarchy":
        bases: Dict[str, List[str]] = {}
        for class_qname, base_names in graph.class_bases.items():
            name = class_qname.rpartition(":")[2]
            known = [b for b in base_names if b != "?"]
            if known:
                bases.setdefault(name, []).extend(
                    b for b in known if b not in bases.get(name, []))
        return cls(bases)


@dataclass
class RaisesSummary:
    """Exception type names that may escape one function."""

    escapes: Set[str] = field(default_factory=set)
    #: line of one representative raise per escaping type.
    raise_lines: Dict[str, int] = field(default_factory=dict)


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["BaseException"]   # bare except catches everything
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    out = []
    for node in types:
        name = dotted_name(node)
        out.append(name.split(".")[-1] if name else "<unknown>")
    return out


class _RaisesPass:
    def __init__(self, graph: CallGraph, info: FunctionInfo,
                 summaries: Dict[str, RaisesSummary],
                 hierarchy: ExceptionHierarchy):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.hierarchy = hierarchy
        self._callees: Dict[int, Tuple[str, ...]] = {
            id(site.node): site.callees for site in info.calls}
        self.lines: Dict[str, int] = {}

    def run(self) -> RaisesSummary:
        escapes = self._body(self.info.node.body)
        escapes.discard(_RERAISE)   # bare raise outside except: impossible
        return RaisesSummary(escapes=escapes,
                             raise_lines={name: self.lines.get(name, 0)
                                          for name in escapes})

    def _note(self, name: str, line: int) -> None:
        self.lines.setdefault(name, line)

    def _calls_in(self, node: ast.AST) -> Set[str]:
        """Escapes of corpus callees referenced inside ``node``."""
        out: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                for qname in self._callees.get(id(child), ()):
                    summary = self.summaries.get(qname)
                    if summary is not None:
                        for name in summary.escapes:
                            out.add(name)
                            self._note(name, child.lineno)
        return out

    def _body(self, statements: Sequence[ast.stmt]) -> Set[str]:
        escapes: Set[str] = set()
        for node in statements:
            escapes |= self._stmt(node)
        return escapes

    def _stmt(self, node: ast.stmt) -> Set[str]:
        if isinstance(node, ast.Raise):
            escapes = self._calls_in(node)
            if node.exc is None:
                escapes.add(_RERAISE)
                return escapes
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted_name(target)
            raised = name.split(".")[-1] if name else "<unknown>"
            self._note(raised, node.lineno)
            escapes.add(raised)
            return escapes
        if isinstance(node, ast.Try):
            return self._try(node)
        if isinstance(node, (ast.If,)):
            out = self._calls_in(node.test)
            out |= self._body(node.body)
            out |= self._body(node.orelse)
            return out
        if isinstance(node, (ast.While,)):
            return (self._calls_in(node.test) | self._body(node.body)
                    | self._body(node.orelse))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return (self._calls_in(node.iter) | self._body(node.body)
                    | self._body(node.orelse))
        if isinstance(node, (ast.With, ast.AsyncWith)):
            enter: Set[str] = set()
            for item in node.items:
                enter |= self._calls_in(item.context_expr)
            return enter | self._body(node.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return set()
        return self._calls_in(node)

    def _try(self, node: ast.Try) -> Set[str]:
        body_escapes = self._body(node.body)
        # ``else`` runs after the handlers are out of scope: its raises
        # escape the try (modulo finally) without handler filtering.
        escaped: Set[str] = self._body(node.orelse)
        escaped.discard(_RERAISE)
        routed: Dict[int, Set[str]] = {}
        for raised in body_escapes:
            if raised == _RERAISE:
                escaped.add(raised)
                continue
            for index, handler in enumerate(node.handlers):
                if any(self.hierarchy.catches(h, raised)
                       for h in _handler_names(handler)):
                    routed.setdefault(index, set()).add(raised)
                    break
            else:
                escaped.add(raised)
        for index, handler in enumerate(node.handlers):
            handler_escapes = self._body(handler.body)
            if _RERAISE in handler_escapes:
                handler_escapes.discard(_RERAISE)
                caught = routed.get(index, set())
                if not caught:
                    # Nothing provably routed here, but the handler can
                    # still catch raises our summaries cannot see (e.g.
                    # builtins); a bare re-raise propagates them. Keep
                    # the handler's declared types as the escape set.
                    caught = {h for h in _handler_names(handler)
                              if h != "<unknown>"}
                    for name in caught:
                        self._note(name, handler.lineno)
                handler_escapes |= caught
            escaped |= handler_escapes
        escaped |= self._body(node.finalbody)
        return escaped


def handler_type_names(handler: ast.ExceptHandler) -> List[str]:
    """Declared type names an ``except`` clause catches (public alias)."""
    return _handler_names(handler)


def escapes_of_statements(graph: CallGraph, info: FunctionInfo,
                          summaries: Dict[str, RaisesSummary],
                          hierarchy: ExceptionHierarchy,
                          statements: Sequence[ast.stmt]) -> Set[str]:
    """Exception type names that may escape a statement list.

    Used by the EX analyzer to ask "what can this ``try`` body raise"
    with the same handler-filtering semantics the summaries use.
    """
    gate = _RaisesPass(graph, info, summaries, hierarchy)
    escapes = gate._body(list(statements))
    escapes.discard(_RERAISE)
    return escapes


def compute_raises_summaries(graph: CallGraph,
                             hierarchy: Optional[ExceptionHierarchy] = None,
                             ) -> Dict[str, RaisesSummary]:
    """Bottom-up may-escape exception fixpoint over the call graph.

    Worklist over reverse call edges, like the taint fixpoint: a
    caller is revisited only when a callee's escape set grew.
    """
    hierarchy = hierarchy or ExceptionHierarchy.from_graph(graph)
    summaries: Dict[str, RaisesSummary] = {
        qname: RaisesSummary() for qname in graph.functions}
    callers = graph.callers_of()
    queue = list(graph.functions)
    queued = set(queue)
    iterations = 0
    cap = 60 * max(1, len(graph.functions))
    while queue:
        iterations += 1
        if iterations > cap:
            raise CheckError(
                "interprocedural raises summaries did not converge "
                f"({iterations} function passes)")
        qname = queue.pop(0)
        queued.discard(qname)
        new = _RaisesPass(
            graph, graph.functions[qname], summaries, hierarchy).run()
        if frozenset(new.escapes) != frozenset(summaries[qname].escapes):
            for caller in callers.get(qname, ()):
                if caller not in queued:
                    queued.add(caller)
                    queue.append(caller)
        summaries[qname] = new
    return summaries
