"""Unified driver for the static-analysis subsystem (`repro-t3 check`).

Runs the analyzers, applies the baseline, and renders findings. Each
analyzer owns a rule-id prefix; ``<prefix>000`` is reserved for "the
analyzer itself could not run", so a crashed check fails the build —
with exit code 3, distinct from exit code 1 for ordinary findings, so
CI can tell "the code has problems" from "the checker has problems".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CheckError
from ..trees.boosting import BoostedTreesModel
from ..trees.serialize import loads_model
from .codegen_verify import self_check_model, verify_codegen
from .concurrency import check_lock_discipline
from .determinism import check_determinism
from .ensemble_analyze import analyze_ensemble
from .exceptions import check_exception_contracts
from .feature_schema import check_feature_schema
from .findings import (
    Baseline,
    Finding,
    Severity,
    Suppression,
    render_json,
    render_text,
)
from .hotpath import check_hotpath
from .lint import check_lint
from .plan_invariants import check_plan_invariants
from .resources import check_resource_lifecycles
from .responsiveness import check_responsiveness
from .sarif import render_sarif

__all__ = ["ANALYZERS", "RULES", "CheckOptions", "CheckReport",
           "run_checks", "DEFAULT_BASELINE_NAME", "EXIT_FINDINGS",
           "EXIT_ANALYZER_CRASH"]

DEFAULT_BASELINE_NAME = "checks_baseline.toml"

#: Exit codes of the check driver: clean runs exit 0.
EXIT_FINDINGS = 1
EXIT_ANALYZER_CRASH = 3

#: rule id -> one-line description (the check's contract).
RULES: Dict[str, str] = {
    "CG000": "codegen verifier could not run",
    "DT000": "determinism-taint analyzer could not run",
    "DT001": "wall-clock value reaches a seed-critical sink",
    "DT002": "id() key of a persistent container without pinning the object",
    "DT003": "stdlib random call outside repro.rng",
    "DT004": "OS entropy (urandom/uuid/secrets) reaches a sink",
    "DT005": "builtin hash() value reaches a sink",
    "DT006": "set iteration order reaches a sink",
    "DT007": "process/thread identity reaches a sink",
    "DT008": "os.environ value reaches a sink",
    "DT009": "set.pop() arbitrary element reaches a sink",
    "DT010": "nondeterministic argument forwarded into a sink via a call",
    "CG001": "generated C source cannot be parsed back into a tree",
    "CG002": "tree-function count or numbering mismatch",
    "CG003": "node/leaf structure differs from the trained model",
    "CG004": "feature index mismatch or outside [0, n_features)",
    "CG005": "threshold does not round-trip through repr(float)",
    "CG006": "leaf value does not round-trip through repr(float)",
    "CG007": "base score mismatch",
    "CG008": "predict/predict_batch/n_features export inconsistency",
    "CG009": "parsed code and model disagree on a probe vector",
    "CG010": "non-finite float: bare literal in generated C, or a value "
             "the generator refuses",
    "EA000": "ensemble analyzer could not run",
    "EA001": "dead branch: split threshold outside its reachable interval",
    "EA002": "unreachable leaf (inside a dead subtree)",
    "EA003": "leaf value is NaN or infinite",
    "EA004": "reachable raw prediction decodes to a non-finite time",
    "EA005": "distinct same-feature thresholds within one float32 ulp",
    "EA006": "schema feature no tree ever splits on",
    "EA007": "tree node orphaned or shared between parents",
    "EA008": "split threshold is NaN or infinite",
    "EA009": "base score is NaN or infinite",
    "EA010": "split feature index outside [0, n_features)",
    "EX000": "exception-contract analyzer could not run",
    "EX001": "public boundary function may raise a non-ReproError type",
    "EX002": "except BaseException without re-raise",
    "EX003": "raise inside an except handler without 'from'",
    "EX004": "ServingError subclass with no envelope in error_response",
    "EX005": "broad handler swallows load-control errors",
    "EX006": "raising the bare ReproError/ServingError base class",
    "FS000": "feature-schema detector could not run",
    "FS001": "feature emitted by the extractor but never declared",
    "FS002": "feature declared but never emitted",
    "FS003": "feature index/order drift between layouts",
    "FS004": "persisted model n_features mismatch",
    "FS005": "declared (operator, stage) pair the engine never produces",
    "FS006": "duplicate feature within one stage declaration",
    "HP000": "hot-path cost analyzer could not run",
    "HP001": "per-element ctypes/FFI round-trip on a hot path",
    "HP002": "accumulating whole-array allocation inside a hot loop",
    "HP003": "per-item submission across a process boundary in a hot loop",
    "HP004": "blocking IO/subprocess/sleep while holding a lock on a hot path",
    "HP005": "loop-invariant pure call re-evaluated inside a hot loop",
    "HP006": "loop-invariant label/f-string formatting inside a hot loop",
    "HP007": "exception-as-control-flow per iteration in a hot loop",
    "HP008": "O(n) list membership test inside a hot loop",
    "HP009": "loop-invariant attribute chain re-resolved inside a hot loop",
    "HP010": "known-slow stdlib call (pickle/re.compile/json) on a hot path",
    "LK000": "concurrency checker could not run",
    "LK001": "attribute guarded elsewhere but accessed with no lock held",
    "LK002": "shared mutable attribute never accessed under a lock",
    "LK003": "lock-order inversion between two locks of one class",
    "LK004": "blocking call while holding a lock",
    "LK005": "await while holding a lock",
    "LK006": "lock may still be held when the function exits",
    "LK007": "release of a lock not held on any path",
    "LK008": "re-acquiring a held non-reentrant lock (self-deadlock)",
    "PI000": "plan-invariant verifier could not run",
    "PI001": "operator missing stage declaration or physical class",
    "PI002": "operator declared both binary and materializing",
    "PI003": "operator no pipeline-decomposition branch can handle",
    "PI004": "declared stages disagree with the pipeline decomposer",
    "PI005": "malformed stage tuple (not one of the legal shapes)",
    "PI006": "pipeline-breaker BUILD append without pipeline completion",
    "PI007": "fresh pipeline does not start with a scan stage",
    "PI008": "probe stage declared for an operator that cannot be probed",
    "PI009": "percentage feature emitted without dividing by start",
    "PI010": "expression percentages do not partition the classes",
    "PI011": "cardinality model missing non-negativity/selectivity clamp",
    "PI012": "target-transform bounds not finite or clip missing",
    "PL000": "project lint could not run",
    "PL001": "untyped raise in library code",
    "PL002": "bare except",
    "PL003": "mutable default argument",
    "PL004": "print() in library code",
    "PL005": "unseeded numpy.random outside rng.py",
    "RS000": "resource-lifecycle analyzer could not run",
    "RS001": "manually acquired lock may still be held at exit",
    "RS002": "lock released only on the normal path (exception-unsafe)",
    "RS003": "file handle not released on every path",
    "RS004": "executor/pool not released on every path",
    "RS005": "unguarded set_result/set_exception on a shared future",
    "RS006": "breaker probe slot not repaid by record_* on every path",
    "RS007": "socket not released on every path",
    "RS008": "temporary file/directory not released on every path",
    "RT000": "responsiveness checker could not run",
    "RT001": "queue get() with no timeout (unbounded block)",
    "RT002": "future result() with no timeout (unbounded block)",
    "RT003": "thread join() with no timeout (unbounded block)",
}


@dataclass
class CheckReport:
    """Outcome of one driver run."""

    findings: List[Finding]        # new (unsuppressed) findings
    suppressed: List[Finding]
    analyzers_run: List[str]
    elapsed_seconds: float
    timings: Dict[str, float] = field(default_factory=dict)
    #: baseline entries that matched no finding this run — dead weight
    #: (the source line moved or the issue was fixed); prune them with
    #: ``--update-baseline``.
    stale_suppressions: List[Suppression] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if any(f.rule.endswith("000") for f in self.findings):
            return EXIT_ANALYZER_CRASH
        return EXIT_FINDINGS if self.findings else 0

    def stale_warnings(self) -> List[str]:
        """Human-readable warning per dead baseline entry."""
        out = []
        for entry in self.stale_suppressions:
            where = entry.path or "<any file>"
            if entry.line is not None:
                where += f":{entry.line}"
            out.append(f"stale baseline suppression {entry.rule} at "
                       f"{where} matches nothing; prune it with "
                       f"--update-baseline")
        return out

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            payload = json.loads(render_json(self.findings, self.suppressed))
            payload["analyzers"] = self.analyzers_run
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
            payload["analyzer_seconds"] = {
                name: round(seconds, 3)
                for name, seconds in self.timings.items()}
            payload["stale_suppressions"] = [
                {"rule": s.rule, "path": s.path, "line": s.line,
                 "reason": s.reason}
                for s in self.stale_suppressions]
            payload["exit_code"] = self.exit_code
            return json.dumps(payload, indent=2)
        if fmt == "sarif":
            return render_sarif(self.findings, self.suppressed, RULES)
        if fmt == "text":
            lines = [render_text(self.findings, self.suppressed)]
            lines.extend(self.stale_warnings())
            return "\n".join(lines)
        raise CheckError(
            f"unknown output format {fmt!r} (use text, json, or sarif)")


def _load_model_document(model_path: Union[str, Path]
                         ) -> Tuple[BoostedTreesModel, Optional[List[str]]]:
    """Accept either a T3Model JSON or a bare tree-model document."""
    path = Path(model_path)
    if not path.exists():
        raise CheckError(f"model file not found: {path}")
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"model file {path} is not JSON: {exc}") from exc
    if isinstance(payload, dict) and "model" in payload:
        names = payload.get("feature_names")
        return (loads_model(json.dumps(payload["model"])),
                list(names) if isinstance(names, list) else None)
    return loads_model(text), None


def _load_booster(model_path: Union[str, Path]) -> BoostedTreesModel:
    return _load_model_document(model_path)[0]


@dataclass(frozen=True)
class CheckOptions:
    """Knobs shared by all analyzer runners."""

    model_path: Optional[str] = None
    #: EA006 (never-split schema features) is opt-in: a small but
    #: legitimate model leaves most of the schema unsplit, and flooding
    #: every ``--model`` run with warnings would teach users to ignore
    #: the analyzer.
    check_unused_features: bool = False


def _run_codegen(opts: CheckOptions) -> List[Finding]:
    """Verify the generated C; a model the emitter refuses is a finding."""
    if opts.model_path is not None:
        booster = _load_booster(opts.model_path)
        label = Path(opts.model_path).name
    else:
        booster = self_check_model()
        label = "<self-check model>"
    return verify_codegen(booster, path=f"<generated C for {label}>")


def _run_ensemble(opts: CheckOptions) -> List[Finding]:
    if opts.model_path is not None:
        booster, names = _load_model_document(opts.model_path)
        return analyze_ensemble(
            booster, path=Path(opts.model_path).name, feature_names=names,
            check_unused_features=opts.check_unused_features)
    return analyze_ensemble(self_check_model(), path="<self-check model>")


#: analyzer name -> (rule-id prefix, runner taking the shared options).
ANALYZERS: Dict[str, Tuple[str, Callable[[CheckOptions], List[Finding]]]] = {
    "codegen": ("CG", _run_codegen),
    "feature-schema": ("FS", lambda opts: check_feature_schema(
        model_path=opts.model_path)),
    "plan-invariants": ("PI", lambda opts: check_plan_invariants()),
    "ensemble": ("EA", _run_ensemble),
    "concurrency": ("LK", lambda opts: check_lock_discipline()),
    "lint": ("PL", lambda opts: check_lint()),
    "responsiveness": ("RT", lambda opts: check_responsiveness()),
    "determinism": ("DT", lambda opts: check_determinism()),
    "exceptions": ("EX", lambda opts: check_exception_contracts()),
    "resources": ("RS", lambda opts: check_resource_lifecycles()),
    "hotpath": ("HP", lambda opts: check_hotpath()),
}

#: analyzers whose first step is building the shared call graph; a
#: parallel run warms the graph cache once before dispatching them.
_INTERPROCEDURAL = frozenset({"determinism", "exceptions", "resources",
                              "hotpath"})


def _selected_analyzers(rules: Optional[Sequence[str]],
                        only: Optional[Sequence[str]] = None
                        ) -> Dict[str, bool]:
    """Which analyzers a ``--rule``/``--only`` selection touches.

    ``only`` selects whole analyzers by name (``determinism``) or rule
    prefix (``DT``); ``rules`` narrows to individual rule ids.  Both
    empty means everything.
    """
    prefix_to_name = {prefix: name
                      for name, (prefix, _) in ANALYZERS.items()}
    selected = {name: True for name in ANALYZERS}
    if only:
        chosen = set()
        for token in only:
            if token in ANALYZERS:
                chosen.add(token)
            elif token.upper() in prefix_to_name:
                chosen.add(prefix_to_name[token.upper()])
            else:
                raise CheckError(
                    f"unknown analyzer {token!r}; known analyzers: "
                    f"{', '.join(sorted(ANALYZERS))} "
                    f"(or prefixes {', '.join(sorted(prefix_to_name))})")
        selected = {name: name in chosen for name in ANALYZERS}
    if rules:
        prefixes = {rule[:2].upper() for rule in rules}
        unknown = [rule for rule in rules
                   if rule.upper() not in RULES
                   and rule[:2].upper() not in prefix_to_name]
        if unknown:
            raise CheckError(
                f"unknown rule(s) {', '.join(sorted(unknown))}; "
                f"known rules: {', '.join(sorted(RULES))}")
        selected = {name: selected[name] and prefix in prefixes
                    for name, (prefix, _) in ANALYZERS.items()}
    return selected


def _run_one(name: str, prefix: str,
             runner: Callable[[CheckOptions], List[Finding]],
             opts: CheckOptions) -> Tuple[List[Finding], float]:
    """Run one analyzer, converting any crash into a ``<prefix>000``.

    A broken analyzer must not take down the run: the other analyzers'
    findings (and SARIF output) still matter, and the crash itself is
    reported as a finding so the driver exits with
    :data:`EXIT_ANALYZER_CRASH` instead of pretending the code is clean.
    """
    analyzer_started = time.perf_counter()
    try:
        produced = runner(opts)
    except CheckError as exc:
        produced = [Finding(f"{prefix}000", Severity.ERROR,
                            "<driver>", 0, str(exc))]
    except Exception as exc:  # analyzer bug — report, do not crash the run
        produced = [Finding(
            f"{prefix}000", Severity.ERROR, "<driver>", 0,
            f"analyzer {name!r} crashed: {type(exc).__name__}: {exc}")]
    return produced, time.perf_counter() - analyzer_started


def run_checks(rules: Optional[Sequence[str]] = None,
               baseline: Optional[Union[str, Path, Baseline]] = None,
               model_path: Optional[str] = None,
               check_unused_features: bool = False,
               only: Optional[Sequence[str]] = None,
               jobs: int = 1) -> CheckReport:
    """Run the selected analyzers and apply the baseline.

    ``rules`` filters by full id (``LK001``) or analyzer prefix
    (``LK``); ``only`` selects whole analyzers by name or prefix; empty
    means everything. ``baseline`` may be a path or a loaded
    :class:`Baseline`. ``model_path`` feeds the codegen verifier, the
    ensemble analyzer, and the schema drift detector a persisted model
    to cross-check; ``check_unused_features`` additionally turns on
    EA006 for that model. ``jobs`` > 1 runs analyzers concurrently in
    threads; findings are still reported in the fixed analyzer order,
    so output is deterministic regardless of scheduling.
    """
    started = time.perf_counter()
    selected = _selected_analyzers(rules, only)
    wanted = {rule.upper() for rule in rules} if rules else None
    opts = CheckOptions(model_path=model_path,
                        check_unused_features=check_unused_features)
    if jobs < 1:
        raise CheckError(f"jobs must be >= 1, got {jobs}")

    to_run = [(name, prefix, runner)
              for name, (prefix, runner) in ANALYZERS.items()
              if selected[name]]
    analyzers_run = [name for name, _, _ in to_run]
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    if jobs > 1 and len(to_run) > 1:
        if any(name in _INTERPROCEDURAL for name, _, _ in to_run):
            # Warm the shared call-graph cache serially: otherwise the
            # three interprocedural analyzers would each build it.
            from .callgraph import build_call_graph
            build_call_graph()
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(jobs, len(to_run)),
                                thread_name_prefix="repro-check") as pool:
            futures = [pool.submit(_run_one, name, prefix, runner, opts)
                       for name, prefix, runner in to_run]
            for (name, _, _), future in zip(to_run, futures):
                produced, seconds = future.result()
                timings[name] = seconds
                findings.extend(produced)
    else:
        for name, prefix, runner in to_run:
            produced, seconds = _run_one(name, prefix, runner, opts)
            timings[name] = seconds
            findings.extend(produced)

    if wanted is not None:
        # Crash findings always survive the filter: a --rule run whose
        # analyzer died must not exit 0.
        findings = [f for f in findings
                    if f.rule in wanted or f.rule[:2] in wanted
                    or f.rule.endswith("000")]

    if baseline is None:
        loaded = Baseline()
    elif isinstance(baseline, Baseline):
        loaded = baseline
    else:
        loaded = Baseline.load(baseline)
    new, suppressed, stale = loaded.partition(findings)
    if rules or only:
        # A filtered run never saw most findings, so absence of a match
        # proves nothing — stale detection needs the full suite.
        stale = []
    return CheckReport(findings=new, suppressed=suppressed,
                       analyzers_run=analyzers_run,
                       elapsed_seconds=time.perf_counter() - started,
                       timings=timings,
                       stale_suppressions=stale)
