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
from .findings import (
    Baseline,
    Finding,
    Severity,
    Suppression,
    render_json,
    render_text,
)
from .resources import check_resource_lifecycles
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
    "DT000": "determinism analyzer could not run",
    "DT002": "id() key of a persistent container without pinning the object",
    "DT003": "unseeded random call (stdlib random, legacy np.random, "
             "argument-less default_rng) outside repro.rng",
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
    "EX002": "except BaseException without re-raise",
    "EX006": "raising the bare ReproError/ServingError base class",
    "EX007": "library code raises a type outside the ReproError hierarchy",
    "LK000": "concurrency checker could not run",
    "LK001": "attribute guarded elsewhere but accessed with no lock held",
    "LK002": "shared mutable attribute never accessed under a lock",
    "LK003": "lock-order inversion between two locks of one class",
    "LK004": "blocking call while holding a lock",
    "LK005": "await while holding a lock",
    "LK007": "release of a lock not held on any path",
    "LK008": "re-acquiring a held non-reentrant lock (self-deadlock)",
    "LK009": "queue get() with no timeout (unbounded block)",
    "LK010": "future result() with no timeout (unbounded block)",
    "LK011": "thread join() with no timeout (unbounded block)",
    "RS000": "resource-lifecycle analyzer could not run",
    "RS001": "manually acquired lock may still be held at exit",
    "RS002": "lock released only on the normal path (exception-unsafe)",
    "RS003": "file handle not released on every path",
    "RS004": "executor/pool not released on every path",
    "RS005": "unguarded set_result/set_exception on a shared future",
    "RS007": "socket not released on every path",
    "RS008": "temporary file/directory not released on every path",
}


@dataclass
class CheckReport:
    """Outcome of one driver run."""

    findings: List[Finding]        # new (unsuppressed) findings
    suppressed: List[Finding]
    analyzers_run: List[str]
    elapsed_seconds: float
    #: seconds per analyzer; the first of determinism, exceptions and
    #: resources to run also parses the package for the others
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
    "ensemble": ("EA", _run_ensemble),
    "concurrency": ("LK", lambda opts: check_lock_discipline()),
    "determinism": ("DT", lambda opts: check_determinism()),
    "exceptions": ("EX", lambda opts: check_exception_contracts()),
    "resources": ("RS", lambda opts: check_resource_lifecycles()),
}


def _selected_analyzers(rules: Optional[Sequence[str]]) -> List[str]:
    """Names of the analyzers a ``--rule`` selection touches.

    A rule id (``LK001``) selects its analyzer, an analyzer prefix
    (``DT``) the whole analyzer; no rules means everything.
    """
    if not rules:
        return list(ANALYZERS)
    prefixes = {prefix for prefix, _ in ANALYZERS.values()}
    unknown = [rule for rule in rules
               if rule.upper() not in RULES
               and rule[:2].upper() not in prefixes]
    if unknown:
        raise CheckError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"known rules: {', '.join(sorted(RULES))}")
    wanted = {rule[:2].upper() for rule in rules}
    return [name for name, (prefix, _) in ANALYZERS.items()
            if prefix in wanted]


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
               check_unused_features: bool = False) -> CheckReport:
    """Run the selected analyzers and apply the baseline.

    ``rules`` filters by full id (``LK001``) or analyzer prefix
    (``LK``); empty means everything. ``baseline`` may be a path or a
    loaded :class:`Baseline`. ``model_path`` feeds the codegen
    verifier and the ensemble analyzer a persisted model to check;
    ``check_unused_features`` additionally turns on EA006 for that
    model.
    """
    started = time.perf_counter()
    analyzers_run = _selected_analyzers(rules)
    opts = CheckOptions(model_path=model_path,
                        check_unused_features=check_unused_features)

    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for name in analyzers_run:
        prefix, runner = ANALYZERS[name]
        produced, timings[name] = _run_one(name, prefix, runner, opts)
        findings.extend(produced)

    if rules:
        # Crash findings always survive the filter: a --rule run whose
        # analyzer died must not exit 0.
        wanted = {rule.upper() for rule in rules}
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
    if rules:
        # A filtered run never saw most findings, so absence of a match
        # proves nothing — stale detection needs the full suite.
        stale = []
    return CheckReport(findings=new, suppressed=suppressed,
                       analyzers_run=analyzers_run,
                       elapsed_seconds=time.perf_counter() - started,
                       timings=timings,
                       stale_suppressions=stale)
