"""Static-analysis subsystem: prove T3's invariants without running them.

Six analyzers behind one driver (``repro-t3 check``):

* :mod:`~repro.checks.codegen_verify` — parse generated C back into a
  tree structure and verify structural equivalence with the trained
  model (rules ``CG...``),
* :mod:`~repro.checks.ensemble_analyze` — interval analysis over
  trained ensembles: dead branches, unreachable leaves, non-finite
  decodes, float32 near-ties (``EA...``),
* :mod:`~repro.checks.concurrency` — CFG-based lock-discipline
  dataflow over the multithreaded serving code, plus unbounded
  queue/future/thread waits that would make it unresponsive
  (``LK...``),
* :mod:`~repro.checks.determinism` — ``id()`` keys of persistent
  containers without pinning, and unseeded random calls outside
  ``repro.rng`` (``DT...``),
* :mod:`~repro.checks.exceptions` — library raises use only
  :class:`~repro.errors.ReproError` subtypes, never the bare base
  classes, and no handler swallows ``BaseException`` (``EX...``),
* :mod:`~repro.checks.resources` — must-release analysis over
  exception edges for locks, futures, pools, handles and temp dirs
  (``RS...``).

Where time goes is not a static question here: ``perfbench`` measures
it per layer, so there is no cost analyzer. Nor are the feature layout
and the pipeline invariants: :class:`~repro.core.features.FeatureRegistry`
refuses a bad declaration when it is built, ``T3Model.load`` refuses a
model with a foreign layout, and tests run the real decomposer over
plans holding every operator type.

Every rule is per function or per module; none needs a call graph.
Shared infrastructure lives in :mod:`~repro.checks.astutils` (AST
loading, one shared parse of the package, navigation helpers) and
:mod:`~repro.checks.cfg` (per-function control-flow graphs plus a
generic forward-dataflow solver). Findings carry ``file:line``, a
stable rule id, and a severity; a TOML baseline
(``checks_baseline.toml``) grandfathers known findings so the driver
can gate CI on *new* ones only, and ``--format sarif`` renders the
same findings for code-scanning upload.

Generic Python hygiene (bare ``except``, mutable defaults, ``raise``
without ``from`` in a handler, ``print`` in library code) is ruff's
job; see ``[tool.ruff.lint]`` in ``pyproject.toml``.
"""

from .cfg import CFG, Block, build_cfg, forward_dataflow
from .codegen_verify import parse_c_source, self_check_model, verify_codegen
from .concurrency import check_lock_discipline
from .determinism import check_determinism
from .driver import ANALYZERS, RULES, CheckReport, run_checks
from .ensemble_analyze import analyze_ensemble
from .exceptions import check_exception_contracts
from .findings import (
    Baseline,
    Finding,
    Severity,
    Suppression,
    update_baseline,
    write_baseline,
)
from .resources import check_resource_lifecycles
from .sarif import render_sarif

__all__ = [
    "ANALYZERS",
    "Baseline",
    "Block",
    "CFG",
    "CheckReport",
    "Finding",
    "RULES",
    "Severity",
    "Suppression",
    "analyze_ensemble",
    "build_cfg",
    "check_determinism",
    "check_exception_contracts",
    "check_lock_discipline",
    "check_resource_lifecycles",
    "forward_dataflow",
    "parse_c_source",
    "render_sarif",
    "run_checks",
    "self_check_model",
    "update_baseline",
    "verify_codegen",
    "write_baseline",
]
