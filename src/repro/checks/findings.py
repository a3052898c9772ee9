"""Findings, severities, and the baseline/suppression file.

Every analyzer in :mod:`repro.checks` reports :class:`Finding` objects —
one defect each, anchored to a ``file:line``, tagged with a stable rule
id (``CG###`` codegen, ``FS###`` feature schema, ``LK###`` lock
discipline, ...) and a severity. The driver matches findings against a
baseline file so pre-existing debt can be grandfathered while new
findings fail the build.

Baseline format (``checks_baseline.toml``)::

    [[suppress]]
    rule = "EX007"                       # required
    path = "src/repro/legacy.py"         # optional: limit to a file
    line = 42                            # optional: limit to a line
    reason = "grandfathered until PR 9"  # optional, documentation only

A suppression with only ``rule`` silences the rule everywhere; adding
``path`` (and optionally ``line``) narrows it. Paths are compared
relative to the repository root with ``/`` separators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import CheckError

__all__ = ["Severity", "Finding", "Suppression", "Baseline",
           "write_baseline", "update_baseline"]


class Severity(Enum):
    """How seriously a finding should be taken."""

    ERROR = "error"      # breaks an invariant the system relies on
    WARNING = "warning"  # suspicious, but may be intentional

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One defect reported by an analyzer."""

    rule: str                     # stable id, e.g. "CG004"
    severity: Severity
    path: str                     # repo-relative, "/"-separated
    line: int                     # 1-based; 0 = whole file
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def render(self) -> str:
        return (f"{self.location()}: {self.severity.value} "
                f"[{self.rule}] {self.message}")

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One baseline entry; ``path``/``line`` narrow the match."""

    rule: str
    path: Optional[str] = None
    line: Optional[int] = None
    reason: str = ""

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule and self.rule != "*":
            return False
        if self.path is not None and self.path != finding.path:
            return False
        if self.line is not None and self.line != finding.line:
            return False
        return True


def _parse_toml(text: str, source: str) -> dict:
    """Parse the baseline document.

    Uses :mod:`tomllib` where available (Python >= 3.11) and otherwise a
    minimal reader that understands exactly the subset the baseline
    format needs: ``[[suppress]]`` array-of-table headers and
    ``key = value`` pairs with string, integer, or boolean values.
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11 fallback
        return _parse_toml_minimal(text, source)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise CheckError(f"invalid baseline file {source}: {exc}") from exc


def _parse_toml_minimal(text: str, source: str) -> dict:
    tables: List[dict] = []
    current: Optional[dict] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[suppress]]":
            current = {}
            tables.append(current)
            continue
        key, equals, value = line.partition("=")
        if not equals or current is None:
            raise CheckError(f"invalid baseline file {source}:{lineno}: "
                             f"cannot parse {line!r}")
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            current[key.strip()] = value[1:-1]
        elif value.lstrip("-").isdigit():
            current[key.strip()] = int(value)
        elif value in ("true", "false"):
            current[key.strip()] = value == "true"
        else:
            raise CheckError(f"invalid baseline file {source}:{lineno}: "
                             f"unsupported value {value!r}")
    return {"suppress": tables}


@dataclass
class Baseline:
    """Loaded suppression set with per-entry use accounting."""

    suppressions: List[Suppression] = field(default_factory=list)
    source: str = "<empty>"

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        path = Path(path)
        if not path.exists():
            raise CheckError(f"baseline file not found: {path}")
        data = _parse_toml(path.read_text(), str(path))
        entries = data.get("suppress", [])
        if not isinstance(entries, list):
            raise CheckError(
                f"invalid baseline file {path}: 'suppress' must be an "
                "array of tables ([[suppress]])")
        suppressions = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or "rule" not in entry:
                raise CheckError(
                    f"invalid baseline file {path}: suppression #{index + 1} "
                    "needs at least a 'rule' key")
            suppressions.append(Suppression(
                rule=str(entry["rule"]),
                path=str(entry["path"]) if "path" in entry else None,
                line=int(entry["line"]) if "line" in entry else None,
                reason=str(entry.get("reason", ""))))
        return cls(suppressions, str(path))

    def is_suppressed(self, finding: Finding) -> bool:
        return any(s.matches(finding) for s in self.suppressions)

    def split(self, findings: Sequence[Finding]
              ) -> "tuple[List[Finding], List[Finding]]":
        """Partition into (new, suppressed) preserving order."""
        new, suppressed, _ = self.partition(findings)
        return new, suppressed

    def partition(self, findings: Sequence[Finding]
                  ) -> "tuple[List[Finding], List[Finding], List[Suppression]]":
        """Like :meth:`split`, also returning the *stale* suppressions.

        A suppression is stale when it matched no finding in this run:
        either the underlying issue was fixed (delete the entry) or the
        source drifted past it (the finding it once covered now escapes
        as new — the entry silences nothing and misleads readers).
        """
        new: List[Finding] = []
        suppressed: List[Finding] = []
        used = [False] * len(self.suppressions)
        for finding in findings:
            hit = False
            for index, entry in enumerate(self.suppressions):
                if entry.matches(finding):
                    used[index] = True
                    hit = True
            (suppressed if hit else new).append(finding)
        stale = [entry for entry, was_used
                 in zip(self.suppressions, used) if not was_used]
        return new, suppressed, stale


def render_text(findings: Sequence[Finding],
                suppressed: Sequence[Finding] = ()) -> str:
    lines = [finding.render() for finding in findings]
    if suppressed:
        lines.append(f"({len(suppressed)} finding(s) suppressed by baseline)")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    lines.append(f"{len(findings)} finding(s): {errors} error(s), "
                 f"{warnings} warning(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                suppressed: Sequence[Finding] = ()) -> str:
    return json.dumps({
        "findings": [f.to_json() for f in findings],
        "suppressed": [f.to_json() for f in suppressed],
        "counts": {
            "errors": sum(1 for f in findings
                          if f.severity is Severity.ERROR),
            "warnings": sum(1 for f in findings
                            if f.severity is Severity.WARNING),
            "suppressed": len(suppressed),
        },
    }, indent=2)


def write_baseline(findings: Sequence[Finding],
                   path: Union[str, Path]) -> None:
    """Write a baseline that suppresses exactly ``findings``."""
    lines = ["# Generated by `repro-t3 check --write-baseline`.",
             "# Entries grandfather pre-existing findings; delete them as",
             "# the underlying issues are fixed.", ""]
    for finding in findings:
        lines.append("[[suppress]]")
        lines.append(f'rule = "{finding.rule}"')
        lines.append(f'path = "{finding.path}"')
        lines.append(f"line = {finding.line}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


_REASON_STUB = "# reason: TODO — justify why this finding is grandfathered"


def update_baseline(findings: Sequence[Finding],
                    path: Union[str, Path]) -> "tuple[int, int, int]":
    """Rewrite the baseline at ``path`` from the current findings.

    Merge semantics, so hand-written justifications survive:

    * existing suppressions that still match at least one finding are
      kept verbatim (including their ``reason``),
    * findings no existing entry covers get a new exact entry with a
      ``# reason:`` stub to fill in,
    * suppressions that no longer match anything are dropped.

    Returns ``(kept, added, dropped)`` entry counts.
    """
    path = Path(path)
    existing = Baseline.load(path).suppressions if path.exists() else []

    kept: List[Suppression] = []
    remaining = list(findings)
    for suppression in existing:
        matched = [f for f in remaining if suppression.matches(f)]
        if matched:
            kept.append(suppression)
            remaining = [f for f in remaining
                         if not suppression.matches(f)]
    dropped = len(existing) - len(kept)

    added: List[Suppression] = []
    seen = set()
    for finding in remaining:
        key = (finding.rule, finding.path, finding.line)
        if key not in seen:
            seen.add(key)
            added.append(Suppression(rule=finding.rule, path=finding.path,
                                     line=finding.line))

    lines = ["# Managed by `repro-t3 check --update-baseline`.",
             "# Entries grandfather pre-existing findings; every entry",
             "# needs a written reason. Delete entries as the underlying",
             "# issues are fixed.", ""]
    for suppression in kept + added:
        lines.append("[[suppress]]")
        lines.append(f'rule = "{suppression.rule}"')
        if suppression.path is not None:
            lines.append(f'path = "{suppression.path}"')
        if suppression.line is not None:
            lines.append(f"line = {suppression.line}")
        if suppression.reason:
            escaped = suppression.reason.replace("\\", "\\\\")
            escaped = escaped.replace('"', '\\"')
            lines.append(f'reason = "{escaped}"')
        else:
            lines.append(_REASON_STUB)
        lines.append("")
    path.write_text("\n".join(lines))
    return len(kept), len(added), dropped
