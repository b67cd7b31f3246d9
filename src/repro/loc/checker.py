"""Assertion checkers: report every violating instance of a formula.

This mirrors the paper's original (pre-distribution) use of LOC: a
checker formula such as ``cycle(deq[i]) - cycle(enq[i]) <= 50`` is turned
into a streaming monitor (:func:`repro.loc.monitor.build_monitor`) that
evaluates every instance and records the ones where the relation fails,
in a :class:`CheckResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Union

from repro.errors import LocError
from repro.loc.ast_nodes import CheckerFormula
from repro.trace.events import TraceEvent


@dataclass
class Violation:
    """One failing formula instance."""

    instance: int
    lhs: float
    rhs: float

    def describe(self, op: str) -> str:
        """Human-readable one-liner for reports."""
        return f"instance {self.instance}: {self.lhs:g} {op} {self.rhs:g} is false"


@dataclass
class CheckResult:
    """Outcome of checking a formula over a trace.

    Beyond the pass/fail verdict, the checker accumulates summary
    statistics of the observed left-hand-side values (sum/min/max over
    all defined instances), so a latency-style assertion doubles as a
    measurement of the quantity it bounds — the study engine uses this
    to report observed span latency next to the bound it was gated on.
    """

    formula_text: str
    op: str
    instances_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    violations_total: int = 0
    undefined_instances: int = 0
    lhs_sum: float = 0.0
    lhs_min: float = math.inf
    lhs_max: float = -math.inf

    @property
    def passed(self) -> bool:
        """True when no instance violated the assertion."""
        return self.violations_total == 0

    @property
    def violation_fraction(self) -> float:
        """Violating instances over checked instances (0.0 when empty)."""
        if self.instances_checked == 0:
            return 0.0
        return self.violations_total / self.instances_checked

    @property
    def mean_lhs(self) -> float:
        """Mean observed left-hand-side value (NaN when nothing checked)."""
        if self.instances_checked == 0:
            return math.nan
        return self.lhs_sum / self.instances_checked

    # -- dict round-trip ------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (non-finite lhs bounds become ``None``)."""
        return {
            "formula_text": self.formula_text,
            "op": self.op,
            "instances_checked": self.instances_checked,
            "violations": [
                {"instance": v.instance, "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
            "violations_total": self.violations_total,
            "undefined_instances": self.undefined_instances,
            "lhs_sum": self.lhs_sum,
            "lhs_min": self.lhs_min if math.isfinite(self.lhs_min) else None,
            "lhs_max": self.lhs_max if math.isfinite(self.lhs_max) else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        """Rebuild from :meth:`to_dict` output."""
        try:
            lhs_min = data.get("lhs_min")
            lhs_max = data.get("lhs_max")
            return cls(
                formula_text=data["formula_text"],
                op=data["op"],
                instances_checked=data["instances_checked"],
                violations=[Violation(**v) for v in data.get("violations", [])],
                violations_total=data["violations_total"],
                undefined_instances=data.get("undefined_instances", 0),
                lhs_sum=data.get("lhs_sum", 0.0),
                lhs_min=math.inf if lhs_min is None else lhs_min,
                lhs_max=-math.inf if lhs_max is None else lhs_max,
            )
        except (KeyError, TypeError) as exc:
            raise LocError(f"malformed check record: {exc!r}") from None

    def report(self) -> str:
        """Multi-line textual report, paper-checker style."""
        lines = [
            f"LOC check: {self.formula_text}",
            f"  instances checked : {self.instances_checked}",
            f"  violations        : {self.violations_total}",
        ]
        if self.undefined_instances:
            lines.append(f"  undefined (div/0) : {self.undefined_instances}")
        for violation in self.violations:
            lines.append("  " + violation.describe(self.op))
        if self.violations_total > len(self.violations):
            hidden = self.violations_total - len(self.violations)
            lines.append(f"  ... {hidden} further violations not shown")
        lines.append("  RESULT: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def check_trace(
    formula: Union[str, CheckerFormula],
    events: Iterable[TraceEvent],
    max_recorded_violations: int = 100,
) -> CheckResult:
    """Check ``formula`` over an event iterable and return the result.

    Runs the formula's generated monitor
    (:func:`repro.loc.monitor.build_monitor`), the same code that checks
    a live run.
    """
    from repro.loc.monitor import build_monitor, run_monitor

    monitor = build_monitor(
        formula,
        max_recorded_violations=max_recorded_violations,
        expect="checker",
    )
    return run_monitor(monitor, events)
