"""The online LOC monitor API: simulation-time checking on the trace bus.

The paper distinguishes *simulation-time* (online) checking from
offline trace-file analysis — checker overhead bounds how much design
space a study can explore.  This module is the online side's single
entry point: :func:`build_monitor` turns a LOC formula into a monitor
that subscribes straight to a run's
:class:`~repro.trace.bus.TraceBus` and accumulates exactly the result
objects the rest of the stack consumes
(:class:`~repro.loc.checker.CheckResult` /
:class:`~repro.loc.analyzer.DistributionResult`).

Two implementations stand behind the same interface:

* **compiled** (:class:`CompiledMonitor`) — the default.  The formula
  is compiled by :func:`repro.loc.codegen.compile_monitor_feed` into a
  closure that rides the bus's tuple-payload fast path: ring-buffered
  index-offset windows, straight-line arithmetic, no event objects.
  Available for single-event formulas with relative indices — which is
  every built-in formula and every study gate.
* **interpreted** (:class:`InterpretedMonitor`) — the proven fallback.
  Wraps the legacy streaming sinks (:class:`~repro.loc.checker.Checker`
  / :class:`~repro.loc.analyzer.DistributionAnalyzer`, both driven by
  the interpretive :class:`~repro.loc.evaluator.StreamingEvaluator`)
  as a wildcard structured sink.  Formulas outside the compiled
  specialization land here automatically; ``REPRO_LOC_MONITOR=interpreted``
  forces it everywhere (the escape hatch, and the differential-test
  baseline).

The two are proven result-identical by the differential wall in
``tests/test_monitors.py``.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Optional, Union

from repro.errors import ExperimentError, LocError
from repro.loc.analyzer import DistributionAnalyzer, DistributionResult, build_edges
from repro.loc.ast_nodes import CheckerFormula, DistributionFormula, Formula
from repro.loc.checker import Checker, CheckResult, Violation
from repro.loc.codegen import compile_monitor_feed, monitor_event
from repro.loc.parser import parse_formula
from repro.trace.events import TraceEvent

#: Environment override for the default monitor mode (``compiled`` /
#: ``interpreted``).  Worker processes inherit it, so a whole
#: distributed sweep can be flipped to the interpretive baseline
#: without touching call sites.
MONITOR_MODE_ENV_VAR = "REPRO_LOC_MONITOR"

_MODES = ("compiled", "interpreted")


def resolve_monitor_mode(mode: Optional[str] = None) -> str:
    """The effective monitor mode: explicit > environment > compiled."""
    value = mode if mode is not None else os.environ.get(MONITOR_MODE_ENV_VAR, "")
    value = value.strip().lower() or "compiled"
    if value not in _MODES:
        raise ExperimentError(
            f"monitor mode must be one of {_MODES}, got {value!r} "
            f"(check {MONITOR_MODE_ENV_VAR})"
        )
    return value


class CompiledMonitor:
    """A formula compiled to a bus-native feed closure.

    Attributes
    ----------
    formula / event:
        The parsed formula and the single event name it watches.
    compiled:
        Always ``True`` (the interpreted twin reports ``False``).
    """

    compiled = True

    def __init__(self, formula: Formula, max_recorded_violations: int = 100):
        event = monitor_event(formula)
        if event is None:
            raise LocError(
                f"formula {formula.unparse()!r} cannot be compiled to an "
                "online monitor"
            )
        self.formula = formula
        self.event = event
        self.max_recorded_violations = max_recorded_violations
        self._feed, self._collect = compile_monitor_feed(
            formula, max_recorded_violations=max_recorded_violations
        )

    # -- wiring ----------------------------------------------------------
    def attach(self, bus) -> None:
        """Subscribe the compiled feed to the formula's event name."""
        bus.subscribe(self.event, self._feed)

    def feed_event(self, event: TraceEvent) -> None:
        """Offline driving: consume one structured trace event."""
        if event.name == self.event:
            self._feed(event.as_tuple()[1:])

    # -- results ---------------------------------------------------------
    def finish(self) -> Union[CheckResult, DistributionResult]:
        """Snapshot the accumulated result (the stream may keep going)."""
        if isinstance(self.formula, CheckerFormula):
            (checked, violations_total, undefined,
             lhs_sum, lhs_min, lhs_max, violations) = self._collect()
            return CheckResult(
                formula_text=self.formula.unparse(),
                op=self.formula.op,
                instances_checked=checked,
                violations=[Violation(*v) for v in violations],
                violations_total=violations_total,
                undefined_instances=undefined,
                lhs_sum=lhs_sum,
                lhs_min=lhs_min,
                lhs_max=lhs_max,
            )
        total, undefined, value_sum, value_min, value_max, counts = (
            self._collect()
        )
        return DistributionResult(
            formula_text=self.formula.unparse(),
            mode=self.formula.mode,
            edges=build_edges(
                self.formula.low, self.formula.high, self.formula.step
            ),
            counts=counts,
            total=total,
            undefined=undefined,
            value_min=value_min if total else math.nan,
            value_max=value_max if total else math.nan,
            value_sum=value_sum,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompiledMonitor {self.formula.unparse()!r} on {self.event!r}>"


class InterpretedMonitor:
    """The interpretive fallback, behind the same monitor interface.

    Wraps a legacy streaming sink and attaches it as a wildcard
    structured sink — i.e. exactly the pre-bus checking path, kept as
    the equivalence baseline.
    """

    compiled = False

    def __init__(self, formula: Formula, max_recorded_violations: int = 100):
        self.formula = formula
        self.max_recorded_violations = max_recorded_violations
        if isinstance(formula, CheckerFormula):
            self._sink = Checker(
                formula, max_recorded_violations=max_recorded_violations
            )
        else:
            self._sink = DistributionAnalyzer(formula)

    def attach(self, bus) -> None:
        """Attach the interpretive sink as a wildcard subscriber."""
        bus.attach_sink(self._sink)

    def feed_event(self, event: TraceEvent) -> None:
        """Offline driving: consume one structured trace event."""
        self._sink.emit(event)

    def finish(self) -> Union[CheckResult, DistributionResult]:
        """Snapshot the accumulated result (the stream may keep going)."""
        return self._sink.finish()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InterpretedMonitor {self.formula.unparse()!r}>"


Monitor = Union[CompiledMonitor, InterpretedMonitor]


def build_monitor(
    formula: Union[str, Formula],
    mode: Optional[str] = None,
    max_recorded_violations: int = 100,
    expect: Optional[str] = None,
) -> Monitor:
    """Build an online monitor for ``formula``.

    ``mode`` is ``"compiled"`` / ``"interpreted"`` / ``None`` (defer to
    ``REPRO_LOC_MONITOR``, default compiled).  Compiled mode silently
    falls back to the interpretive monitor for formulas outside the
    compiler's specialization, so the choice never changes results —
    only speed.

    ``expect`` (``"checker"`` / ``"distribution"``) asserts the formula
    kind, mirroring :func:`repro.loc.checker.build_checker`'s guard.
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    if expect == "checker" and not isinstance(parsed, CheckerFormula):
        raise LocError(
            "expected a checker formula (relational operator); got a "
            "distribution formula — use DistributionAnalyzer for those"
        )
    if expect == "distribution" and not isinstance(parsed, DistributionFormula):
        raise LocError(
            "expected a distribution formula (in/below/above <...>); "
            "got a checker formula — use build_checker for those"
        )
    if resolve_monitor_mode(mode) == "compiled" and monitor_event(parsed):
        return CompiledMonitor(
            parsed, max_recorded_violations=max_recorded_violations
        )
    return InterpretedMonitor(
        parsed, max_recorded_violations=max_recorded_violations
    )


def run_monitor(
    monitor: Monitor, events: Iterable[TraceEvent]
) -> Union[CheckResult, DistributionResult]:
    """Drive a monitor over an event iterable (offline analysis)."""
    feed = monitor.feed_event
    for event in events:
        feed(event)
    return monitor.finish()
