"""LOC monitors: every formula checked by its generated code.

The paper distinguishes *simulation-time* (online) checking from
offline trace-file analysis — checker overhead bounds how much design
space a study can explore.  Both run the one engine of
:mod:`repro.loc.codegen`: :func:`build_monitor` compiles a formula into
a :class:`Monitor`, one feed closure per event name the formula reads,
and the monitor accumulates exactly the result objects the rest of the
stack consumes (:class:`~repro.loc.checker.CheckResult` /
:class:`~repro.loc.analyzer.DistributionResult`).

* **Online**, :meth:`Monitor.attach` subscribes each feed to its event
  name on a run's :class:`~repro.trace.bus.TraceBus`: the bus hands it
  the bare annotation row, named-only channels (``mem_*``) included.
* **Offline**, :meth:`Monitor.feed_event` drives it from structured
  events; :func:`~repro.loc.checker.check_trace` and
  :func:`~repro.loc.analyzer.analyze_trace` go through
  :func:`run_monitor`.

``tests/loc_oracle.py`` keeps an independent interpretive evaluator;
``tests/test_monitors.py`` proves the generated code equal to it.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union

from repro.errors import LocError
from repro.loc.analyzer import DistributionResult, build_edges
from repro.loc.ast_nodes import CheckerFormula, DistributionFormula, Formula
from repro.loc.checker import CheckResult, Violation
from repro.loc.codegen import compile_monitor_feed
from repro.loc.parser import parse_formula
from repro.trace.events import TraceEvent


class Monitor:
    """A formula compiled to one feed closure per event name it reads.

    It has no ``emit``: a monitor is never a wildcard sink, which would
    miss the bus's named-only channels.
    """

    def __init__(self, formula: Formula, max_recorded_violations: int = 100):
        self.formula = formula
        self._feeds, self._collect = compile_monitor_feed(
            formula, max_recorded_violations=max_recorded_violations
        )

    # -- wiring ----------------------------------------------------------
    def attach(self, bus) -> None:
        """Subscribe each feed to its event name."""
        for name, feed in self._feeds.items():
            bus.subscribe(name, feed)

    def feed_event(self, event: TraceEvent) -> None:
        """Offline driving: consume one structured trace event."""
        feed = self._feeds.get(event.name)
        if feed is not None:
            feed(event.as_tuple()[1:])

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
        return f"<Monitor {self.formula.unparse()!r} on {sorted(self._feeds)}>"


def build_monitor(
    formula: Union[str, Formula],
    max_recorded_violations: int = 100,
    expect: Optional[str] = None,
) -> Monitor:
    """Build a monitor for ``formula``.

    ``expect`` (``"checker"`` / ``"distribution"``) asserts the formula
    kind.  Raises :class:`~repro.errors.LocError` for a formula of the
    other kind, and for one that reads no event at an ``i``-relative
    index (see :mod:`repro.loc.codegen`).
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    if expect == "checker" and not isinstance(parsed, CheckerFormula):
        raise LocError(
            "expected a checker formula (relational operator); got a "
            "distribution formula"
        )
    if expect == "distribution" and not isinstance(parsed, DistributionFormula):
        raise LocError(
            "expected a distribution formula (in/below/above <...>); "
            "got a checker formula"
        )
    return Monitor(parsed, max_recorded_violations=max_recorded_violations)


def run_monitor(
    monitor: Monitor, events: Iterable[TraceEvent]
) -> Union[CheckResult, DistributionResult]:
    """Drive a monitor over an event iterable (offline analysis)."""
    feed = monitor.feed_event
    for event in events:
        feed(event)
    return monitor.finish()
