"""Streaming anomaly gates: abort a doomed job the moment it is doomed.

A sweep job normally burns its full cycle budget even when its LOC
assertion was already lost a thousand packets in.  Gates ride the run's
:class:`~repro.trace.bus.TraceBus` (using the sampled-subscription
machinery, so polling cadence is a knob, not a hot-loop cost) and pull
the simulator's stop cord via an :class:`AbortSignal` as soon as the
job's fate is sealed:

* :class:`CheckUnsatGate` — watches an attached LOC check monitor.
  Equality checks (``==``, zero-tolerance counting invariants) become
  unsatisfiable at their *first* violation; bounded checks trip once
  the violation fraction exceeds the tolerance persistently (two
  consecutive polls over at least ``min_instances`` instances).
* :class:`RollingQuantileGate` — compiles the latency check's
  left-hand side into a per-instance value tap and trips when the
  rolling quantile of the last ``window`` values exceeds the formula's
  bound (times ``factor``).
* :class:`LossRateGate` — counts offered packets on the named-only
  ``arrival`` channel against forwarded packets on ``forward`` and
  trips when the rolling loss fraction exceeds the threshold.

Everything here is **opt-in** via
:attr:`repro.api.policy.ExecutionPolicy.early_abort`; with the policy
unset no gate ever subscribes.  A gated run whose gates never trip has
the same ``RunTotals`` as the ungated run, byte for byte: reading the
annotations changes no result (see :mod:`repro.power.model`), so the
gates' subscriptions, ``arrival`` included, are invisible to the
simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.loc.ast_nodes import CheckerFormula
from repro.loc.codegen import compile_value_tap


class AbortSignal:
    """The stop cord one run's gates share.

    The first :meth:`trip` wins: it records the reason, stops the
    simulator (future events are discarded and ``now_ps`` freezes at
    the trip instant, so partial totals cover exactly the simulated
    prefix) and latches — later trips are no-ops.
    """

    def __init__(self, sim):
        self._sim = sim
        self.tripped = False
        self.reason = ""

    def trip(self, reason: str) -> None:
        if self.tripped:
            return
        self.tripped = True
        self.reason = reason
        self._sim.stop()


@dataclass(frozen=True)
class EarlyAbortPolicy:
    """What may abort a job early, and how eagerly.

    Attributes
    ----------
    check_unsat:
        Gate every attached LOC check: equality checks abort on their
        first violation, bounded checks when the violation fraction
        exceeds ``check_tolerance`` on two consecutive polls.
    check_tolerance:
        Allowed violation fraction for bounded (non-``==``) checks.
    check_interval:
        Events between unsatisfiability polls (the gate subscribes at
        1/``check_interval`` via the bus's deterministic stride).
    min_instances:
        Checked-instance floor before any fraction-based verdict.
    latency_quantile:
        Rolling-quantile latency gate: quantile in (0, 1], or 0 to
        disable.  Applies to the first bounded single-event check.
    latency_window / latency_factor:
        Rolling window length (instances) and bound multiplier for the
        quantile gate.
    loss_threshold:
        Rolling loss-fraction threshold in (0, 1], or 0 to disable.
    loss_window / loss_interval:
        Arrivals per rolling-loss window and arrivals between polls.
    """

    check_unsat: bool = True
    check_tolerance: float = 0.05
    check_interval: int = 1024
    min_instances: int = 64
    latency_quantile: float = 0.0
    latency_window: int = 256
    latency_factor: float = 1.0
    loss_threshold: float = 0.0
    loss_window: int = 2048
    loss_interval: int = 256

    def __post_init__(self) -> None:
        if not (0.0 <= self.check_tolerance < 1.0):
            raise ExperimentError(
                f"check_tolerance must be in [0, 1), got {self.check_tolerance}"
            )
        for name in ("check_interval", "min_instances", "latency_window",
                     "loss_window", "loss_interval"):
            if getattr(self, name) < 1:
                raise ExperimentError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not (0.0 <= self.latency_quantile <= 1.0):
            raise ExperimentError(
                f"latency_quantile must be in [0, 1], got "
                f"{self.latency_quantile}"
            )
        if self.latency_factor <= 0:
            raise ExperimentError(
                f"latency_factor must be positive, got {self.latency_factor}"
            )
        if not (0.0 <= self.loss_threshold <= 1.0):
            raise ExperimentError(
                f"loss_threshold must be in [0, 1], got {self.loss_threshold}"
            )

    def enabled(self) -> bool:
        """True when at least one gate would attach."""
        return bool(
            self.check_unsat
            or self.latency_quantile > 0
            or self.loss_threshold > 0
        )

    def with_(self, **overrides) -> "EarlyAbortPolicy":
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe form (participates in job identity hashes)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EarlyAbortPolicy":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ExperimentError(
                f"malformed early-abort policy: {exc}"
            ) from None


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------
class CheckUnsatGate:
    """Aborts when an attached LOC check can no longer pass.

    Wraps one *compiled* check monitor already attached to the bus and
    polls its accumulated verdict every ``check_interval`` events via a
    sampled subscription on the same event name — subscription order
    guarantees the monitor consumed the event before the poll sees it.
    """

    def __init__(self, monitor, policy: EarlyAbortPolicy):
        event = getattr(monitor, "event", None)
        if event is None:
            raise ExperimentError(
                "CheckUnsatGate needs a compiled monitor (single-event "
                "formula); interpreted monitors expose no event name"
            )
        self.monitor = monitor
        self.event = event
        self.policy = policy
        formula = monitor.formula
        self.zero_tolerance = (
            isinstance(formula, CheckerFormula) and formula.op == "=="
        ) or policy.check_tolerance == 0.0
        self._was_over = False

    def attach(self, bus, signal: AbortSignal) -> None:
        self._signal = signal
        bus.subscribe(self.event, self._poll, sample=self.policy.check_interval)

    def _poll(self, row) -> None:
        result = self.monitor.poll()
        if self.zero_tolerance:
            if result.violations_total > 0:
                self._signal.trip(
                    f"check unsatisfiable: {result.formula_text!r} violated "
                    f"{result.violations_total}x (zero tolerance)"
                )
            return
        checked = result.instances_checked
        if checked < self.policy.min_instances:
            return
        fraction = result.violations_total / checked
        over = fraction > self.policy.check_tolerance
        if over and self._was_over:
            self._signal.trip(
                f"check past tolerance: {result.formula_text!r} violation "
                f"fraction {fraction:.4f} > {self.policy.check_tolerance:g} "
                f"over {checked} instances"
            )
        self._was_over = over


class RollingQuantileGate:
    """Aborts when a rolling latency quantile exceeds the check's bound.

    The bounded check's left-hand side (e.g. the span-latency
    expression) is compiled into a per-instance value tap
    (:func:`repro.loc.codegen.compile_value_tap`); the gate keeps the
    last ``window`` values and, once per window refill, compares the
    configured quantile against ``factor x bound``.
    """

    def __init__(self, formula: CheckerFormula, policy: EarlyAbortPolicy):
        if not isinstance(formula, CheckerFormula) or formula.op not in ("<=", "<"):
            raise ExperimentError(
                "RollingQuantileGate needs an upper-bound check formula "
                f"(<= / <), got {formula.unparse()!r}"
            )
        self.formula = formula
        self.policy = policy
        self.event, self._feed = compile_value_tap(formula, self._on_value)
        self._values: deque = deque(maxlen=policy.latency_window)
        self._since_poll = 0
        try:
            self.bound = float(formula.rhs.value)  # type: ignore[attr-defined]
        except AttributeError:
            raise ExperimentError(
                "RollingQuantileGate needs a constant right-hand side in "
                f"{formula.unparse()!r}"
            ) from None

    def attach(self, bus, signal: AbortSignal) -> None:
        self._signal = signal
        bus.subscribe(self.event, self._feed)

    def _on_value(self, value: float) -> None:
        self._values.append(value)
        self._since_poll += 1
        window = self.policy.latency_window
        if len(self._values) < window or self._since_poll < window:
            return
        self._since_poll = 0
        ordered = sorted(self._values)
        rank = min(
            len(ordered) - 1,
            max(0, int(self.policy.latency_quantile * len(ordered)) - 1),
        )
        quantile_value = ordered[rank]
        limit = self.policy.latency_factor * self.bound
        if quantile_value > limit:
            self._signal.trip(
                f"latency anomaly: rolling p{self.policy.latency_quantile:g} "
                f"of {self.formula.unparse()!r} lhs = {quantile_value:.6g} "
                f"> {limit:.6g} over last {window} instances"
            )


class LossRateGate:
    """Aborts when the rolling packet-loss fraction exceeds a threshold.

    Counts offered packets on the chip's named-only ``arrival`` channel
    and forwarded packets on ``forward``; every ``loss_interval``
    arrivals it closes a checkpoint and evaluates the loss fraction
    over the trailing ``loss_window`` arrivals.  Forward events lag
    arrivals by the pipeline depth, so thresholds should leave margin
    over the in-flight population (the defaults do).
    """

    #: The chip-side channel carrying one event per offered packet.
    ARRIVAL_EVENT = "arrival"
    FORWARD_EVENT = "forward"

    def __init__(self, policy: EarlyAbortPolicy):
        self.policy = policy
        self._arrivals = 0
        self._forwards = 0
        # Checkpoints of (arrivals, forwards) totals, one per interval.
        depth = max(1, policy.loss_window // policy.loss_interval)
        self._checkpoints: deque = deque(maxlen=depth + 1)
        self._checkpoints.append((0, 0))

    def attach(self, bus, signal: AbortSignal) -> None:
        self._signal = signal
        bus.subscribe(self.FORWARD_EVENT, self._on_forward)
        bus.subscribe(
            self.ARRIVAL_EVENT, self._on_arrival, sample=self.policy.loss_interval
        )

    def _on_forward(self, row) -> None:
        self._forwards += 1

    def _on_arrival(self, row) -> None:
        # Sampled at 1/loss_interval: each call closes one checkpoint.
        self._arrivals += self.policy.loss_interval
        self._checkpoints.append((self._arrivals, self._forwards))
        base_arrivals, base_forwards = self._checkpoints[0]
        arrived = self._arrivals - base_arrivals
        if arrived < self.policy.loss_window:
            return
        forwarded = self._forwards - base_forwards
        loss = 1.0 - min(1.0, forwarded / arrived)
        if loss > self.policy.loss_threshold:
            self._signal.trip(
                f"loss anomaly: rolling loss {loss:.4f} > "
                f"{self.policy.loss_threshold:g} over last {arrived} arrivals"
            )


def build_gates(
    policy: EarlyAbortPolicy,
    check_monitors: Sequence = (),
) -> List:
    """The gate set one job's policy asks for.

    ``check_monitors`` are the job's already-built LOC check monitors
    (compiled or interpreted); unsatisfiability gates wrap the compiled
    ones, and the first bounded compiled check also feeds the rolling
    quantile gate when enabled.  Returns gates ready for
    ``gate.attach(bus, signal)``.
    """
    gates: List = []
    if policy.check_unsat:
        for monitor in check_monitors:
            if getattr(monitor, "event", None) is not None:
                gates.append(CheckUnsatGate(monitor, policy))
    if policy.latency_quantile > 0:
        for monitor in check_monitors:
            formula = getattr(monitor, "formula", None)
            if (
                getattr(monitor, "event", None) is not None
                and isinstance(formula, CheckerFormula)
                and formula.op in ("<=", "<")
            ):
                gates.append(RollingQuantileGate(formula, policy))
                break
    if policy.loss_threshold > 0:
        gates.append(LossRateGate(policy))
    return gates
