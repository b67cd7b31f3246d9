"""The study result model: per-scenario winners and Pareto fronts.

A :class:`PolicyMap` is the reduction of a study's sweep outcomes into
the paper-style answer: for every scenario, which (policy, threshold,
window) configuration is optimal under the study objective *given that
its LOC assertions hold*, what the ungoverned baseline costs, and what
the full energy / drop-rate / latency trade surface looks like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.studies.objective import Objective, get_objective, select_design_point
from repro.studies.pareto import pareto_front
from repro.studies.spec import StudyAssertion, StudySpec
from repro.sweep.store import SweepOutcome


@dataclass
class CandidateSummary:
    """One study configuration, reduced to the numbers the map needs.

    ``metrics`` holds the objective-addressable scalars (``power_w``,
    ``throughput_mbps``, ``loss_fraction``, ``latency_mean_us``);
    ``gates`` maps each gate name (the assertion names plus
    ``loss_margin``) to whether it held; ``passed`` is their
    conjunction.
    """

    scenario: str
    policy: str
    threshold_mbps: Optional[float]
    window_cycles: Optional[int]
    seed: int
    job_id: str
    label: str
    metrics: Dict[str, float]
    gates: Dict[str, bool]
    passed: bool
    #: Violating-instance share of the span-latency gate (NaN when the
    #: gate never fired), kept for reports.
    latency_violation_fraction: float = 0.0
    cached: bool = False

    @property
    def power_w(self) -> float:
        """Mean chip power (W)."""
        return self.metrics["power_w"]

    @property
    def loss_fraction(self) -> float:
        """Packet-loss fraction."""
        return self.metrics["loss_fraction"]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form."""
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "threshold_mbps": self.threshold_mbps,
            "window_cycles": self.window_cycles,
            "seed": self.seed,
            "job_id": self.job_id,
            "label": self.label,
            "metrics": {
                key: (None if math.isnan(value) else value)
                for key, value in self.metrics.items()
            },
            "gates": dict(self.gates),
            "passed": self.passed,
            "latency_violation_fraction": (
                None
                if math.isnan(self.latency_violation_fraction)
                else self.latency_violation_fraction
            ),
            "cached": self.cached,
        }


def summarize_candidate(
    spec: StudySpec,
    scenario: str,
    assertions: Sequence[StudyAssertion],
    outcome: SweepOutcome,
    baseline_loss: float,
) -> CandidateSummary:
    """Reduce one sweep outcome to a :class:`CandidateSummary`.

    Gate evaluation: every LOC assertion must hold under its tolerance,
    and the loss fraction may exceed the ungoverned baseline's by at
    most ``spec.loss_margin``.
    """
    if len(outcome.check_results) != len(assertions):
        raise AnalysisError(
            f"outcome {outcome.label or outcome.job_id!r} carries "
            f"{len(outcome.check_results)} check results for "
            f"{len(assertions)} study assertions — was it run outside "
            "the study spec?"
        )
    config = outcome.result.config
    dvs = config.dvs
    totals = outcome.result.totals

    gates: Dict[str, bool] = {}
    latency_mean_us = math.nan
    latency_violation_fraction = math.nan
    for assertion, check in zip(assertions, outcome.check_results):
        gates[assertion.name] = assertion.holds(
            check.instances_checked, check.violations_total
        )
        if assertion.name == "span_latency":
            latency_mean_us = check.mean_lhs
            latency_violation_fraction = (
                check.violation_fraction if check.instances_checked else math.nan
            )
    loss = totals.loss_fraction
    gates["loss_margin"] = loss <= baseline_loss + spec.loss_margin

    return CandidateSummary(
        scenario=scenario,
        policy=dvs.policy,
        threshold_mbps=(
            dvs.top_threshold_mbps if dvs.policy in ("tdvs", "combined") else None
        ),
        window_cycles=dvs.window_cycles if dvs.policy != "none" else None,
        seed=config.seed,
        job_id=outcome.job_id,
        label=outcome.label,
        metrics={
            "power_w": outcome.mean_power_w,
            "throughput_mbps": outcome.throughput_mbps,
            "loss_fraction": loss,
            "latency_mean_us": latency_mean_us,
        },
        gates=gates,
        passed=all(gates.values()),
        latency_violation_fraction=latency_violation_fraction,
        cached=outcome.cached,
    )


#: The Pareto axes — energy vs. drop rate vs. latency, all minimized.
#: Throughput is deliberately not an axis: at fixed offered load it is
#: the complement of loss, so it would only duplicate the loss axis.
PARETO_AXES = ("power_w", "loss_fraction", "latency_mean_us")


@dataclass
class ScenarioVerdict:
    """The study's answer for one scenario."""

    scenario: str
    #: The ungoverned (policy ``none``) reference run.
    baseline: CandidateSummary
    #: Objective-best among gate-passing competitors, or ``None`` when
    #: no competitor passed every gate.
    winner: Optional[CandidateSummary]
    #: Objective-best ignoring the gates — reported (flagged) when there
    #: is no gated winner, so the map never has silent holes.
    fallback: Optional[CandidateSummary]
    #: Non-dominated competitors over :data:`PARETO_AXES`.
    pareto: List[CandidateSummary]
    candidates: List[CandidateSummary] = field(default_factory=list)

    @property
    def candidates_passing(self) -> int:
        """How many competitors passed every gate."""
        return sum(1 for c in self.candidates if c.passed)

    @property
    def power_saving_fraction(self) -> Optional[float]:
        """Winner's power saving relative to the baseline (0..1)."""
        if self.winner is None or self.baseline.power_w <= 0:
            return None
        return 1.0 - self.winner.power_w / self.baseline.power_w

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form."""
        return {
            "scenario": self.scenario,
            "baseline": self.baseline.to_dict(),
            "winner": self.winner.to_dict() if self.winner else None,
            "fallback": self.fallback.to_dict() if self.fallback else None,
            "pareto": [c.to_dict() for c in self.pareto],
            "candidates": [c.to_dict() for c in self.candidates],
            "candidates_passing": self.candidates_passing,
            "power_saving_fraction": self.power_saving_fraction,
        }


@dataclass
class PolicyMap:
    """Per-scenario optimal-policy map: the study's product."""

    objective: str
    entries: "Dict[str, ScenarioVerdict]"

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (scenario order preserved)."""
        return {
            "objective": self.objective,
            "scenarios": [verdict.to_dict() for verdict in self],
        }

    @classmethod
    def build(
        cls,
        spec: StudySpec,
        outcomes_by_scenario: Sequence[Tuple[str, Sequence[SweepOutcome]]],
    ) -> "PolicyMap":
        """Reduce per-scenario sweep outcomes into the map.

        The competitor pool is the requested policy set; the ``none``
        baseline competes only when the spec asked for it explicitly.
        Ties on the objective keep the earliest candidate in job order,
        so serial and parallel studies reduce identically.  With
        multiple seeds, the first baseline run (first seed, job order)
        is the loss-margin reference for every candidate.
        """
        objective = get_objective(spec.objective)
        entries: Dict[str, ScenarioVerdict] = {}
        for scenario_name, outcomes in outcomes_by_scenario:
            scenario = _scenario(scenario_name)
            assertions = spec.assertions_for(scenario)
            baseline_outcome = _baseline_of(scenario_name, outcomes)
            baseline_loss = baseline_outcome.result.totals.loss_fraction
            summaries = [
                summarize_candidate(spec, scenario_name, assertions, o, baseline_loss)
                for o in outcomes
            ]
            baseline = next(s for s in summaries if s.policy == "none")
            pool = [
                s
                for s in summaries
                if s.policy != "none" or "none" in spec.competing_policies()
            ]
            entries[scenario_name] = _verdict(
                scenario_name, objective, baseline, pool
            )
        return cls(objective=spec.objective, entries=entries)


def _scenario(name: str):
    from repro.scenarios.catalog import get_scenario

    return get_scenario(name)


def _baseline_of(
    scenario_name: str, outcomes: Sequence[SweepOutcome]
) -> SweepOutcome:
    for outcome in outcomes:
        if outcome.result.config.dvs.policy == "none":
            return outcome
    raise AnalysisError(
        f"scenario {scenario_name!r} has no ungoverned baseline outcome; "
        "study sweeps always include policy 'none'"
    )


def _verdict(
    scenario_name: str,
    objective: Objective,
    baseline: CandidateSummary,
    pool: List[CandidateSummary],
) -> ScenarioVerdict:
    if not pool:
        raise AnalysisError(f"scenario {scenario_name!r} has no study candidates")

    def metric(candidate: CandidateSummary) -> float:
        value = candidate.metrics[objective.metric]
        if math.isnan(value):
            # NaN metrics (e.g. latency with no instances) always lose.
            return math.inf if objective.direction == "min" else -math.inf
        return value

    passing = [c for c in pool if c.passed]
    winner = fallback = None
    if passing:
        (winner, _) = select_design_point(
            [(c, metric(c)) for c in passing], objective.direction
        )
    else:
        (fallback, _) = select_design_point(
            [(c, metric(c)) for c in pool], objective.direction
        )

    points = []
    for candidate in pool:
        points.append(
            tuple(candidate.metrics[axis] for axis in PARETO_AXES)
        )
    front = [pool[i] for i in pareto_front(points)]
    return ScenarioVerdict(
        scenario=scenario_name,
        baseline=baseline,
        winner=winner,
        fallback=fallback,
        pareto=front,
        candidates=pool,
    )
