"""Study specifications: scenario-conditioned DVS design-space studies.

A :class:`StudySpec` names everything one policy study needs — the
scenario set, the candidate policy set with its (threshold, window)
grid, seeds, run shape, the objective, and the LOC assertion gates —
and expands into :class:`~repro.sweep.spec.Job` lists per scenario
through the same :class:`~repro.sweep.spec.SweepSpec` machinery every
figure uses.  The engine (:mod:`repro.studies.engine`) runs the jobs;
the policy map (:mod:`repro.studies.policymap`) reduces the outcomes.

Assertion gates
---------------
Each scenario gets a per-scenario LOC latency assertion derived from its
own traffic shape::

    time(forward[i+span]) - time(forward[i]) <= slack * span * bits / rate

i.e. forwarding ``span`` packets may take at most ``latency_slack``
times as long as the scenario's *quietest* phase offers them (capped at
the near-saturation ``high`` level's load).  A governor that
underclocks so hard the chip falls behind even that pace violates the
bound; MMPP burst noise is absorbed by tolerating a bounded fraction of
violating instances (``max_violation_fraction`` — a 95th-percentile-style
bound by default).
A zero-tolerance forwarding-counter sanity check rides along, in the
style of the paper's original trace checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.config import EXPERIMENT_SEED, TDVS_THRESHOLDS_MBPS, TDVS_WINDOWS_CYCLES
from repro.errors import ConfigError
from repro.scenarios.catalog import get_scenario, list_scenarios
from repro.scenarios.spec import Scenario
from repro.studies.objective import get_objective
from repro.sweep.spec import Job, SweepSpec
from repro.traffic.diurnal import LEVEL_LOADS_MBPS

#: DVS policies a study may explore (``none`` is always run as the
#: ungoverned baseline, whether or not it competes).
STUDY_POLICIES = ("none", "tdvs", "edvs", "combined")


@dataclass(frozen=True)
class StudyAssertion:
    """One LOC gate: a checker formula plus its tolerated failure share.

    ``max_violation_fraction`` is the share of formula instances allowed
    to violate before the gate fails (0.0 = the paper's strict checker
    semantics; 0.05 = a 95th-percentile-style bound).  A gate with zero
    checked instances fails: a configuration that never forwarded
    ``span`` packets proved nothing.
    """

    name: str
    formula: str
    max_violation_fraction: float = 0.0

    def holds(self, instances_checked: int, violations_total: int) -> bool:
        """Apply the tolerance to a checker's raw counts."""
        if instances_checked == 0:
            return False
        return violations_total / instances_checked <= self.max_violation_fraction


@dataclass
class StudySpec:
    """The axes and gates of one scenario-conditioned policy study.

    Attributes
    ----------
    scenarios:
        Catalog scenario names; empty (the default) means the whole
        catalog.
    policies:
        Candidate policies competing for the per-scenario optimum.
        ``none`` is always simulated as the baseline; include it here to
        also let it *win* (e.g. when asking whether DVS helps at all).
    thresholds_mbps / windows_cycles / idle_threshold:
        The per-policy DVS grid, with the same semantics as
        :class:`~repro.sweep.spec.SweepSpec`.
    benchmark / seeds / duration_cycles / span:
        Run shape shared by every job.
    objective:
        Name from :data:`~repro.studies.objective.OBJECTIVES`; winners
        optimize it *subject to* the assertion and loss gates.
    latency_slack:
        Multiplier on the quietest-phase pace in the derived latency
        bound (see module docstring).
    max_violation_fraction:
        Tolerated violating-instance share for the latency gate.
    loss_margin:
        A candidate's loss fraction may exceed the scenario's ungoverned
        baseline loss by at most this much (absolute).  DVS must not
        make loss materially worse than the chip already suffers.
    mem_gates:
        Also gate candidates on the ``mem_sram``/``mem_sdram``
        queue-pressure channels: every forwarded packet costs at least
        one access to each, so ``span`` consecutive requests on either
        controller must arrive within the same derived span-latency
        bound — a governor that starves the memory pipeline fails the
        gate even when packet forwarding limps along.  Off by default:
        the extra checks subscribe previously unobserved named-only
        channels and become part of every job's identity.
    """

    scenarios: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = ("tdvs", "edvs")
    thresholds_mbps: Tuple[float, ...] = TDVS_THRESHOLDS_MBPS
    windows_cycles: Tuple[int, ...] = TDVS_WINDOWS_CYCLES
    idle_threshold: float = 0.10
    benchmark: str = "ipfwdr"
    seeds: Tuple[int, ...] = (EXPERIMENT_SEED,)
    duration_cycles: int = 1_600_000
    span: int = 50
    objective: str = "min_energy"
    latency_slack: float = 2.0
    max_violation_fraction: float = 0.05
    loss_margin: float = 0.02
    mem_gates: bool = False
    base: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        get_objective(self.objective)
        if not self.policies:
            raise ConfigError("StudySpec.policies is empty")
        for policy in self.policies:
            if policy not in STUDY_POLICIES:
                raise ConfigError(
                    f"unknown study policy {policy!r}; known: {STUDY_POLICIES}"
                )
        if not self.seeds:
            raise ConfigError("StudySpec.seeds is empty")
        if self.span <= 0:
            raise ConfigError(f"span must be positive, got {self.span}")
        if self.duration_cycles <= 0:
            raise ConfigError(
                f"duration_cycles must be positive, got {self.duration_cycles}"
            )
        if self.latency_slack < 1.0:
            raise ConfigError(
                f"latency_slack must be >= 1, got {self.latency_slack:g}"
            )
        if not 0.0 <= self.max_violation_fraction < 1.0:
            raise ConfigError("max_violation_fraction must be in [0, 1)")
        if self.loss_margin < 0.0:
            raise ConfigError(f"loss_margin must be >= 0, got {self.loss_margin:g}")
        self.resolved_scenarios()

    # -- scenario resolution --------------------------------------------
    def resolved_scenarios(self) -> Tuple[str, ...]:
        """The concrete scenario list (the full catalog when empty).

        De-duplicated in request order — a repeated name would expand
        its whole per-scenario grid twice for one map row.
        """
        if not self.scenarios:
            return tuple(list_scenarios())
        names: List[str] = []
        for name in self.scenarios:
            get_scenario(name)  # raises TrafficError on unknown names
            if name not in names:
                names.append(name)
        return tuple(names)

    # -- assertion derivation -------------------------------------------
    def latency_bound_us(self, scenario: Scenario) -> float:
        """The derived span-latency bound for one scenario, in us.

        ``slack * span * mean_packet_bits / quietest_rate``: forwarding
        ``span`` packets may take at most ``latency_slack`` times as
        long as the scenario's quietest phase (capped at the ``high``
        level's load) takes to offer them.
        """
        rate_mbps = min(scenario.min_load_mbps, LEVEL_LOADS_MBPS["high"])
        pace_us = self.span * scenario.mean_packet_bytes * 8.0 / rate_mbps
        return self.latency_slack * pace_us

    def assertions_for(self, scenario: Scenario) -> List[StudyAssertion]:
        """The LOC gates applied to every job of one scenario."""
        bound = self.latency_bound_us(scenario)
        assertions = [
            StudyAssertion(
                name="span_latency",
                formula=(
                    f"time(forward[i+{self.span}]) - time(forward[i]) "
                    f"<= {bound:.6g}"
                ),
                max_violation_fraction=self.max_violation_fraction,
            ),
            StudyAssertion(
                name="forward_count",
                formula=(
                    "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"
                ),
                max_violation_fraction=0.0,
            ),
        ]
        if self.mem_gates:
            # Queue-pressure gates over the named-only memory channels.
            # Every forwarded packet costs >= 1 access to each
            # controller, so ``span`` consecutive requests are offered
            # at least as fast as ``span`` packets — the span-latency
            # bound applies a fortiori, with the same slack/tolerance.
            for channel in ("mem_sram", "mem_sdram"):
                assertions.append(
                    StudyAssertion(
                        name=f"{channel}_pace",
                        formula=(
                            f"time({channel}[i+{self.span}]) - "
                            f"time({channel}[i]) <= {bound:.6g}"
                        ),
                        max_violation_fraction=self.max_violation_fraction,
                    )
                )
        return assertions

    # -- job expansion ---------------------------------------------------
    def competing_policies(self) -> Tuple[str, ...]:
        """The requested policy set, de-duplicated, in request order."""
        seen: List[str] = []
        for policy in self.policies:
            if policy not in seen:
                seen.append(policy)
        return tuple(seen)

    def sweep_spec_for(self, scenario_name: str) -> SweepSpec:
        """The one-scenario :class:`SweepSpec` behind this study.

        The ungoverned baseline (policy ``none``) is always included —
        the gates and the savings columns are defined relative to it.
        """
        scenario = get_scenario(scenario_name)
        policies = self.competing_policies()
        if "none" not in policies:
            policies = ("none",) + policies
        return SweepSpec(
            benchmarks=(self.benchmark,),
            policies=policies,
            thresholds_mbps=self.thresholds_mbps,
            windows_cycles=self.windows_cycles,
            idle_threshold=self.idle_threshold,
            traffic=(f"scenario:{scenario_name}",),
            seeds=self.seeds,
            duration_cycles=self.duration_cycles,
            span=self.span,
            checks=tuple(a.formula for a in self.assertions_for(scenario)),
            base=dict(self.base),
        )

    def jobs_by_scenario(self) -> "List[Tuple[str, List[Job]]]":
        """``(scenario_name, jobs)`` pairs for every resolved scenario."""
        self.validate()
        return [
            (name, self.sweep_spec_for(name).jobs())
            for name in self.resolved_scenarios()
        ]

    def job_count(self) -> int:
        """Total jobs the study will run (cache hits included)."""
        return sum(len(jobs) for _, jobs in self.jobs_by_scenario())
