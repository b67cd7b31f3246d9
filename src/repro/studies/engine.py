"""The study result: one sweep, one reduction, one map.

A study expands a :class:`~repro.studies.spec.StudySpec` into jobs for
every scenario, executes them through a *single* streamed sweep (so
worker processes drain the whole study, not one scenario at a time),
and reduces the outcomes into a
:class:`~repro.studies.policymap.PolicyMap`.  Results are bit-identical
for any worker count — every job carries its own seed and the
reduction is deterministic in job order — and a
:class:`~repro.sweep.store.ResultStore` makes interrupted studies
resumable cell by cell.

The runner is :meth:`repro.api.Session.study`, which also streams
per-scenario verdicts as each scenario's grid drains
(``on_scenario_complete``); this module holds what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.studies.policymap import PolicyMap
from repro.studies.spec import StudySpec
from repro.sweep.store import SweepOutcome


@dataclass
class StudyResult:
    """Everything one finished study reports."""

    spec: StudySpec
    policy_map: PolicyMap
    #: Outcomes grouped per scenario, in spec order (for deeper digging
    #: than the map exposes).
    outcomes_by_scenario: List[Tuple[str, List[SweepOutcome]]]

    @property
    def total_jobs(self) -> int:
        """How many design points the study covered."""
        return sum(len(outcomes) for _, outcomes in self.outcomes_by_scenario)

    @property
    def cached_jobs(self) -> int:
        """How many outcomes came from the result store."""
        return sum(
            1
            for _, outcomes in self.outcomes_by_scenario
            for outcome in outcomes
            if outcome.cached
        )

