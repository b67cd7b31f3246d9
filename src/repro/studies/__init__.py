"""Scenario-conditioned DVS policy studies.

The paper's core claim is that LOC assertions make DVS design-space
exploration tractable; this subpackage turns that into a product: it
composes the scenario catalog (:mod:`repro.scenarios`), the parallel
sweep engine (:mod:`repro.sweep`) and the LOC checker
(:mod:`repro.loc.checker`) into per-scenario optimal-policy maps.

* :mod:`~repro.studies.spec` — :class:`StudySpec`: scenario set x
  policy set x (threshold, window) grid, the objective, and derived
  per-scenario LOC assertion gates;
* :mod:`~repro.studies.engine` — :class:`StudyResult`: one parallel
  sweep over every scenario's grid, reduced deterministically (run by
  :meth:`repro.api.Session.study`);
* :mod:`~repro.studies.policymap` — :class:`PolicyMap`: per-scenario
  winners ("cheapest config whose assertions hold") plus full
  energy / drop-rate / latency Pareto fronts;
* :mod:`~repro.studies.objective` — the objective registry and the
  shared deterministic design-point reduction (the Figure 8/9 surface
  read-offs consult the same code);
* :mod:`~repro.studies.pareto` — non-dominated front extraction;
* :mod:`~repro.studies.report` — text / markdown / JSON rendering.

Quickstart::

    from repro.api import ExecutionPolicy, Session
    from repro.studies import StudySpec
    from repro.studies.report import render_text

    spec = StudySpec(scenarios=("flash_crowd",), policies=("tdvs", "edvs"))
    session = Session(execution=ExecutionPolicy(workers=4))
    result = session.study(
        spec,
        on_scenario_complete=lambda v: print(v.scenario, "done"),
    )
    print(render_text(result.policy_map))

``repro study`` on the CLI wraps exactly this.
"""

from repro.studies.engine import StudyResult
from repro.studies.objective import (
    OBJECTIVES,
    Objective,
    get_objective,
    list_objectives,
    select_design_point,
)
from repro.studies.pareto import dominates, pareto_front
from repro.studies.policymap import (
    CandidateSummary,
    PolicyMap,
    ScenarioVerdict,
    summarize_candidate,
)
from repro.studies.report import render_json, render_markdown, render_text
from repro.studies.spec import (
    NPU_CAPACITY_MBPS,
    STUDY_THRESHOLDS_MBPS,
    STUDY_WINDOWS_CYCLES,
    StudyAssertion,
    StudySpec,
)

__all__ = [
    "CandidateSummary",
    "NPU_CAPACITY_MBPS",
    "OBJECTIVES",
    "Objective",
    "PolicyMap",
    "STUDY_THRESHOLDS_MBPS",
    "STUDY_WINDOWS_CYCLES",
    "ScenarioVerdict",
    "StudyAssertion",
    "StudyResult",
    "StudySpec",
    "dominates",
    "get_objective",
    "list_objectives",
    "pareto_front",
    "render_json",
    "render_markdown",
    "render_text",
    "select_design_point",
    "summarize_candidate",
]
