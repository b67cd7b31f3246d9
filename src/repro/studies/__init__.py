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

Exported names resolve on first access (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__ = [
    "CandidateSummary",
    "OBJECTIVES",
    "Objective",
    "PolicyMap",
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

_EXPORTS = {
    "CandidateSummary": "repro.studies.policymap",
    "OBJECTIVES": "repro.studies.objective",
    "Objective": "repro.studies.objective",
    "PolicyMap": "repro.studies.policymap",
    "ScenarioVerdict": "repro.studies.policymap",
    "StudyAssertion": "repro.studies.spec",
    "StudyResult": "repro.studies.engine",
    "StudySpec": "repro.studies.spec",
    "dominates": "repro.studies.pareto",
    "get_objective": "repro.studies.objective",
    "list_objectives": "repro.studies.objective",
    "pareto_front": "repro.studies.pareto",
    "render_json": "repro.studies.report",
    "render_markdown": "repro.studies.report",
    "render_text": "repro.studies.report",
    "select_design_point": "repro.studies.objective",
    "summarize_candidate": "repro.studies.policymap",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
