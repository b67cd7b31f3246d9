"""Declarative traffic scenarios and the built-in workload catalog.

* :mod:`~repro.scenarios.spec` — :class:`Scenario` /
  :class:`ScenarioSegment`: named, documented workloads composed of
  timed traffic phases;
* :mod:`~repro.scenarios.catalog` — the built-in catalog (flash crowd,
  DDoS storm, diurnal replays, failover, on/off bursting, saturation,
  size-mix drift) plus the registry for custom entries.

:meth:`Scenario.phases` feeds the one traffic source,
:class:`~repro.traffic.generator.TrafficSource`.

A :class:`~repro.config.RunConfig` selects a scenario by name::

    RunConfig(traffic=TrafficConfig(scenario="flash_crowd",
                                    offered_load_mbps=None))

and scenarios form a sweep axis via ``traffic="scenario:flash_crowd"``
tokens in :class:`repro.sweep.SweepSpec`.
"""

from repro.scenarios.catalog import (
    all_scenarios,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.spec import Scenario, ScenarioSegment

__all__ = [
    "Scenario",
    "ScenarioSegment",
    "all_scenarios",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
]
