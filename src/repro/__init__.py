"""repro — assertion-based design exploration of DVS in network processors.

A production-quality reproduction of *"Assertion-Based Design Exploration
of DVS in Network Processor Architectures"* (DATE 2005): a cycle-level
IXP1200-class NPU model with a power estimator, the paper's two DVS
policies (traffic-based and execution-based), its four benchmark
applications, an NLANR-like synthetic traffic substrate, and a full
Logic-of-Constraints (LOC) implementation with automatically generated
trace checkers and distribution analyzers.

Quickstart
----------
>>> from repro import RunConfig, DvsConfig, run_simulation
>>> from repro.loc import build_monitor, power_distribution_formula
>>> power = build_monitor(power_distribution_formula(), expect="distribution")
>>> config = RunConfig(
...     benchmark="ipfwdr",
...     duration_cycles=200_000,
...     dvs=DvsConfig(policy="tdvs", window_cycles=40_000,
...                   top_threshold_mbps=1000.0),
... )
>>> result = run_simulation(config, monitors=[power])
>>> result.totals.forwarded_packets > 0
True
>>> power.finish().total > 0
True

Grids, studies and experiments run through the session API
(:mod:`repro.api`) — a :class:`~repro.api.session.Session` owns the
execution policy (backend, workers, store, event hooks) once:

>>> from repro import ExecutionPolicy, Session
>>> session = Session(execution=ExecutionPolicy(backend="serial"))

See ``examples/`` for runnable scenarios and ``repro.experiments`` for
the per-figure reproduction harnesses.

Exported names resolve on first access (:mod:`repro._exports`), so
``import repro.runner`` loads the simulator's model packages and none of
the session, sweep or study machinery.
"""

from repro._exports import lazy_exports

__all__ = [
    "DvsConfig",
    "EventHooks",
    "ExecutionPolicy",
    "MemoryConfig",
    "NpuConfig",
    "PAPER",
    "PolicyMap",
    "PowerConfig",
    "ReproError",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "Scenario",
    "Session",
    "SimulationRun",
    "StorePolicy",
    "StudySpec",
    "SweepSpec",
    "TrafficConfig",
    "__version__",
    "get_scenario",
    "list_scenarios",
    "run_simulation",
]

_EXPORTS = {
    "DvsConfig": "repro.config",
    "EventHooks": "repro.api.events",
    "ExecutionPolicy": "repro.api.policy",
    "MemoryConfig": "repro.config",
    "NpuConfig": "repro.config",
    "PAPER": "repro.version",
    "PolicyMap": "repro.studies.policymap",
    "PowerConfig": "repro.config",
    "ReproError": "repro.errors",
    "ResultStore": "repro.sweep.store",
    "RunConfig": "repro.config",
    "RunResult": "repro.runner",
    "Scenario": "repro.scenarios.spec",
    "Session": "repro.api.session",
    "SimulationRun": "repro.runner",
    "StorePolicy": "repro.api.policy",
    "StudySpec": "repro.studies.spec",
    "SweepSpec": "repro.sweep.spec",
    "TrafficConfig": "repro.config",
    "__version__": "repro.version",
    "get_scenario": "repro.scenarios.catalog",
    "list_scenarios": "repro.scenarios.catalog",
    "run_simulation": "repro.runner",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
