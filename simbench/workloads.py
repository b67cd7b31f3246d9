"""The benchmark's three workloads, built from the public API.

* ``trough_idle`` — one ``overnight_trough`` run (120 Mbps Poisson),
  ipfwdr, TDVS, no monitors: almost every kernel event is a missed
  idle poll.
* ``saturated_apps`` — one ``saturation_stress`` run (1900 Mbps CBR)
  per application, EDVS with a 20k-cycle window, with the monitors a
  study attaches: the most packet work per simulated cycle.
* ``catalog_study`` — the full-catalog TDVS+EDVS study at the bench
  profile (9 scenarios x 21 configs) on the ``process`` backend with
  2 workers: what a designer waits for.

Only ``repro.config`` and ``repro.runner`` are imported at module level;
the monitor and study imports sit inside the functions that need them,
so the set-up probe of each workload imports what that workload needs
and nothing more.
"""

from __future__ import annotations

import gc
import time
from typing import List, Sequence

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.runner import SimulationRun

#: Paper-length run (8M reference cycles) for the idle trace.
TROUGH_CYCLES = 8_000_000
#: Quick-profile length per application on the saturated trace.
SATURATED_CYCLES = 1_600_000
#: LOC formula span matching the quick profile.
SATURATED_SPAN = 50
SATURATED_APPS = ("ipfwdr", "nat", "url", "md4")
SATURATED_WINDOW_CYCLES = 20_000
#: Bench-profile run length and span for every study job.
STUDY_CYCLES = 400_000
STUDY_SPAN = 20
STUDY_POLICIES = ("tdvs", "edvs")
STUDY_WORKERS = 2


def trough_config(seed: int) -> RunConfig:
    """The ``trough_idle`` run."""
    return RunConfig(
        benchmark="ipfwdr",
        duration_cycles=TROUGH_CYCLES,
        seed=seed,
        traffic=TrafficConfig.for_scenario("overnight_trough"),
        dvs=DvsConfig(policy="tdvs"),
    )


def saturated_configs(seed: int) -> List[RunConfig]:
    """The ``saturated_apps`` runs, one per application."""
    return [
        RunConfig(
            benchmark=app,
            duration_cycles=SATURATED_CYCLES,
            seed=seed,
            traffic=TrafficConfig.for_scenario("saturation_stress"),
            dvs=DvsConfig(policy="edvs", window_cycles=SATURATED_WINDOW_CYCLES),
        )
        for app in SATURATED_APPS
    ]


def single_run_configs(workload: str, seed: int) -> List[RunConfig]:
    """The configs one round of a single-run workload simulates."""
    if workload == "trough_idle":
        return [trough_config(seed)]
    return saturated_configs(seed)


def study_monitors(scenario: str, span: int) -> List:
    """Fresh monitors, in order, as a study attaches them to a job of
    ``scenario``: formula (2)/(3) distributions over ``span`` packets,
    then the scenario's derived span-latency and forward-count gates."""
    from repro.loc.builtin import (
        power_distribution_formula,
        throughput_distribution_formula,
    )
    from repro.loc.monitor import build_monitor
    from repro.scenarios import get_scenario
    from repro.studies.spec import StudySpec

    gates = StudySpec(span=span).assertions_for(get_scenario(scenario))
    return [
        build_monitor(power_distribution_formula(span=span), expect="distribution"),
        build_monitor(throughput_distribution_formula(span=span), expect="distribution"),
        *(build_monitor(gate.formula, expect="checker") for gate in gates),
    ]


def single_run_monitors(config: RunConfig, monitors: bool) -> List:
    """Monitors for a single-run workload: a study's, or none."""
    if not monitors:
        return []
    return study_monitors(config.traffic.scenario, SATURATED_SPAN)


def simulate(config: RunConfig, monitors: Sequence = (), profiler=None) -> tuple:
    """Build and run one simulation; ``(wall_s, record, ledger)``.

    ``wall_s`` times :meth:`SimulationRun.run` alone (construction is
    set-up), after a full garbage collection so one run's garbage is not
    collected inside the next run's timing.  ``record`` is the run's
    simulated statistics (:func:`layers.result_record`, plus the monitor
    results under ``"monitors"`` when monitors are attached) and
    ``ledger`` its counts (:func:`layers.run_ledger`).  A ``profiler``
    (``cProfile.Profile``) is enabled around the run only.
    """
    import layers

    run = SimulationRun(config, monitors=monitors)
    gc.collect()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        result = run.run()
    finally:
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    results = [monitor.finish() for monitor in monitors]
    record = layers.result_record(result)
    if monitors:
        record["monitors"] = [layers.jsonable(r) for r in results]
    return wall, record, layers.run_ledger(run, results)


def study_spec(seed: int):
    """The ``catalog_study`` spec: every scenario, TDVS+EDVS, bench profile."""
    from repro.studies.spec import StudySpec

    return StudySpec(
        policies=STUDY_POLICIES,
        seeds=(seed,),
        duration_cycles=STUDY_CYCLES,
        span=STUDY_SPAN,
    )


def study_session(backend="process"):
    """A session on ``backend`` (a name or an instance) with 2 workers."""
    from repro.api import ExecutionPolicy, Session

    return Session(execution=ExecutionPolicy(backend=backend, workers=STUDY_WORKERS))


def rerun_unmonitored(job) -> tuple:
    """:func:`simulate` one study job's config with no monitors attached."""
    return simulate(job.run_config())
