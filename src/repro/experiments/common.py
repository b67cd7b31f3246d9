"""Shared experiment machinery: profiles, instrumented runs, caching.

Every simulation grid of a figure goes through the session API
(:mod:`repro.api`): figures build :class:`~repro.sweep.spec.Job`
lists and hand them to the :meth:`~repro.api.session.Session.sweep`
of the session they run in, which fans them out over worker processes
when its policy asks for them (``--workers`` on the CLI) and runs them
in-process otherwise.  Results are identical either way — each job
carries its own seed.

The TDVS design-space experiments (Figures 6-9) share one 17-run grid;
:func:`tdvs_design_space` computes it once per profile and caches it so
``fig06``/``fig07``/``fig08``/``fig09`` stay cheap to run back to back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ExperimentError
from repro.sweep.spec import Job

if TYPE_CHECKING:
    from repro.api.session import Session
    from repro.loc.analyzer import DistributionResult
    from repro.runner import RunResult
    from repro.sweep.store import SweepOutcome

#: Run lengths (reference-clock cycles) per profile.  ``paper`` is the
#: paper's 8x10^6; ``quick`` keeps several 80k windows while staying
#: laptop-fast; ``bench`` is for pytest-benchmark smoke timing.
PROFILE_CYCLES: Dict[str, int] = {
    "bench": 400_000,
    "quick": 1_600_000,
    "paper": 8_000_000,
}

#: Offered loads (Mbps) for the named traffic levels.  ``high`` is the
#: near-saturation sample the TDVS/EDVS sweeps use (the paper's
#: distribution axes reach 1400 Mbps); ``med``/``low`` match the
#: medium/low samples of Figure 11.
LEVEL_LOADS_MBPS: Dict[str, float] = {"low": 400.0, "med": 1000.0, "high": 1550.0}

#: The paper's TDVS sweep axes.
TDVS_THRESHOLDS_MBPS = (800.0, 1000.0, 1200.0, 1400.0)
TDVS_WINDOWS_CYCLES = (20_000, 40_000, 60_000, 80_000)

#: EDVS sweep axis (Figure 10) and idle threshold.
EDVS_WINDOWS_CYCLES = (20_000, 40_000, 60_000, 80_000)
EDVS_IDLE_THRESHOLD = 0.10

#: Default seed for experiment runs (reproducibility anchor).
EXPERIMENT_SEED = 7

#: Analysis window: formulas (2)/(3) span 100 packets in the paper; the
#: quick/bench profiles forward fewer packets, so they use a smaller span
#: to keep enough formula instances for stable distributions.
SPAN_BY_PROFILE: Dict[str, int] = {"bench": 20, "quick": 50, "paper": 100}


def cycles_for(profile: str) -> int:
    """Run length for a named profile."""
    try:
        return PROFILE_CYCLES[profile]
    except KeyError:
        raise ExperimentError(
            f"unknown profile {profile!r}; known: {sorted(PROFILE_CYCLES)}"
        ) from None


def span_for(profile: str) -> int:
    """LOC formula packet span for a named profile."""
    return SPAN_BY_PROFILE.get(profile, 100)


@dataclass
class InstrumentedRun:
    """One simulation plus its power/throughput distributions."""

    result: RunResult
    power: DistributionResult
    throughput: DistributionResult


def as_instrumented(outcome: SweepOutcome) -> InstrumentedRun:
    """View a sweep outcome as an :class:`InstrumentedRun`."""
    if outcome.power_dist is None or outcome.throughput_dist is None:
        raise ExperimentError(
            f"job {outcome.label or outcome.job_id!r} ran without analyzers "
            "(span=None); instrumented experiments need span set"
        )
    return InstrumentedRun(
        result=outcome.result,
        power=outcome.power_dist,
        throughput=outcome.throughput_dist,
    )


def instrumented_job(
    profile: str,
    benchmark: str = "ipfwdr",
    load_mbps: Optional[float] = None,
    level: Optional[str] = None,
    scenario: Optional[str] = None,
    dvs: Optional[DvsConfig] = None,
    seed: int = EXPERIMENT_SEED,
    process: str = "mmpp",
) -> Job:
    """Build the sweep job for one instrumented experiment run.

    Named levels resolve through :data:`LEVEL_LOADS_MBPS` (the
    experiments' NPU-regime samples); scenarios pass through by name.
    """
    sources = [value for value in (load_mbps, level, scenario) if value is not None]
    if len(sources) != 1:
        raise ExperimentError("give exactly one of load_mbps / level / scenario")
    if level is not None:
        load_mbps = LEVEL_LOADS_MBPS[level]
    if scenario is not None:
        traffic = TrafficConfig.for_scenario(scenario)
    else:
        traffic = TrafficConfig(offered_load_mbps=load_mbps, process=process)
    dvs = dvs or DvsConfig(policy="none")
    config = RunConfig(
        benchmark=benchmark,
        duration_cycles=cycles_for(profile),
        seed=seed,
        traffic=traffic,
        dvs=dvs,
    )
    label = " ".join(
        part
        for part in (
            benchmark,
            scenario or level or f"{load_mbps:g}Mbps",
            dvs.policy,
            f"win={dvs.window_cycles}" if dvs.policy != "none" else "",
        )
        if part
    )
    return Job.build(config, span=span_for(profile), label=label)


def instrumented_run(
    profile: str,
    benchmark: str = "ipfwdr",
    load_mbps: Optional[float] = None,
    level: Optional[str] = None,
    scenario: Optional[str] = None,
    dvs: Optional[DvsConfig] = None,
    seed: int = EXPERIMENT_SEED,
    process: str = "mmpp",
) -> InstrumentedRun:
    """Run one configuration with formula (2)/(3) analyzers attached."""
    from repro.sweep.engine import run_job

    job = instrumented_job(
        profile,
        benchmark=benchmark,
        load_mbps=load_mbps,
        level=level,
        scenario=scenario,
        dvs=dvs,
        seed=seed,
        process=process,
    )
    return as_instrumented(run_job(job))


#: Cache: profile -> {(threshold|None, window|None): InstrumentedRun}.
#: The (None, None) key is the no-DVS baseline.
_TDVS_CACHE: Dict[str, Dict[Tuple[Optional[float], Optional[int]], InstrumentedRun]] = {}


def tdvs_design_space(
    profile: str,
    session: Optional[Session] = None,
) -> Dict[Tuple[Optional[float], Optional[int]], InstrumentedRun]:
    """The shared Figures 6-9 grid: 4 thresholds x 4 windows + noDVS.

    Benchmark `ipfwdr` at the high traffic sample, as in Section 4.1.
    The 17 runs sweep through ``session`` (default: a serial session),
    so a session with more workers regenerates the grid in parallel
    with identical results.  The grid is computed once per profile and
    process; later calls return the cached grid without sweeping.
    """
    cached = _TDVS_CACHE.get(profile)
    if cached is not None:
        return cached
    keys: List[Tuple[Optional[float], Optional[int]]] = [(None, None)]
    jobs = [instrumented_job(profile, level="high")]
    for threshold in TDVS_THRESHOLDS_MBPS:
        for window in TDVS_WINDOWS_CYCLES:
            dvs = DvsConfig(
                policy="tdvs",
                window_cycles=window,
                top_threshold_mbps=threshold,
            )
            keys.append((threshold, window))
            jobs.append(instrumented_job(profile, level="high", dvs=dvs))
    if session is None:
        from repro.api.session import Session

        session = Session()
    outcomes = session.sweep(jobs)
    grid = {
        key: as_instrumented(outcome) for key, outcome in zip(keys, outcomes)
    }
    _TDVS_CACHE[profile] = grid
    return grid


def clear_caches() -> None:
    """Drop cached design-space grids (tests use this)."""
    _TDVS_CACHE.clear()
