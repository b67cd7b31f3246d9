"""Shared experiment machinery: profiles, sweep axes and job builders.

Every simulation grid of a figure goes through the session API
(:mod:`repro.api`): figures build :class:`~repro.sweep.spec.Job`
lists and hand them to the :meth:`~repro.api.session.Session.sweep`
of the session they run in, which fans them out over worker processes
when its policy asks for them (``--workers`` on the CLI) and runs them
in-process otherwise.  Results are identical either way — each job
carries its own seed.

The TDVS design-space experiments (Figures 6-9) share one 17-run grid.
:func:`tdvs_design_space` sweeps it on every call; figures share its
outcomes only through the session's
:class:`~repro.sweep.store.ResultStore`, which serves a job it already
holds without simulating.  ``repro run`` keeps one in-memory store per
command, so ``repro run all`` simulates the grid once for ``fig06``-``fig09``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ExperimentError
from repro.sweep.spec import Job

if TYPE_CHECKING:
    from repro.api.session import Session
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


def tdvs_design_space(
    profile: str, session: Session
) -> Dict[Tuple[Optional[float], Optional[int]], SweepOutcome]:
    """The shared Figures 6-9 grid: 4 thresholds x 4 windows + noDVS.

    Benchmark `ipfwdr` at the high traffic sample, as in Section 4.1.
    The 17 jobs sweep through ``session`` on every call, keyed by
    ``(threshold, window)``; ``(None, None)`` is the no-DVS baseline.
    A session with a result store serves the jobs it already holds, so
    figures that share the grid simulate it once.
    """
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
    return dict(zip(keys, session.sweep(jobs)))
