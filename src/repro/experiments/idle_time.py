"""Section 4.2 idle-time observation.

The paper justifies EDVS's 10 % idle threshold with a distribution
analysis: "for receiving MEs, in around 90% of the total simulation
time, idle time is either under 5%, or between 30% and 40%, indicating
two modes of operation.  For transmitting MEs, idle time is almost
always under 5%."

This experiment samples per-window idle fractions of every ME during a
no-DVS `ipfwdr` run at the high traffic sample and reports the fraction
of windows in the paper's three bands (<5 %, 5-30 %, >=30 %) per ME role.

The run stays a direct :class:`~repro.runner.SimulationRun` outside the
session: it schedules its own per-window sampling events into the
kernel, and a sweep outcome has no per-window output to carry the
samples (that belongs to the DVS decision timeline).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import format_table
from repro.config import RunConfig, TrafficConfig
from repro.experiments.common import EXPERIMENT_SEED, LEVEL_LOADS_MBPS, cycles_for
from repro.experiments.registry import ExperimentResult, register
from repro.runner import SimulationRun

#: Idle observation window (cycles of each ME's clock).
WINDOW_CYCLES = 40_000

#: Band edges used in the report (fractions of a window).
BANDS = ((0.0, 0.05), (0.05, 0.30), (0.30, 1.01))
BAND_LABELS = ("<5%", "5-30%", ">=30%")


def collect_idle_windows(profile: str) -> Dict[str, List[float]]:
    """Per-role lists of per-window idle fractions from a no-DVS run."""
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=cycles_for(profile),
        seed=EXPERIMENT_SEED,
        traffic=TrafficConfig(offered_load_mbps=LEVEL_LOADS_MBPS["high"]),
    )
    sim_run = SimulationRun(config)
    samples: Dict[str, List[float]] = {"rx": [], "tx": []}

    def sample(me) -> None:
        samples[me.role].append(me.idle_fraction_window())
        me.reset_window()
        sim_run.sim.schedule(
            me.clock.delay_for_cycles(WINDOW_CYCLES), sample, me
        )

    for me in sim_run.chip.mes:
        sim_run.sim.schedule(me.clock.delay_for_cycles(WINDOW_CYCLES), sample, me)
    sim_run.run()
    return samples


@register("idle", "Per-window ME idle-time distribution", "Section 4.2")
def run(profile: str, session) -> ExperimentResult:
    """Measure and band the per-window idle fractions."""
    samples = collect_idle_windows(profile)
    rows = []
    data = {}
    for role in ("rx", "tx"):
        windows = samples[role]
        total = len(windows) or 1
        fractions = []
        for low, high in BANDS:
            count = sum(1 for value in windows if low <= value < high)
            fractions.append(count / total)
        rows.append(
            (role, len(windows))
            + tuple(f"{fraction * 100:.1f}%" for fraction in fractions)
        )
        data[role] = dict(zip(BAND_LABELS, fractions))
    text = format_table(
        ("ME role", "windows") + BAND_LABELS,
        rows,
        title=(
            "Idle-time distribution per observation window "
            f"({WINDOW_CYCLES} cycles, ipfwdr, high traffic, no DVS)"
        ),
    )
    return ExperimentResult("idle", text, data=data)
