"""Ablations of the design choices DESIGN.md calls out.

``abl-penalty``
    Sweep the VF-transition penalty (0/5/10/20 us) at the most
    transition-heavy TDVS point (1400 Mbps top threshold, 20k window):
    the throughput collapse of Figure 7 should track the penalty.
``abl-polling``
    Re-run EDVS with polling charged as *idle* instead of busy: EDVS then
    scales receive MEs down at low traffic too, erasing the paper's
    distinction between the two policies' information sources.
``abl-hysteresis``
    Add a down-step hysteresis band to TDVS: transitions (and the 20k
    penalty overhead) drop sharply, recovering most of the lost
    throughput at a small power cost — quantifying how much of the
    paper's small-window collapse is threshold flapping.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import DvsConfig, NpuConfig, RunConfig, TrafficConfig
from repro.experiments.common import (
    EXPERIMENT_SEED,
    LEVEL_LOADS_MBPS,
    cycles_for,
    instrumented_run,
)
from repro.experiments.registry import ExperimentResult, register
from repro.runner import run_simulation


@register("abl-penalty", "VF-transition penalty sweep", "DESIGN.md ablation 5")
def run_penalty(profile: str, session) -> ExperimentResult:
    """TDVS 1400/20k with penalties 0-20 us."""
    rows = []
    data = {}
    for penalty_us in (0.0, 5.0, 10.0, 20.0):
        dvs = DvsConfig(
            policy="tdvs",
            window_cycles=20_000,
            top_threshold_mbps=1400.0,
            transition_penalty_us=penalty_us,
        )
        run_data = instrumented_run(profile, level="high", dvs=dvs)
        totals = run_data.result.totals
        rows.append(
            (
                f"{penalty_us:.0f}us",
                f"{run_data.result.mean_power_w:.3f}",
                f"{run_data.result.throughput_mbps:.0f}",
                f"{totals.loss_fraction * 100:.1f}%",
                run_data.result.governor_transitions,
            )
        )
        data[penalty_us] = {
            "power_w": run_data.result.mean_power_w,
            "throughput_mbps": run_data.result.throughput_mbps,
            "loss": totals.loss_fraction,
            "transitions": run_data.result.governor_transitions,
        }
    text = format_table(
        ("penalty", "power (W)", "thr (Mbps)", "loss", "transitions"),
        rows,
        title="Ablation: transition penalty (TDVS 1400 Mbps / 20k window, high traffic)",
    )
    return ExperimentResult("abl-penalty", text, data=data)


@register("abl-polling", "Polling-as-idle accounting", "DESIGN.md ablation 3")
def run_polling(profile: str, session) -> ExperimentResult:
    """EDVS at low traffic with both polling accountings."""
    rows = []
    data = {}
    for as_idle in (False, True):
        npu = NpuConfig(poll_counts_as_idle=as_idle)
        config = RunConfig(
            benchmark="ipfwdr",
            duration_cycles=cycles_for(profile),
            seed=EXPERIMENT_SEED,
            npu=npu,
            traffic=TrafficConfig(offered_load_mbps=LEVEL_LOADS_MBPS["low"]),
            dvs=DvsConfig(policy="edvs", window_cycles=40_000),
        )
        result = run_simulation(config)
        label = "idle" if as_idle else "busy (paper)"
        min_freq = min(m.freq_mhz for m in result.totals.me_summaries)
        rows.append(
            (
                label,
                f"{result.mean_power_w:.3f}",
                f"{result.throughput_mbps:.0f}",
                result.governor_transitions,
                f"{min_freq:.0f}",
            )
        )
        data[label] = {
            "power_w": result.mean_power_w,
            "transitions": result.governor_transitions,
            "min_freq_mhz": min_freq,
        }
    text = format_table(
        ("polling counts as", "power (W)", "thr (Mbps)", "transitions", "min ME MHz"),
        rows,
        title="Ablation: polling accounting under EDVS (ipfwdr, low traffic)",
    )
    return ExperimentResult("abl-polling", text, data=data)


@register("abl-hysteresis", "TDVS down-step hysteresis", "DESIGN.md ablation 2")
def run_hysteresis(profile: str, session) -> ExperimentResult:
    """TDVS 1400/20k with and without a hysteresis band."""
    rows = []
    data = {}
    for hysteresis in (0.0, 0.10, 0.20):
        dvs = DvsConfig(
            policy="tdvs",
            window_cycles=20_000,
            top_threshold_mbps=1400.0,
            tdvs_hysteresis=hysteresis,
        )
        run_data = instrumented_run(profile, level="high", dvs=dvs)
        rows.append(
            (
                f"{hysteresis * 100:.0f}%",
                f"{run_data.result.mean_power_w:.3f}",
                f"{run_data.result.throughput_mbps:.0f}",
                f"{run_data.result.totals.loss_fraction * 100:.1f}%",
                run_data.result.governor_transitions,
            )
        )
        data[hysteresis] = {
            "power_w": run_data.result.mean_power_w,
            "throughput_mbps": run_data.result.throughput_mbps,
            "transitions": run_data.result.governor_transitions,
        }
    text = format_table(
        ("hysteresis", "power (W)", "thr (Mbps)", "loss", "transitions"),
        rows,
        title="Ablation: TDVS hysteresis (1400 Mbps / 20k window, high traffic)",
    )
    return ExperimentResult("abl-hysteresis", text, data=data)
