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

Each ablation hands its jobs to the session's sweep as one list.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import EXPERIMENT_SEED, DvsConfig, NpuConfig, RunConfig, TrafficConfig
from repro.experiments.common import cycles_for, instrumented_job
from repro.experiments.registry import ExperimentResult, register
from repro.sweep.spec import Job

#: The penalty axis of ``abl-penalty`` (us per VF transition).
PENALTIES_US = (0.0, 5.0, 10.0, 20.0)

#: The hysteresis axis of ``abl-hysteresis`` (fractions of the threshold).
HYSTERESIS_BANDS = (0.0, 0.10, 0.20)


def _tdvs_1400_20k(profile: str, **dvs_fields) -> Job:
    """The most transition-heavy TDVS point (1400 Mbps top threshold,
    20k window) at the high traffic sample, with ``dvs_fields`` set."""
    dvs = DvsConfig(
        policy="tdvs", window_cycles=20_000, top_threshold_mbps=1400.0, **dvs_fields
    )
    return instrumented_job(profile, level="high", dvs=dvs)


@register("abl-penalty", "VF-transition penalty sweep", "DESIGN.md ablation 5")
def run_penalty(profile: str, session) -> ExperimentResult:
    """TDVS 1400/20k with penalties 0-20 us."""
    jobs = [
        _tdvs_1400_20k(profile, transition_penalty_us=penalty_us)
        for penalty_us in PENALTIES_US
    ]
    rows = []
    data = {}
    for penalty_us, outcome in zip(PENALTIES_US, session.sweep(jobs)):
        result = outcome.result
        rows.append(
            (
                f"{penalty_us:.0f}us",
                f"{result.mean_power_w:.3f}",
                f"{result.throughput_mbps:.0f}",
                f"{result.totals.loss_fraction * 100:.1f}%",
                result.governor_transitions,
            )
        )
        data[penalty_us] = {
            "power_w": result.mean_power_w,
            "throughput_mbps": result.throughput_mbps,
            "loss": result.totals.loss_fraction,
            "transitions": result.governor_transitions,
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
    labels = {False: "busy (paper)", True: "idle"}
    jobs = [
        Job.build(
            RunConfig(
                benchmark="ipfwdr",
                duration_cycles=cycles_for(profile),
                seed=EXPERIMENT_SEED,
                npu=NpuConfig(poll_counts_as_idle=as_idle),
                traffic=TrafficConfig(level="low", offered_load_mbps=None),
                dvs=DvsConfig(policy="edvs", window_cycles=40_000),
            ),
            label=f"ipfwdr low edvs polling={labels[as_idle]}",
        )
        for as_idle in labels
    ]
    rows = []
    data = {}
    for label, outcome in zip(labels.values(), session.sweep(jobs)):
        result = outcome.result
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
    """TDVS 1400/20k with and without a hysteresis band.

    The jobs form one family of threshold siblings, so the sweep may
    answer a member from an earlier member's run
    (:mod:`repro.sweep.engine`).
    """
    jobs = [
        _tdvs_1400_20k(profile, tdvs_hysteresis=hysteresis)
        for hysteresis in HYSTERESIS_BANDS
    ]
    rows = []
    data = {}
    for hysteresis, outcome in zip(HYSTERESIS_BANDS, session.sweep(jobs)):
        result = outcome.result
        rows.append(
            (
                f"{hysteresis * 100:.0f}%",
                f"{result.mean_power_w:.3f}",
                f"{result.throughput_mbps:.0f}",
                f"{result.totals.loss_fraction * 100:.1f}%",
                result.governor_transitions,
            )
        )
        data[hysteresis] = {
            "power_w": result.mean_power_w,
            "throughput_mbps": result.throughput_mbps,
            "transitions": result.governor_transitions,
        }
    text = format_table(
        ("hysteresis", "power (W)", "thr (Mbps)", "loss", "transitions"),
        rows,
        title="Ablation: TDVS hysteresis (1400 Mbps / 20k window, high traffic)",
    )
    return ExperimentResult("abl-hysteresis", text, data=data)
