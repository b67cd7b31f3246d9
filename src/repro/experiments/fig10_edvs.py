"""Figure 10: EDVS power and throughput distributions.

`ipfwdr` at the high traffic sample, idle threshold 10 %, window sizes
20k-80k ME cycles, plus the no-DVS baseline.  The paper observes roughly
23 % power reduction (~1.5 W -> ~1.15 W) with nearly no throughput loss,
and that transmit MEs never scale down.
"""

from __future__ import annotations

from repro.analysis.report import format_curve_family
from repro.config import DvsConfig
from repro.experiments.common import (
    EDVS_IDLE_THRESHOLD,
    EDVS_WINDOWS_CYCLES,
    instrumented_job,
)
from repro.experiments.registry import ExperimentResult, register


@register("fig10", "EDVS power and throughput distributions", "Figure 10")
def run(profile: str, session) -> ExperimentResult:
    """Run the EDVS window sweep through ``session`` and render both
    distribution families."""
    jobs = [instrumented_job(profile, level="high")]
    for window in EDVS_WINDOWS_CYCLES:
        dvs = DvsConfig(
            policy="edvs",
            window_cycles=window,
            idle_threshold=EDVS_IDLE_THRESHOLD,
        )
        jobs.append(instrumented_job(profile, level="high", dvs=dvs))
    baseline, *outcomes = session.sweep(jobs)
    runs = dict(zip(EDVS_WINDOWS_CYCLES, outcomes))

    power_curves = [
        (f"{w // 1000}K", runs[w].power_dist.curve()) for w in EDVS_WINDOWS_CYCLES
    ]
    power_curves.append(("noDVS", baseline.power_dist.curve()))
    throughput_curves = [
        (f"{w // 1000}K", runs[w].throughput_dist.curve())
        for w in EDVS_WINDOWS_CYCLES
    ]
    throughput_curves.append(("noDVS", baseline.throughput_dist.curve()))

    text = (
        format_curve_family(
            throughput_curves,
            x_label="Throughput (Mbps)",
            title="Figure 10 (left): throughput CCDF under EDVS",
        )
        + "\n\n"
        + format_curve_family(
            power_curves,
            x_label="Power (W)",
            title="Figure 10 (right): power CDF under EDVS",
        )
    )

    data = {
        "baseline_power_w": baseline.result.mean_power_w,
        "baseline_throughput_mbps": baseline.result.throughput_mbps,
        "edvs_power_w": {w: runs[w].result.mean_power_w for w in runs},
        "edvs_throughput_mbps": {
            w: runs[w].result.throughput_mbps for w in runs
        },
        "savings": {
            w: 1.0 - runs[w].result.mean_power_w / baseline.result.mean_power_w
            for w in runs
        },
        # Transmit MEs must never scale down: their clocks stay at max.
        "tx_me_freq_changes": {
            w: [
                me.freq_changes
                for me in runs[w].result.totals.me_summaries
                if me.role == "tx"
            ]
            for w in runs
        },
    }
    summary_lines = [
        f"window {w // 1000}K: power {runs[w].result.mean_power_w:.3f} W "
        f"(saving {data['savings'][w] * 100:.1f}%), throughput "
        f"{runs[w].result.throughput_mbps:.0f} Mbps"
        for w in EDVS_WINDOWS_CYCLES
    ]
    summary_lines.append(
        f"noDVS: power {baseline.result.mean_power_w:.3f} W, throughput "
        f"{baseline.result.throughput_mbps:.0f} Mbps"
    )
    text += "\n\n" + "\n".join(summary_lines)
    return ExperimentResult("fig10", text, data=data)
