"""Figure 6: power distributions under TDVS design points.

For each top threshold (800/1000/1200/1400 Mbps) the paper plots the
CDF-style power distribution (LOC formula (2), ``below`` operator) for
window sizes 20k-80k cycles plus the no-DVS baseline.  The qualitative
expectations recorded in DESIGN.md:

* every TDVS point saves power vs. noDVS;
* smaller windows give lower power (more aggressive scaling);
* the 1000 Mbps threshold keeps the highest power of the sweep.
"""

from __future__ import annotations

from repro.analysis.report import format_curve_family
from repro.experiments.common import (
    TDVS_THRESHOLDS_MBPS,
    TDVS_WINDOWS_CYCLES,
    tdvs_design_space,
)
from repro.experiments.registry import ExperimentResult, register


@register("fig06", "TDVS power distributions", "Figure 6")
def run(profile: str, session) -> ExperimentResult:
    """Render one power CDF family per threshold."""
    grid = tdvs_design_space(profile, session)
    baseline = grid[(None, None)]
    sections = []
    data = {"mean_power_w": {}}
    for threshold in TDVS_THRESHOLDS_MBPS:
        curves = []
        for window in TDVS_WINDOWS_CYCLES:
            outcome = grid[(threshold, window)]
            curves.append((f"{window // 1000}K", outcome.power_dist.curve()))
            data["mean_power_w"][(threshold, window)] = outcome.result.mean_power_w
        curves.append(("noDVS", baseline.power_dist.curve()))
        sections.append(
            format_curve_family(
                curves,
                x_label="Power (W)",
                title=f"Figure 6: power CDF -- threshold {threshold:.0f} Mbps",
            )
        )
    data["mean_power_w"][(None, None)] = baseline.result.mean_power_w
    return ExperimentResult("fig06", "\n\n".join(sections), data=data)
