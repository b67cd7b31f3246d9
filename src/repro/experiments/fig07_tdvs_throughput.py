"""Figure 7: throughput distributions under TDVS design points.

CCDF-style throughput distributions (LOC formula (3), ``above``
operator) for the same design grid as Figure 6.  Expectations:

* 20k windows collapse throughput (transition penalties eat ~30 % of
  each window near threshold-straddling loads);
* 80k windows track the no-DVS throughput closely;
* smaller windows trade throughput for the power saved in Figure 6.
"""

from __future__ import annotations

from repro.analysis.report import format_curve_family
from repro.config import TDVS_THRESHOLDS_MBPS, TDVS_WINDOWS_CYCLES
from repro.experiments.common import tdvs_design_space
from repro.experiments.registry import ExperimentResult, register


@register("fig07", "TDVS throughput distributions", "Figure 7")
def run(profile: str, session) -> ExperimentResult:
    """Render one throughput CCDF family per threshold."""
    grid = tdvs_design_space(profile, session)
    baseline = grid[(None, None)]
    sections = []
    data = {"throughput_mbps": {}, "loss_fraction": {}}
    for threshold in TDVS_THRESHOLDS_MBPS:
        curves = []
        for window in TDVS_WINDOWS_CYCLES:
            outcome = grid[(threshold, window)]
            curves.append((f"{window // 1000}K", outcome.throughput_dist.curve()))
            data["throughput_mbps"][(threshold, window)] = (
                outcome.result.throughput_mbps
            )
            data["loss_fraction"][(threshold, window)] = (
                outcome.result.totals.loss_fraction
            )
        curves.append(("noDVS", baseline.throughput_dist.curve()))
        sections.append(
            format_curve_family(
                curves,
                x_label="Throughput (Mbps)",
                title=f"Figure 7: throughput CCDF -- threshold {threshold:.0f} Mbps",
            )
        )
    data["throughput_mbps"][(None, None)] = baseline.result.throughput_mbps
    data["loss_fraction"][(None, None)] = baseline.result.totals.loss_fraction
    return ExperimentResult("fig07", "\n\n".join(sections), data=data)
