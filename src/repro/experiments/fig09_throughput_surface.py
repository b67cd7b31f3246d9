"""Figure 9: 3-D surface — 80th-percentile throughput over the design space.

A vertex is the throughput value above which 80 % of formula (3)
instances fall for a (threshold, window) pair.  The paper reads off: at
small windows all thresholds perform alike; at large windows the
1000 Mbps threshold pulls ahead — the performance-first pick is
1000 Mbps with an 80k window.
"""

from __future__ import annotations

from repro.analysis.report import format_surface
from repro.analysis.surface import PercentileSurface
from repro.experiments.common import (
    TDVS_THRESHOLDS_MBPS,
    TDVS_WINDOWS_CYCLES,
    tdvs_design_space,
)
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.fig08_power_surface import SURFACE_LEVEL, surface_optimum


def build_throughput_surface(profile: str, session) -> PercentileSurface:
    """The Figure 9 surface from the shared design-space grid (swept
    through ``session``, see :func:`tdvs_design_space`)."""
    grid = tdvs_design_space(profile, session)
    surface = PercentileSurface(
        TDVS_THRESHOLDS_MBPS,
        TDVS_WINDOWS_CYCLES,
        level=SURFACE_LEVEL,
        row_label="threshold (Mbps)",
        col_label="window (cycles)",
        value_label="throughput (Mbps)",
    )
    for threshold in TDVS_THRESHOLDS_MBPS:
        for window in TDVS_WINDOWS_CYCLES:
            surface.add(threshold, window, grid[(threshold, window)].throughput_dist)
    return surface


@register("fig09", "80th-percentile throughput surface", "Figure 9")
def run(profile: str, session) -> ExperimentResult:
    """Render the throughput surface and its optima."""
    surface = build_throughput_surface(profile, session)
    text = format_surface(
        surface.row_values,
        surface.col_values,
        surface.grid(),
        row_label="thr Mbps",
        col_label="window",
        title="Figure 9: throughput (Mbps) at the 80% CCDF level",
    )
    hi_thr, hi_win, hi_val = surface_optimum(surface, "max")
    text += (
        f"\n\nbest-throughput design point: threshold {hi_thr:.0f} Mbps, "
        f"window {hi_win} cycles ({hi_val:.0f} Mbps)"
    )
    return ExperimentResult(
        "fig09",
        text,
        data={
            "grid": surface.grid(),
            "argmax": (hi_thr, hi_win, hi_val),
            "argmin": surface_optimum(surface, "min"),
        },
    )
