"""Figure 8: 3-D surface — 80th-percentile power over the design space.

A vertex is the power value below which 80 % of formula (2) instances
fall for a (threshold, window) pair.  The paper reads off: the 1000 Mbps
threshold keeps the highest power; the power-first pick is the 1400 Mbps
threshold with a 40k window.
"""

from __future__ import annotations

from repro.analysis.report import format_surface
from repro.analysis.surface import PercentileSurface
from repro.config import TDVS_THRESHOLDS_MBPS, TDVS_WINDOWS_CYCLES
from repro.experiments.common import tdvs_design_space
from repro.experiments.registry import ExperimentResult, register
from repro.studies.objective import select_design_point

#: The curve level the paper's surfaces read off.
SURFACE_LEVEL = 0.8


def surface_optimum(surface: PercentileSurface, direction: str):
    """Read a surface optimum off through the study reduction.

    Row-major cell order with first-wins ties — the same deterministic
    :func:`~repro.studies.objective.select_design_point` rule the study
    engine applies to per-scenario winners, so figure read-offs and
    policy-map winners can never disagree on tie-breaking.  It reads
    only the populated cells, so a partially filled surface has an
    optimum too.  Returns ``(row, col, value)``; ``direction`` is
    ``"min"`` or ``"max"``.
    """
    cells = [
        ((row, col), surface.value_at(row, col))
        for row in surface.row_values
        for col in surface.col_values
        if surface.has_result(row, col)
    ]
    (row, col), value = select_design_point(cells, direction)
    return row, col, value


def build_power_surface(profile: str, session) -> PercentileSurface:
    """The Figure 8 surface from the shared design-space grid (swept
    through ``session``, see :func:`tdvs_design_space`)."""
    grid = tdvs_design_space(profile, session)
    surface = PercentileSurface(
        TDVS_THRESHOLDS_MBPS,
        TDVS_WINDOWS_CYCLES,
        level=SURFACE_LEVEL,
        row_label="threshold (Mbps)",
        col_label="window (cycles)",
        value_label="power (W)",
    )
    for threshold in TDVS_THRESHOLDS_MBPS:
        for window in TDVS_WINDOWS_CYCLES:
            surface.add(threshold, window, grid[(threshold, window)].power_dist)
    return surface


@register("fig08", "80th-percentile power surface", "Figure 8")
def run(profile: str, session) -> ExperimentResult:
    """Render the power surface and its optima."""
    surface = build_power_surface(profile, session)
    text = format_surface(
        surface.row_values,
        surface.col_values,
        surface.grid(),
        row_label="thr Mbps",
        col_label="window",
        title="Figure 8: power (W) at the 80% CDF level",
    )
    low_thr, low_win, low_val = surface_optimum(surface, "min")
    text += (
        f"\n\nlowest-power design point: threshold {low_thr:.0f} Mbps, "
        f"window {low_win} cycles ({low_val:.3f} W)"
    )
    return ExperimentResult(
        "fig08",
        text,
        data={
            "grid": surface.grid(),
            "argmin": (low_thr, low_win, low_val),
            "argmax": surface_optimum(surface, "max"),
        },
    )
