"""Percentile surfaces over a 2-D design space (Figures 8 and 9).

A vertex of the paper's Figure 8 surface is "the power value below which
80 % of formula (2) instances fall, for a particular threshold and window
size"; Figure 9 is the throughput value above which 80 % of formula (3)
instances fall.  :class:`PercentileSurface` collects the per-design-point
:class:`~repro.loc.analyzer.DistributionResult` objects and extracts the
level cutoffs into a printable grid.  The figures read a surface's
optima through :func:`repro.experiments.fig08_power_surface.surface_optimum`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import AnalysisError
from repro.loc.analyzer import DistributionResult


class PercentileSurface:
    """Grid of distribution results keyed by (row, column) design axes.

    Parameters
    ----------
    row_values / col_values:
        Axis values, e.g. thresholds (Mbps) and window sizes (cycles).
    level:
        The curve level to extract (0.8 in the paper).
    row_label / col_label / value_label:
        Axis names for reports.
    """

    def __init__(
        self,
        row_values: Sequence[float],
        col_values: Sequence[float],
        level: float = 0.8,
        row_label: str = "threshold",
        col_label: str = "window",
        value_label: str = "value",
    ):
        if not row_values or not col_values:
            raise AnalysisError("surface axes must be non-empty")
        if not 0.0 < level <= 1.0:
            raise AnalysisError(f"level must be in (0, 1], got {level}")
        self.row_values = list(row_values)
        self.col_values = list(col_values)
        self.level = level
        self.row_label = row_label
        self.col_label = col_label
        self.value_label = value_label
        self._cells: Dict[Tuple[float, float], DistributionResult] = {}

    def add(self, row: float, col: float, result: DistributionResult) -> None:
        """Attach the distribution measured at one design point."""
        if row not in self.row_values or col not in self.col_values:
            raise AnalysisError(f"design point ({row}, {col}) not on the axes")
        self._cells[(row, col)] = result

    def is_complete(self) -> bool:
        """True when every design point has a result."""
        return len(self._cells) == len(self.row_values) * len(self.col_values)

    def has_result(self, row: float, col: float) -> bool:
        """True when the design point has a result attached."""
        return (row, col) in self._cells

    def value_at(self, row: float, col: float) -> float:
        """The level cutoff at one design point."""
        try:
            result = self._cells[(row, col)]
        except KeyError:
            raise AnalysisError(f"no result at design point ({row}, {col})") from None
        return result.level_cutoff(self.level)

    def grid(self) -> List[List[float]]:
        """Row-major grid of level cutoffs."""
        return [
            [self.value_at(row, col) for col in self.col_values]
            for row in self.row_values
        ]
