"""Distribution analyzers: the paper's extended LOC operators.

A distribution formula ``expr MODE <min, max, step>`` generates an
analyzer that evaluates ``expr`` for every instance ``i`` and reports how
the values distribute over ranges derived from the triple:

``in``
    disjoint bins ``(-inf, min], (min, min+step], ..., (max-step, max],
    (max, +inf)`` — a histogram;
``below``
    nested ranges ``(-inf, min], (-inf, min+step], ..., (-inf, max]`` —
    for each cutoff, the fraction of instances at or below it (CDF view);
``above``
    nested ranges ``[min, +inf), [min+step, +inf), ..., [max, +inf)`` —
    for each cutoff, the fraction of instances at or above it (CCDF view).

The paper's Figures 6/7/10/11 plot exactly these ``below``/``above``
curves; Figures 8/9 take the 80 % level of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError
from repro.loc.ast_nodes import DistributionFormula
from repro.trace.events import TraceEvent


def build_edges(low: float, high: float, step: float) -> List[float]:
    """Cutoff values ``[low, low+step, ..., high]`` from a LOC triple.

    The number of steps is rounded so that triples like ``<0.5, 2.25,
    0.01>`` produce exactly 176 cutoffs despite float representation.
    """
    if step <= 0:
        raise AnalysisError(f"step must be positive, got {step:g}")
    if high < low:
        raise AnalysisError(f"max {high:g} below min {low:g}")
    count = int(round((high - low) / step))
    edges = [low + k * step for k in range(count)]
    edges.append(high)  # exact endpoint, immune to accumulation drift
    return edges


@dataclass
class DistributionResult:
    """Binned distribution of a formula's instance values.

    ``counts`` has ``len(edges) + 1`` entries; entry ``k`` is the number
    of values in bin ``k`` under the mode's bin semantics (see module
    docstring).  Raw-value summary statistics are kept so reports can
    show mean/min/max alongside the binned view.
    """

    formula_text: str
    mode: str
    edges: List[float]
    counts: List[int]
    total: int
    undefined: int
    value_min: float
    value_max: float
    value_sum: float

    # -- scalar summaries ----------------------------------------------
    @property
    def mean(self) -> float:
        """Arithmetic mean of all defined instance values."""
        if self.total == 0:
            raise AnalysisError("no instances were evaluated")
        return self.value_sum / self.total

    # -- curve views -----------------------------------------------------
    def fraction_at_or_below(self, cutoff_index: int) -> float:
        """Fraction of values ``<= edges[cutoff_index]``."""
        self._require_total()
        return sum(self.counts[: cutoff_index + 1]) / self.total

    def fraction_at_or_above(self, cutoff_index: int) -> float:
        """Fraction of values ``>= edges[cutoff_index]`` (``above`` mode)."""
        self._require_total()
        if self.mode != "above":
            raise AnalysisError(
                "fraction_at_or_above requires an 'above'-mode result "
                f"(bins are half-open the other way in {self.mode!r} mode)"
            )
        return sum(self.counts[cutoff_index + 1 :]) / self.total

    def curve(self) -> List[Tuple[float, float]]:
        """The ``(cutoff, fraction)`` series the paper plots.

        ``below``/``in`` modes return the CDF; ``above`` returns the CCDF.
        """
        self._require_total()
        if self.mode == "above":
            return [
                (edge, self.fraction_at_or_above(k))
                for k, edge in enumerate(self.edges)
            ]
        return [
            (edge, self.fraction_at_or_below(k)) for k, edge in enumerate(self.edges)
        ]

    def histogram(self) -> List[Tuple[str, float]]:
        """Per-bin fractions with interval labels (the ``in`` view)."""
        self._require_total()
        labels = self._bin_labels()
        return [(label, count / self.total) for label, count in zip(labels, self.counts)]

    # -- percentile extraction (Figures 8/9) -----------------------------
    def level_cutoff(self, level: float) -> float:
        """Smallest/largest cutoff where the curve reaches ``level``.

        For CDF-style results: the smallest cutoff ``c`` with
        ``frac(value <= c) >= level`` (Figure 8's "80 % of instances are
        lower than this power").  For CCDF-style results: the largest
        cutoff ``c`` with ``frac(value >= c) >= level`` (Figure 9).

        Raises if the level is never reached inside the analysis range.
        """
        if not 0.0 < level <= 1.0:
            raise AnalysisError(f"level must be in (0, 1], got {level:g}")
        self._require_total()
        if self.mode == "above":
            best: Optional[float] = None
            for k, edge in enumerate(self.edges):
                if self.fraction_at_or_above(k) >= level:
                    best = edge
                else:
                    break
            if best is None:
                raise AnalysisError(
                    f"CCDF never reaches level {level:g} within the range"
                )
            return best
        for k, edge in enumerate(self.edges):
            if self.fraction_at_or_below(k) >= level:
                return edge
        raise AnalysisError(f"CDF never reaches level {level:g} within the range")

    # -- reporting --------------------------------------------------------
    def report(self, max_rows: Optional[int] = 12) -> str:
        """Multi-line text report (the generated-analyzer output format)."""
        lines = [
            f"LOC distribution: {self.formula_text}",
            f"  mode      : {self.mode}",
            f"  instances : {self.total}"
            + (f" (+{self.undefined} undefined)" if self.undefined else ""),
        ]
        if self.total:
            lines.append(
                f"  value range [{self.value_min:g}, {self.value_max:g}], "
                f"mean {self.mean:g}"
            )
            rows: Sequence[Tuple[str, float]]
            if self.mode == "in":
                # Histograms are often concentrated: show the populated
                # bins first, padding with empty neighbours only if room
                # remains.
                rows = self.histogram()
                populated = [row for row in rows if row[1] > 0]
                if max_rows is not None and populated:
                    rows = populated
            else:
                rows = [(f"{cutoff:g}", frac) for cutoff, frac in self.curve()]
            shown = rows if max_rows is None else _thin(rows, max_rows)
            for label, fraction in shown:
                lines.append(f"    {label:>18} : {fraction * 100:6.2f}%")
        return "\n".join(lines)

    # -- internals -------------------------------------------------------
    def _bin_labels(self) -> List[str]:
        edges = self.edges
        if self.mode == "above":
            labels = [f"(-inf, {edges[0]:g})"]
            labels += [
                f"[{edges[k - 1]:g}, {edges[k]:g})" for k in range(1, len(edges))
            ]
            labels.append(f"[{edges[-1]:g}, +inf)")
        else:
            labels = [f"(-inf, {edges[0]:g}]"]
            labels += [
                f"({edges[k - 1]:g}, {edges[k]:g}]" for k in range(1, len(edges))
            ]
            labels.append(f"({edges[-1]:g}, +inf)")
        return labels

    def _require_total(self) -> None:
        if self.total == 0:
            raise AnalysisError(
                f"no instances were evaluated for {self.formula_text!r}"
            )


def _thin(rows: Sequence, max_rows: int) -> List:
    """Evenly subsample rows for display, always keeping the endpoints."""
    if len(rows) <= max_rows:
        return list(rows)
    stride = (len(rows) - 1) / (max_rows - 1)
    return [rows[round(k * stride)] for k in range(max_rows)]


def analyze_trace(
    formula: Union[str, DistributionFormula],
    events: Iterable[TraceEvent],
) -> DistributionResult:
    """Run a distribution analysis over an event iterable.

    Runs the formula's generated monitor
    (:func:`repro.loc.monitor.build_monitor`), the same code that
    analyzes a live run.
    """
    from repro.loc.monitor import build_monitor, run_monitor

    monitor = build_monitor(formula, expect="distribution")
    return run_monitor(monitor, events)
