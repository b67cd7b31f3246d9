"""Tests for LOC distribution analyzers (the paper's three operators)."""

import math

import pytest

from repro.errors import AnalysisError, LocError
from repro.loc.analyzer import analyze_trace, build_edges
from repro.loc.checker import check_trace

from conftest import forward_series, make_event


class TestBuildEdges:
    def test_integer_steps(self):
        assert build_edges(40, 80, 5) == [40, 45, 50, 55, 60, 65, 70, 75, 80]

    def test_fractional_steps_exact_count(self):
        edges = build_edges(0.5, 2.25, 0.01)
        assert len(edges) == 176
        assert edges[0] == 0.5
        assert edges[-1] == 2.25

    def test_validation(self):
        with pytest.raises(AnalysisError):
            build_edges(0, 10, 0)
        with pytest.raises(AnalysisError):
            build_edges(10, 0, 1)


def series_events(values):
    """One 'e' event per value; formula cycle(e[i]) recovers the value."""
    return [make_event("e", cycle=v) for v in values]


class TestInMode:
    def test_histogram_bins(self):
        result = analyze_trace(
            "cycle(e[i]) in <0, 10, 5>", series_events([-5, 0, 3, 5, 7, 10, 12])
        )
        # Bins: (-inf,0], (0,5], (5,10], (10,inf)
        assert result.counts == [2, 2, 2, 1]
        assert result.total == 7

    def test_bin_edge_values_go_to_lower_bin(self):
        result = analyze_trace("cycle(e[i]) in <0, 10, 5>", series_events([5]))
        assert result.counts == [0, 1, 0, 0]

    def test_histogram_labels(self):
        result = analyze_trace("cycle(e[i]) in <0, 10, 5>", series_events([1]))
        labels = [label for label, _ in result.histogram()]
        assert labels == ["(-inf, 0]", "(0, 5]", "(5, 10]", "(10, +inf)"]


class TestBelowMode:
    def test_cdf_fractions(self):
        result = analyze_trace(
            "cycle(e[i]) below <0, 10, 5>", series_events([-1, 2, 6, 20])
        )
        curve = dict(result.curve())
        assert curve[0] == pytest.approx(0.25)
        assert curve[5] == pytest.approx(0.50)
        assert curve[10] == pytest.approx(0.75)

    def test_cdf_is_monotone(self):
        values = [1, 5, 2, 9, 3, 7, 7, 4]
        result = analyze_trace("cycle(e[i]) below <0, 10, 1>", series_events(values))
        fractions = [f for _, f in result.curve()]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_level_cutoff(self):
        result = analyze_trace(
            "cycle(e[i]) below <0, 10, 1>", series_events(list(range(11)))
        )
        # 80% of 11 values are <= 8.
        assert result.level_cutoff(0.8) == 8

    def test_level_unreachable(self):
        result = analyze_trace("cycle(e[i]) below <0, 5, 1>", series_events([100]))
        with pytest.raises(AnalysisError):
            result.level_cutoff(0.5)


class TestAboveMode:
    def test_ccdf_fractions(self):
        result = analyze_trace(
            "cycle(e[i]) above <0, 10, 5>", series_events([-1, 2, 6, 20])
        )
        curve = dict(result.curve())
        assert curve[0] == pytest.approx(0.75)
        assert curve[5] == pytest.approx(0.50)
        assert curve[10] == pytest.approx(0.25)

    def test_boundary_value_counts_as_at_or_above(self):
        result = analyze_trace("cycle(e[i]) above <0, 10, 5>", series_events([5]))
        curve = dict(result.curve())
        assert curve[5] == pytest.approx(1.0)

    def test_ccdf_is_monotone_decreasing(self):
        values = [1, 5, 2, 9, 3, 7, 7, 4]
        result = analyze_trace("cycle(e[i]) above <0, 10, 1>", series_events(values))
        fractions = [f for _, f in result.curve()]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_level_cutoff_largest_reaching(self):
        result = analyze_trace(
            "cycle(e[i]) above <0, 10, 1>", series_events(list(range(11)))
        )
        # frac(v >= 2) = 9/11 = 0.818 >= 0.8; frac(v >= 3) = 8/11 < 0.8.
        assert result.level_cutoff(0.8) == 2


class TestPaperFormula:
    def test_power_distribution_over_synthetic_trace(self):
        # energy rises 1.5 uJ per us -> power = 1.5 W everywhere.
        events = forward_series(150, dt_us=1.0, de_uj=1.5)
        result = analyze_trace(
            "(energy(forward[i+100]) - energy(forward[i])) / "
            "(time(forward[i+100]) - time(forward[i])) below <0.5, 2.25, 0.01>",
            events,
        )
        assert result.total == 50
        assert result.mean == pytest.approx(1.5)
        curve = dict(result.curve())
        assert curve[1.5] == pytest.approx(1.0)
        # Cutoff just below 1.5 (float-representable via edges list):
        below_edge = result.edges[99]  # 0.5 + 99*0.01 = 1.49
        assert result.fraction_at_or_below(99) == pytest.approx(0.0)
        assert below_edge < 1.5


class TestMisc:
    def test_mean_min_max(self):
        result = analyze_trace("cycle(e[i]) in <0, 10, 5>", series_events([1, 3, 8]))
        assert result.mean == pytest.approx(4.0)
        assert result.value_min == 1
        assert result.value_max == 8

    def test_nan_values_excluded(self):
        events = [make_event("e", time=math.nan), make_event("e", time=3.0)]
        result = analyze_trace("time(e[i]) in <0, 10, 5>", events)
        assert result.total == 1
        assert result.undefined == 0  # NaN data is skipped, not undefined

    def test_checker_formula_rejected(self):
        with pytest.raises(LocError):
            analyze_trace("cycle(e[i]) <= 5", [])

    def test_distribution_formula_rejected_by_checker(self):
        with pytest.raises(LocError):
            check_trace("cycle(e[i]) below <0, 1, 1>", [])

    def test_empty_result_guards(self):
        result = analyze_trace("cycle(e[i]) in <0, 10, 5>", [])
        assert result.total == 0
        assert math.isnan(result.value_min)
        with pytest.raises(AnalysisError):
            result.curve()
        with pytest.raises(AnalysisError):
            _ = result.mean

    def test_report_contains_distribution(self):
        result = analyze_trace(
            "cycle(e[i]) below <0, 10, 5>", series_events([1, 6])
        )
        report = result.report()
        assert "instances : 2" in report
        assert "mode      : below" in report

    def test_counts_sum_to_total(self):
        values = [0, 1, 2, 5, 5, 9, 100, -100]
        result = analyze_trace("cycle(e[i]) in <0, 10, 2>", series_events(values))
        assert sum(result.counts) == result.total == len(values)
