"""Tests for the experiment registry and the per-figure harnesses.

Simulation-backed experiments run with the ``bench`` profile (short
runs); the assertions target the paper's *qualitative* findings, which
hold even at reduced cycle counts.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.api import EventHooks, Session, StorePolicy
from repro.experiments.common import (
    TDVS_THRESHOLDS_MBPS,
    TDVS_WINDOWS_CYCLES,
    tdvs_design_space,
)
from repro.sweep import ResultStore


def test_registry_lists_all_paper_artifacts():
    ids = list_experiments()
    for expected in (
        "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
        "fig08", "fig09", "fig10", "fig11", "idle",
        "abl-penalty", "abl-polling", "abl-hysteresis",
    ):
        assert expected in ids


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


def test_unknown_profile_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("fig06", profile="huge")


class TestStaticExperiments:
    def test_fig01_table(self):
        result = run_experiment("fig01")
        assert "IXP1200" in result.text
        assert "IXP2800" in result.text
        # The family trend the paper highlights: power grows with complexity.
        powers = [row[5] for row in result.data["rows"][:3]]
        assert powers == sorted(powers)

    def test_fig02_diurnal_shape(self):
        result = run_experiment("fig02")
        assert result.data["peak_bps"] > 5 * result.data["trough_bps"]
        buckets = result.data["buckets"]
        for _, low, med, high in buckets:
            assert low <= med <= high

    def test_fig03_schema(self):
        result = run_experiment("fig03")
        assert result.data["events"] == ["pipeline", "forward", "fifo"]
        assert "total_bit" in result.data["annotations"]

    def test_fig04_snapshot(self):
        result = run_experiment("fig04")
        assert "cycle time(us) energy" in result.text
        assert "forward" in result.text
        assert any(
            name.endswith("_pipeline") for name in result.data["event_names"]
        )

    def test_fig05_matches_paper_row(self):
        result = run_experiment("fig05")
        thresholds = [round(row[2]) for row in result.data["rows"]]
        assert thresholds == [1000, 917, 833, 750, 667]


class TestDesignSpaceExperiments:
    """Figures 6-9 run through one session, whose in-memory store holds
    the shared grid after the first sweep."""

    @pytest.fixture(scope="class")
    def session(self):
        return Session(store=StorePolicy(store=ResultStore()))

    def test_grid_complete(self, session):
        grid = tdvs_design_space("bench", session)
        assert (None, None) in grid
        assert len(grid) == 1 + len(TDVS_THRESHOLDS_MBPS) * len(TDVS_WINDOWS_CYCLES)

    def test_fig06_every_tdvs_point_saves_power(self, session):
        result = session.experiment("fig06", profile="bench")
        baseline = result.data["mean_power_w"][(None, None)]
        for key, power in result.data["mean_power_w"].items():
            if key == (None, None):
                continue
            assert power < baseline

    def test_fig06_smaller_windows_lower_power(self, session):
        result = session.experiment("fig06", profile="bench")
        powers = result.data["mean_power_w"]
        for threshold in TDVS_THRESHOLDS_MBPS:
            assert powers[(threshold, 20_000)] < powers[(threshold, 80_000)]

    def test_fig07_small_windows_cost_throughput(self, session):
        result = session.experiment("fig07", profile="bench")
        throughput = result.data["throughput_mbps"]
        baseline = throughput[(None, None)]
        # 20k windows lose measurably more than 80k at the high threshold.
        assert throughput[(1400.0, 20_000)] < throughput[(1400.0, 80_000)]
        assert throughput[(1400.0, 80_000)] <= baseline * 1.02

    def test_fig08_surface_renders(self, session):
        result = session.experiment("fig08", profile="bench")
        assert len(result.data["grid"]) == len(TDVS_THRESHOLDS_MBPS)
        assert "lowest-power design point" in result.text

    def test_fig09_surface_renders(self, session):
        result = session.experiment("fig09", profile="bench")
        assert len(result.data["grid"][0]) == len(TDVS_WINDOWS_CYCLES)
        assert "best-throughput design point" in result.text

    def test_fig08_fig09_tradeoff_direction(self, session):
        power = session.experiment("fig08", profile="bench").data
        throughput = session.experiment("fig09", profile="bench").data
        # The lowest-power point must not also be the best-throughput point.
        assert power["argmin"][:2] != throughput["argmax"][:2]


class TestEdvsExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig10", profile="bench")

    def test_power_saved_at_every_window(self, result):
        for window, saving in result.data["savings"].items():
            assert saving > 0.0, f"window {window} saved nothing"

    def test_throughput_nearly_unchanged(self, result):
        baseline = result.data["baseline_throughput_mbps"]
        for window, throughput in result.data["edvs_throughput_mbps"].items():
            assert throughput >= baseline * 0.95

    def test_tx_mes_never_scale(self, result):
        for window, changes in result.data["tx_me_freq_changes"].items():
            assert changes == [0, 0]


class TestIdleExperiment:
    def test_bimodal_rx_unimodal_tx(self):
        result = run_experiment("idle", profile="bench")
        rx = result.data["rx"]
        tx = result.data["tx"]
        # Transmit MEs: almost always under 5% idle.
        assert tx["<5%"] > 0.9
        # Receive MEs: two modes — the middle band is the smallest.
        assert rx["5-30%"] < rx["<5%"] + rx[">=30%"]
        assert rx[">=30%"] > 0.1


class TestAblations:
    def test_penalty_sweep_monotone_loss(self):
        result = run_experiment("abl-penalty", profile="bench")
        losses = [result.data[p]["loss"] for p in (0.0, 10.0, 20.0)]
        assert losses[0] <= losses[1] <= losses[2]
        # Zero penalty: transitions are free, so throughput stays high.
        assert result.data[0.0]["throughput_mbps"] >= result.data[20.0][
            "throughput_mbps"
        ]

    def test_polling_ablation_changes_edvs_behaviour(self):
        result = run_experiment("abl-polling", profile="bench")
        paper = result.data["busy (paper)"]
        ablated = result.data["idle"]
        assert paper["transitions"] == 0
        assert ablated["transitions"] > 0
        assert ablated["power_w"] < paper["power_w"]
        assert ablated["min_freq_mhz"] == 400.0

    def test_hysteresis_reduces_transitions(self):
        result = run_experiment("abl-hysteresis", profile="bench")
        assert (
            result.data[0.2]["transitions"] < result.data[0.0]["transitions"]
        )


class TestOnePath:
    """Every simulating experiment except fig04, formula1 and idle
    sweeps through its session; figures share outcomes only through the
    session's store."""

    @pytest.mark.parametrize(
        "experiment_id, jobs",
        [
            ("abl-penalty", 4),
            ("abl-polling", 2),
            ("abl-hysteresis", 3),
            ("abl-combined", 4),
        ],
    )
    def test_ablation_outcomes_reach_the_session(self, experiment_id, jobs):
        seen = []
        session = Session(hooks=EventHooks(on_outcome=seen.append))
        session.experiment(experiment_id, profile="bench")
        assert len(seen) == jobs

    def test_a_later_session_stores_the_grid(self):
        Session().experiment("fig06", profile="bench")
        store = ResultStore()
        Session(store=StorePolicy(store=store)).experiment("fig08", profile="bench")
        assert len(store) == 17

    def test_a_figure_reads_the_shared_grid_from_the_store(self):
        started, seen = [], []
        session = Session(
            store=StorePolicy(store=ResultStore()),
            hooks=EventHooks(on_job_start=started.append, on_outcome=seen.append),
        )
        session.experiment("fig06", profile="bench")
        assert len(started) == 17
        started.clear()
        seen.clear()
        session.experiment("fig07", profile="bench")
        assert started == []
        assert len(seen) == 17
        assert all(outcome.cached for outcome in seen)
