"""Tests for the combined TDVS+EDVS extension governor."""

import pytest

from repro.config import DvsConfig, NpuConfig, TrafficConfig
from repro.dvs.combined import CombinedGovernor
from repro.dvs.vf_table import VfTable
from repro.runner import SimulationRun, run_simulation
from repro.sim.clock import FixedClock
from repro.sim.kernel import Simulator

from conftest import quick_config


def combined_config(load_mbps, **kw):
    return quick_config(
        duration_cycles=kw.pop("duration_cycles", 600_000),
        traffic=TrafficConfig(offered_load_mbps=load_mbps, process="cbr"),
        dvs=DvsConfig(policy="combined", window_cycles=20_000,
                      top_threshold_mbps=1000.0, idle_threshold=0.10),
        **kw,
    )


def test_low_traffic_floor_drives_all_mes_down():
    result = run_simulation(combined_config(150.0))
    # Traffic floor walks the whole chip down like TDVS would.
    for me in result.totals.me_summaries:
        assert me.freq_mhz == 400.0


def test_high_traffic_keeps_floor_up_but_idle_refines():
    run = SimulationRun(combined_config(1550.0, duration_cycles=800_000))
    result = run.run()
    governor = run.governor
    # The floor stays fast at saturating traffic...
    assert governor.traffic_floor <= 1
    # ...and per-ME refinement may slow memory-bound receive MEs anyway.
    assert any(
        governor.effective_level(me.index) >= governor.traffic_floor
        for me in run.chip.mes
    )


def test_effective_level_is_slower_of_the_two():
    run = SimulationRun(combined_config(400.0))
    run.run()
    governor = run.governor
    for me_index, idle_level in governor.idle_levels.items():
        assert governor.effective_level(me_index) == max(
            governor.traffic_floor, idle_level
        )


def test_combined_never_worse_than_best_single_policy_on_power():
    """At low traffic the combination must at least match TDVS."""
    traffic = TrafficConfig(offered_load_mbps=300.0, process="cbr")
    base = dict(duration_cycles=600_000, traffic=traffic)
    tdvs = run_simulation(quick_config(
        **base, dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                              top_threshold_mbps=1000.0)))
    combined = run_simulation(quick_config(
        **base, dvs=DvsConfig(policy="combined", window_cycles=20_000,
                              top_threshold_mbps=1000.0)))
    assert combined.mean_power_w <= tdvs.mean_power_w * 1.02


def test_both_monitors_charge_overhead():
    result = run_simulation(combined_config(800.0))
    assert result.dvs_overhead_w > 0
    # Still far below the paper's 1% bound even with both monitors.
    assert result.dvs_overhead_w < 0.01 * result.mean_power_w


def test_extension_experiment_registered():
    from repro.experiments import run_experiment

    result = run_experiment("abl-combined", profile="bench")
    data = result.data
    assert set(data) == {"none", "tdvs", "edvs", "combined"}
    assert data["combined"]["power_w"] < data["none"]["power_w"]
    # The combined monitors cost more than either single monitor...
    assert data["combined"]["overhead_w"] >= data["tdvs"]["overhead_w"]
    # ...but remain well under 1% of chip power (quantifying the paper's
    # declined-for-cost argument).
    assert data["combined"]["overhead_w"] < 0.01 * data["combined"]["power_w"]


def test_formula1_experiment():
    from repro.experiments import run_experiment

    result = run_experiment("formula1", profile="bench")
    assert result.data["instances"] > 50
    assert 0 < result.data["mean_us"] < 1000


class _FixedRate:
    """Traffic-monitor stand-in whose every window carries one rate."""

    def __init__(self, mbps):
        self.rate_per_s = mbps * 1e6

    def window_rate_per_s(self):
        return self.rate_per_s

    def reset_window(self):
        pass


@pytest.mark.parametrize(
    "fraction, floor_after",
    [(1.1, 0), (0.9, 1), (0.7, 2)],  # above, inside, below the band
)
def test_traffic_floor_honours_the_hysteresis_band(fraction, floor_after):
    sim = Simulator()
    npu = NpuConfig()
    table = VfTable.from_config(npu)
    config = DvsConfig(policy="combined", window_cycles=20_000,
                       top_threshold_mbps=1000.0, tdvs_hysteresis=0.2)
    threshold = table.traffic_threshold_mbps(1, config.top_threshold_mbps)
    governor = CombinedGovernor(
        sim, config, table, [], FixedClock(sim, npu.reference_freq_hz, "ref"),
        _FixedRate(fraction * threshold),
    )
    governor.traffic_floor = 1
    governor._on_traffic_window()
    assert governor.traffic_floor == floor_after
