"""Tests for the TDVS and EDVS governors (integration with the chip)."""

import pytest

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.runner import SimulationRun, run_simulation
from repro.units import mhz

from conftest import quick_config


def run_quick(**overrides):
    return run_simulation(quick_config(**overrides))


class TestTdvs:
    def test_low_traffic_scales_to_bottom(self):
        result = run_quick(
            duration_cycles=400_000,
            traffic=TrafficConfig(offered_load_mbps=100.0, process="cbr"),
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                          top_threshold_mbps=1000.0),
        )
        for me in result.totals.me_summaries:
            assert me.freq_mhz == 400.0
        assert result.governor_transitions >= 4  # walked the ladder down

    def test_high_traffic_stays_at_top(self):
        # 80k windows average ~78 packets, so sampling noise cannot dip
        # the measured rate below the 1000 Mbps threshold at 1600 Mbps.
        result = run_quick(
            duration_cycles=800_000,
            traffic=TrafficConfig(offered_load_mbps=1600.0, process="cbr"),
            dvs=DvsConfig(policy="tdvs", window_cycles=80_000,
                          top_threshold_mbps=1000.0),
        )
        for me in result.totals.me_summaries:
            assert me.freq_mhz == 600.0
        assert result.governor_transitions == 0

    def test_small_windows_flap_from_sampling_noise(self):
        """~20 packets per 20k window -> occasional sub-threshold samples.

        This is the mechanism behind the paper's small-window penalty
        overhead: the same offered load triggers transitions at 20k
        windows that 80k windows never see.
        """
        result = run_quick(
            duration_cycles=800_000,
            traffic=TrafficConfig(offered_load_mbps=1600.0, process="cbr"),
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                          top_threshold_mbps=1000.0),
        )
        assert result.governor_transitions > 0

    def test_all_mes_share_the_vf_level(self):
        result = run_quick(
            duration_cycles=400_000,
            traffic=TrafficConfig(offered_load_mbps=700.0, process="cbr"),
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                          top_threshold_mbps=1000.0),
        )
        freqs = {me.freq_mhz for me in result.totals.me_summaries}
        assert len(freqs) == 1

    def test_saves_power_vs_baseline(self):
        traffic = TrafficConfig(offered_load_mbps=400.0, process="cbr")
        baseline = run_quick(duration_cycles=600_000, traffic=traffic)
        scaled = run_quick(
            duration_cycles=600_000,
            traffic=traffic,
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                          top_threshold_mbps=1200.0),
        )
        assert scaled.mean_power_w < baseline.mean_power_w * 0.9

    def test_windows_counted(self):
        run = SimulationRun(
            quick_config(
                duration_cycles=400_000,
                dvs=DvsConfig(policy="tdvs", window_cycles=40_000),
            )
        )
        # A 40k-cycle window rounds to 66,666,667 ps and the run to
        # 666,666,667 ps, so the 10th boundary lands 3 ps after the run
        # ends: exactly 9 windows are evaluated.
        window_ps = run.chip.reference_clock.delay_for_cycles(40_000)
        assert (window_ps, run.duration_ps) == (66_666_667, 666_666_667)
        assert run.run().governor_windows == 9

    def test_monitor_overhead_small_but_positive(self):
        result = run_quick(
            duration_cycles=400_000,
            dvs=DvsConfig(policy="tdvs", window_cycles=40_000),
        )
        assert 0 < result.dvs_overhead_w < 0.01 * result.mean_power_w

    def test_hysteresis_reduces_transitions(self):
        traffic = TrafficConfig(offered_load_mbps=1000.0, process="poisson")
        kwargs = dict(policy="tdvs", window_cycles=20_000, top_threshold_mbps=1000.0)
        plain = run_quick(duration_cycles=600_000, traffic=traffic,
                          dvs=DvsConfig(**kwargs))
        damped = run_quick(duration_cycles=600_000, traffic=traffic,
                           dvs=DvsConfig(**kwargs, tdvs_hysteresis=0.3))
        assert damped.governor_transitions < plain.governor_transitions


class TestEdvs:
    def test_mes_scale_independently(self):
        run = SimulationRun(quick_config(
            duration_cycles=800_000,
            traffic=TrafficConfig(offered_load_mbps=1550.0, process="cbr"),
            dvs=DvsConfig(policy="edvs", window_cycles=20_000),
        ))
        result = run.run()
        governor = run.governor
        assert governor is not None
        # Per-ME levels exist and are tracked individually.
        assert set(governor.levels) == {me.index for me in result.totals.me_summaries}

    def test_transmit_mes_never_scale_down(self):
        result = run_quick(
            duration_cycles=800_000,
            traffic=TrafficConfig(offered_load_mbps=1550.0, process="cbr"),
            dvs=DvsConfig(policy="edvs", window_cycles=20_000),
        )
        for me in result.totals.me_summaries:
            if me.role == "tx":
                assert me.freq_mhz == 600.0
                assert me.freq_changes == 0

    def test_busy_polling_mes_stay_at_top_at_low_traffic(self):
        result = run_quick(
            duration_cycles=600_000,
            traffic=TrafficConfig(offered_load_mbps=100.0, process="cbr"),
            dvs=DvsConfig(policy="edvs", window_cycles=20_000),
        )
        # Polling counts as busy: no ME sees idle above the threshold.
        for me in result.totals.me_summaries:
            assert me.freq_mhz == 600.0
        assert result.governor_transitions == 0

    def test_poll_as_idle_ablation_scales_down_at_low_traffic(self):
        from repro.config import NpuConfig

        result = run_quick(
            duration_cycles=600_000,
            npu=NpuConfig(poll_counts_as_idle=True),
            traffic=TrafficConfig(offered_load_mbps=100.0, process="cbr"),
            dvs=DvsConfig(policy="edvs", window_cycles=20_000),
        )
        assert result.governor_transitions > 0
        assert min(me.freq_mhz for me in result.totals.me_summaries) == 400.0

    def test_policy_none_has_no_governor(self):
        run = SimulationRun(quick_config())
        assert run.governor is None
        result = run.run()
        assert result.governor_transitions == 0


#: Near-zero load: at 1 Mbps CBR no packet arrives in 1.6M cycles.
NEAR_ZERO = dict(
    benchmark="ipfwdr",
    duration_cycles=1_600_000,
    seed=7,
    traffic=TrafficConfig(offered_load_mbps=1.0, process="cbr"),
)

#: Windows a 600 MHz clock evaluates in the near-zero run, per window
#: length: the boundaries at or before the run's end.  Both lengths round
#: to whole picoseconds.  A 40k window is 66,666,666.67 ps, rounded to
#: 66,666,667, and the run is 2,666,666,667 ps, so the 40th boundary lands
#: 13 ps after the run ends: 39 windows, not 40.
NEAR_ZERO_WINDOWS = {20_000: 80, 40_000: 39, 60_000: 26, 80_000: 20}


def near_zero_run(policy: str, window_cycles: int) -> SimulationRun:
    dvs = DvsConfig(policy=policy, window_cycles=window_cycles)
    return SimulationRun(RunConfig(**NEAR_ZERO, dvs=dvs))


class TestNearZeroLoad:
    """Closed forms for a chip that sees no traffic."""

    @pytest.mark.parametrize("window_cycles", sorted(NEAR_ZERO_WINDOWS))
    def test_tdvs_steps_down_once_per_window_to_the_bottom(self, window_cycles):
        run = near_zero_run("tdvs", window_cycles)
        window_ps = run.chip.reference_clock.delay_for_cycles(window_cycles)
        windows = NEAR_ZERO_WINDOWS[window_cycles]
        assert windows * window_ps <= run.duration_ps < (windows + 1) * window_ps
        result = run.run()
        assert result.totals.offered_packets == 0
        assert result.governor_windows == windows
        # Every window reads 0 Mbps, below every threshold: one step down
        # per window from the top of the 5-level ladder, then the bottom
        # for the rest of the run.
        assert run.governor.level_history == [0, 1, 2, 3, 4] + [4] * (windows - 4)
        assert result.governor_transitions == 4

    @pytest.mark.parametrize("window_cycles", sorted(NEAR_ZERO_WINDOWS))
    def test_edvs_never_scales_because_polling_is_busy(self, window_cycles):
        run = near_zero_run("edvs", window_cycles)
        result = run.run()
        assert result.totals.offered_packets == 0
        # An idle ME busy-polls, and polling counts as busy, so no window
        # is idle enough to step down: every ME keeps the top clock, the
        # reference clock's rate, and evaluates the same windows.
        assert result.governor_transitions == 0
        assert set(run.governor.levels.values()) == {0}
        assert result.governor_windows == 6 * NEAR_ZERO_WINDOWS[window_cycles]
