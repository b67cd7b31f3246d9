"""Tests for the scenario subsystem: specs, catalog, playback."""

import random

import pytest

from repro.config import RunConfig, TrafficConfig
from repro.errors import ConfigError, TrafficError
from repro.runner import run_simulation, traffic_scenario
from repro.scenarios import (
    Scenario,
    ScenarioSegment,
    all_scenarios,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.traffic.arrivals import ConstantBitRate, PiecewiseArrivalProcess
from repro.traffic.sizes import ALL_MINIMUM, IMIX_CLASSIC

PS_PER_MS = 10**9


def two_phase_scenario(name="two_phase"):
    return Scenario(
        name=name,
        title="Two phases",
        description="CBR low then CBR high.",
        segments=(
            ScenarioSegment(weight=1.0, offered_load_mbps=200.0, process="cbr"),
            ScenarioSegment(weight=1.0, offered_load_mbps=800.0, process="cbr"),
        ),
    )


class TestScenarioSpec:
    def test_catalog_scenarios_validate(self):
        assert len(list_scenarios()) >= 8
        for scenario in all_scenarios():
            scenario.validate()

    def test_dict_round_trip(self):
        for scenario in all_scenarios():
            rebuilt = Scenario.from_dict(scenario.to_dict())
            assert rebuilt == scenario

    def test_from_dict_rejects_unknown_keys(self):
        data = two_phase_scenario().to_dict()
        data["bogus"] = 1
        with pytest.raises(TrafficError):
            Scenario.from_dict(data)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(TrafficError):
            get_scenario("no_such_workload")

    def test_register_rejects_duplicates(self):
        scenario = get_scenario("flash_crowd")
        with pytest.raises(TrafficError):
            register_scenario(scenario)
        register_scenario(scenario, replace=True)  # idempotent with replace

    def test_empty_segments_rejected(self):
        with pytest.raises(TrafficError):
            Scenario(name="x", title="x", description="x", segments=()).validate()

    def test_segment_bad_mix_rejected(self):
        with pytest.raises(TrafficError):
            ScenarioSegment(weight=1.0, offered_load_mbps=100.0, size_mix="jumbo").validate()

    def test_mean_and_peak_loads(self):
        scenario = two_phase_scenario()
        assert scenario.mean_load_mbps == pytest.approx(500.0)
        assert scenario.peak_load_mbps == 800.0

    def test_segment_spans_cover_duration(self):
        scenario = get_scenario("flash_crowd")
        spans = scenario.segment_spans_ps(1_000_000)
        assert spans[-1][0] == 1_000_000
        ends = [end for end, _ in spans]
        assert ends == sorted(ends)
        assert len(spans) == len(scenario.segments)


class TestPiecewisePlayback:
    def test_piecewise_rates_per_segment(self):
        # 1 Mpps for the first ms, 0.25 Mpps for the second.
        process = PiecewiseArrivalProcess(
            [
                (PS_PER_MS, ConstantBitRate(8e9, 8000)),
                (2 * PS_PER_MS, ConstantBitRate(2e9, 8000)),
            ]
        )
        rng = random.Random(0)
        now = 0
        first = second = 0
        while now < 2 * PS_PER_MS:
            now += process.next_gap_ps(rng)
            if now <= PS_PER_MS:
                first += 1
            elif now <= 2 * PS_PER_MS:
                second += 1
        assert first == 1000
        assert second == 250

    def test_last_segment_is_open_ended(self):
        process = PiecewiseArrivalProcess([(1000, ConstantBitRate(8e9, 8000))])
        rng = random.Random(0)
        total = sum(process.next_gap_ps(rng) for _ in range(50))
        assert total > 1000  # keeps generating past its nominal end

    def test_boundaries_must_increase(self):
        with pytest.raises(TrafficError):
            PiecewiseArrivalProcess(
                [
                    (1000, ConstantBitRate(8e9, 8000)),
                    (1000, ConstantBitRate(8e9, 8000)),
                ]
            )

    def test_mean_rate_weighted(self):
        process = PiecewiseArrivalProcess(
            [
                (PS_PER_MS, ConstantBitRate(8e9, 8000)),
                (2 * PS_PER_MS, ConstantBitRate(2e9, 8000)),
            ]
        )
        assert process.mean_rate_pps == pytest.approx(625_000.0)

    def test_size_mix_follows_segments(self):
        scenario = Scenario(
            name="mix_switch",
            title="imix then min64",
            description="test",
            segments=(
                ScenarioSegment(
                    weight=1.0, offered_load_mbps=500.0, process="cbr"
                ),
                ScenarioSegment(
                    weight=1.0,
                    offered_load_mbps=500.0,
                    process="cbr",
                    size_mix="min64",
                ),
            ),
        )
        mixes = [mix for _, _, mix in scenario.phases(2 * PS_PER_MS)]
        assert mixes == [IMIX_CLASSIC, ALL_MINIMUM]


class TestScenarioRuns:
    def test_traffic_config_scenario_validation(self):
        TrafficConfig.for_scenario("flash_crowd").validate()
        with pytest.raises(ConfigError):
            TrafficConfig.for_scenario("no_such_workload").validate()
        with pytest.raises(ConfigError):
            # Scenario and explicit load together are ambiguous.
            TrafficConfig(scenario="flash_crowd", offered_load_mbps=500.0).validate()

    def test_scenario_traffic_plays_the_catalog_entry(self):
        traffic = TrafficConfig.for_scenario("flash_crowd")
        assert traffic_scenario(traffic) is get_scenario("flash_crowd")

    def test_run_config_scenario_round_trip(self):
        config = RunConfig(traffic=TrafficConfig.for_scenario("ddos_min64"))
        assert RunConfig.from_dict(config.to_dict()) == config


def test_every_catalog_scenario_runs():
    """Every catalog scenario runs end to end at the bench profile."""
    from repro.experiments.common import cycles_for

    for name in list_scenarios():
        config = RunConfig(
            duration_cycles=cycles_for("bench"),
            seed=5,
            traffic=TrafficConfig.for_scenario(name),
        )
        result = run_simulation(config)
        assert result.totals.forwarded_packets > 0, name
        assert result.totals.mean_power_w > 0, name


def test_scenario_runs_are_deterministic():
    config = RunConfig(
        duration_cycles=150_000,
        seed=9,
        traffic=TrafficConfig.for_scenario("bursty_onoff"),
    )
    first = run_simulation(config)
    second = run_simulation(config)
    assert first.totals == second.totals
