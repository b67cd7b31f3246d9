"""Tests for configuration dataclasses."""

import pytest

from repro.config import (
    DvsConfig,
    MemoryConfig,
    NpuConfig,
    PowerConfig,
    RunConfig,
    TrafficConfig,
)
from repro.errors import ConfigError


class TestNpuConfig:
    def test_defaults_valid(self):
        NpuConfig().validate()

    def test_ports_per_rx_me(self):
        assert NpuConfig().ports_per_rx_me == 4

    def test_me_partition_enforced(self):
        with pytest.raises(ConfigError):
            NpuConfig(rx_me_indices=(0, 1), tx_me_indices=(4, 5)).validate()

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ConfigError):
            NpuConfig(
                rx_me_indices=(0, 1, 2, 3), tx_me_indices=(3, 4)
            ).validate()

    def test_ports_must_divide_among_rx_mes(self):
        with pytest.raises(ConfigError):
            NpuConfig(num_ports=15).validate()

    def test_freq_step_must_divide_range(self):
        with pytest.raises(ConfigError):
            NpuConfig(me_freq_step_hz=70e6).validate()

    def test_vdd_ordering_enforced(self):
        with pytest.raises(ConfigError):
            NpuConfig(me_vdd_min=1.4, me_vdd_max=1.3).validate()


class TestDvsConfig:
    def test_defaults_valid(self):
        DvsConfig().validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            DvsConfig(policy="magic").validate()

    def test_idle_threshold_bounds(self):
        with pytest.raises(ConfigError):
            DvsConfig(idle_threshold=0.0).validate()
        with pytest.raises(ConfigError):
            DvsConfig(idle_threshold=1.0).validate()

    def test_hysteresis_bounds(self):
        DvsConfig(tdvs_hysteresis=0.5).validate()
        with pytest.raises(ConfigError):
            DvsConfig(tdvs_hysteresis=1.0).validate()


class TestTrafficConfig:
    def test_exactly_one_of_level_or_load(self):
        with pytest.raises(ConfigError):
            TrafficConfig(level="high", offered_load_mbps=1000.0).validate()
        with pytest.raises(ConfigError):
            TrafficConfig(level=None, offered_load_mbps=None).validate()

    def test_level_names(self):
        TrafficConfig(level="low", offered_load_mbps=None).validate()
        with pytest.raises(ConfigError):
            TrafficConfig(level="peak", offered_load_mbps=None).validate()

    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigError):
            TrafficConfig(process="pareto").validate()


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_unknown_benchmark_rejected(self):
        # The retired microcode benchmarks are unknown names too.
        for name in ("dns", "ipfwdr_uc", "nat_uc"):
            with pytest.raises(ConfigError, match=name):
                RunConfig(benchmark=name).validate()

    def test_pipeline_events_values(self):
        RunConfig(pipeline_events="chunk").validate()
        for value in ("everything", "instruction"):
            with pytest.raises(ConfigError, match=value):
                RunConfig(pipeline_events=value).validate()

    def test_dict_round_trip(self):
        config = RunConfig(
            benchmark="url",
            duration_cycles=1000,
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000),
            traffic=TrafficConfig(offered_load_mbps=800.0),
        )
        data = config.to_dict()
        rebuilt = RunConfig.from_dict(data)
        assert rebuilt == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"benchmark": "ipfwdr", "bogus": 1})

    def test_replaced_revalidates(self):
        config = RunConfig()
        with pytest.raises(ConfigError):
            config.replaced(benchmark="nope")

    def test_replaced_copies(self):
        config = RunConfig()
        other = config.replaced(duration_cycles=42)
        assert other.duration_cycles == 42
        assert config.duration_cycles != 42


class TestMemoryConfig:
    def test_defaults_valid(self):
        MemoryConfig().validate()

    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigError):
            MemoryConfig(sdram_access_ns=0).validate()
        with pytest.raises(ConfigError):
            MemoryConfig(sram_byte_ns=-0.1).validate()


class TestPowerConfig:
    def test_defaults_valid(self):
        PowerConfig().validate()

    def test_idle_fraction_bounds(self):
        with pytest.raises(ConfigError):
            PowerConfig(me_idle_fraction=1.5).validate()
