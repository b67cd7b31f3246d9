"""Tests for the power model and energy accounting."""

import pytest

from repro.config import MemoryConfig, PowerConfig
from repro.errors import ConfigError
from repro.npu.memqueue import QueuedResource, build_memories
from repro.npu.microengine import Microengine
from repro.power.model import UNITS_PER_J, MePowerModel, PowerAccountant
from repro.power.overhead import DvsOverheadMeter
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.units import mhz

from test_microengine import ListSource


class TestMePowerModel:
    def test_calibration_anchor(self):
        config = PowerConfig(me_active_w_max=0.22)
        model = MePowerModel(config, mhz(600), 1.3)
        assert model.active_w(mhz(600), 1.3) == pytest.approx(0.22)

    def test_scaling_physics(self):
        config = PowerConfig(me_active_w_max=0.22)
        model = MePowerModel(config, mhz(600), 1.3)
        p_top = model.active_w(mhz(600), 1.3)
        p_bottom = model.active_w(mhz(400), 1.1)
        # (400/600) * (1.1/1.3)^2 = 0.4775...
        assert p_bottom / p_top == pytest.approx((400 / 600) * (1.1 / 1.3) ** 2)

    def test_idle_fraction(self):
        config = PowerConfig(me_active_w_max=0.2, me_idle_fraction=0.25)
        model = MePowerModel(config, mhz(600), 1.3)
        assert model.idle_w(mhz(600), 1.3) == pytest.approx(0.05)


def make_idle_me(sim):
    clock = ClockDomain(sim, mhz(600), "me0")
    sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
    return Microengine(
        sim, clock, 0, "rx", ListSource([]), lambda p: iter(()),
        {"sram": sram, "sdram": sdram, "scratch": scratch},
    )


class TestPowerAccountant:
    def test_base_power_integrates(self):
        sim = Simulator()
        config = PowerConfig(base_w=0.1)
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        sim.run(until_ps=1_000_000_000)  # 1 ms
        assert accountant.total_energy_j() == pytest.approx(0.1 * 1e-3)
        assert accountant.mean_power_w() == pytest.approx(0.1)

    def test_me_power_follows_state(self):
        sim = Simulator()
        config = PowerConfig(me_active_w_max=0.2, me_idle_fraction=0.5, base_w=0.0)
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        me = make_idle_me(sim)
        accountant.attach_me(me)
        me.start()  # polls forever: busy
        sim.run(until_ps=1_000_000_000)
        # Busy ME at top VF: ~0.2 W for 1 ms = 0.2 mJ.
        assert accountant.me_energy_j(0) == pytest.approx(0.2e-3, rel=0.01)

    def test_memory_energy_charged(self):
        sim = Simulator()
        config = PowerConfig(sdram_access_nj=5.0, sdram_byte_nj=0.1, base_w=0.0)
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        _, sdram, _, _ = build_memories(sim, MemoryConfig())
        accountant.attach_memory(sdram)
        sdram.request(100)
        # 5 nJ + 100 * 0.1 nJ = 15 nJ
        assert accountant.total_energy_j() == pytest.approx(15e-9)
        assert accountant.component_units()["sdram"] == 15 * UNITS_PER_J // 10**9

    def test_total_energy_uj(self):
        sim = Simulator()
        config = PowerConfig(base_w=1.0)
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        sim.run(until_ps=1_000_000)  # 1 us at 1 W = 1 uJ
        assert accountant.total_energy_uj() == pytest.approx(1.0)

    def test_breakdown_contains_components(self):
        sim = Simulator()
        config = PowerConfig()
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        me = make_idle_me(sim)
        accountant.attach_me(me)
        sram = me.memories["sram"]
        accountant.attach_memory(sram)
        sram.request(4)
        sim.run(until_ps=1_000_000)
        breakdown = accountant.breakdown_w()
        assert "me0" in breakdown
        assert breakdown["sram"] > 0
        assert "base" in breakdown

    def test_breakdown_keys_fixed_with_zeros(self):
        # Memory keys exist before any access, in a fixed order, even
        # for a target nobody attached (here: all but ixbus).
        sim = Simulator()
        config = PowerConfig()
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        for index in (1, 0):
            clock = ClockDomain(sim, mhz(600), f"me{index}")
            accountant.attach_me(
                Microengine(sim, clock, index, "rx", ListSource([]), lambda p: iter(()), {})
            )
        *_, ixbus = build_memories(sim, MemoryConfig())
        accountant.attach_memory(ixbus)
        assert list(accountant.breakdown_w()) == [
            "me0", "me1", "sram", "sdram", "scratch", "ixbus", "base", "dvs_overhead"
        ]
        assert set(accountant.breakdown_w().values()) == {0.0}
        sim.run(until_ps=1_000_000)
        breakdown = accountant.breakdown_w()
        assert list(breakdown) == list(accountant.component_units())
        assert breakdown["ixbus"] == breakdown["sram"] == breakdown["dvs_overhead"] == 0.0

    def test_unknown_memory_target_rejected(self):
        sim = Simulator()
        config = PowerConfig()
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        with pytest.raises(ConfigError, match="no energy prices"):
            accountant.attach_memory(QueuedResource(sim, "dram", 60.0, 20.0, 1.0))
        sram, *_ = build_memories(sim, MemoryConfig())
        accountant.attach_memory(sram)
        with pytest.raises(ConfigError, match="already attached"):
            accountant.attach_memory(sram)


class TestDvsOverheadMeter:
    def test_charges_accumulate(self):
        sim = Simulator()
        config = PowerConfig(
            tdvs_adder_nj_per_packet=0.5, edvs_counter_nj_per_window=2.0
        )
        accountant = PowerAccountant(sim, config, MePowerModel(config, mhz(600), 1.3))
        arrivals = [0]
        meter = DvsOverheadMeter(accountant, config, arrivals=lambda: arrivals[0])
        arrivals[0] = 10
        meter.on_window_evaluation()
        assert meter.packet_charges == 10
        assert meter.window_charges == 1
        assert meter.total_overhead_j() == pytest.approx((10 * 0.5 + 2.0) * 1e-9)

    def test_overhead_well_under_one_percent(self):
        """The paper's sub-1% claim holds at realistic packet rates."""
        config = PowerConfig()
        # 500 kpps for 1 second vs ~1.4 W chip power.
        adder_w = 500_000 * config.tdvs_adder_nj_per_packet * 1e-9
        assert adder_w / 1.4 < 0.01
