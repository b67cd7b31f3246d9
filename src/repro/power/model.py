"""Microengine power model and whole-chip energy accounting.

The calibration anchor is ``PowerConfig.me_active_w_max``: one ME's
active power at the top VF point.  The effective capacitance is derived
once (``C_eff = P / (Vdd^2 * f)``) and every other VF point follows the
physics: halving voltage quarters the dynamic power, lowering frequency
scales it linearly — which is why DVS saves energy rather than merely
stretching execution.

Energy is exact integer arithmetic.  Each power is quantized once to
integer femtowatts (:data:`FW_PER_W`) and each per-event energy to
integer units of 1 fW·ps = 1e-27 J (:data:`UNITS_PER_J`); the quantum
is a constant.  A component's energy is then an integer product of
counters the model keeps anyway, as time in each power state × that
state's power:

* a microengine: the picoseconds its
  :class:`~repro.sim.stats.IntervalAccumulator` charged to BUSY, and to
  IDLE or STALLED, times the busy and idle power of the V/F point in
  effect.  :meth:`~repro.npu.microengine.Microengine.set_vf`, the only
  V/F actuator, closes the interval at the old point through its
  ``on_vf_change`` hook;
* a memory target or the IX bus: ``requests`` × per-access energy +
  ``bytes_moved`` × per-byte energy;
* the DVS monitor hardware: a
  :class:`~repro.power.overhead.DvsOverheadMeter`'s charge counts ×
  their per-charge energies;
* the base power: elapsed picoseconds × base femtowatts.

No power code runs per state change, memory request or packet arrival.
A read costs O(#MEs), changes no state and converts to float once, so
no read changes a later one, and the components sum exactly to the
total in integer units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.config import PowerConfig
from repro.errors import ConfigError
from repro.npu.memqueue import QueuedResource
from repro.npu.microengine import BUSY, Microengine
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.power.overhead import DvsOverheadMeter

#: Power quantum: integer powers count femtowatts.
FW_PER_W = 10**15
#: Energy quantum: integer energies count 1 fW·ps = 1e-27 J.
UNITS_PER_J = 10**27
_UNITS_PER_UJ = 10**21
_UNITS_PER_NJ = 10**18


def quantize_w(watts: float) -> int:
    """``watts`` in integer femtowatts."""
    return round(watts * FW_PER_W)


def quantize_nj(nanojoules: float) -> int:
    """``nanojoules`` in integer energy units."""
    return round(nanojoules * _UNITS_PER_NJ)


class MePowerModel:
    """Maps an ME's (state, frequency, voltage) to watts."""

    def __init__(self, config: PowerConfig, freq_max_hz: float, vdd_max: float):
        if freq_max_hz <= 0 or vdd_max <= 0:
            raise ConfigError("freq_max_hz and vdd_max must be positive")
        self.config = config
        #: Effective switched capacitance derived from the calibration point.
        self.c_eff = config.me_active_w_max / (vdd_max**2 * freq_max_hz)

    def active_w(self, freq_hz: float, vdd: float) -> float:
        """Dynamic power while executing instructions."""
        return self.c_eff * vdd**2 * freq_hz

    def idle_w(self, freq_hz: float, vdd: float) -> float:
        """Power while idle or stalled (clock partially gated)."""
        return self.config.me_idle_fraction * self.active_w(freq_hz, vdd)

    def point_fw(self, freq_hz: float, vdd: float) -> Tuple[int, int]:
        """``(busy, idle)`` power at one V/F point, in femtowatts."""
        return quantize_w(self.active_w(freq_hz, vdd)), quantize_w(
            self.idle_w(freq_hz, vdd)
        )


class _MeEnergy:
    """One microengine's energy: closed V/F intervals plus the open one.

    The accumulator charges every picosecond to exactly one state, so
    the open interval's non-busy (idle or stalled) time is its length
    minus its busy time.
    """

    __slots__ = ("me", "states", "sim", "model", "closed", "open_ps", "busy_ps", "busy_fw", "idle_fw")

    def __init__(self, me: Microengine, model: MePowerModel):
        self.me = me
        self.states = me.states
        self.sim = me.sim
        self.model = model
        #: Units of the V/F intervals closed so far.
        self.closed = 0
        #: Start of the open interval, and the busy residency then.
        self.open_ps = me.sim.now_ps
        self.busy_ps = self.states.total_ps(BUSY)
        #: Prices of the open interval's V/F point.
        self.busy_fw, self.idle_fw = model.point_fw(me.clock.freq_hz, me.vdd)

    def units(self) -> int:
        """Energy so far, the open interval included; changes nothing."""
        busy = self.states.total_ps(BUSY) - self.busy_ps
        other = self.sim.now_ps - self.open_ps - busy
        return self.closed + busy * self.busy_fw + other * self.idle_fw

    def close(self) -> None:
        """``on_vf_change`` hook: close the open interval at the old
        point, then price the next one at the engine's new point."""
        self.closed = self.units()
        self.open_ps = self.sim.now_ps
        self.busy_ps = self.states.total_ps(BUSY)
        me = self.me
        self.busy_fw, self.idle_fw = self.model.point_fw(me.clock.freq_hz, me.vdd)


class PowerAccountant:
    """Aggregates all chip energy; source of the ``energy`` annotation.

    Components, in report order: each attached ME (``me<k>``), the
    memory targets ``sram``, ``sdram``, ``scratch`` and ``ixbus`` (zero
    when none is attached), the constant base power and the DVS-monitor
    overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        config: PowerConfig,
        me_model: MePowerModel,
    ):
        self.sim = sim
        self.me_model = me_model
        self._start_ps = sim.now_ps
        self._base_fw = quantize_w(config.base_w)
        self._mes: Dict[int, _MeEnergy] = {}
        #: Per-target ``(access, per-byte)`` energies, in units, in
        #: report order.
        self._memory_prices = {
            "sram": (quantize_nj(config.sram_access_nj), quantize_nj(config.sram_byte_nj)),
            "sdram": (quantize_nj(config.sdram_access_nj), quantize_nj(config.sdram_byte_nj)),
            "scratch": (
                quantize_nj(config.scratch_access_nj),
                quantize_nj(config.scratch_byte_nj),
            ),
            "ixbus": (0, quantize_nj(config.bus_byte_nj)),
        }
        self._memories: Dict[str, Tuple[QueuedResource, int, int]] = {}
        self._overhead: Optional["DvsOverheadMeter"] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_me(self, me: Microengine) -> None:
        """Start charging a microengine's energy, from now."""
        if me.index in self._mes:
            raise ConfigError(f"ME{me.index} is already attached")
        meter = _MeEnergy(me, self.me_model)
        self._mes[me.index] = meter
        me.on_vf_change = meter.close

    def attach_memory(self, resource: QueuedResource) -> None:
        """Charge a memory target's or the IX bus's accesses and bytes."""
        prices = self._memory_prices.get(resource.name)
        if prices is None:
            raise ConfigError(
                f"no energy prices for memory target {resource.name!r} "
                f"(known: {', '.join(self._memory_prices)})"
            )
        if resource.name in self._memories:
            raise ConfigError(f"memory target {resource.name!r} is already attached")
        self._memories[resource.name] = (resource, *prices)

    def attach_overhead(self, meter: "DvsOverheadMeter") -> None:
        """Charge a :class:`~repro.power.overhead.DvsOverheadMeter`'s counts."""
        if self._overhead is not None:
            raise ConfigError("a DVS overhead meter is already attached")
        self._overhead = meter

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def total_units(self) -> int:
        """Cumulative chip energy since construction, in units.

        The same sum as :meth:`component_units` without building the
        report dict: this runs once per annotated trace event.
        """
        total = self._base_fw * (self.sim.now_ps - self._start_ps)
        for meter in self._mes.values():
            total += meter.units()
        for resource, access, per_byte in self._memories.values():
            total += resource.requests * access + resource.bytes_moved * per_byte
        if self._overhead is not None:
            total += self._overhead.units()
        return total

    def component_units(self) -> Dict[str, int]:
        """Cumulative energy per component in units, in report order."""
        out = {f"me{index}": self._mes[index].units() for index in sorted(self._mes)}
        for name in self._memory_prices:
            entry = self._memories.get(name)
            if entry is None:
                out[name] = 0
            else:
                resource, access, per_byte = entry
                out[name] = resource.requests * access + resource.bytes_moved * per_byte
        out["base"] = self._base_fw * (self.sim.now_ps - self._start_ps)
        out["dvs_overhead"] = 0 if self._overhead is None else self._overhead.units()
        return out

    def total_energy_j(self) -> float:
        """Cumulative chip energy since construction, in joules."""
        return self.total_units() / UNITS_PER_J

    def total_energy_uj(self) -> float:
        """Cumulative chip energy in microjoules (trace annotation)."""
        return self.total_units() / _UNITS_PER_UJ

    def me_energy_j(self, index: int) -> float:
        """Energy one ME has consumed so far."""
        return self._mes[index].units() / UNITS_PER_J

    def mean_power_w(self) -> float:
        """Average chip power since construction."""
        elapsed_ps = self.sim.now_ps - self._start_ps
        if elapsed_ps <= 0:
            return 0.0
        return self.total_units() / (elapsed_ps * FW_PER_W)

    def breakdown_w(self) -> Dict[str, float]:
        """Mean power per component, in report order, zeros included."""
        components = self.component_units()
        elapsed_ps = self.sim.now_ps - self._start_ps
        if elapsed_ps <= 0:
            return {name: 0.0 for name in components}
        scale = elapsed_ps * FW_PER_W
        return {name: units / scale for name, units in components.items()}
