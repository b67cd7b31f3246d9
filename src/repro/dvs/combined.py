"""Combined TDVS+EDVS governor (the paper's declined design point).

The paper: "We do not combine the two policies because monitoring both
traffic load and processor idle time on a chip is expensive in terms of
area and power."  This extension implements the combination anyway so
the trade-off can be *measured* rather than assumed:

* a chip-wide **traffic floor**: the TDVS rule computes the slowest
  level the offered traffic justifies;
* per-ME **idle refinement**: the EDVS rule lets an individual ME run
  slower than the floor when its own idle time allows (and pulls it
  back up when it does not).

An ME's effective level is ``max(traffic_floor, its own idle level)``
(higher level index = slower).  Both monitors charge their hardware
overhead, so experiments can check whether the paper's cost objection
holds (see the ``abl-combined`` ablation).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DvsConfig
from repro.dvs.governor import GovernorBase, traffic_rule
from repro.dvs.vf_table import VfTable
from repro.npu.microengine import Microengine
from repro.power.overhead import DvsOverheadMeter
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.stats import RateWindow


class CombinedGovernor(GovernorBase):
    """Traffic floor chip-wide, idle refinement per ME."""

    policy = "combined"

    def __init__(
        self,
        sim: Simulator,
        config: DvsConfig,
        vf_table: VfTable,
        mes: List[Microengine],
        reference_clock: ClockDomain,
        traffic_monitor: RateWindow,
        overhead: Optional[DvsOverheadMeter] = None,
    ):
        super().__init__(sim, config, vf_table, overhead)
        self.mes = mes
        self.reference_clock = reference_clock
        self.traffic_monitor = traffic_monitor
        self.traffic_floor = 0
        self.idle_levels: Dict[int, int] = {me.index: 0 for me in mes}
        self._applied: Dict[int, int] = {me.index: 0 for me in mes}
        self._window_ps = reference_clock.delay_for_cycles(config.window_cycles)

    # ------------------------------------------------------------------
    def _schedule_first(self) -> None:
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_traffic_window)
        for me in sorted(self.mes, key=lambda m: m.index):
            me.reset_window()
            self.sim.schedule(
                me.clock.delay_for_cycles(self.config.window_cycles),
                self._on_idle_window,
                me,
            )

    # -- chip-wide traffic rule -------------------------------------------
    def _on_traffic_window(self) -> None:
        self._charge_window_overhead()
        rate_mbps = self.traffic_monitor.window_rate_per_s() / 1e6
        self.traffic_floor = traffic_rule(
            self.vf_table, self.config, self.traffic_floor, rate_mbps
        )
        for me in self.mes:
            self._apply_effective(me)
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_traffic_window)

    # -- per-ME idle rule ----------------------------------------------------
    def _on_idle_window(self, me: Microengine) -> None:
        self._charge_window_overhead()
        self.idle_levels[me.index] = self._idle_rule(
            self.idle_levels[me.index], me.idle_fraction_window()
        )
        self._apply_effective(me)
        me.reset_window()
        self.sim.schedule(
            me.clock.delay_for_cycles(self.config.window_cycles),
            self._on_idle_window,
            me,
        )

    # -- composition -----------------------------------------------------------
    def effective_level(self, me_index: int) -> int:
        """Slower of the traffic floor and the ME's own idle level."""
        return max(self.traffic_floor, self.idle_levels[me_index])

    def _apply_effective(self, me: Microengine) -> None:
        target = self.effective_level(me.index)
        if target != self._applied[me.index]:
            self._applied[me.index] = target
            self._apply_level([me], target)
