"""Traffic-based dynamic voltage scaling (TDVS).

The monitor hardware (a 32-bit adder at the device ports) accumulates
the sizes of all arriving packets over a window of ``window_cycles``
reference-clock cycles.  At each window boundary the average arrival
rate is compared against the *current level's* threshold (Figure 5:
thresholds scale with frequency): a larger volume steps the chip-wide ME
voltage/frequency up one level, a smaller volume steps it down, bounded
by the ladder ends.

The compare-to-current-threshold rule makes the policy oscillate under
mid-range loads — each oscillation costing the 10 us penalty — which is
exactly why the paper finds 20 k-cycle windows catastrophic for
throughput ("the 6000-cycle penalties almost consume 30 % of the window
time") while 80 k windows save power with almost no performance loss.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import DvsConfig
from repro.dvs.governor import GovernorBase
from repro.dvs.vf_table import VfTable
from repro.npu.microengine import Microengine
from repro.power.overhead import DvsOverheadMeter
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.stats import RateWindow


class TdvsGovernor(GovernorBase):
    """Chip-wide, traffic-driven VF control.

    Parameters
    ----------
    sim / config / vf_table / overhead:
        See :class:`~repro.dvs.governor.GovernorBase`.
    mes:
        All microengines (TDVS scales them together).
    reference_clock:
        The fixed clock whose cycles define the window length.
    traffic_monitor:
        :class:`~repro.sim.stats.RateWindow` fed with every arriving
        packet's bits (the 32-bit adder).
    """

    policy = "tdvs"

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
        self.level = 0
        self._window_ps = reference_clock.delay_for_cycles(config.window_cycles)
        self.level_history: List[int] = [0]

    def _schedule_first(self) -> None:
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_window)

    def _on_window(self) -> None:
        self._charge_window_overhead()
        rate_mbps = self.traffic_monitor.window_rate_per_s() / 1e6
        new_level = self._traffic_rule(self.level, rate_mbps)
        if new_level != self.level:
            self.level = new_level
            self._apply_level(self.mes, new_level)
        self.level_history.append(self.level)
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_window)
