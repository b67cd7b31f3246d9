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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import DvsConfig
from repro.dvs.governor import GovernorBase, traffic_rule
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
        #: The arrival rate each window judged, the very float the rule
        #: compared: window ``k`` took the chip from ``level_history[k]``
        #: to ``level_history[k + 1]`` on ``window_rates_mbps[k]``.
        self.window_rates_mbps: List[float] = []

    def _schedule_first(self) -> None:
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_window)

    def _on_window(self) -> None:
        self._charge_window_overhead()
        rate_mbps = self.traffic_monitor.window_rate_per_s() / 1e6
        new_level = traffic_rule(self.vf_table, self.config, self.level, rate_mbps)
        if new_level != self.level:
            self.level = new_level
            self._apply_level(self.mes, new_level)
        self.window_rates_mbps.append(rate_mbps)
        self.level_history.append(self.level)
        self.traffic_monitor.reset_window()
        self.sim.schedule(self._window_ps, self._on_window)

    def decisions(self) -> "TdvsDecisions":
        """This run's window inputs and decisions, detached from the run."""
        return TdvsDecisions(
            self.vf_table, tuple(self.level_history), tuple(self.window_rates_mbps)
        )


@dataclass(frozen=True)
class TdvsDecisions:
    """What a finished TDVS run's traffic rule saw and decided.

    Window ``k`` judged ``rates_mbps[k]`` at level ``levels[k]`` and left
    the chip at ``levels[k + 1]``.
    """

    vf_table: VfTable
    levels: Tuple[int, ...]
    rates_mbps: Tuple[float, ...]

    def reproduced_by(self, config: DvsConfig) -> bool:
        """Whether the rule under ``config`` makes every recorded decision.

        Each window is replayed on its own recorded level and rate, and
        the rule must land on the recorded level after, at every window.
        When it does, a run that differs from this one only in
        :data:`~repro.dvs.governor.TRAFFIC_RULE_FIELDS` *is* this run,
        event for event: by induction over the event sequence, equal
        decisions leave every later event unchanged.
        """
        levels = self.levels
        return all(
            traffic_rule(self.vf_table, config, levels[k], rate) == levels[k + 1]
            for k, rate in enumerate(self.rates_mbps)
        )
