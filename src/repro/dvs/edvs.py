"""Execution-based dynamic voltage scaling (EDVS).

Each microengine independently monitors its own *idle time* — the share
of an observation window in which **all** of its hardware threads are
blocked on memory references.  If the idle fraction exceeds the
threshold (10 % in the paper) the ME steps its VF down one level; if it
falls below, the ME steps up; the ladder ends clamp.

Because a polling thread is busy (it executes instructions to check
buffers and status registers), lightly loaded receive MEs show almost no
idle time and EDVS leaves them at full speed — idle time here comes from
memory latency under load.  That is also why transmit MEs "never scale
down their VFs" and why `nat`, with almost no memory accesses, sees no
EDVS savings.

Windows are measured in the ME's *own* clock cycles, so a slowed ME
observes longer (wall-clock) windows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DvsConfig
from repro.dvs.governor import GovernorBase
from repro.dvs.vf_table import VfTable
from repro.npu.microengine import Microengine
from repro.power.overhead import DvsOverheadMeter
from repro.sim.kernel import Simulator


class EdvsGovernor(GovernorBase):
    """Per-ME, idle-time-driven VF control."""

    policy = "edvs"

    def __init__(
        self,
        sim: Simulator,
        config: DvsConfig,
        vf_table: VfTable,
        mes: List[Microengine],
        overhead: Optional[DvsOverheadMeter] = None,
    ):
        super().__init__(sim, config, vf_table, overhead)
        self.mes = mes
        self.levels: Dict[int, int] = {me.index: 0 for me in mes}
        #: Per-ME count of VF changes (transmit MEs should stay at 0).
        self.transitions_per_me: Dict[int, int] = {me.index: 0 for me in mes}

    def _schedule_first(self) -> None:
        for me in mes_sorted(self.mes):
            me.reset_window()
            self.sim.schedule(self._window_ps_for(me), self._on_window, me)

    def _window_ps_for(self, me: Microengine) -> int:
        """Window length in wall time at the ME's current frequency."""
        return me.clock.delay_for_cycles(self.config.window_cycles)

    def _on_window(self, me: Microengine) -> None:
        self._charge_window_overhead()
        level = self.levels[me.index]
        new_level = self._idle_rule(level, me.idle_fraction_window())
        if new_level != level:
            self.levels[me.index] = new_level
            self.transitions_per_me[me.index] += 1
            self._apply_level([me], new_level)
        me.reset_window()
        self.sim.schedule(self._window_ps_for(me), self._on_window, me)


def mes_sorted(mes: List[Microengine]) -> List[Microengine]:
    """Deterministic ME ordering for scheduling (by index)."""
    return sorted(mes, key=lambda me: me.index)
