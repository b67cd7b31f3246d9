"""Shared governor machinery: windows, transitions, penalties.

Both policies follow the same skeleton — observe a window, compare a
control signal against a threshold, step the VF ladder by at most one
level, pay the transition penalty — and differ only in the signal
(arrival traffic vs. idle time) and the scaling domain (chip-wide vs.
per-ME).  The traffic rule is a pure module function, so the sweep
engine can replay it over a finished run's window inputs; the base
class owns the idle rule and the mechanical parts, so the policy
classes (and the combined governor, which applies both rules) stay
small and the experiments can count transitions uniformly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import DvsConfig
from repro.dvs.vf_table import VfTable
from repro.npu.microengine import Microengine
from repro.power.overhead import DvsOverheadMeter
from repro.sim.kernel import Simulator
from repro.units import us_to_ps

#: The :class:`~repro.config.DvsConfig` fields that only
#: :func:`traffic_rule` reads.  Two TDVS runs that differ only in these
#: fields stay identical for as long as the rule decides alike, which is
#: what lets threshold siblings share one simulation
#: (:func:`repro.sweep.engine.run_family`); the sweep engine's family key
#: blanks exactly these.  Any other reader of a listed field must take it
#: off this list, so that the field joins the family key.
TRAFFIC_RULE_FIELDS = ("top_threshold_mbps", "tdvs_hysteresis")


def traffic_rule(
    vf_table: VfTable, config: DvsConfig, level: int, rate_mbps: float
) -> int:
    """The TDVS rule: the level after a window of ``rate_mbps`` traffic.

    Above ``level``'s threshold the ladder steps up (faster); below the
    threshold less the ``tdvs_hysteresis`` band it steps down.  Pure:
    the same inputs give the same level, in a run or in a replay.
    """
    threshold = vf_table.traffic_threshold_mbps(level, config.top_threshold_mbps)
    if rate_mbps > threshold:
        return vf_table.step_up(level)
    if rate_mbps < threshold * (1.0 - config.tdvs_hysteresis):
        return vf_table.step_down(level)
    return level


class GovernorBase:
    """Common state and transition mechanics for DVS governors."""

    #: Policy name used in reports; subclasses override.
    policy = "none"

    def __init__(
        self,
        sim: Simulator,
        config: DvsConfig,
        vf_table: VfTable,
        overhead: Optional[DvsOverheadMeter] = None,
    ):
        self.sim = sim
        self.config = config
        self.vf_table = vf_table
        self.overhead = overhead
        self.penalty_ps = us_to_ps(config.transition_penalty_us)
        self.transitions = 0
        self.windows_evaluated = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin scheduling window evaluations."""
        if self._started:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started = True
        self._schedule_first()

    def _schedule_first(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------
    def _idle_rule(self, level: int, idle_fraction: float) -> int:
        """The EDVS rule: the level after a window ``idle_fraction`` idle.

        More idle than ``idle_threshold`` steps down (slower), less steps
        up.
        """
        threshold = self.config.idle_threshold
        if idle_fraction > threshold:
            return self.vf_table.step_down(level)
        if idle_fraction < threshold:
            return self.vf_table.step_up(level)
        return level

    # ------------------------------------------------------------------
    # Transition mechanics
    # ------------------------------------------------------------------
    def _apply_level(self, mes: List[Microengine], level: int) -> None:
        """Move ``mes`` to ``level``: stall for the penalty, switch VF."""
        point = self.vf_table[level]
        for me in mes:
            me.stall_for(self.penalty_ps)
            me.set_vf(point.freq_hz, point.vdd)
        self.transitions += 1

    def _charge_window_overhead(self) -> None:
        self.windows_evaluated += 1
        if self.overhead is not None:
            self.overhead.on_window_evaluation()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary for experiment logs."""
        return (
            f"{self.policy}: windows={self.windows_evaluated} "
            f"transitions={self.transitions}"
        )
