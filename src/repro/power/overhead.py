"""DVS monitor-hardware overhead accounting.

TDVS needs a 32-bit adder that accumulates packet sizes in each monitor
window and a comparator against the current threshold; the adder runs
once per packet arrival — "much less frequently than the ALUs in ME
pipelines" — and the paper measured the overhead under 1 % of total
power.  EDVS needs per-ME idle counters sampled once per window.  The
meter counts both kinds of charge, and the accountant prices the counts
when energy is read, so experiments can verify the sub-1 % claim (see
the ``idle``/ablation benches).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import PowerConfig
from repro.power.model import UNITS_PER_J, PowerAccountant, quantize_nj


class DvsOverheadMeter:
    """Counts monitor-hardware charges; attaches itself to the accountant.

    ``arrivals`` returns the packets offered so far.  It is given when
    the policy runs the TDVS adder, which charges once per arrival, so
    the adder's charge count is the chip's offered-packet count and
    needs no per-arrival work.
    """

    def __init__(
        self,
        accountant: PowerAccountant,
        config: PowerConfig,
        arrivals: Optional[Callable[[], int]] = None,
    ):
        self._arrivals = arrivals
        self._adder_units = quantize_nj(config.tdvs_adder_nj_per_packet)
        self._counter_units = quantize_nj(config.edvs_counter_nj_per_window)
        self.window_charges = 0
        accountant.attach_overhead(self)

    @property
    def packet_charges(self) -> int:
        """TDVS adder activity: one charge per arriving packet."""
        return 0 if self._arrivals is None else self._arrivals()

    def on_window_evaluation(self) -> None:
        """EDVS counter sample / TDVS comparator: one charge per window."""
        self.window_charges += 1

    def units(self) -> int:
        """Monitor energy charged so far, in energy units."""
        return (
            self.packet_charges * self._adder_units
            + self.window_charges * self._counter_units
        )

    def total_overhead_j(self) -> float:
        """Total monitor energy charged so far."""
        return self.units() / UNITS_PER_J
