"""Clock domains with runtime frequency changes.

DVS is, mechanically, a sequence of frequency changes applied to clock
domains while the simulation runs.  A :class:`ClockDomain` therefore keeps
a full history of ``(time_ps, freq_hz)`` segments and can convert between
elapsed cycles and absolute time exactly, across any number of frequency
changes.  The conversion is what the trace annotations (``cycle``) and the
DVS governors (window boundaries measured in cycles) are built on.

Two kinds of clocks appear in the NPU model:

* the **reference clock** — the fixed 600 MHz clock used to stamp the
  ``cycle`` annotation in traces, mirroring NePSim's core cycle counter;
* **scalable clocks** — one per microengine under EDVS (each ME changes VF
  independently) or one shared by all MEs under TDVS.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ClockError
from repro.sim.kernel import Simulator
from repro.units import PS_PER_S, period_ps


class ClockDomain:
    """A clock whose frequency may change at runtime.

    Parameters
    ----------
    sim:
        Owning simulator; ``now_ps`` is read from it.
    freq_hz:
        Initial frequency in hertz.
    name:
        Label for diagnostics.

    Notes
    -----
    Cycle counts are real numbers: a domain that ran 1.5 periods has
    elapsed 1.5 cycles.  Integer cycle arithmetic (e.g. "schedule the next
    window boundary 20 000 cycles from now") goes through
    :meth:`delay_for_cycles`, which converts using the *current* period.
    If the frequency changes before the scheduled instant, the caller —
    not the clock — decides whether that matters (the DVS governors stall
    their domain during transitions precisely so it does not).
    """

    def __init__(self, sim: Simulator, freq_hz: float, name: str = "clk"):
        if freq_hz <= 0:
            raise ClockError(f"clock {name!r}: frequency must be positive")
        self.sim = sim
        self.name = name
        # Segments of constant frequency: (start_ps, freq_hz, cycles_at_start).
        self._segments: List[Tuple[int, float, float]] = [(sim.now_ps, float(freq_hz), 0.0)]
        self._freq_changes = 0
        # Current-segment caches, invalidated by set_frequency: the
        # frequency itself (saves the list indexing on every conversion)
        # and the exact delay_for_cycles result per cycle count (see
        # :attr:`delay_memo`).  The cache stores the *rounded* value, so
        # a hit reproduces the uncached arithmetic bit for bit.
        self._freq_hz = float(freq_hz)
        self._delay_cache: Dict[float, int] = {}
        #: Called (no arguments) after every applied frequency change;
        #: microengines subscribe to re-derive their cached fixed-cycle
        #: delays (poll and context-switch) at the new rate.
        self.on_change: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Frequency control
    # ------------------------------------------------------------------
    @property
    def freq_hz(self) -> float:
        """Current frequency in hertz."""
        return self._freq_hz

    @property
    def period_ps(self) -> int:
        """Current period in picoseconds."""
        return period_ps(self.freq_hz)

    @property
    def freq_changes(self) -> int:
        """Number of frequency changes applied so far."""
        return self._freq_changes

    def set_frequency(self, freq_hz: float) -> None:
        """Change the frequency, effective at the current simulation time.

        A no-op if the frequency is unchanged.  The cycle counter is
        continuous across the change: cycles accumulated so far are kept
        and future cycles accrue at the new rate.
        """
        if freq_hz <= 0:
            raise ClockError(f"clock {self.name!r}: frequency must be positive")
        if freq_hz == self._freq_hz:
            return
        now = self.sim.now_ps
        cycles_now = self.cycles_at(now)
        start, _, _ = self._segments[-1]
        if start == now:
            # Replace a zero-length segment rather than stacking duplicates.
            self._segments[-1] = (now, float(freq_hz), cycles_now)
        else:
            self._segments.append((now, float(freq_hz), cycles_now))
        self._freq_changes += 1
        self._freq_hz = float(freq_hz)
        self._delay_cache.clear()
        for listener in self.on_change:
            listener()

    # ------------------------------------------------------------------
    # Cycle / time conversion
    # ------------------------------------------------------------------
    def cycles_at(self, time_ps: int) -> float:
        """Cycles elapsed from domain creation up to ``time_ps``.

        ``time_ps`` must not precede the domain's creation time.
        """
        segment = self._segment_for(time_ps)
        start, freq, base_cycles = segment
        return base_cycles + (time_ps - start) * freq / PS_PER_S

    @property
    def cycles_now(self) -> float:
        """Cycles elapsed up to the current simulation time."""
        return self.cycles_at(self.sim.now_ps)

    @property
    def delay_memo(self) -> Dict[float, int]:
        """The ``cycles -> picoseconds`` memo behind :meth:`delay_for_cycles`.

        It holds the current frequency's conversions only.  The dict
        keeps one identity for the clock's life and :meth:`set_frequency`
        clears it in place, so a hot caller may bind it once, look a
        cycle count up itself and call :meth:`delay_for_cycles` only on
        a miss: a hit is the value that call would return.  Callers only
        read it; :meth:`delay_for_cycles` writes every entry.
        """
        return self._delay_cache

    def delay_for_cycles(self, cycles: float) -> int:
        """Picoseconds spanned by ``cycles`` cycles at the *current* rate."""
        cached = self._delay_cache.get(cycles)
        if cached is not None:
            return cached
        if cycles < 0:
            raise ClockError(f"clock {self.name!r}: negative cycle count {cycles}")
        delay = round(cycles * PS_PER_S / self._freq_hz)
        self._delay_cache[cycles] = delay
        return delay

    def time_of_cycle(self, cycle: float) -> int:
        """Absolute time (ps) at which the given cycle count is reached.

        Only meaningful for cycle counts at or before the current moment
        plus the current segment (future frequency changes are unknown).
        """
        if cycle < 0:
            raise ClockError(f"clock {self.name!r}: negative cycle {cycle}")
        # Find the segment whose cycle range contains `cycle`.
        for index in range(len(self._segments) - 1, -1, -1):
            start, freq, base_cycles = self._segments[index]
            if cycle >= base_cycles:
                return round(start + (cycle - base_cycles) * PS_PER_S / freq)
        raise ClockError(f"clock {self.name!r}: cycle {cycle} precedes history")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _segment_for(self, time_ps: int) -> Tuple[int, float, float]:
        segments = self._segments
        if time_ps < segments[0][0]:
            raise ClockError(
                f"clock {self.name!r}: time {time_ps} precedes creation "
                f"({segments[0][0]})"
            )
        # Frequency changes are rare; a reverse linear scan is cheaper than
        # bisect for the common "query the newest segment" case.
        for index in range(len(segments) - 1, -1, -1):
            if segments[index][0] <= time_ps:
                return segments[index]
        raise AssertionError("unreachable: first segment starts at creation time")

    def history(self) -> List[Tuple[int, float]]:
        """Return the ``(start_ps, freq_hz)`` history (a copy)."""
        return [(start, freq) for start, freq, _ in self._segments]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClockDomain {self.name!r} {self.freq_hz/1e6:.0f}MHz>"


class FixedClock(ClockDomain):
    """A clock domain whose frequency never changes.

    Used for memory controllers, buses and the trace reference clock; the
    class exists so misuse (a governor trying to scale SDRAM) fails loudly.
    """

    def set_frequency(self, freq_hz: float) -> None:
        raise ClockError(f"clock {self.name!r} is fixed-frequency")
