"""Packet arrival processes.

An arrival process turns a target *offered load* (bits/second, together
with the size mix's mean packet size) into a stream of inter-arrival
times.  Three processes are provided:

* :class:`PoissonProcess` — memoryless arrivals; the default;
* :class:`ConstantBitRate` — deterministic spacing (useful in tests and
  for calibrations, since the offered load is exact);
* :class:`MmppProcess` — 2-state Markov-modulated Poisson process: a
  bursty/quiet alternation that approximates the short-timescale
  variability of real edge traffic (what makes DVS interesting).

:class:`PiecewiseArrivalProcess` plays a timed sequence of them; every
run's traffic source draws its gaps from one.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import TrafficError
from repro.units import PS_PER_S


class ArrivalProcess:
    """Interface: produce successive inter-arrival gaps in picoseconds."""

    def next_gap_ps(self, rng) -> int:
        """Return the gap to the next arrival (>= 1 ps)."""
        raise NotImplementedError

    @property
    def mean_rate_pps(self) -> float:
        """Long-run mean arrival rate in packets/second."""
        raise NotImplementedError


def _rate_pps(load_bps: float, mean_packet_bits: float) -> float:
    if load_bps <= 0:
        raise TrafficError(f"offered load must be positive, got {load_bps}")
    if mean_packet_bits <= 0:
        raise TrafficError(f"mean packet bits must be positive, got {mean_packet_bits}")
    return load_bps / mean_packet_bits


class PoissonProcess(ArrivalProcess):
    """Exponential inter-arrivals at a fixed mean rate."""

    def __init__(self, load_bps: float, mean_packet_bits: float):
        self._rate_pps = _rate_pps(load_bps, mean_packet_bits)
        self._mean_gap_ps = PS_PER_S / self._rate_pps

    @property
    def mean_rate_pps(self) -> float:
        return self._rate_pps

    def next_gap_ps(self, rng) -> int:
        return max(1, round(rng.expovariate(1.0) * self._mean_gap_ps))


class ConstantBitRate(ArrivalProcess):
    """Deterministic, evenly spaced arrivals."""

    def __init__(self, load_bps: float, mean_packet_bits: float):
        self._rate_pps = _rate_pps(load_bps, mean_packet_bits)
        self._gap_ps = max(1, round(PS_PER_S / self._rate_pps))

    @property
    def mean_rate_pps(self) -> float:
        return self._rate_pps

    def next_gap_ps(self, rng) -> int:
        return self._gap_ps


class MmppProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *burst* state and a *quiet* state,
    each with exponentially distributed dwell times; arrivals within each
    state are Poisson at that state's rate.  Rates are derived from the
    target mean load, the burst/quiet rate ratio, and the fraction of
    time spent bursting, so the long-run offered load matches the target.

    Parameters
    ----------
    load_bps:
        Long-run mean offered load.
    mean_packet_bits:
        Mean packet size from the size mix.
    burst_ratio:
        Ratio of burst-state rate to quiet-state rate (> 1).
    burst_fraction:
        Long-run fraction of time in the burst state (0 < f < 1).
    mean_dwell_s:
        Mean dwell time across states, controlling burst timescale.
    """

    def __init__(
        self,
        load_bps: float,
        mean_packet_bits: float,
        burst_ratio: float = 4.0,
        burst_fraction: float = 0.3,
        mean_dwell_s: float = 0.0002,
    ):
        if burst_ratio <= 1.0:
            raise TrafficError(f"burst_ratio must exceed 1, got {burst_ratio}")
        if not 0.0 < burst_fraction < 1.0:
            raise TrafficError(f"burst_fraction must be in (0,1), got {burst_fraction}")
        if mean_dwell_s <= 0:
            raise TrafficError(f"mean_dwell_s must be positive, got {mean_dwell_s}")
        mean_pps = _rate_pps(load_bps, mean_packet_bits)
        # mean = f*burst + (1-f)*quiet and burst = ratio*quiet:
        quiet_share = burst_fraction * burst_ratio + (1.0 - burst_fraction)
        self._quiet_pps = mean_pps / quiet_share
        self._burst_pps = self._quiet_pps * burst_ratio
        self._mean_rate = mean_pps
        # Dwell times chosen so the stationary burst fraction is honored.
        self._burst_dwell_ps = 2.0 * mean_dwell_s * burst_fraction * PS_PER_S
        self._quiet_dwell_ps = 2.0 * mean_dwell_s * (1.0 - burst_fraction) * PS_PER_S
        self._in_burst = False
        self._state_left_ps = 0.0

    @property
    def mean_rate_pps(self) -> float:
        return self._mean_rate

    @property
    def burst_rate_pps(self) -> float:
        """Arrival rate while bursting."""
        return self._burst_pps

    @property
    def quiet_rate_pps(self) -> float:
        """Arrival rate while quiet."""
        return self._quiet_pps

    def next_gap_ps(self, rng) -> int:
        gap = 0.0
        while True:
            if self._state_left_ps <= 0.0:
                self._in_burst = not self._in_burst
                dwell = self._burst_dwell_ps if self._in_burst else self._quiet_dwell_ps
                self._state_left_ps = rng.expovariate(1.0) * dwell
            rate = self._burst_pps if self._in_burst else self._quiet_pps
            candidate = rng.expovariate(1.0) * PS_PER_S / rate
            if candidate <= self._state_left_ps:
                self._state_left_ps -= candidate
                gap += candidate
                return max(1, round(gap))
            # No arrival before the state expires: consume the remainder
            # of the dwell and retry in the next state.
            gap += self._state_left_ps
            self._state_left_ps = 0.0


class PiecewiseArrivalProcess(ArrivalProcess):
    """Sequences per-phase arrival processes along simulated time.

    It tracks the absolute arrival clock from time zero itself, so when
    a drawn gap would cross a phase boundary it fast-forwards to the
    boundary and redraws under the next phase's process (the same
    consume-the-dwell trick :class:`MmppProcess` uses for its states).

    Parameters
    ----------
    spans:
        ``(end_ps, process)`` pairs, ordered by ``end_ps``.  The last
        process is open-ended: it keeps generating past its nominal end
        so a run can over-shoot its stop time without starving.
    """

    def __init__(self, spans: Sequence[Tuple[int, ArrivalProcess]]):
        if not spans:
            raise TrafficError("piecewise process needs at least one span")
        ends = [end for end, _ in spans]
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise TrafficError(f"span boundaries must increase, got {ends}")
        self._spans = list(spans)
        self._index = 0
        self._now_ps = 0.0

    @property
    def mean_rate_pps(self) -> float:
        """Duration-weighted mean arrival rate across all spans."""
        total_ps = self._spans[-1][0]
        rate = 0.0
        start = 0
        for end, process in self._spans:
            rate += process.mean_rate_pps * (end - start) / total_ps
            start = end
        return rate

    def next_gap_ps(self, rng) -> int:
        gap = 0.0
        while True:
            end_ps, process = self._spans[self._index]
            candidate = process.next_gap_ps(rng)
            arrival = self._now_ps + gap + candidate
            if arrival <= end_ps or self._index == len(self._spans) - 1:
                self._now_ps = arrival
                return max(1, round(gap + candidate))
            # The drawn gap crosses into the next phase: consume time
            # up to the boundary and redraw at the new phase's rate.
            gap = end_ps - self._now_ps
            self._index += 1


#: Registry of arrival-process names used in configuration files.
_PROCESSES = {
    "poisson": PoissonProcess,
    "cbr": ConstantBitRate,
    "mmpp": MmppProcess,
}


def arrival_process(
    kind: str, load_bps: float, mean_packet_bits: float, **kwargs
) -> ArrivalProcess:
    """Build an arrival process by configuration name.

    >>> process = arrival_process("cbr", 1e9, 8 * 500)
    >>> round(process.mean_rate_pps)
    250000
    """
    try:
        cls = _PROCESSES[kind]
    except KeyError:
        raise TrafficError(
            f"unknown arrival process {kind!r}; known: {sorted(_PROCESSES)}"
        ) from None
    return cls(load_bps, mean_packet_bits, **kwargs)
