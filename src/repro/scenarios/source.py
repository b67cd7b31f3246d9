"""Playing a scenario back through the simulator.

Two pieces:

* :class:`PiecewiseArrivalProcess` — an
  :class:`~repro.traffic.arrivals.ArrivalProcess` that plays a timed
  sequence of per-segment processes.  It tracks the absolute arrival
  clock itself, so when a drawn gap would cross a segment boundary it
  fast-forwards to the boundary and redraws under the next segment's
  process (the same consume-the-dwell trick the MMPP process uses for
  its burst/quiet states).
* :class:`ScenarioTrafficSource` — a
  :class:`~repro.traffic.generator.TrafficSource` whose arrival process
  and packet-size mix follow the scenario's segments.

Both assume the source starts at simulated time zero, which is how
:class:`~repro.runner.SimulationRun` drives traffic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import TrafficError
from repro.scenarios.spec import Scenario, ScenarioSegment
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.arrivals import ArrivalProcess, arrival_process
from repro.traffic.generator import DeliverFn, TrafficSource
from repro.traffic.sizes import PacketSizeMix


class PiecewiseArrivalProcess(ArrivalProcess):
    """Sequences per-segment arrival processes along simulated time.

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
            # The drawn gap crosses into the next segment: consume time
            # up to the boundary and redraw at the new segment's rate.
            gap = end_ps - self._now_ps
            self._index += 1


class ScenarioTrafficSource(TrafficSource):
    """A traffic source that follows a :class:`Scenario`'s phases.

    Use :meth:`from_scenario`; the plain constructor signature is
    inherited and behaves like an ordinary single-mix source until a
    scenario's mix spans are attached.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scenario: Optional[Scenario] = None
        self._mix_spans: List[Tuple[int, PacketSizeMix]] = []

    @classmethod
    def from_scenario(
        cls,
        sim: Simulator,
        deliver: DeliverFn,
        scenario: Scenario,
        duration_ps: int,
        num_ports: int = 16,
        rng_streams: Optional[RngStreams] = None,
    ) -> "ScenarioTrafficSource":
        """Build a source that plays ``scenario`` over ``duration_ps``."""
        scenario.validate()
        spans = scenario.segment_spans_ps(duration_ps)
        process = PiecewiseArrivalProcess(
            [(end, _segment_process(segment)) for end, segment in spans]
        )
        source = cls(
            sim,
            deliver,
            process,
            size_mix=spans[0][1].mix,
            num_ports=num_ports,
            rng_streams=rng_streams,
            num_flows=scenario.num_flows,
            zipf_s=scenario.zipf_s,
        )
        source.scenario = scenario
        source._mix_spans = [(end, segment.mix) for end, segment in spans]
        return source

    def mix_for(self, arrival_ps: int) -> PacketSizeMix:
        """The size mix active at an absolute arrival time."""
        for end_ps, mix in self._mix_spans:
            if arrival_ps <= end_ps:
                return mix
        # Past the last boundary (run over-shoot), or no spans attached
        # (plain construction): the current single mix applies.
        return self._mix_spans[-1][1] if self._mix_spans else self.size_mix

    def _make_packet(self, arrival_ps: int):
        self.size_mix = self.mix_for(arrival_ps)
        return super()._make_packet(arrival_ps)


def _segment_process(segment: ScenarioSegment) -> ArrivalProcess:
    """The arrival process for one scenario segment."""
    kwargs = {}
    if segment.process == "mmpp":
        kwargs = {
            "burst_ratio": segment.burst_ratio,
            "burst_fraction": segment.burst_fraction,
        }
    return arrival_process(
        segment.process,
        segment.offered_load_mbps * 1e6,
        segment.mix.mean_bits,
        **kwargs,
    )
