"""Simulator-bound traffic source.

:class:`TrafficSource` plays timed traffic phases from simulated time
zero — each an arrival process and a packet-size mix — and delivers
each packet to one of the NPU's device ports.  Every run plays its
traffic this way: a catalog scenario is a sequence of phases, and a
single-rate run is one phase (:func:`repro.runner.traffic_scenario`).
Port choice hashes the flow id so a flow always lands on the same port
(as a real switch fabric would), which in turn keeps per-port ordering
sensible.

The source also keeps the *offered* counters (packets/bits presented to
the NPU), which the experiments compare against the *forwarded* counters
to measure loss.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.errors import TrafficError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.arrivals import ArrivalProcess, PiecewiseArrivalProcess
from repro.traffic.packet import FlowPool, Packet
from repro.traffic.sizes import PacketSizeMix

#: Delivery callback: receives (port_index, packet).
DeliverFn = Callable[[int, Packet], None]

#: One phase of traffic: it lasts until ``end_ps`` (absolute, from time
#: zero), draws its gaps from the process and its sizes from the mix.
Phase = Tuple[int, ArrivalProcess, PacketSizeMix]


class TrafficSource:
    """Generates packets and delivers them to device ports.

    Parameters
    ----------
    sim:
        Simulation kernel to schedule on.
    deliver:
        Callback invoked at each arrival instant with
        ``(port_index, packet)``; the NPU's port array plugs in here.
    phases:
        ``(end_ps, process, size_mix)`` phases ordered by ``end_ps``
        (see :meth:`repro.scenarios.spec.Scenario.phases`).  The gaps
        come from a :class:`~repro.traffic.arrivals.PiecewiseArrivalProcess`
        over the processes, and each packet's size from the mix of the
        phase its arrival falls in.  The last phase runs on past its end.
    num_ports:
        Number of device ports to spread flows over (16 for IXP1200).
    rng_streams:
        Root RNG; the source draws from its ``traffic.arrivals``,
        ``traffic.sizes`` and ``traffic.flows`` child streams.
    num_flows / zipf_s:
        Flow-population shape (see :class:`~repro.traffic.packet.FlowPool`).
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: DeliverFn,
        phases: Sequence[Phase],
        num_ports: int = 16,
        rng_streams: Optional[RngStreams] = None,
        num_flows: int = 512,
        zipf_s: float = 0.9,
    ):
        if num_ports <= 0:
            raise TrafficError(f"num_ports must be positive, got {num_ports}")
        self.sim = sim
        self.deliver = deliver
        self.process = PiecewiseArrivalProcess(
            [(end_ps, process) for end_ps, process, _ in phases]
        )
        self.num_ports = num_ports
        streams = rng_streams or RngStreams(0)
        self._arrival_rng = streams.get("traffic.arrivals")
        self._size_rng = streams.get("traffic.sizes")
        self.flows = FlowPool(num_flows, zipf_s, streams.get("traffic.flows"))
        # Arrivals never go back in time, so the phase of the latest
        # arrival only moves forward.
        self._mix_ends = [end_ps for end_ps, _, _ in phases]
        self._mixes = [mix for _, _, mix in phases]
        self._phase = 0
        self._last_phase = len(phases) - 1

        self.offered_packets = 0
        self.offered_bits = 0
        self._next_seq = 0
        self._stop_ps: Optional[int] = None
        self._started = False

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def start(self, stop_ps: Optional[int] = None) -> None:
        """Begin generating; stop scheduling new arrivals after ``stop_ps``."""
        if self._started:
            raise TrafficError("traffic source already started")
        self._started = True
        self._stop_ps = stop_ps
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self.process.next_gap_ps(self._arrival_rng)
        arrival_ps = self.sim.now_ps + gap
        if self._stop_ps is not None and arrival_ps > self._stop_ps:
            return
        self.sim.post(gap, self._arrive)

    def _arrive(self) -> None:
        packet = self._make_packet(self.sim.now_ps)
        self.offered_packets += 1
        self.offered_bits += packet.size_bits
        self.deliver(packet.input_port, packet)
        self._schedule_next()

    def _make_packet(self, arrival_ps: int) -> Packet:
        while (
            self._phase < self._last_phase
            and arrival_ps > self._mix_ends[self._phase]
        ):
            self._phase += 1
        flow_id = self.flows.draw()
        src_ip, dst_ip, src_port, dst_port, protocol = self.flows.endpoints(flow_id)
        seq = self._next_seq
        self._next_seq += 1
        return Packet(
            seq=seq,
            arrival_ps=arrival_ps,
            size_bytes=self._mixes[self._phase].sample(self._size_rng),
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
            flow_id=flow_id,
            input_port=flow_id % self.num_ports,
        )

    @property
    def offered_load_bps(self) -> float:
        """Measured offered load so far (bits/second of simulated time)."""
        if self.sim.now_ps == 0:
            return 0.0
        return self.offered_bits * 1e12 / self.sim.now_ps
