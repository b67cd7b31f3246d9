"""Device ports: arrival intake, receive queues, wire-rate transmit.

The port array is where the chip meets the outside world:

* **receive** — the traffic source delivers a packet to a port; the port
  notifies the traffic monitor (TDVS's 32-bit adder counts every arrival,
  dropped or not), crosses the IX bus, and lands in the port's bounded
  receive queue — or is dropped if the queue is full.  Landing in the
  queue publishes the paper's ``fifo`` trace event straight onto the
  run's :class:`~repro.trace.bus.TraceBus`;
* **transmit** — a transmit ME hands a processed packet to its output
  port; the port serializes it at wire rate and fires the chip's forward
  hook when the last bit leaves, which is what emits ``forward`` trace
  events and advances the throughput counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import NpuError
from repro.npu.fifo import PacketQueue
from repro.npu.memqueue import QueuedResource
from repro.sim.kernel import Simulator
from repro.traffic.packet import Packet
from repro.units import transmit_time_ps


class DevicePort:
    """One full-duplex device port."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        rate_bps: float,
        rx_queue_packets: int,
    ):
        self.sim = sim
        self.index = index
        self.rate_bps = rate_bps
        self.rx_queue = PacketQueue(rx_queue_packets, name=f"port{index}.rx")
        #: Slots committed to packets still crossing the IX bus, so
        #: admission control sees the true future queue depth.
        self.rx_queue_reserved = 0
        self._tx_free_at_ps = 0
        self.tx_packets = 0
        self.tx_bits = 0
        #: ``size_bytes -> serialization_ps``.  Wire time depends only on
        #: size and the port's fixed rate, and traffic models draw from a
        #: small set of packet lengths, so the float division in
        #: :func:`transmit_time_ps` is paid once per distinct size.
        self._tx_time_cache: Dict[int, int] = {}
        self._post_at = sim.post_at

    # -- transmit side ---------------------------------------------------
    def transmit(self, packet: Packet, on_done: Callable[[Packet], None]) -> int:
        """Serialize ``packet`` onto the wire; ``on_done`` fires at the end.

        Returns the completion time (ps).  Back-to-back packets queue
        behind the port's serializer.
        """
        size = packet.size_bytes
        wire_ps = self._tx_time_cache.get(size)
        if wire_ps is None:
            wire_ps = transmit_time_ps(size, self.rate_bps)
            self._tx_time_cache[size] = wire_ps
        now = self.sim.now_ps
        start = now if now > self._tx_free_at_ps else self._tx_free_at_ps
        done = start + wire_ps
        self._tx_free_at_ps = done
        self.tx_packets += 1
        self.tx_bits += packet.size_bits
        self._post_at(done, on_done, packet)
        return done

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DevicePort {self.index} rxq={len(self.rx_queue)}>"


class PortArray:
    """The NPU's 16 device ports plus the shared arrival path.

    Parameters
    ----------
    sim:
        Owning simulator.
    num_ports / rate_bps / rx_queue_packets:
        Port count and per-port parameters.
    ixbus:
        The shared bus resource each arriving packet crosses.
    on_arrival:
        Called with every arriving packet *before* queueing (the TDVS
        traffic monitor and the chip's offered counters).
    on_enqueued:
        Optional extra callback when a packet lands in a receive queue
        (the ``fifo`` trace event itself is published on the bus bound
        via :meth:`bind_trace`).
    on_forward:
        Called when a transmit completes (emits ``forward`` events).
    """

    def __init__(
        self,
        sim: Simulator,
        num_ports: int,
        rate_bps: float,
        rx_queue_packets: int,
        ixbus: QueuedResource,
        on_arrival: Optional[Callable[[Packet], None]] = None,
        on_enqueued: Optional[Callable[[Packet], None]] = None,
        on_forward: Optional[Callable[[Packet], None]] = None,
    ):
        if num_ports <= 0:
            raise NpuError(f"num_ports must be positive, got {num_ports}")
        self.sim = sim
        self.ports: List[DevicePort] = [
            DevicePort(sim, k, rate_bps, rx_queue_packets) for k in range(num_ports)
        ]
        self.ixbus = ixbus
        self.on_arrival = on_arrival
        self.on_enqueued = on_enqueued
        self.on_forward = on_forward
        self.rx_dropped = 0
        self._emit_fifo: Optional[Callable[[], None]] = None
        #: Dispatch table for the transmit path: ``out % nports`` indexes
        #: straight to the port's bound ``transmit`` method, skipping the
        #: per-packet attribute chain.
        self._nports = num_ports
        self._transmit_table = [port.transmit for port in self.ports]
        self._ixbus_request = ixbus.request

    def bind_trace(self, bus) -> None:
        """Bind the ``fifo`` emitter on the run's trace bus.

        A no-op emitter (nothing subscribed) is dropped entirely so the
        enqueue hot path pays a single ``None`` check.
        """
        from repro.trace.bus import NOOP_EMITTER

        emit = bus.emitter("fifo")
        self._emit_fifo = None if emit is NOOP_EMITTER else emit

    def __len__(self) -> int:
        return len(self.ports)

    def __getitem__(self, index: int) -> DevicePort:
        return self.ports[index]

    # -- receive path ----------------------------------------------------
    def deliver(self, port_index: int, packet: Packet) -> None:
        """Entry point for the traffic source: packet hits ``port_index``."""
        if self.on_arrival is not None:
            self.on_arrival(packet)
        port = self.ports[port_index]
        # Admission happens at the MAC: a full receive queue drops the
        # packet immediately; otherwise the packet crosses the IX bus and
        # is enqueued when the transfer completes.
        if len(port.rx_queue) + port.rx_queue_reserved >= port.rx_queue.capacity:
            port.rx_queue.dropped += 1
            self.rx_dropped += 1
            return
        port.rx_queue_reserved += 1
        self._ixbus_request(packet.size_bytes, self._bus_done, port, packet)

    def _bus_done(self, port: DevicePort, packet: Packet) -> None:
        port.rx_queue_reserved -= 1
        if port.rx_queue.offer(packet):
            if self._emit_fifo is not None:
                self._emit_fifo()
            if self.on_enqueued is not None:
                self.on_enqueued(packet)
        else:  # pragma: no cover - reservation prevents this
            self.rx_dropped += 1

    # -- transmit path -----------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Transmit ``packet`` on its ``output_port`` (default: input port)."""
        out_index = packet.output_port
        if out_index is None:
            out_index = packet.input_port
        self._transmit_table[out_index % self._nports](packet, self._tx_done)

    def _tx_done(self, packet: Packet) -> None:
        if self.on_forward is not None:
            self.on_forward(packet)

    # -- statistics --------------------------------------------------------
    @property
    def total_tx_packets(self) -> int:
        """Packets fully serialized out of the chip."""
        return sum(port.tx_packets for port in self.ports)

    @property
    def total_tx_bits(self) -> int:
        """Bits fully serialized out of the chip."""
        return sum(port.tx_bits for port in self.ports)
