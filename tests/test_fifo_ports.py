"""Tests for packet queues and the port array."""

import pytest

from repro.config import MemoryConfig
from repro.errors import NpuError
from repro.npu.fifo import PacketQueue
from repro.npu.memqueue import build_memories
from repro.npu.ports import PortArray
from repro.sim.kernel import Simulator

from test_traffic import make_packet


class TestPacketQueue:
    def test_fifo_order(self):
        queue = PacketQueue(4)
        for k in range(3):
            assert queue.offer(make_packet(seq=k))
        assert [queue.poll().seq for _ in range(3)] == [0, 1, 2]
        assert queue.poll() is None

    def test_drop_on_full(self):
        queue = PacketQueue(2)
        assert queue.offer(make_packet(seq=0))
        assert queue.offer(make_packet(seq=1))
        assert not queue.offer(make_packet(seq=2))
        assert queue.dropped == 1
        assert queue.enqueued == 2

    def test_max_depth_tracked(self):
        queue = PacketQueue(8)
        for k in range(5):
            queue.offer(make_packet(seq=k))
        queue.poll()
        assert queue.max_depth == 5

    def test_zero_capacity_rejected(self):
        with pytest.raises(NpuError):
            PacketQueue(0)

    def test_unbounded_fifo(self):
        ring = PacketQueue(None)
        for k in range(100):
            assert ring.offer(make_packet(seq=k))
        assert len(ring) == 100
        assert ring.poll().seq == 0
        assert ring.max_depth == 100
        assert ring.dropped == 0


def build_ports(sim, num_ports=4, rx_queue=2, rate=1e9, hooks=None):
    _, _, _, ixbus = build_memories(sim, MemoryConfig())
    hooks = hooks or {}
    return PortArray(
        sim, num_ports, rate, rx_queue, ixbus,
        on_arrival=hooks.get("arrival"),
        on_enqueued=hooks.get("enqueued"),
        on_forward=hooks.get("forward"),
    )


class TestPortArray:
    def test_deliver_enqueues_after_bus(self):
        sim = Simulator()
        enqueued = []
        ports = build_ports(sim, hooks={"enqueued": enqueued.append})
        packet = make_packet()
        ports.deliver(0, packet)
        assert len(ports[0].rx_queue) == 0  # still crossing the bus
        sim.run()
        assert len(ports[0].rx_queue) == 1
        assert enqueued == [packet]

    def test_arrival_hook_fires_before_queueing(self):
        sim = Simulator()
        arrivals = []
        ports = build_ports(sim, hooks={"arrival": arrivals.append})
        packet = make_packet()
        ports.deliver(1, packet)
        assert arrivals == [packet]  # immediately, not after the bus

    def test_admission_drop_when_queue_full(self):
        sim = Simulator()
        ports = build_ports(sim, rx_queue=2)
        for k in range(4):
            ports.deliver(0, make_packet(seq=k))
        sim.run()
        assert ports.rx_dropped == 2
        assert len(ports[0].rx_queue) == 2

    def test_in_flight_reservation_counts_toward_admission(self):
        sim = Simulator()
        ports = build_ports(sim, rx_queue=1)
        ports.deliver(0, make_packet(seq=0))
        ports.deliver(0, make_packet(seq=1))  # queue empty but slot reserved
        assert ports.rx_dropped == 1
        sim.run()
        assert len(ports[0].rx_queue) == 1

    def test_transmit_serialization_and_forward_hook(self):
        sim = Simulator()
        forwarded = []
        ports = build_ports(sim, rate=1e9,
                            hooks={"forward": lambda p: forwarded.append(sim.now_ps)})
        a = make_packet(seq=0, size=1000, output_port=0)
        b = make_packet(seq=1, size=1000, output_port=0)
        ports.transmit(a)
        ports.transmit(b)
        sim.run()
        # 1000 bytes at 1 Gbps = 8 us each, back to back.
        assert forwarded == [8_000_000, 16_000_000]

    def test_transmit_uses_input_port_as_default(self):
        sim = Simulator()
        ports = build_ports(sim)
        packet = make_packet(input_port=2, output_port=None)
        ports.transmit(packet)
        sim.run()
        assert ports[2].tx_packets == 1

    def test_tx_counters(self):
        sim = Simulator()
        ports = build_ports(sim)
        packet = make_packet(size=500, output_port=1)
        ports.transmit(packet)
        sim.run()
        assert ports.total_tx_packets == 1
        assert ports.total_tx_bits == 4000
