"""Tests for the microengine runtime: threads, polling, stalls, idling."""

import pytest

from repro.config import MemoryConfig
from repro.errors import NpuError, SimulationError
from repro.npu.fifo import PacketQueue
from repro.npu.memqueue import build_memories
from repro.npu.microengine import BUSY, IDLE, STALLED, Microengine, RxPortMux
from repro.npu.steps import Compute, Drop, MemPost, MemRead, MemWrite, PutTx
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.units import mhz

from test_traffic import make_packet


class ListSource:
    """Work source delivering a pre-built packet list."""

    def __init__(self, packets):
        self.packets = list(packets)

    def poll(self):
        if self.packets:
            return self.packets.pop(0)
        return None


def make_me(sim, packets, steps_fn, num_threads=4, poll_instr=24, role="rx",
            on_put_tx=None, on_drop=None, on_done=None, poll_counts_as_idle=False):
    clock = ClockDomain(sim, mhz(600), "me0")
    sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
    memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
    me = Microengine(
        sim, clock, 0, role, ListSource(packets), steps_fn, memories,
        num_threads=num_threads, poll_instructions=poll_instr,
        poll_counts_as_idle=poll_counts_as_idle,
        on_put_tx=on_put_tx, on_drop=on_drop, on_packet_done=on_done,
    )
    return me


def test_compute_only_packet_processing():
    sim = Simulator()
    done = []

    def steps(packet):
        yield Compute(600)  # 1 us at 600 MHz

    me = make_me(sim, [make_packet(seq=0)], steps, on_done=done.append)
    me.start()
    sim.run(until_ps=3_000_000)
    assert len(done) == 1
    assert me.packets_processed == 1
    assert me.instructions_executed >= 600


def test_polling_burns_cycles_and_engine_stays_busy():
    sim = Simulator()

    def steps(packet):
        yield Compute(1)

    me = make_me(sim, [], steps)
    me.start()
    sim.run(until_ps=1_000_000)
    totals = me.states.totals_ps()
    assert me.polls > 0
    assert totals.get(BUSY, 0) == pytest.approx(1_000_000, rel=0.01)
    assert totals.get(IDLE, 0) == 0


def test_poll_counts_as_idle_ablation():
    sim = Simulator()

    def steps(packet):
        yield Compute(1)

    me = make_me(sim, [], steps, poll_counts_as_idle=True)
    me.start()
    sim.run(until_ps=1_000_000)
    totals = me.states.totals_ps()
    assert totals.get(IDLE, 0) > 0.8 * 1_000_000


def test_engine_idle_when_all_threads_wait_on_memory():
    sim = Simulator()

    def steps(packet):
        yield Compute(6)
        yield MemRead("sdram", 2048)  # long occupancy; four threads pile up

    packets = [make_packet(seq=k) for k in range(4)]
    me = make_me(sim, packets, steps)
    me.start()
    sim.run(until_ps=2_000_000)
    totals = me.states.totals_ps()
    assert totals.get(IDLE, 0) > 0


def test_threads_overlap_memory_waits():
    """With 4 threads, back-to-back memory packets finish sooner than serial."""

    def steps(packet):
        yield Compute(60)
        yield MemRead("sdram", 64)
        yield Compute(60)

    def run_with(threads):
        sim = Simulator()
        done = []
        packets = [make_packet(seq=k) for k in range(8)]
        me = make_me(sim, packets, steps, num_threads=threads,
                     on_done=lambda p: done.append(sim.now_ps))
        me.start()
        sim.run(until_ps=50_000_000)
        return done[-1]

    assert run_with(4) < run_with(1)


def test_mem_post_does_not_block():
    sim = Simulator()
    done = []

    def steps(packet):
        yield MemPost("sdram", 2048)
        yield Compute(6)

    me = make_me(sim, [make_packet()], steps, on_done=lambda p: done.append(sim.now_ps))
    me.start()
    sim.run(until_ps=1_000_000)
    # Compute(6) = 10 ns; a blocking 2 KB SDRAM read would take ~4 us.
    assert done and done[0] < 100_000


def test_put_tx_and_drop_hooks():
    sim = Simulator()
    put, dropped = [], []

    def steps(packet):
        yield Compute(10)
        if packet.seq % 2 == 0:
            yield PutTx()
        else:
            yield Drop("odd")

    packets = [make_packet(seq=k) for k in range(4)]
    me = make_me(sim, packets, steps,
                 on_put_tx=put.append, on_drop=lambda p, r: dropped.append((p.seq, r)))
    me.start()
    sim.run(until_ps=5_000_000)
    assert [p.seq for p in put] == [0, 2]
    assert dropped == [(1, "odd"), (3, "odd")]


def test_stall_freezes_execution():
    sim = Simulator()
    done = []

    def steps(packet):
        yield Compute(600)  # 1 us

    me = make_me(sim, [make_packet()], steps, on_done=lambda p: done.append(sim.now_ps))
    me.start()
    me.stall_for(10_000_000)  # 10 us stall before anything runs
    sim.run(until_ps=20_000_000)
    assert done
    assert done[0] >= 10_000_000
    assert me.states.totals_ps().get(STALLED, 0) >= 9_000_000


def test_stall_extends_not_shortens():
    sim = Simulator()
    me = make_me(sim, [], lambda p: iter(()))
    me.start()
    me.stall_for(10_000_000)
    me.stall_for(1_000_000)  # shorter: must not cut the first stall
    sim.run(until_ps=5_000_000)
    assert me.is_stalled
    sim.run(until_ps=11_000_000)
    assert not me.is_stalled


def test_memory_completion_during_stall_defers_dispatch():
    sim = Simulator()
    finished = []

    def steps(packet):
        yield MemRead("sram", 4)
        yield Compute(6)

    me = make_me(sim, [make_packet()], steps,
                 on_done=lambda p: finished.append(sim.now_ps))
    me.start()
    sim.run(until_ps=10_000)  # let the memory read get issued
    me.stall_for(5_000_000)
    sim.run(until_ps=20_000_000)
    assert finished
    assert finished[0] >= 5_000_000


def test_set_vf_changes_clock_and_vdd():
    sim = Simulator()
    me = make_me(sim, [], lambda p: iter(()))
    me.set_vf(mhz(400), 1.1)
    assert me.clock.freq_hz == mhz(400)
    assert me.vdd == 1.1


def test_zero_time_loop_detected():
    sim = Simulator()

    def steps(packet):
        while True:
            yield PutTx()

    me = make_me(sim, [make_packet()], steps, on_put_tx=lambda p: None)
    with pytest.raises(SimulationError):
        me.start()


def test_cannot_start_twice():
    sim = Simulator()
    me = make_me(sim, [], lambda p: iter(()))
    me.start()
    with pytest.raises(NpuError):
        me.start()


def test_unknown_memory_target_rejected():
    sim = Simulator()

    def steps(packet):
        yield MemRead("sram", 4)

    me = make_me(sim, [make_packet()], steps)
    del me.memories["sram"]
    with pytest.raises(NpuError):
        me.start()


class TestPollTieRule:
    """At a picosecond, poll completions run after every other event, in
    ME-index order.  At 600 MHz a 24-instruction poll takes 40 ns, so an
    engine started at 0 completes polls at 40, 80, 120 ns, ..."""

    def _engine(self, sim, index, queue, log):
        def steps(packet):
            log.append((sim.now_ps, index, packet.seq))
            yield Compute(6)

        sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
        return Microengine(
            sim, ClockDomain(sim, mhz(600), f"me{index}"), index, "rx", queue,
            steps, {"sram": sram, "sdram": sdram, "scratch": scratch},
            num_threads=1,
        )

    @staticmethod
    def _enqueue_at(sim, when_ps, queue, packet):
        # Posted after the poll completing at ``when_ps`` was, so only the
        # band (not posting order) puts the enqueue first.
        sim.schedule_at(when_ps - 20_000, sim.schedule_at, when_ps, queue.offer, packet)

    def test_enqueue_on_a_lattice_instant_is_taken_by_that_poll(self):
        sim = Simulator()
        log = []
        queue = PacketQueue(4)
        self._engine(sim, 0, queue, log).start()
        self._enqueue_at(sim, 120_000, queue, make_packet(seq=0))
        sim.run(until_ps=1_000_000)
        assert log == [(120_000, 0, 0)]

    def test_same_lattice_engines_bind_in_index_order(self):
        sim = Simulator()
        log = []
        queues = [PacketQueue(4), PacketQueue(4)]
        engines = [self._engine(sim, k, queues[k], log) for k in range(2)]
        # Start ME1 first: its poll completions are posted before ME0's.
        engines[1].start()
        engines[0].start()
        for k in (1, 0):
            self._enqueue_at(sim, 120_000, queues[k], make_packet(seq=k))
        sim.run(until_ps=1_000_000)
        assert log == [(120_000, 0, 0), (120_000, 1, 1)]


def test_rx_port_mux_round_robin():
    sim = Simulator()
    from repro.npu.ports import DevicePort

    ports = [DevicePort(sim, k, 1e9, 8) for k in range(3)]
    for k, port in enumerate(ports):
        port.rx_queue.offer(make_packet(seq=k))
    mux = RxPortMux(ports)
    seqs = [mux.poll().seq for _ in range(3)]
    assert sorted(seqs) == [0, 1, 2]
    assert mux.poll() is None


def test_rx_port_mux_requires_ports():
    with pytest.raises(NpuError):
        RxPortMux([])
