"""Fast-path equivalence tests: materialized step execution.

The microengine materializes a pure app's step stream at packet bind
(list iteration instead of generator resumption).  These tests pin the
contract on per-ME observables — completion times, instruction counts,
state totals, kernel seq layout — which are identical to lazy
execution, including under stalls, frequency changes and runs that end
or stop mid compute run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig
from repro.npu.memqueue import build_memories
from repro.npu.microengine import BUSY, IDLE, STALLED, Microengine
from repro.npu.steps import Compute, MemRead
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.units import mhz

from test_microengine import ListSource
from test_traffic import make_packet


def compute_run_steps(packet):
    """Irregular compute runs around a memory reference."""
    yield Compute(101)
    yield Compute(203)
    yield Compute(307)
    yield MemRead("sram", 8)
    yield Compute(53)
    yield Compute(71)


def run_me(
    materialize,
    perturb=None,
    until=60_000_000,
    npackets=4,
    steps_fn=compute_run_steps,
    num_threads=4,
    ctx_switch_cycles=1,
    resume_until=None,
):
    sim = Simulator()
    clock = ClockDomain(sim, mhz(600), "me0")
    sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
    memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
    done = []
    packets = [make_packet(seq=k) for k in range(npackets)]
    me = Microengine(
        sim,
        clock,
        0,
        "rx",
        ListSource(packets),
        steps_fn,
        memories,
        num_threads=num_threads,
        ctx_switch_cycles=ctx_switch_cycles,
        on_packet_done=lambda p: done.append(sim.now_ps),
        materialize=materialize,
    )
    me.start()
    if perturb is not None:
        perturb(sim, me)
    sim.run(until_ps=until)
    snapshot = {
        "done": list(done),
        "instructions": me.instructions_executed,
        "packets": me.packets_processed,
        "polls": me.polls,
        "mem_accesses": me.mem_accesses,
        "totals": dict(me.states.totals_ps()),
        # The tie-ordering contract in its rawest form: materialized and
        # lazy execution must draw exactly the same kernel sequence
        # numbers and deliver the same number of events.
        "kernel_seqs": sim._seq,
        "events_executed": sim.events_executed,
    }
    if resume_until is not None:
        sim.run(until_ps=resume_until)
        snapshot["final_done"] = list(done)
        snapshot["final_instructions"] = me.instructions_executed
        snapshot["final_totals"] = dict(me.states.totals_ps())
    return snapshot


def assert_equivalent(perturb=None, until=60_000_000, resume_until=None):
    lazy = run_me(
        materialize=False, perturb=perturb, until=until, resume_until=resume_until
    )
    listed = run_me(
        materialize=True, perturb=perturb, until=until, resume_until=resume_until
    )
    assert listed == lazy


class TestMaterializedEquivalence:
    def test_plain_run(self):
        assert_equivalent()

    def test_stall_inside_compute_run(self):
        # 400_000 ps lands inside the second compute of the first run.
        def perturb(sim, me):
            sim.schedule_at(400_000, me.stall_for, 2_000_000)

        assert_equivalent(perturb=perturb)

    def test_frequency_change_inside_compute_run(self):
        def perturb(sim, me):
            sim.schedule_at(400_000, me.set_vf, mhz(300), 1.0)

        assert_equivalent(perturb=perturb)

    def test_vf_change_and_penalty_inside_compute_run(self):
        # The governor pattern: retune, then freeze for the transition.
        def perturb(sim, me):
            def transition():
                me.set_vf(mhz(400), 1.1)
                me.stall_for(1_500_000)

            sim.schedule_at(400_000, transition)

        assert_equivalent(perturb=perturb)

    def test_run_ending_inside_compute_run_then_resumed(self):
        # 450_000 ps is inside the first compute run; the resumed run
        # must land on exactly the lazy timeline.
        assert_equivalent(until=450_000, resume_until=60_000_000)

    def test_stop_inside_compute_run_keeps_charges(self):
        def perturb(sim, me):
            sim.schedule_at(400_000, sim.stop)

        assert_equivalent(perturb=perturb, until=60_000_000)


class TestAccountingBugfixes:
    def test_no_ctx_switch_charge_when_no_ready_thread(self):
        """Idle windows start at the memory-issue instant.

        With a single thread blocking on memory there is nothing to
        switch to: the engine must account IDLE from the issue itself,
        not one context-switch delay later.
        """

        def steps(packet):
            yield MemRead("sdram", 2048)

        result = run_me(
            materialize=False,
            steps_fn=steps,
            num_threads=1,
            npackets=1,
            until=50_000,
        )
        assert result["totals"].get(IDLE, 0) == 50_000
        assert result["totals"].get(BUSY, 0) == 0

    def test_idle_window_fraction_is_full_during_lone_memory_wait(self):
        sim = Simulator()
        clock = ClockDomain(sim, mhz(600), "me0")
        sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
        memories = {"sram": sram, "sdram": sdram, "scratch": scratch}

        def steps(packet):
            yield MemRead("sdram", 2048)

        me = Microengine(
            sim,
            clock,
            0,
            "rx",
            ListSource([make_packet()]),
            steps,
            memories,
            num_threads=1,
        )
        me.start()
        sim.run(until_ps=50_000)
        assert me.idle_fraction_window() == pytest.approx(1.0)

    def test_stall_mid_compute_stays_busy_until_completion(self):
        """A memory response during a stall must not mark a computing
        engine STALLED: the in-flight compute runs to completion and
        only then does the thread park."""

        packets = [make_packet(seq=0), make_packet(seq=1)]

        def steps(packet):
            if packet.seq == 0:
                yield MemRead("sdram", 2048)  # completes ~4 us in
            else:
                yield Compute(60_000)  # 100 us at 600 MHz

        sim = Simulator()
        clock = ClockDomain(sim, mhz(600), "me0")
        sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
        memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
        me = Microengine(
            sim,
            clock,
            0,
            "rx",
            ListSource(packets),
            steps,
            memories,
            num_threads=2,
        )
        me.start()
        # Stall begins at 1 us — inside the 100 us compute — and the
        # SDRAM response lands during both the stall and the compute.
        sim.schedule_at(1_000_000, me.stall_for, 300_000_000)
        sim.run(until_ps=150_000_000)
        totals = me.states.totals_ps()
        assert totals.get(BUSY, 0) >= 100_000_000
        assert me.states.state == STALLED


class TestSeqLayoutProperty:
    """Hypothesis wall: under *any* schedule of stalls and V-F changes,
    materialized execution draws exactly the lazy kernel seq layout."""

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=10_000, max_value=40_000_000),
                st.sampled_from(("stall", "vf", "both")),
                st.integers(min_value=100_000, max_value=5_000_000),
                st.sampled_from((200, 300, 450, 600)),
            ),
            max_size=6,
        )
    )
    @settings(deadline=None, max_examples=25)
    def test_randomized_stall_vf_schedules_preserve_seq_layout(self, schedule):
        def perturb(sim, me):
            for when_ps, kind, stall_ps, freq in schedule:
                if kind in ("vf", "both"):
                    sim.schedule_at(when_ps, me.set_vf, mhz(freq), 1.0)
                if kind in ("stall", "both"):
                    sim.schedule_at(when_ps, me.stall_for, stall_ps)

        lazy = run_me(materialize=False, perturb=perturb)
        listed = run_me(materialize=True, perturb=perturb)
        assert listed == lazy
