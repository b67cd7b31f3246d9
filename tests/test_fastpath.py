"""Fast-path equivalence tests: parked engines and memoized streams.

Two execution shortcuts must never change a result:

* an engine whose threads keep missing their polls parks instead of
  posting one kernel event per missed poll, and settles the poll
  lattice arithmetically when it wakes or the run ends;
* a pure app stream hands every packet of one shape the same memoized
  step list.

The per-ME tests pin parking on per-ME observables — completion times,
instruction and poll counts, state totals, the kernel sequence layout
— including under stalls, frequency changes, arrivals on poll-lattice
instants, ``sim.stop()`` and runs that end and resume.  The chip-level
oracles run catalog configs twice: parked, and eager (a no-op
``on_instructions`` observer on every engine keeps it from parking);
and memoized, and with memos that never store (every packet's stream
built afresh).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DvsConfig, MemoryConfig, NpuConfig, RunConfig, TrafficConfig
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.npu.fifo import PacketQueue
from repro.npu.memqueue import build_memories
from repro.npu.microengine import BUSY, IDLE, STALLED, Microengine
from repro.npu.steps import Compute, MemRead, PutTx
from repro.runner import SimulationRun
from repro.scenarios import get_scenario, list_scenarios
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.studies import StudySpec
from repro.units import mhz

from test_microengine import ListSource
from test_traffic import make_packet

#: A 24-instruction poll at 600 MHz: the poll lattice period of an
#: engine that has not changed frequency.
POLL_PS = 40_000


def _no_op_observer(index, count):
    """Per-poll observer: attaching it keeps an engine from parking."""


def compute_run_steps(packet):
    """Irregular compute runs around a memory reference."""
    yield Compute(101)
    yield Compute(203)
    yield Compute(307)
    yield MemRead("sram", 8)
    yield Compute(53)
    yield Compute(71)


def rotation(me):
    """The arbiter's thread rotation: current thread, then the ready
    queue, as thread numbers."""
    order = [me._current, *me._ready]
    return [None if t is None else me.threads.index(t) for t in order]


def run_me(
    perturb=None,
    until=60_000_000,
    npackets=4,
    steps_fn=compute_run_steps,
    num_threads=4,
    ctx_switch_cycles=1,
    resume_until=None,
    arrivals=(),
    eager=False,
):
    """Run one engine on a packet queue; ``arrivals`` are ``(time_ps,
    late)`` enqueues, ``late`` ones posted after the poll completing at
    the same instant was."""
    sim = Simulator()
    clock = ClockDomain(sim, mhz(600), "me0")
    sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
    memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
    done = []
    queue = PacketQueue(64)
    for k in range(npackets):
        queue.offer(make_packet(seq=k))
    for k, (when_ps, late) in enumerate(arrivals):
        packet = make_packet(seq=npackets + k)
        if late:
            sim.schedule_at(when_ps - 1, sim.schedule_at, when_ps, queue.offer, packet)
        else:
            sim.schedule_at(when_ps, queue.offer, packet)
    me = Microengine(
        sim,
        clock,
        0,
        "rx",
        queue,
        steps_fn,
        memories,
        num_threads=num_threads,
        ctx_switch_cycles=ctx_switch_cycles,
        on_packet_done=lambda p: done.append(sim.now_ps),
    )
    if eager:
        me.on_instructions = _no_op_observer
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
        # Ordinary (non-poll) events draw kernel sequence numbers; the
        # same count means the same tie-ordering layout.
        "kernel_seqs": sim._seq,
        "events_executed": sim.events_executed,
        "rotation": rotation(me),
    }
    if resume_until is not None:
        sim.run(until_ps=resume_until)
        snapshot["final_done"] = list(done)
        snapshot["final_instructions"] = me.instructions_executed
        snapshot["final_polls"] = me.polls
        snapshot["final_totals"] = dict(me.states.totals_ps())
        snapshot["final_kernel_seqs"] = sim._seq
        snapshot["final_rotation"] = rotation(me)
    return snapshot


def assert_parked_matches_eager(**kwargs):
    """Parked and eager runs agree on everything but the event count."""
    parked = run_me(**kwargs)
    eager = run_me(eager=True, **kwargs)
    parked_events = parked.pop("events_executed")
    eager_events = eager.pop("events_executed")
    assert parked == eager
    assert parked_events <= eager_events
    return parked_events, eager_events


class TestParkedEquivalence:
    def test_idle_engine_parks(self):
        parked, eager = assert_parked_matches_eager(npackets=0)
        assert parked == 0
        assert eager == 60_000_000 // POLL_PS

    def test_packets_then_idle(self):
        parked, eager = assert_parked_matches_eager()
        assert parked < eager // 10

    def test_arrival_on_a_lattice_instant(self):
        for late in (False, True):
            assert_parked_matches_eager(
                npackets=0, arrivals=[(30 * POLL_PS, late), (31 * POLL_PS, late)]
            )

    def test_stall_and_frequency_change_while_parked(self):
        def perturb(sim, me):
            sim.schedule_at(8_000_000, me.set_vf, mhz(450), 1.1)
            sim.schedule_at(9_000_000, me.stall_for, 1_500_000)

        assert_parked_matches_eager(
            perturb=perturb, arrivals=[(10_000_000, False), (20_000_000, True)]
        )

    def test_memory_response_wakes_a_parked_engine(self):
        # One thread blocks on a 2 KB SDRAM read while the other three
        # poll: they park, and the response must wake them.
        def steps(packet):
            yield MemRead("sdram", 2048)
            yield Compute(60)

        assert_parked_matches_eager(npackets=1, steps_fn=steps)

    def test_run_end_then_resume(self):
        assert_parked_matches_eager(
            until=7 * POLL_PS + 1, resume_until=60_000_000,
            arrivals=[(7 * POLL_PS, True), (9 * POLL_PS, False)],
        )

    def test_put_from_a_higher_ranked_poll_completion(self):
        """ME1's poll completion puts a packet into the queue of ME0,
        parked on the same lattice: ME0's poll at that instant has
        already run, so it takes the packet one poll later."""

        def run(eager):
            sim = Simulator()
            sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
            memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
            ring, rx_queue = PacketQueue(8), PacketQueue(8)
            rx_queue.offer(make_packet())
            puts, binds = [], []

            def tx_steps(packet):
                binds.append(sim.now_ps)
                yield Compute(6)

            def rx_steps(packet):
                yield MemRead("sram", 8)
                yield PutTx()

            def put(packet):
                puts.append(sim.now_ps)
                ring.offer(packet)

            engines = [
                Microengine(sim, ClockDomain(sim, mhz(600), "me0"), 0, "tx",
                            ring, tx_steps, memories),
                # No context-switch delay: both engines poll on one lattice.
                Microengine(sim, ClockDomain(sim, mhz(600), "me1"), 1, "rx",
                            rx_queue, rx_steps, memories, ctx_switch_cycles=0,
                            on_put_tx=put),
            ]
            for me in engines:
                if eager:
                    me.on_instructions = _no_op_observer
                me.start()
            sim.run(until_ps=2_000_000)
            return puts, binds, [me.polls for me in engines]

        parked = run(eager=False)
        assert parked == run(eager=True)
        (put_ps,), (bind_ps,), _ = parked
        assert put_ps % POLL_PS == 0
        assert bind_ps == put_ps + POLL_PS

    def test_stop_on_a_lattice_instant_then_resume(self):
        def perturb(sim, me):
            sim.schedule_at(40 * POLL_PS, sim.stop)

        assert_parked_matches_eager(
            perturb=perturb, resume_until=60_000_000, npackets=0
        )


def _arrivals():
    on_lattice = st.integers(min_value=1, max_value=1_000).map(lambda k: k * POLL_PS)
    anywhere = st.integers(min_value=10_000, max_value=40_000_000)
    return st.lists(
        st.tuples(st.one_of(on_lattice, anywhere), st.booleans()), max_size=8
    )


class TestSeqLayoutProperty:
    """Hypothesis wall: under *any* schedule of stalls, V-F changes,
    arrivals and stops, a parked engine matches an eager one."""

    schedules = st.lists(
        st.tuples(
            st.integers(min_value=10_000, max_value=40_000_000),
            st.sampled_from(("stall", "vf", "both")),
            st.integers(min_value=100_000, max_value=5_000_000),
            st.sampled_from((200, 300, 450, 600)),
        ),
        max_size=6,
    )

    @staticmethod
    def _perturb(schedule, stop_ps=None):
        def perturb(sim, me):
            for when_ps, kind, stall_ps, freq in schedule:
                if kind in ("vf", "both"):
                    sim.schedule_at(when_ps, me.set_vf, mhz(freq), 1.0)
                if kind in ("stall", "both"):
                    sim.schedule_at(when_ps, me.stall_for, stall_ps)
            if stop_ps is not None:
                sim.schedule_at(stop_ps, sim.stop)

        return perturb

    @given(
        schedule=schedules,
        arrivals=_arrivals(),
        npackets=st.integers(min_value=0, max_value=4),
        stop_ps=st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=1_000).map(lambda k: k * POLL_PS),
            st.integers(min_value=10_000, max_value=40_000_000),
        ),
        until=st.sampled_from((60_000_000, 25 * POLL_PS, 12_345_679)),
    )
    @settings(deadline=None, max_examples=40)
    def test_randomized_arrivals_stalls_and_stops_parked_matches_eager(
        self, schedule, arrivals, npackets, stop_ps, until
    ):
        assert_parked_matches_eager(
            perturb=self._perturb(schedule, stop_ps),
            arrivals=arrivals,
            npackets=npackets,
            until=until,
            resume_until=60_000_000,
        )


# ---------------------------------------------------------------------------
# Chip-level oracle: parked vs eager over catalog configs
# ---------------------------------------------------------------------------
APPS = ("ipfwdr", "nat", "url", "md4")


def _study_monitors(scenario, span=20):
    gates = StudySpec(span=span).assertions_for(get_scenario(scenario))
    return [
        build_monitor(power_distribution_formula(span=span), expect="distribution"),
        build_monitor(throughput_distribution_formula(span=span), expect="distribution"),
        *(build_monitor(gate.formula, expect="checker") for gate in gates),
    ]


def _jsonable(result):
    return result.to_dict() if hasattr(result, "to_dict") else dataclasses.asdict(result)


def _make_eager(run):
    for me in run.chip.mes:
        me.on_instructions = _no_op_observer


class _NeverStores(dict):
    """A memo that never stores: every packet's stream is built afresh."""

    def __setitem__(self, key, value):
        pass


def _forget_memos(run):
    run.chip.app._rx_steps_memo = _NeverStores()
    run.chip.app._tx_steps_memo = _NeverStores()


def _observe(config, prepare=None):
    monitors = _study_monitors(config.traffic.scenario)
    run = SimulationRun(config, monitors=monitors)
    if prepare is not None:
        prepare(run)
    result = run.run()
    record = {
        "totals": dataclasses.asdict(result.totals),
        "governor": [result.governor_transitions, result.governor_windows],
        "dvs_overhead_w": result.dvs_overhead_w,
        "polls": [me.polls for me in run.chip.mes],
        "monitors": [_jsonable(monitor.finish()) for monitor in monitors],
        "kernel_seqs": run.sim._seq,
    }
    return json.dumps(record, sort_keys=True), run


def assert_chip_parked_matches_eager(config):
    parked, parked_run = _observe(config)
    eager, eager_run = _observe(config, prepare=_make_eager)
    assert parked == eager
    assert parked_run.sim.events_executed < eager_run.sim.events_executed


def _config(scenario, policy, app, cycles, **npu):
    return RunConfig(
        benchmark=app,
        duration_cycles=cycles,
        seed=7,
        traffic=TrafficConfig.for_scenario(scenario),
        dvs=DvsConfig(policy=policy, window_cycles=20_000, top_threshold_mbps=1200.0),
        npu=NpuConfig(**npu),
    )


class TestChipParkedMatchesEager:
    @pytest.mark.parametrize("position", range(len(list_scenarios())))
    def test_catalog_scenario(self, position):
        scenario = list_scenarios()[position]
        policy = ("tdvs", "edvs")[position % 2]
        assert_chip_parked_matches_eager(
            _config(scenario, policy, APPS[position % len(APPS)], 120_000)
        )

    def test_transmit_engines_ranked_first(self):
        # Receive engines outrank the transmit engines they feed, so a
        # put from a receive engine's poll completion can land on a
        # parked transmit engine whose poll-band slot has gone by.
        assert_chip_parked_matches_eager(
            _config(
                "ddos_min64", "tdvs", "ipfwdr", 400_000,
                rx_me_indices=(2, 3, 4, 5), tx_me_indices=(0, 1),
            )
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("policy", ("tdvs", "edvs"))
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("scenario", list_scenarios())
    def test_full_grid(self, scenario, policy, app):
        assert_chip_parked_matches_eager(_config(scenario, policy, app, 400_000))


class TestChipMemoizedMatchesFresh:
    """A run on memoized streams matches one whose memos never store."""

    @pytest.mark.parametrize(
        "app, scenario",
        [
            ("ipfwdr", "imix_drift"),
            ("url", "flash_crowd"),
            ("md4", "saturation_stress"),
            ("nat", "link_failover"),
        ],
    )
    def test_catalog_config(self, app, scenario):
        config = _config(scenario, "edvs", app, 200_000)
        memoized, run = _observe(config)
        fresh, fresh_run = _observe(config, prepare=_forget_memos)
        assert memoized == fresh
        assert run.sim.events_executed == fresh_run.sim.events_executed
        # The memos were exercised: several shapes, each shared by many
        # packets (nat's receive stream is a generator, never memoized).
        memos = [run.chip.app._tx_steps_memo]
        if app != "nat":
            memos.append(run.chip.app._rx_steps_memo)
        packets = run.chip.forwarded_packets
        for memo in memos:
            assert 2 <= len(memo) < packets


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
        only then does the thread wait out the stall."""

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
