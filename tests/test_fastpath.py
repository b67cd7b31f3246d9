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
instants and runs that end and resume, and with each of those landing
while a packet holder waits behind pollers for its turn, or while a
blocking reference is folded into that turn, on either side of the
context switch and the response it stands for.  A closed form pins one
folded packet's completion instant and polls at two frequencies.
They run on a kernel that fails loudly on a second poll-band entry for
one (picosecond, rank) key.  The chip-level oracles run catalog configs
twice: parked, and eager (a no-op ``on_instructions`` observer on every
engine keeps it from parking); and memoized, and with memos that never
store (every packet's stream built afresh).  A last wall pins the
kernel events and effort counters of three bench-length configs, so a
change meant only to make events cheaper cannot move the event graph.
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
from repro.units import PS_PER_S, mhz, ns_to_ps

from test_microengine import ListSource
from test_traffic import make_packet

#: A 24-instruction poll at 600 MHz: the poll lattice period of an
#: engine that has not changed frequency.
POLL_PS = 40_000

#: Response instant of :func:`read_then_compute`'s 2 KB SDRAM read,
#: issued at 0 on idle memory: the access latency plus the per-byte
#: transfer, from the memory config alone (60 ns + 2,048 × 2 ns).
_MEM = MemoryConfig()
READ_2K_PS = ns_to_ps(_MEM.sdram_access_ns + 2048 * _MEM.sdram_byte_ns)


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


def read_then_compute(packet):
    """One 2 KB SDRAM read: on four threads its response queues the
    thread behind two pollers, two to three poll periods before its
    turn."""
    yield MemRead("sdram", 2048)
    yield Compute(60)


def folded_read(freq_mhz):
    """``(switch, response, turn, completion, polls)`` of
    :func:`read_then_compute`'s one packet on an idle four-thread engine
    at ``freq_mhz``, issued at 0, from config constants alone.

    The context switch comes one switch delay after the issue, and the
    response does not scale with the engine clock.  The switch's poller
    completes its poll one period after the switch and the pollers take
    turns on that lattice, so the holder's turn is the first lattice
    instant at or after the response, plus one period for each of the
    two pollers queued ahead of it.  Every lattice poll before the turn
    misses, and the holder misses one more as its packet completes,
    60 cycles after the turn.
    """
    npu = NpuConfig()

    def cycles_ps(cycles):
        return round(cycles * PS_PER_S / mhz(freq_mhz))

    switch = cycles_ps(npu.ctx_switch_cycles)
    period = cycles_ps(npu.poll_instructions)
    lattice = switch + -((switch - READ_2K_PS) // period) * period
    turn = lattice + (npu.threads_per_me - 2) * period
    polls = (turn - switch) // period + 1
    return switch, READ_2K_PS, turn, turn + cycles_ps(60), polls


def three_read_steps(packet):
    """Three blocking reads per packet: each response queues a holder
    behind the pollers, so most runs contain holder turns."""
    yield Compute(40)
    yield MemRead("sdram", 256)
    yield Compute(30)
    yield MemRead("sram", 8)
    yield Compute(20)
    yield MemRead("scratch", 4)
    yield Compute(10)


class StrictPollSimulator(Simulator):
    """A kernel that fails loudly on a second poll-band entry queued
    for one (picosecond, rank) key — the plain kernel would only raise a
    ``TypeError`` from ``heapq`` comparing bound methods, if at all — and
    records every poll-band post as ``(posted_ps, time_ps)``."""

    def __init__(self):
        super().__init__()
        self.queued_polls = set()
        self.poll_posts = []

    def post_poll(self, time_ps, rank, callback, *args):
        key = (time_ps, rank)
        assert key not in self.queued_polls, f"second poll entry at {key}"
        self.queued_polls.add(key)
        self.poll_posts.append((self.now_ps, time_ps))
        super().post_poll(time_ps, rank, callback, *args)

    def _deliver_poll(self, rank, callback, args):
        self.queued_polls.remove((self.now_ps, rank))
        super()._deliver_poll(rank, callback, args)


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
    freq_mhz=600,
    before_start=None,
):
    """Run one engine on a packet queue; ``arrivals`` are ``(time_ps,
    late)`` enqueues, ``late`` ones posted after the poll completing at
    the same instant was.  ``before_start`` and ``perturb`` are called
    with ``(sim, me)`` before and after the engine starts, so what they
    post draws sequence numbers before or after the engine's first
    ones.  ``effort`` holds what parking may change: kernel events,
    poll-band posts and the engine's park state."""
    sim = StrictPollSimulator()
    clock = ClockDomain(sim, mhz(freq_mhz), "me0")
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
    if before_start is not None:
        before_start(sim, me)
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
        "rotation": rotation(me),
    }
    park_state = {
        "parked": me._parked,
        "live_ps": me._live_ps,
        "holders": sum(t.step_iter is not None for t in me._ready),
    }
    if resume_until is not None:
        sim.run(until_ps=resume_until)
        snapshot["final_done"] = list(done)
        snapshot["final_instructions"] = me.instructions_executed
        snapshot["final_polls"] = me.polls
        snapshot["final_totals"] = dict(me.states.totals_ps())
        snapshot["final_kernel_seqs"] = sim._seq
        snapshot["final_rotation"] = rotation(me)
    snapshot["effort"] = {
        "events": sim.events_executed,
        "poll_posts": list(sim.poll_posts),
        "stale_polls": me.stale_polls,
        # As of the first run's end.
        **park_state,
    }
    return snapshot


def assert_parked_matches_eager(**kwargs):
    """Parked and eager runs agree on everything but their effort;
    returns both efforts."""
    parked = run_me(**kwargs)
    eager = run_me(eager=True, **kwargs)
    parked_effort = parked.pop("effort")
    eager_effort = eager.pop("effort")
    assert parked == eager
    assert parked_effort["events"] <= eager_effort["events"]
    assert eager_effort["stale_polls"] == 0
    return parked_effort, eager_effort


class TestParkedEquivalence:
    def test_idle_engine_parks(self):
        parked, eager = assert_parked_matches_eager(npackets=0)
        assert parked["events"] == 0
        assert eager["events"] == 60_000_000 // POLL_PS

    def test_packets_then_idle(self):
        parked, eager = assert_parked_matches_eager()
        assert parked["events"] < eager["events"] // 10

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
        # poll an empty queue: the engine folds the reference into the
        # holder's turn.  Two events: the turn (the context switch, the
        # response and the pollers' misses ahead of it post nothing)
        # and the compute completion.
        parked, _ = assert_parked_matches_eager(
            npackets=1, steps_fn=read_then_compute
        )
        assert parked["events"] == 2

    def test_run_end_then_resume(self):
        assert_parked_matches_eager(
            until=7 * POLL_PS + 1, resume_until=60_000_000,
            arrivals=[(7 * POLL_PS, True), (9 * POLL_PS, False)],
        )

    def test_run_end_on_a_lattice_instant_then_resume(self):
        # The poll completing exactly at the deadline belongs to the
        # first run; the arrival after it must wake the resumed engine.
        parked, _ = assert_parked_matches_eager(
            npackets=0, until=40 * POLL_PS, resume_until=60_000_000,
            arrivals=[(41 * POLL_PS + POLL_PS // 2, False)],
        )
        assert parked["parked"]

    def test_put_from_a_higher_ranked_poll_completion(self):
        """ME1's poll completion puts a packet into the queue of ME0,
        parked on the same lattice: ME0's poll at that instant has
        already run, so it takes the packet one poll later."""

        def run(eager):
            sim = StrictPollSimulator()
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


def first_turn(**kwargs):
    """``(posted_ps, turn_ps)`` of the first holder turn a parked run
    posts more than one poll period ahead: a memory response queued the
    holder behind at least one poller."""
    for posted_ps, turn_ps in run_me(**kwargs)["effort"]["poll_posts"]:
        if turn_ps - posted_ps > POLL_PS:
            return posted_ps, turn_ps
    raise AssertionError("no holder waited behind a poller")


class TestHolderTurns:
    """Something happens while a packet holder waits behind pollers.

    With :func:`read_then_compute` on four threads, the response at
    ``R`` queues the holder behind two pollers: the next lattice polls
    complete at ``T - 2P`` and ``T - P``, the holder's turn is ``T`` and
    the parked engine posts one entry, at ``T`` (at the issue, since the
    reference folds).  A wake at or before ``T - P`` supersedes that
    entry; a later one keeps it.
    """

    BASE = dict(npackets=1, steps_fn=read_then_compute)

    def turn(self):
        _, turn_ps = first_turn(**self.BASE)
        assert turn_ps - 3 * POLL_PS < READ_2K_PS < turn_ps - 2 * POLL_PS
        return turn_ps

    @pytest.mark.parametrize("late", (False, True))
    @pytest.mark.parametrize(
        "offset, superseded",
        [
            (-2 * POLL_PS, True),  # on the lattice
            (-3 * POLL_PS // 2, True),
            (-POLL_PS, True),  # on the lattice
            (-POLL_PS // 2, False),
            (-1, False),
            (0, False),  # exactly at the turn
        ],
    )
    def test_arrival(self, offset, superseded, late):
        turn_ps = self.turn()
        parked, _ = assert_parked_matches_eager(
            arrivals=[(turn_ps + offset, late)], **self.BASE
        )
        assert parked["stale_polls"] == int(superseded)

    @pytest.mark.parametrize("compute", (2470, 2490))
    def test_second_response(self, compute):
        """A second thread's read returns while the first holder waits:
        it queues behind it, and the one posted turn stands.  The
        compute run before the SRAM read orders the two responses either
        way round."""

        def steps(packet):
            if packet.seq == 1:
                yield Compute(compute)
                yield MemRead("sram", 8)
            else:
                yield MemRead("sdram", 2048)
            yield Compute(60)

        kwargs = dict(npackets=2, steps_fn=steps)
        _, turn_ps = first_turn(**kwargs)
        waiting = run_me(until=turn_ps - 1, **kwargs)["effort"]
        assert waiting["parked"] and waiting["holders"] == 2
        assert waiting["live_ps"] == turn_ps
        assert_parked_matches_eager(**kwargs)

    @pytest.mark.parametrize(
        "name, revived",
        [
            ("long stall", False),
            ("short stall", True),
            ("new frequency", False),
            ("frequency there and back", True),
        ],
    )
    def test_stall_and_frequency_change(self, name, revived):
        """Each wakes the engine at ``T - 3P/2``, superseding the turn.
        A stall that ends, or a frequency that returns, before ``T - P``
        leaves the lattice where it was: re-parking then revives the
        entry at ``T`` instead of posting a second one."""
        wake_ps = self.turn() - 3 * POLL_PS // 2

        def perturb(sim, me):
            if name == "long stall":
                sim.schedule_at(wake_ps, me.stall_for, 3 * POLL_PS)
            elif name == "short stall":
                sim.schedule_at(wake_ps, me.stall_for, POLL_PS // 4)
            else:
                sim.schedule_at(wake_ps, me.set_vf, mhz(450), 1.1)
                if name == "frequency there and back":
                    sim.schedule_at(wake_ps + POLL_PS // 4, me.set_vf, mhz(600), 1.3)

        parked, _ = assert_parked_matches_eager(perturb=perturb, **self.BASE)
        assert parked["stale_polls"] == int(not revived)

    @pytest.mark.parametrize(
        "offset", (-3 * POLL_PS // 2, -POLL_PS, -POLL_PS // 2, -1)
    )
    def test_run_end_then_resume(self, offset):
        turn_ps = self.turn()
        parked, _ = assert_parked_matches_eager(
            until=turn_ps + offset, resume_until=60_000_000, **self.BASE
        )
        assert parked["parked"] and parked["live_ps"] == turn_ps


SWITCH_PS, RESPONSE_PS, TURN_PS, _, _ = folded_read(600)


def _post(sim, when_ps, late, callback, *args):
    """Post ``callback(*args)`` at ``when_ps``; a ``late`` one is posted
    one picosecond before, so its sequence number is drawn after those
    of every event posted by then."""
    if late:
        sim.schedule_at(when_ps - 1, sim.schedule_at, when_ps, callback, *args)
    else:
        sim.schedule_at(when_ps, callback, *args)


class TestFoldTouches:
    """A touch reaches a folded reference before its turn.

    :func:`read_then_compute` on four threads folds its read at the
    issue, 0: the switch is due at ``S``, the response at ``R`` and the
    turn at ``T``.  A touch posted before the engine starts sorts before
    a switch or response at its own picosecond, since the fold draws
    their sequence numbers later; a ``late`` one sorts after.  Each case
    must match the eager engine, which posts both events.
    """

    BASE = dict(npackets=1, steps_fn=read_then_compute)
    PLACES = pytest.mark.parametrize(
        "when_ps, late",
        [
            (SWITCH_PS // 2, False),
            (SWITCH_PS, False),
            (SWITCH_PS, True),
            ((SWITCH_PS + RESPONSE_PS) // 2, False),
            (RESPONSE_PS, False),
            (RESPONSE_PS, True),
            ((RESPONSE_PS + TURN_PS) // 2, False),
        ],
        ids=["issue-switch", "switch", "switch-late", "switch-response",
             "response", "response-late", "response-turn"],
    )

    def test_the_read_folds(self):
        # One poll-band post, at the issue, for the turn.
        assert run_me(**self.BASE)["effort"]["poll_posts"] == [(0, TURN_PS)]

    @PLACES
    def test_enqueue(self, when_ps, late):
        assert_parked_matches_eager(arrivals=[(when_ps, late)], **self.BASE)

    @PLACES
    @pytest.mark.parametrize("duration_ps", (POLL_PS // 4, 3 * POLL_PS))
    def test_stall(self, when_ps, late, duration_ps):
        def touch(sim, me):
            _post(sim, when_ps, late, me.stall_for, duration_ps)

        assert_parked_matches_eager(before_start=touch, **self.BASE)

    @PLACES
    def test_set_vf(self, when_ps, late):
        def touch(sim, me):
            _post(sim, when_ps, late, me.set_vf, mhz(450), 1.1)

        assert_parked_matches_eager(before_start=touch, **self.BASE)

    @pytest.mark.parametrize(
        "until_ps",
        [
            SWITCH_PS // 2,
            SWITCH_PS,
            (SWITCH_PS + RESPONSE_PS) // 2,
            RESPONSE_PS,
            (RESPONSE_PS + TURN_PS) // 2,
        ],
    )
    def test_run_end_then_resume(self, until_ps):
        assert_parked_matches_eager(
            until=until_ps, resume_until=60_000_000, **self.BASE
        )


class TestFoldedClosedForm:
    """One packet through an idle engine at a fixed level, a closed-form
    check per engine: :func:`folded_read` predicts its completion
    instant and the polls charged by then from config constants alone,
    so memory latency that scaled with the engine clock, or a turn
    counted from the issue, would fail it."""

    def test_the_turn_at_600_mhz(self):
        assert TURN_PS == 4_241_667

    @pytest.mark.parametrize("freq_mhz", (600, 400))
    @pytest.mark.parametrize("eager", (False, True))
    def test_completion_and_polls(self, freq_mhz, eager):
        _, _, _, completion, polls = folded_read(freq_mhz)
        run = run_me(
            npackets=1, steps_fn=read_then_compute, freq_mhz=freq_mhz,
            until=completion, eager=eager,
        )
        assert run["done"] == [completion]
        assert run["polls"] == polls


def _arrivals():
    on_lattice = st.integers(min_value=1, max_value=1_000).map(lambda k: k * POLL_PS)
    anywhere = st.integers(min_value=10_000, max_value=40_000_000)
    return st.lists(
        st.tuples(st.one_of(on_lattice, anywhere), st.booleans()), max_size=8
    )


class TestSeqLayoutProperty:
    """Hypothesis wall: under *any* schedule of stalls, V-F changes,
    arrivals and run ends, a parked engine matches an eager one."""

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
    def _perturb(schedule):
        def perturb(sim, me):
            for when_ps, kind, stall_ps, freq in schedule:
                if kind in ("vf", "both"):
                    sim.schedule_at(when_ps, me.set_vf, mhz(freq), 1.0)
                if kind in ("stall", "both"):
                    sim.schedule_at(when_ps, me.stall_for, stall_ps)

        return perturb

    @given(
        schedule=schedules,
        arrivals=_arrivals(),
        npackets=st.integers(min_value=0, max_value=4),
        # 25 polls ends a run on a lattice instant; the resume follows.
        until=st.sampled_from((60_000_000, 25 * POLL_PS, 12_345_679)),
    )
    @settings(deadline=None, max_examples=40)
    def test_randomized_arrivals_stalls_and_stops_parked_matches_eager(
        self, schedule, arrivals, npackets, until
    ):
        assert_parked_matches_eager(
            perturb=self._perturb(schedule),
            arrivals=arrivals,
            npackets=npackets,
            until=until,
            resume_until=60_000_000,
            steps_fn=three_read_steps,
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
    events = parked_run.sim.events_executed
    assert events < eager_run.sim.events_executed
    # Superseded holder turns, which fire as no-ops, stay a small share.
    assert sum(me.stale_polls for me in parked_run.chip.mes) < 0.01 * events


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


class TestEventGraphFrozen:
    """Pinned effort counts for three bench-length configs.

    A change that only makes events cheaper leaves every count equal; a
    deliberate change to the event graph updates them in its own commit.
    Folding blocking references into holder turns removed events and,
    since a folded turn is posted at the issue rather than at the
    response, let an arrival in between supersede a few more turns.
    The configs cover an engine that parks (``overnight_trough``), a
    generator stream on the busy path under the study's monitors (nat
    receive on ``saturation_stress``) and stalls and V/F changes that
    land mid-compute (``bursty_onoff``).
    """

    @pytest.mark.parametrize(
        "scenario, app, policy, monitored, expected",
        [
            (
                "overnight_trough", "ipfwdr", "tdvs", False,
                {
                    "events": 1_043, "polls": 64_438,
                    "instructions": 1_586_262, "stale_polls": 0,
                    "requests": {"sram": 70, "sdram": 336, "scratch": 56, "ixbus": 29},
                },
            ),
            (
                "saturation_stress", "nat", "edvs", True,
                {
                    "events": 10_582, "polls": 55_228,
                    "instructions": 2_399_864, "stale_polls": 26,
                    "requests": {"sram": 645, "sdram": 0, "scratch": 897, "ixbus": 465},
                },
            ),
            (
                "bursty_onoff", "ipfwdr", "tdvs", False,
                {
                    "events": 13_389, "polls": 24_737,
                    "instructions": 1_083_633, "stale_polls": 20,
                    "requests": {"sram": 839, "sdram": 4_187, "scratch": 682, "ixbus": 437},
                },
            ),
        ],
    )
    def test_effort_counts(self, scenario, app, policy, monitored, expected):
        monitors = _study_monitors(scenario) if monitored else []
        run = SimulationRun(_config(scenario, policy, app, 400_000), monitors=monitors)
        run.run()
        chip = run.chip
        controllers = (
            ("sram", chip.sram), ("sdram", chip.sdram),
            ("scratch", chip.scratch), ("ixbus", chip.ixbus),
        )
        assert {
            "events": run.sim.events_executed,
            "polls": sum(me.polls for me in chip.mes),
            "instructions": sum(me.instructions_executed for me in chip.mes),
            "stale_polls": sum(me.stale_polls for me in chip.mes),
            "requests": {name: memory.requests for name, memory in controllers},
        } == expected


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
