"""Multithreaded microengine runtime.

A microengine (ME) is a single-issue core with a small number of hardware
threads (4 on the IXP1200).  Exactly one thread executes at a time; a
thread that issues a memory reference blocks and the context arbiter
swaps in the next ready thread.  Two behaviours matter for the paper's
DVS study and are modelled faithfully:

* **polling is busy work** — a thread that finds no packet waiting spends
  ``poll_instructions`` cycles checking queues and status registers, so an
  ME with no traffic still burns active power ("even if an ME does not
  process packets during low workload, it will actively execute
  instructions to poll the buffers");
* **idle means all threads blocked on memory** — only then does the
  engine sit idle, which is the quantity EDVS windows and thresholds.

Simulating every missed poll as a kernel event would cost most of a
light-load run.  The polls of an engine whose threads keep missing form
a fixed lattice (one every ``P`` picoseconds, threads in round-robin),
so such an engine *parks*: it records the next poll instant and its
thread rotation, and posts at most one poll completion — at the *turn*
of the first ready thread that holds a packet, ``position × P`` past the
next poll, since every poller ahead of it misses.  An enqueue on its
work source, a stall, a clock change or the end of the run settles the
lattice arithmetically — ``polls`` and ``instructions_executed`` lag
until then — and, except at run end, wakes the engine with one real
poll completion at the next lattice instant.  A memory response settles
the lattice, queues its thread and keeps the engine parked until the
first holder's turn.  The kernel cannot cancel an entry, so a wake
leaves a superseded turn queued; it fires as a no-op (counted in
``stale_polls``), or is revived when the engine wants that instant
again.  Parking never changes a result; an engine with a per-poll
observer attached never parks.

A parkable engine also *folds* a blocking reference whose issuer
leaves only pollers behind, facing an empty work source, when the
response lands after the context switch.  Posted, the reference costs
three kernel events, none of which changes the engine's power state:
the switch to a poller that misses and parks the engine, the response,
and the holder's turn.  Folded, the engine reserves the sequence
numbers of the response and the switch (:meth:`Simulator.reserve_seq`)
and posts only the turn, where one closed-form step charges the
pollers' misses, rotates the ready queue and continues the holder.  A
touch before the turn — an enqueue, a stall, a clock change, the end of
the run — unfolds first: it applies the switch and the response if
their keys sort before the touch's (:attr:`Simulator.now_seq` decides a
tie at one picosecond) and re-posts the rest under their reserved keys,
so the engine stands exactly where the eager engine would.

The runtime executes the per-packet application models' *step streams*
(:mod:`repro.npu.steps`).  One step interpreter,
:meth:`Microengine._continue`, runs a thread's zero-time steps inline
and stops at the first step that takes time.  A compute
posts ``_continue`` itself as its completion, so the thread resumes
there.  A blocking reference posts its response (``_mem_done``) and
then the context switch (``_dispatch``), in that order: the order fixes
their sequence numbers (a folded one reserves them in the same order).
A compute's delay comes from the clock's per-frequency memo
(:attr:`ClockDomain.delay_memo`), and the completion callbacks are
bound once, so a post allocates no bound method.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Set

from repro.errors import NpuError, SimulationError
from repro.npu.steps import (
    OP_COMPUTE,
    OP_DROP,
    OP_MEM_BLOCKING,
    OP_MEM_POST,
    OP_PUT_TX,
    Step,
)
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.stats import IntervalAccumulator
from repro.traffic.packet import Packet

#: Engine states charged by the interval accumulator.
BUSY, IDLE, STALLED = "busy", "idle", "stalled"

#: Consecutive zero-time operations after which the runtime assumes an
#: application bug (a step stream that never advances simulated time).
_ZERO_TIME_LIMIT = 10_000


class _HwThread:
    """One hardware thread's context."""

    __slots__ = ("packet", "step_iter")

    def __init__(self):
        self.packet: Optional[Packet] = None
        self.step_iter: Optional[Iterator[Step]] = None


class RxPortMux:
    """Round-robin packet source over a group of device ports."""

    def __init__(self, ports: List):
        if not ports:
            raise NpuError("RxPortMux needs at least one port")
        self.ports = ports
        self._next = 0
        # Precomputed probe tables, one rotation per starting port: each
        # entry pairs a pre-bound queue-poll method with the successor
        # index to store on a hit.  The hot poll loop walks bound methods
        # instead of recomputing modular indices and attribute chains.
        count = len(ports)
        self._probe_tables = [
            tuple(
                (ports[(start + off) % count].rx_queue.poll,
                 (start + off + 1) % count)
                for off in range(count)
            )
            for start in range(count)
        ]
        #: The port queues' backing deques (each queue's ``deques``),
        #: for the empty-poll fast path: a truthiness test per deque is
        #: several times cheaper than a bound ``poll()`` call per port,
        #: and a missed poll (every port empty) is the engine's steady
        #: state under light load.
        self.deques = tuple(
            items for port in ports for items in port.rx_queue.deques
        )

    def poll(self) -> Optional[Packet]:
        """Return a packet from the next non-empty port queue, if any."""
        for items in self.deques:
            if items:
                break
        else:
            return None
        for queue_poll, successor in self._probe_tables[self._next]:
            packet = queue_poll()
            if packet is not None:
                self._next = successor
                return packet
        return None  # pragma: no cover - unreachable (a queue was non-empty)

    def set_waiter(self, waiter: Callable[[], None]) -> None:
        """Install the consuming engine's wake hook on every port's queue."""
        for port in self.ports:
            port.rx_queue.set_waiter(waiter)


class Microengine:
    """One microengine: threads, arbiter, timing and state accounting.

    Parameters
    ----------
    sim / clock:
        Kernel and this ME's (scalable) clock domain.
    index:
        ME number (used in trace-event prefixes).
    role:
        ``"rx"`` or ``"tx"``.
    work_source:
        Object with ``poll() -> Optional[Packet]`` supplying work.  The
        engine parks only on a source that can wake it: one with
        ``set_waiter(hook)``.  The engine installs its hook once, at
        construction; the source calls it after every enqueue, and it
        returns at once unless the engine is parked.  It folds a
        blocking reference only on a source that also offers
        ``deques``, a tuple of its backing deques, to test it empty.
    make_steps:
        ``callable(packet) -> Iterable[Step]`` — the application's step
        stream for one packet in this ME's role: a generator, or a list
        the engine only iterates (see :class:`~repro.apps.base.AppModel`).
    memories:
        Mapping of target name (``sram``/``sdram``/``scratch``) to
        :class:`~repro.npu.memqueue.QueuedResource`.
    num_threads / poll_instructions / ctx_switch_cycles:
        Architecture parameters (see :class:`repro.config.NpuConfig`).
    on_put_tx:
        Chip hook for :class:`~repro.npu.steps.PutTx` steps.
    on_packet_done:
        Chip hook called when a packet's step stream completes
        (transmit-side MEs hand the packet to the wire here).
    on_drop:
        Chip hook for :class:`~repro.npu.steps.Drop` steps.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        index: int,
        role: str,
        work_source,
        make_steps: Callable[[Packet], Iterable[Step]],
        memories: dict,
        num_threads: int = 4,
        poll_instructions: int = 24,
        poll_counts_as_idle: bool = False,
        ctx_switch_cycles: int = 1,
        on_put_tx: Optional[Callable[[Packet], None]] = None,
        on_packet_done: Optional[Callable[[Packet], None]] = None,
        on_drop: Optional[Callable[[Packet, str], None]] = None,
    ):
        if role not in ("rx", "tx"):
            raise NpuError(f"role must be 'rx' or 'tx', got {role!r}")
        if num_threads <= 0:
            raise NpuError(f"num_threads must be positive, got {num_threads}")
        self.sim = sim
        self.clock = clock
        self.index = index
        self.role = role
        self.work_source = work_source
        self.make_steps = make_steps
        self.memories = memories
        # Hot-path bindings: the arbiter loop runs tens of thousands of
        # times per simulated millisecond, so the per-call attribute
        # chains are pre-resolved once.  ``work_source``, the kernel and
        # the clock are construction-time-final (nothing rebinds them).
        self._ws_poll = work_source.poll
        self._post = sim.post
        self._post_poll = sim.post_poll
        self._delay_for_cycles = clock.delay_for_cycles
        # The clock's per-frequency delay memo: one dict for the clock's
        # life, cleared in place on a frequency change, so a compute
        # looks its delay up here and converts only on a miss.
        self._delay_memo = clock.delay_memo
        # Completion callbacks, bound once: a post hands the kernel the
        # same bound method every time instead of allocating one.
        self._continue_cb = self._continue
        self._mem_done_cb = self._mem_done
        self._dispatch_cb = self._dispatch
        self.poll_instructions = poll_instructions
        self.poll_counts_as_idle = poll_counts_as_idle
        self.ctx_switch_cycles = ctx_switch_cycles
        # Fixed-cycle delays the arbiter pays tens of thousands of times
        # per run, resolved to picoseconds once per frequency instead of
        # once per event.  ``set_frequency`` fires ``on_change`` after
        # clearing the clock's own memo, so the refresh below re-derives
        # both from the new rate — values stay bit-identical to calling
        # ``delay_for_cycles`` at every poll.
        self._poll_delay_ps = self._delay_for_cycles(poll_instructions)
        self._ctx_delay_ps = self._delay_for_cycles(ctx_switch_cycles)
        clock.on_change.append(self._refresh_fixed_delays)
        self.on_put_tx = on_put_tx
        self.on_packet_done = on_packet_done
        self.on_drop = on_drop

        self.threads = [_HwThread() for _ in range(num_threads)]
        self._ready: Deque[_HwThread] = deque()
        self._current: Optional[_HwThread] = None
        self._stalled = False
        self._stall_until_ps = 0
        self.states = IntervalAccumulator(sim, BUSY, name=f"me{index}.states")

        #: Supply voltage paired with the clock frequency (set by DVS).
        self.vdd = 1.3
        #: Called after every V/F change: the power accountant closes the
        #: engine's energy interval at the old point.
        self.on_vf_change: Optional[Callable[[], None]] = None
        #: Listener invoked per executed instruction batch (trace events).
        self.on_instructions: Optional[Callable[[int, int], None]] = None
        #: Bound ``m<k>_pipeline`` bus emitter, one call per instruction
        #: block.  The chip binds it at start only when pipeline events
        #: are both configured and subscribed; ``None`` costs nothing.
        self.pipeline_emitter: Optional[Callable[[], None]] = None

        self.instructions_executed = 0
        self.packets_processed = 0
        self.mem_accesses = 0
        self.polls = 0
        #: Superseded poll-band entries that fired and did nothing (see
        #: :meth:`_poll_entry`); the simulated counters above never see them.
        self.stale_polls = 0
        self._zero_time_ops = 0
        self._started = False

        #: Park state (see :meth:`_await_poll`): while parked, the
        #: in-flight poll of ``_current`` completes at ``_park_next_ps``
        #: and no kernel event stands for it.
        self._parked = False
        self._park_next_ps = 0
        #: Instant of the engine's one live poll-band entry (``-1``:
        #: none queued), and the instants of superseded entries still
        #: queued, which an entry that fires checks against.
        self._live_ps = -1
        self._stale_ps: Set[int] = set()
        #: Folded blocking reference (see :meth:`_fold`): ``(switch_ps,
        #: switch_seq, done_ps, done_seq, holder)``, else ``None``.
        self._folded: Optional[tuple] = None
        #: Threads besides the issuer: a reference folds only while all
        #: of them are ready.
        self._others = num_threads - 1
        #: The work source's backing deques, when it offers them: the
        #: engine folds a reference only while they are all empty.
        self._ws_deques = getattr(work_source, "deques", None)
        set_waiter = getattr(work_source, "set_waiter", None)
        self._wakeable = set_waiter is not None
        if self._wakeable:
            set_waiter(self._wake)
        sim.on_run_end.append(self._settle_at_run_end)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enable all threads and begin executing."""
        if self._started:
            raise NpuError(f"ME{self.index} already started")
        self._started = True
        for thread in self.threads:
            self._ready.append(thread)
        self.states.set_state(BUSY)
        self._dispatch()

    # ------------------------------------------------------------------
    # DVS interface
    # ------------------------------------------------------------------
    def set_vf(self, freq_hz: float, vdd: float) -> None:
        """Apply a new voltage/frequency point (takes effect now).

        The engine's only V/F actuator; ``on_vf_change`` runs after it.
        """
        self.clock.set_frequency(freq_hz)
        self.vdd = vdd
        if self.on_vf_change is not None:
            self.on_vf_change()

    def _refresh_fixed_delays(self) -> None:
        """Clock ``on_change`` listener: re-derive cached fixed delays.

        A parked engine wakes first, on the old delay: as with a posted
        poll, the poll in flight keeps the delay it started with.
        """
        self._wake()
        self._poll_delay_ps = self._delay_for_cycles(self.poll_instructions)
        self._ctx_delay_ps = self._delay_for_cycles(self.ctx_switch_cycles)

    def stall_for(self, duration_ps: int) -> None:
        """Freeze execution for a VF-transition penalty.

        In-flight compute finishes, then its thread waits out the stall;
        memory responses arriving during the stall mark threads ready
        without dispatching them.  Overlapping stalls extend to the
        latest end.
        """
        if duration_ps <= 0:
            return
        self._wake()
        end = self.sim.now_ps + duration_ps
        self._stalled = True
        if end > self._stall_until_ps:
            self._stall_until_ps = end
            self.sim.post_at(end, self._maybe_unstall, end)
        if self._current is None:
            # Nothing mid-compute: the engine freezes as of now; an
            # in-flight compute instead parks its thread on completion.
            self.states.set_state(STALLED)

    def _maybe_unstall(self, scheduled_end: int) -> None:
        if not self._stalled or scheduled_end < self._stall_until_ps:
            return  # superseded by a longer stall
        self._stalled = False
        self._dispatch()

    @property
    def is_stalled(self) -> bool:
        """True while a VF-transition penalty is in effect."""
        return self._stalled

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._stalled:
            self.states.set_state(STALLED)
            return
        if self._current is not None:
            return
        if not self._ready:
            self.states.set_state(IDLE)
            return
        thread = self._ready.popleft()
        self._current = thread
        if self.states.state != BUSY:
            self.states.set_state(BUSY)
        self._continue(thread)

    def _continue(self, thread: _HwThread) -> None:
        """Run ``thread``'s steps until one takes simulated time.

        The engine's step interpreter, and the completion callback of
        every compute: a compute posts ``_continue`` itself, so the
        thread's next step runs on re-entry.  A blocking memory
        reference hands the engine to the next ready thread; posted
        transfers, puts and drops take no time and run inline.
        """
        if self._stalled:
            # Only a compute completion gets here stalled (_dispatch and
            # _poll_done return first): the penalty began mid-compute,
            # so the thread goes to the front of the ready queue and
            # resumes first after the stall.
            self._current = None
            self._ready.appendleft(thread)
            self.states.set_state(STALLED)
            return
        while True:
            step_iter = thread.step_iter
            if step_iter is None:
                if self._acquire(thread):
                    continue  # packet bound; execute its steps
                return  # polling: a timed wait was scheduled
            step = next(step_iter, None)
            if step is None:
                self._finish_packet(thread)
                continue
            op = step.op
            if op == OP_COMPUTE:
                self._zero_time_ops = 0
                instructions = step.instructions
                self.instructions_executed += instructions
                if self.pipeline_emitter is not None:
                    self.pipeline_emitter()
                if self.on_instructions is not None:
                    self.on_instructions(self.index, instructions)
                delay = self._delay_memo.get(instructions)
                if delay is None:
                    delay = self._delay_for_cycles(instructions)
                self._post(delay, self._continue_cb, thread)
                return
            if op == OP_MEM_BLOCKING:
                self._zero_time_ops = 0
                try:
                    resource = self.memories[step.target]
                except KeyError:
                    raise self._no_controller(step.target) from None
                self.mem_accesses += 1
                self._current = None
                # The response is posted before the context switch: the
                # two posts' order fixes their sequence numbers (a fold
                # reserves both, in that order).
                if len(self._ready) == self._others and self._may_fold():
                    done_ps = resource.request(step.nbytes)
                    if done_ps > self.sim.now_ps + self._ctx_delay_ps:
                        self._fold(thread, done_ps)
                        return
                    self.sim.post_at(done_ps, self._mem_done_cb, thread)
                else:
                    resource.request(step.nbytes, self._mem_done_cb, thread)
                # A context switch burns engine cycles only when there is
                # a ready thread to switch to; with every other thread
                # blocked the engine goes idle (or stalled) as of the
                # issue itself.
                if self.ctx_switch_cycles > 0 and self._ready:
                    self._post(self._ctx_delay_ps, self._dispatch_cb)
                else:
                    self._dispatch()
                return
            if op == OP_MEM_POST:
                self._count_zero_time()
                try:
                    resource = self.memories[step.target]
                except KeyError:
                    raise self._no_controller(step.target) from None
                self.mem_accesses += 1
                resource.request(step.nbytes)
                continue
            if op == OP_PUT_TX:
                self._count_zero_time()
                if self.on_put_tx is not None and thread.packet is not None:
                    self.on_put_tx(thread.packet)
                continue
            if op == OP_DROP:
                self._count_zero_time()
                if self.on_drop is not None and thread.packet is not None:
                    self.on_drop(thread.packet, step.reason)
                thread.packet = None
                thread.step_iter = None
                continue
            raise NpuError(f"ME{self.index}: unknown step {step!r}")

    def _acquire(self, thread: _HwThread) -> bool:
        packet = self._ws_poll()
        if packet is not None:
            self._bind_packet(thread, packet)
            return True
        self._charge_poll(thread)
        return False

    def _bind_packet(self, thread: _HwThread, packet: Packet) -> None:
        self._zero_time_ops = 0
        thread.packet = packet
        thread.step_iter = iter(self.make_steps(packet))

    def _charge_poll(self, thread: _HwThread) -> None:
        # Busy-poll: burn cycles checking queues, then let the next
        # ready thread have the engine (round-robin).
        self.polls += 1
        instructions = self.poll_instructions
        self.instructions_executed += instructions
        if self.pipeline_emitter is not None:
            self.pipeline_emitter()
        if self.on_instructions is not None:
            self.on_instructions(self.index, instructions)
        if self.poll_counts_as_idle:
            # Ablation accounting: treat the poll loop as idle time.
            self.states.set_state(IDLE)
        self._await_poll(thread, self.sim.now_ps + self._poll_delay_ps)

    # -- timed-action completions ------------------------------------------
    def _poll_done(self, thread: _HwThread) -> None:
        """Poll delay elapsed: rotate to the next ready thread.

        Every poll completion that runs as an event lands here (a
        parkable engine's through :meth:`_poll_entry`), so the whole
        round-robin cycle — requeue the poller, dispatch the next
        thread, re-poll, charge, re-post or park — runs inline.
        Behaviour is exactly ``_dispatch`` + ``_continue`` +
        ``_acquire``; only the intermediate frames are elided.
        """
        ready = self._ready
        ready.append(thread)
        if self._stalled:
            self._current = None
            self.states.set_state(STALLED)
            return
        nxt = ready.popleft()
        self._current = nxt
        if self.states.state != BUSY:
            self.states.set_state(BUSY)
        if nxt.step_iter is None:
            packet = self._ws_poll()
            if packet is None:
                # Missed poll: charge it inline (the _charge_poll body,
                # minus the call frame — the miss that parks an engine).
                self.polls += 1
                instructions = self.poll_instructions
                self.instructions_executed += instructions
                if self.pipeline_emitter is not None:
                    self.pipeline_emitter()
                if self.on_instructions is not None:
                    self.on_instructions(self.index, instructions)
                if self.poll_counts_as_idle:
                    self.states.set_state(IDLE)
                self._await_poll(nxt, self.sim.now_ps + self._poll_delay_ps)
                return
            self._bind_packet(nxt, packet)
        self._continue(nxt)

    def _mem_done(self, thread: _HwThread) -> None:
        if self._parked:
            # Stay parked: the responder queues behind the pollers, and
            # the first holder's turn (already posted, or this thread's)
            # ends the lattice.
            self._settle_before_now()
            ready = self._ready
            ready.append(thread)
            if self._live_ps < 0:
                self._want_poll(
                    self._park_next_ps + (len(ready) - 1) * self._poll_delay_ps
                )
            return
        self._ready.append(thread)
        if self._current is None and not self._stalled:
            self._dispatch()
        elif self._stalled and self._current is None:
            # Mark the freeze only when nothing is executing: a compute
            # in flight keeps the engine BUSY until it completes (its
            # completion requeues the thread, in _continue).
            self.states.set_state(STALLED)

    def _finish_packet(self, thread: _HwThread) -> None:
        self._count_zero_time()
        packet = thread.packet
        thread.packet = None
        thread.step_iter = None
        if packet is not None:
            self.packets_processed += 1
            if self.on_packet_done is not None:
                self.on_packet_done(packet)

    # ------------------------------------------------------------------
    # Park / wake
    # ------------------------------------------------------------------
    def _await_poll(self, thread: _HwThread, done_ps: int) -> None:
        """Let ``thread``'s missed poll complete at ``done_ps``.

        Posts the completion, or parks the engine when its work source
        can wake it and no per-poll observer is attached.  A parked
        engine posts one entry, at the turn of the first ready thread
        that holds a packet: each poller ahead of it misses, and an
        enqueue before the turn wakes the engine.
        """
        if self._may_park():
            self._parked = True
            self._park_next_ps = done_ps
            for position, ready in enumerate(self._ready):
                if ready.step_iter is not None:
                    self._want_poll(done_ps + position * self._poll_delay_ps)
                    return
            return
        self._post_poll(done_ps, self.index, self._poll_done, thread)

    def _may_park(self) -> bool:
        """The work source can wake the engine and no per-poll observer
        is attached."""
        return (
            self._wakeable
            and self.pipeline_emitter is None
            and self.on_instructions is None
            and not self.poll_counts_as_idle
        )

    def _may_fold(self) -> bool:
        """Whether a blocking reference issued now may fold (the caller
        has checked that every other thread is ready): the engine may
        park, is not stalled and has no live entry, and every other
        thread is a poller facing an empty work source."""
        deques = self._ws_deques
        if (
            self._others <= 0
            or self.ctx_switch_cycles <= 0
            or self._stalled
            or self._live_ps >= 0
            or deques is None
            or any(deques)
            or not self._may_park()
        ):
            return False
        for thread in self._ready:
            if thread.step_iter is not None:
                return False
        return True

    def _fold(self, holder: _HwThread, done_ps: int) -> None:
        """Fold ``holder``'s blocking reference, answered at ``done_ps``
        after the context switch, into its turn.

        Reserves the sequence numbers the eager path draws — the
        response's, then the switch's — and posts only the turn: the
        switch's poller completes its poll one period after the switch
        and the pollers take turns on that lattice, so the holder queues
        at the first lattice instant at or after ``done_ps``, behind
        ``len(ready) - 1`` pollers.
        """
        sim = self.sim
        done_seq = sim.reserve_seq()
        switch_seq = sim.reserve_seq()
        switch_ps = sim.now_ps + self._ctx_delay_ps
        period = self._poll_delay_ps
        # The first lattice instant at or after the response.
        lattice_ps = switch_ps + -((switch_ps - done_ps) // period) * period
        self._want_poll(lattice_ps + (len(self._ready) - 1) * period)
        self._folded = (switch_ps, switch_seq, done_ps, done_seq, holder)
        self._parked = True

    def _unfold(self) -> None:
        """A touch reaches a folded engine: apply the switch and the
        response whose keys sort before the touch's, in order, and
        re-post the others under their reserved keys.  A turn the
        response has not yet queued is superseded."""
        switch_ps, switch_seq, done_ps, done_seq, holder = self._folded
        self._folded = None
        sim = self.sim
        now = (sim.now_ps, sim.now_seq)
        responded = (done_ps, done_seq) < now
        if not responded:
            sim.post_reserved(done_ps, done_seq, self._mem_done_cb, holder)
            self._stale_ps.add(self._live_ps)
            self._live_ps = -1
        if now < (switch_ps, switch_seq):
            sim.post_reserved(switch_ps, switch_seq, self._dispatch_cb)
            self._parked = False
            return
        # The switch: the first poller misses and parks the engine.
        self._current = self._ready.popleft()
        self.polls += 1
        self.instructions_executed += self.poll_instructions
        self._park_next_ps = switch_ps + self._poll_delay_ps
        if responded:
            # The response: the holder queues behind the pollers.
            self._settle(done_ps - 1)
            self._ready.append(holder)

    def _want_poll(self, at_ps: int) -> None:
        """Make the engine's one live poll-band entry the one at ``at_ps``.

        Revives a superseded entry still queued there — the kernel keeps
        one entry per rank and picosecond — and posts one otherwise.
        """
        self._live_ps = at_ps
        stale = self._stale_ps
        if at_ps in stale:
            stale.remove(at_ps)
        else:
            self._post_poll(at_ps, self.index, self._poll_entry)

    def _poll_entry(self) -> None:
        """A parkable engine's poll-band entry fires.

        A superseded entry does nothing.  The live one settles the polls
        ordered before it (at a holder's turn, the pollers' misses),
        unparks the engine and completes the poll in flight.  At a
        folded reference's turn that is one step: every poll since the
        switch missed, and the ready queue turned once per poll that
        completed before the response.
        """
        now = self.sim.now_ps
        if now != self._live_ps:
            self.stale_polls += 1
            self._stale_ps.remove(now)
            return
        self._live_ps = -1
        folded = self._folded
        if folded is not None:
            switch_ps, _, done_ps, _, holder = folded
            self._folded = None
            self._parked = False
            period = self._poll_delay_ps
            misses = (now - switch_ps) // period
            self.polls += misses
            self.instructions_executed += misses * self.poll_instructions
            self._ready.rotate(-((done_ps - 1 - switch_ps) // period))
            self._current = holder
            self._continue(holder)
            return
        if self._parked:
            self._settle(now - 1)
            self._parked = False
        self._poll_done(self._current)

    def _wake(self) -> None:
        """Work-source hook: wake a parked engine, else do nothing.

        Settles the polls ordered before now, then posts the next one;
        a turn queued for another instant is superseded.  A folded
        reference unfolds first.
        """
        if not self._parked:
            return
        if self._folded is not None:
            self._unfold()
            if not self._parked:
                return
        self._settle_before_now()
        self._parked = False
        next_ps = self._park_next_ps
        live = self._live_ps
        if live != next_ps:
            if live >= 0:
                self._stale_ps.add(live)
            self._want_poll(next_ps)

    def _settle_before_now(self) -> None:
        sim = self.sim
        now = sim.now_ps
        # A poll completing exactly now has run only once the poll band
        # at this picosecond has passed the engine's rank.
        self._settle(now if sim.poll_passed(self.index) else now - 1)

    def _settle(self, through_ps: int) -> None:
        """Charge the parked polls completing at or before ``through_ps``.

        Each completion requeues the poller and rotates the next ready
        thread in, whose poll misses and is charged: ``_poll_done``'s
        miss path, in closed form.
        """
        next_ps = self._park_next_ps
        if through_ps < next_ps:
            return
        period = self._poll_delay_ps
        count = (through_ps - next_ps) // period + 1
        self.polls += count
        self.instructions_executed += count * self.poll_instructions
        self._park_next_ps = next_ps + count * period
        ready = self._ready
        ready.appendleft(self._current)
        ready.rotate(-count)
        self._current = ready.popleft()

    def _settle_at_run_end(self) -> None:
        """``on_run_end`` hook: bring a parked engine's counters up to date.

        A run ends at its deadline or when the queue drains, having run
        every poll up to ``now``.  The engine stays parked across the
        pause; a folded reference unfolds.
        """
        if self._folded is not None:
            self._unfold()
        if self._parked:
            self._settle(self.sim.now_ps)

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _no_controller(self, target: str) -> NpuError:
        return NpuError(f"ME{self.index}: no {target!r} controller attached")

    def _count_zero_time(self) -> None:
        self._zero_time_ops += 1
        if self._zero_time_ops > _ZERO_TIME_LIMIT:
            raise SimulationError(
                f"ME{self.index}: {_ZERO_TIME_LIMIT} consecutive zero-time "
                "operations — the application step stream never advances time"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def idle_fraction_window(self) -> float:
        """Idle share of the current observation window (EDVS input)."""
        return self.states.window_fractions().get(IDLE, 0.0)

    def reset_window(self) -> None:
        """Start a new EDVS observation window."""
        self.states.reset_window()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ME{self.index} {self.role} {self.clock.freq_hz/1e6:.0f}MHz "
            f"state={self.states.state}>"
        )
