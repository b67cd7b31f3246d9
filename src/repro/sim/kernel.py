"""Event-driven simulation kernel.

The kernel is a classic calendar queue built on :mod:`heapq`.  Time is an
integer number of picoseconds (see :mod:`repro.units`), which makes event
ordering exact, so simulations are bit-reproducible for a given seed.
Events at the same picosecond run in two bands: first every ordinary
event, in scheduling order (a monotonically increasing sequence number
breaks ties), then the *poll band* — poll completions posted with
:meth:`Simulator.post_poll` — in rank order.  A microengine's rank is its
index, so work enqueued at *T* is visible to a poll completing at *T*,
and engines that poll on the same lattice find it in index order.  An
engine that skips posting its polls (a parked microengine) asks
:meth:`Simulator.poll_passed` whether its slot at the current
picosecond has already gone by.

The kernel records the key of the event it is delivering:
``(now_ps, now_seq)``, where ``now_seq`` is the entry's sequence number
(``_POLL_BAND + rank`` in the poll band).  An entry keyed below it has
been delivered.  A model that leaves an event unposted can still place
a call among the events of its picosecond: it draws the event's
sequence number with :meth:`Simulator.reserve_seq`, compares keys, and
posts the event under that number (:meth:`Simulator.post_reserved`)
only if it has to happen after all.

Heap entries are plain ``(time_ps, seq, callback, args)`` tuples, so the
hot path pays C-speed tuple comparisons instead of a Python ``__lt__``
per sift.  A scheduled event always fires: there is no cancellation.
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` validate
their time; the model hot paths use :meth:`Simulator.post` /
:meth:`Simulator.post_at`, the same calls without the validation.

There is no implicit global simulator; every model object receives the
:class:`Simulator` it belongs to, so several simulations can coexist in
one process (the experiment sweeps rely on this).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError

#: Callback signature for scheduled events.
EventCallback = Callable[..., None]

#: Heap entry: ``(time_ps, seq, callback, args)``.  Sequence numbers are
#: unique, so tuple comparison never reaches the callback field.
_Entry = Tuple[int, int, EventCallback, tuple]

#: Sequence-number offset of the poll band.  Ordinary events draw
#: sequence numbers far below it, so at any picosecond a poll completion
#: (key ``_POLL_BAND + rank``) sorts after every ordinary event.
_POLL_BAND = 2**62

#: ``now_seq`` while the run-end hooks run: it sorts after every entry's
#: sequence number, since a run that returns has delivered every event
#: due by ``now_ps``.
_AFTER_EVERY_EVENT = 2**63

#: Sentinel deadline for an unbounded :meth:`Simulator.run`: comparing
#: every entry against one integer is cheaper than a per-event ``None``
#: check, and no schedulable picosecond reaches 2**63.
_NO_DEADLINE = 2**63


class Simulator:
    """Discrete-event simulator with an integer-picosecond timeline.

    Parameters
    ----------
    name:
        Optional label used in ``repr`` and error messages.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1_000, fired.append, "a")
    >>> sim.schedule(500, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now_ps
    1000
    """

    def __init__(self, name: str = "sim"):
        self.name = name
        self.now_ps: int = 0
        #: Sequence number of the event being delivered (see the module
        #: docstring); run-end hooks, and calls after a run returns, see
        #: ``_AFTER_EVERY_EVENT``.
        self.now_seq: int = 0
        self._queue: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        #: Picosecond and rank of the poll completion delivered last
        #: (see :meth:`poll_passed`).
        self._band_ps = -1
        self._band_rank = -1
        #: Called (no arguments) every time :meth:`run` returns, before
        #: control reaches the caller.  The sanctioned hook for
        #: end-of-run derivation — kernel-phase span capture
        #: (:mod:`repro.obs.spans`) snapshots the per-ME state totals
        #: here rather than instrumenting the event loop.
        self.on_run_end: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ps: int, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay_ps`` from now.

        Non-integer delays are rounded to the nearest picosecond — the
        same convention :meth:`ClockDomain.delay_for_cycles` uses — so a
        float-computed delay cannot silently truncate toward zero.
        """
        if delay_ps < 0:
            raise SchedulingError(
                f"cannot schedule {delay_ps} ps in the past (now={self.now_ps})"
            )
        if type(delay_ps) is not int:
            delay_ps = round(delay_ps)
        self.post(delay_ps, callback, *args)

    def schedule_at(self, time_ps: int, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_ps``.

        Non-integer times round to the nearest picosecond (see
        :meth:`schedule`).
        """
        if type(time_ps) is not int:
            time_ps = round(time_ps)
        if time_ps < self.now_ps:
            raise SchedulingError(
                f"cannot schedule at {time_ps} ps, now is {self.now_ps} ps"
            )
        self.post_at(time_ps, callback, *args)

    def post(self, delay_ps: int, callback: EventCallback, *args: Any) -> None:
        """:meth:`schedule` without the validation (model hot paths).

        ``delay_ps`` must be a non-negative integer; callers own the
        invariant.
        """
        self._seq += 1
        heappush(self._queue, (self.now_ps + delay_ps, self._seq, callback, args))

    def post_at(self, time_ps: int, callback: EventCallback, *args: Any) -> None:
        """Absolute-time :meth:`post`; ``time_ps`` must not be in the past."""
        self._seq += 1
        heappush(self._queue, (time_ps, self._seq, callback, args))

    def reserve_seq(self) -> int:
        """Draw the next sequence number without posting anything.

        :meth:`post_reserved` can post under it later: the entry then
        sorts among its picosecond's events where a post made now would
        have.  A number never posted leaves a gap, which reorders
        nothing.
        """
        self._seq += 1
        return self._seq

    def post_reserved(
        self, time_ps: int, seq: int, callback: EventCallback, *args: Any
    ) -> None:
        """Post ``callback(*args)`` under a sequence number drawn with
        :meth:`reserve_seq`.  The key ``(time_ps, seq)`` must sort after
        the event being delivered, ``(now_ps, now_seq)``."""
        heappush(self._queue, (time_ps, seq, callback, args))

    def post_poll(
        self, time_ps: int, rank: int, callback: EventCallback, *args: Any
    ) -> None:
        """Post a poll completion into the poll band at ``time_ps``.

        The entry keys on ``_POLL_BAND + rank`` instead of a fresh sequence
        number: at ``time_ps`` it runs after every ordinary event, and
        poll completions run lowest rank first.  A rank may have at most
        one completion pending per picosecond, which keeps heap keys
        unique.  A parked microengine keeps to that even though it leaves
        superseded entries queued (there is no cancellation): it revives
        a superseded entry it wants again, never posting a second one.
        Like :meth:`post_at`, ``time_ps`` must not be in the past.
        Delivery records how far the band has got (:meth:`poll_passed`);
        ordinary events pay nothing for it.
        """
        heappush(
            self._queue,
            (time_ps, _POLL_BAND + rank, self._deliver_poll, (rank, callback, args)),
        )

    def _deliver_poll(self, rank: int, callback: EventCallback, args: tuple) -> None:
        self._band_ps = self.now_ps
        self._band_rank = rank
        callback(*args)

    def poll_passed(self, rank: int) -> bool:
        """True when ``rank``'s poll-band slot at ``now_ps`` has gone by.

        That is, the band at this picosecond already delivered ``rank``
        or a higher rank, so a poll completion of ``rank`` that had been
        pending for now would already have run.
        """
        return self._band_ps == self.now_ps and self._band_rank >= rank

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ps: Optional[int] = None) -> None:
        """Run until the queue drains or ``until_ps``.

        When ``until_ps`` is given, events strictly after it stay queued
        and ``now_ps`` is advanced to exactly ``until_ps`` on return, so a
        later ``run`` call resumes seamlessly.
        """
        if self._running:
            raise SimulationError(f"simulator {self.name!r} is already running")
        self._running = True
        queue = self._queue
        pop = heappop
        deadline = _NO_DEADLINE if until_ps is None else until_ps
        # The executed-event count accumulates in a local and lands on
        # the instance in one store: nothing reads it mid-run (the
        # property is a post-run statistic), and the loop body is the
        # per-event cost floor for the whole simulator.  Each entry is
        # popped and unpacked once; the one entry past the deadline goes
        # back, and since keys are unique the pop order is unchanged.
        executed = 0
        try:
            while queue:
                time_ps, seq, callback, args = pop(queue)
                if time_ps > deadline:
                    heappush(queue, (time_ps, seq, callback, args))
                    break
                self.now_ps = time_ps
                self.now_seq = seq
                executed += 1
                callback(*args)
            if until_ps is not None and until_ps > self.now_ps:
                self.now_ps = until_ps
        finally:
            # Land the count before the run-end hooks: a hook may read
            # ``events_executed`` for its snapshot.
            self._events_executed += executed
            self._running = False
            self.now_seq = _AFTER_EVERY_EVENT
            for hook in self.on_run_end:
                hook()

    def step(self) -> bool:
        """Execute exactly one pending event; return ``False`` if none."""
        if not self._queue:
            return False
        time_ps, seq, callback, args = heappop(self._queue)
        self.now_ps = time_ps
        self.now_seq = seq
        self._events_executed += 1
        callback(*args)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued events."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        """Total number of callbacks delivered so far."""
        return self._events_executed

    def peek_next_time(self) -> Optional[int]:
        """Time of the next event, or ``None`` if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator {self.name!r} now={self.now_ps}ps "
            f"pending={len(self._queue)}>"
        )
