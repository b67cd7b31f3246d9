"""In-memory trace retention: the :class:`TraceBuffer` sink.

Sinks implement a single method, ``emit(event)``, and attach to a run's
:class:`~repro.trace.bus.TraceBus`, which fans each event out to every
attached sink.  A :class:`TraceBuffer` keeps the events in memory, for a
test or example that wants to inspect the raw stream or check a formula
over it offline (:func:`~repro.loc.checker.check_trace`).  LOC monitors
do not need it: they subscribe to the bus themselves and stream.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, List, Optional

from repro.trace.events import TraceEvent


class TraceBuffer:
    """Retains events in memory, optionally filtered and bounded.

    Parameters
    ----------
    names:
        If given, only events whose name is in this set are retained.
    predicate:
        Optional extra filter called with each event.
    max_events:
        If given, only the most recent ``max_events`` matching events are
        kept (a ring buffer); ``dropped`` counts evictions.
    """

    def __init__(
        self,
        names: Optional[Iterable[str]] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
        max_events: Optional[int] = None,
    ):
        self.names = frozenset(names) if names is not None else None
        self.predicate = predicate
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.max_events = max_events
        self.dropped = 0
        self.total_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        if self.names is not None and event.name not in self.names:
            return
        if self.predicate is not None and not self.predicate(event):
            return
        if self.max_events is not None and len(self._events) == self.max_events:
            self.dropped += 1
        self._events.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(list(self._events))

    def clear(self) -> None:
        """Drop all retained events (counters are kept)."""
        self._events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceBuffer kept={len(self._events)} emitted={self.total_emitted}>"
