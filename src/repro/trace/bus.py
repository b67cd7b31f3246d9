"""The streaming observation bus: one publish/subscribe spine per run.

Every trace-event producer in the model — the chip's forward hook, the
port array's enqueue path, the microengines' pipeline blocks, the
memory-queue controllers — publishes into a single :class:`TraceBus`
instead of an ad-hoc sink list.  Two subscription flavours exist:

* :meth:`TraceBus.subscribe` — a **tuple handler** for one event name.
  The handler receives the bare annotation row ``(cycle, time, energy,
  total_pkt, total_bit)``; no :class:`~repro.trace.events.TraceEvent`
  is ever allocated for it.  This is the path LOC monitors ride
  (:mod:`repro.loc.monitor`).
* :meth:`TraceBus.attach_sink` — a **structured sink** with the
  ``emit(TraceEvent)`` interface (trace writers, buffers).  Sinks are
  wildcard subscribers: they see every event published on a primary
  channel, and a :class:`~repro.trace.events.TraceEvent` is
  materialized once per event only while at least one sink is
  attached.

Producers do not publish through the bus object; they hold an
**emitter** — a zero-argument callable bound per event name via
:meth:`TraceBus.emitter`.  Binding resolves the subscription table
once: a name nobody listens to gets the shared :data:`NOOP_EMITTER`,
so an unobserved event costs a single no-op call — no annotation
snapshot, no record, no dispatch loop.  Producers that want *zero*
cost compare against :data:`NOOP_EMITTER` and skip the call entirely.

Binding seals the bus: subscriptions must be in place before the chip
starts (which is when producers bind), otherwise events emitted
through an already-bound no-op emitter would be silently lost.  A late
``subscribe``/``attach_sink`` raises :class:`~repro.errors.TraceError`
instead.

Dispatch order is deterministic: tuple handlers first (in subscription
order), then structured sinks (in attachment order) — and annotations
are snapshotted exactly once per event, so every subscriber observes
the same row.
"""

from __future__ import annotations

from sys import intern
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import TraceError
from repro.trace.annotations import AnnotationProvider
from repro.trace.events import TraceEvent

#: One annotation snapshot, in :data:`~repro.trace.annotations.ANNOTATION_NAMES`
#: order: ``(cycle, time, energy, total_pkt, total_bit)``.
Row = Tuple[int, float, float, int, int]

#: A per-name tuple subscriber.
TupleHandler = Callable[[Row], None]

#: A producer-side publish callable for one event name.
Emitter = Callable[[], None]


def _noop_emit() -> None:
    """The shared emitter for event names nobody subscribed to."""


#: The no-op emitter singleton.  Producers may compare an emitter
#: against this to skip even the call overhead on their hot path.
NOOP_EMITTER: Emitter = _noop_emit


class TraceBus:
    """Publish/subscribe spine for one simulation's observation path.

    Parameters
    ----------
    annotations:
        The run's :class:`~repro.trace.annotations.AnnotationProvider`;
        its :meth:`~repro.trace.annotations.AnnotationProvider.snapshot`
        stamps each published event exactly once.
    """

    def __init__(self, annotations: AnnotationProvider):
        self._annotations = annotations
        self._handlers: Dict[str, List[TupleHandler]] = {}
        self._sinks: List = []
        self._bound: Dict[str, Emitter] = {}
        #: Events dispatched to at least one subscriber (no-op emitter
        #: calls do not count: nothing was materialized for them).
        self.events_published = 0
        #: Per-channel counter records, keyed by the binding key (one
        #: record per bound emitter; :meth:`channel_stats` merges the
        #: primary and named-only bindings of a name).  Counting reads
        #: no annotation — it only adds integer increments.
        self._channels: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Subscription (before producers bind)
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        """True once any producer bound an emitter."""
        return bool(self._bound)

    def subscribe(self, name: str, handler: TupleHandler) -> None:
        """Subscribe a tuple handler to one event name.

        The handler is called with the bare annotation row; no
        :class:`TraceEvent` is allocated on its account.
        """
        self._require_open(name)
        self._handlers.setdefault(intern(name), []).append(handler)

    def attach_sink(self, sink) -> None:
        """Attach a structured (wildcard) sink with ``emit(TraceEvent)``."""
        self._require_open("*")
        if not callable(getattr(sink, "emit", None)):
            raise TraceError(
                f"trace sink {sink!r} has no emit(event) method"
            )
        self._sinks.append(sink)

    def _require_open(self, name: str) -> None:
        if self._bound:
            raise TraceError(
                f"cannot subscribe {name!r}: the bus is sealed (producers "
                "already bound their emitters — subscribe before the chip "
                "starts)"
            )

    def has_any_subscriber(self) -> bool:
        """True when *anything* subscribed — the run counts as observed."""
        return bool(self._sinks) or any(self._handlers.values())

    # ------------------------------------------------------------------
    # Producer binding
    # ------------------------------------------------------------------
    def emitter(self, name: str, to_sinks: bool = True) -> Emitter:
        """Bind and return the emitter for ``name`` (seals the bus).

        Returns :data:`NOOP_EMITTER` when nothing subscribes to the
        name — publishing then materializes nothing at all.  On an
        observed bus, a primary name nobody subscribes gets an emitter
        that only counts ``published``, so an observed run counts every
        primary channel whichever names its monitors read: a check
        added on one event does not make another channel's count
        appear or vanish.  No emitter reads the annotations unless it
        dispatches a row.

        ``to_sinks=False`` binds a **named-only** channel: the event
        dispatches to the name's tuple handlers but never to wildcard
        sinks.  Auxiliary instrumentation (memory-queue events) uses
        this so that opting into a trace file does not change its
        contents.  Reading the annotations changes no result, so which
        channels are subscribed never changes a run's numbers.
        """
        name = intern(name)
        key = name if to_sinks else f"{name}\x00named"
        emit = self._bound.get(key)
        if emit is not None:
            return emit
        handlers = list(self._handlers.get(name, ()))
        sinks = list(self._sinks) if to_sinks else []
        if not handlers and not sinks:
            if to_sinks and self.has_any_subscriber():
                emit = self._counting_emitter(key, name)
            else:
                emit = NOOP_EMITTER
        else:
            emit = self._make_emitter(key, name, handlers, sinks)
        self._bound[key] = emit
        return emit

    # -- per-channel counters --------------------------------------------
    def _register_channel(self, key: str, name: str, fanout: int) -> List[int]:
        """The ``[published]`` counter cell for one bound emitter
        (created once per binding key); each published event runs
        ``fanout`` handler and sink dispatches."""
        cell = [0]
        self._channels[key] = {"name": name, "cell": cell, "fanout": fanout}
        return cell

    def channel_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel event accounting.

        Maps each counted channel name to::

            {"published": events the producer published,
             "delivered": handler + sink dispatches those events ran}

        Unobserved (no-op bound) channels never count — producers skip
        them entirely, so there is nothing to account.  Count-only
        channels count published events with zero deliveries: a heavy
        channel nobody drains shows up as such.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for record in self._channels.values():
            (published,) = record["cell"]
            entry = stats.setdefault(
                record["name"], {"published": 0, "delivered": 0}
            )
            entry["published"] += published
            entry["delivered"] += published * record["fanout"]
        return stats

    def _counting_emitter(self, key: str, name: str) -> Emitter:
        cell = self._register_channel(key, name, fanout=0)

        def emit() -> None:
            cell[0] += 1

        return emit

    def _make_emitter(
        self, key: str, name: str, handlers: List, sinks: List
    ) -> Emitter:
        snapshot = self._annotations.snapshot
        cell = self._register_channel(key, name, len(handlers) + len(sinks))

        if len(handlers) == 1 and not sinks:
            # The hottest shape: one monitor feed on one name.
            handler = handlers[0]

            def emit() -> None:
                self.events_published += 1
                cell[0] += 1
                handler(snapshot())

            return emit

        def emit() -> None:
            self.events_published += 1
            cell[0] += 1
            row = snapshot()
            for handler in handlers:
                handler(row)
            if sinks:
                event = TraceEvent(name, *row)
                for sink in sinks:
                    sink.emit(event)

        return emit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceBus names={list(self._handlers)} sinks={len(self._sinks)} "
            f"published={self.events_published} sealed={self.sealed}>"
        )
