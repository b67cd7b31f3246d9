"""Simulation traces: events, annotations, writers, readers, buffers.

A NePSim-style trace is a time-ordered stream of **events**, each carrying
the five **annotations** of the paper's Figure 3 (``cycle``, ``time``,
``energy``, ``total_pkt``, ``total_bit``).  Event names are prefixed to
distinguish microengines (``m2_pipeline`` is a pipeline event from ME2).

The subpackage provides:

* :class:`~repro.trace.bus.TraceBus` — the streaming observation bus
  every producer publishes into: tuple-payload subscriptions for LOC
  monitors, wildcard ``emit(TraceEvent)`` sinks for trace writers and
  buffers, and no-op emitters for unobserved event names;
* :class:`~repro.trace.events.TraceEvent` — one trace record;
* :class:`~repro.trace.buffer.TraceBuffer` — in-memory sink with optional
  event-name filtering and bounded retention;
* :class:`~repro.trace.writer.TextTraceWriter` — the exact column format of
  the paper's Figure 4 snapshot, plus a CSV variant;
* :mod:`~repro.trace.reader` — streaming parsers for both formats.
"""

from repro.trace.annotations import ANNOTATION_DESCRIPTIONS, ANNOTATION_NAMES
from repro.trace.buffer import TraceBuffer
from repro.trace.bus import NOOP_EMITTER, TraceBus
from repro.trace.events import (
    EVENT_DESCRIPTIONS,
    EVENT_TYPES,
    TraceEvent,
    parse_event_name,
    prefixed_event_name,
)
from repro.trace.reader import read_csv_trace, read_text_trace
from repro.trace.writer import CsvTraceWriter, TextTraceWriter

__all__ = [
    "ANNOTATION_DESCRIPTIONS",
    "ANNOTATION_NAMES",
    "CsvTraceWriter",
    "EVENT_DESCRIPTIONS",
    "EVENT_TYPES",
    "NOOP_EMITTER",
    "TextTraceWriter",
    "TraceBuffer",
    "TraceBus",
    "TraceEvent",
    "parse_event_name",
    "prefixed_event_name",
    "read_csv_trace",
    "read_text_trace",
]
