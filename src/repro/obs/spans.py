"""Span-based run timelines: dual-clock tracing from session to kernel.

A *span* is one named interval on one *track* (a timeline lane), under
one of two clocks:

* ``wall`` — orchestration time (:func:`time.perf_counter` seconds):
  session lifetime, backend submit/drain, coordinator grant→outcome per
  job, worker pull/execute/ship, store appends.  Wall spans live only in
  the span log; they never ride :class:`~repro.sweep.store.SweepOutcome`
  payloads, so outcomes stay bit-identical across backends.
* ``sim`` — deterministic simulation time (integer picoseconds):
  scenario playback segments, per-microengine busy/stall/idle windows
  and check-evaluation windows, all **derived from existing end-of-run
  accounting** (:meth:`repro.sim.stats.IntervalAccumulator.totals_ps`,
  :meth:`repro.scenarios.spec.Scenario.segment_spans_ps`) — never from
  per-event instrumentation, so the kernel hot loop pays nothing.
  Sim spans are deterministic and *do* ride outcomes (the optional
  ``obs["spans"]`` key), byte-identical across backends and monitor
  modes.

The :class:`SpanRecorder` is lock-free in the CPython sense — appends to
a plain list, safe from any thread without a mutex.  Each
:class:`~repro.api.Session` owns one, and while the session streams a
sweep it is the process-wide recorder :func:`get_recorder` hands out,
so the backends and the store plumbing feed the session's log; the
previous recorder comes back when the stream ends.  It serializes to a
versioned JSONL span log (one header line + one line per span) written
next to the metrics snapshot; ``repro trace export --format perfetto``
and ``repro report --html`` consume that log.

Recording is always on.  Spans never reach report renderers, so study
JSON does not depend on them.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ExperimentError

#: Version of the JSONL span-log schema.  Bump ONLY together with a
#: matching update to the span section of ``src/repro/obs/SCHEMA.md`` —
#: CI cross-checks the two exactly like the metrics schema gate.
SPAN_SCHEMA_VERSION = 1

#: The span-log header line's ``schema`` tag.
SPAN_SCHEMA_TAG = "repro.obs.spans"

#: Span listener: receives each record as it is added (see
#: :attr:`repro.api.events.EventHooks.on_span`).
SpanListener = Callable[[Dict[str, Any]], None]


class _WallSpan:
    """Context manager for one wall-clock span."""

    __slots__ = ("_recorder", "_name", "_track", "_attrs", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, track: str,
                 attrs: Optional[Dict[str, Any]]):
        self._recorder = recorder
        self._name = name
        self._track = track
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_WallSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.add_wall(
            self._name,
            self._track,
            self._start,
            time.perf_counter() - self._start,
            self._attrs,
        )


class SpanRecorder:
    """Per-process span sink: append-only, serialized on demand.

    Recording costs one record per *span*, never per simulated event.
    """

    def __init__(self):
        self._records: List[Dict[str, Any]] = []
        self._listeners: List[SpanListener] = []

    def __len__(self) -> int:
        return len(self._records)

    # -- listeners -------------------------------------------------------
    def add_listener(self, listener: SpanListener) -> None:
        """Subscribe to spans as they land (``EventHooks.on_span``)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: SpanListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _emit(self, record: Dict[str, Any]) -> None:
        self._records.append(record)
        for listener in self._listeners:
            listener(record)

    # -- recording -------------------------------------------------------
    def wall_span(self, name: str, track: str,
                  attrs: Optional[Dict[str, Any]] = None) -> _WallSpan:
        """A ``with`` block timing one wall-clock span."""
        return _WallSpan(self, name, track, attrs)

    def add_wall(self, name: str, track: str, start_s: float, dur_s: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record one wall-clock span (``perf_counter`` seconds)."""
        record: Dict[str, Any] = {
            "clock": "wall",
            "name": name,
            "track": track,
            "start": round(float(start_s), 6),
            "dur": round(float(dur_s), 6),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def add_sim(self, name: str, track: str, start_ps: int, dur_ps: int,
                attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record one sim-time span (integer picoseconds)."""
        record: Dict[str, Any] = {
            "clock": "sim",
            "name": name,
            "track": track,
            "start": int(start_ps),
            "dur": int(dur_ps),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def extend(self, records: Iterable[Dict[str, Any]],
               track_prefix: str = "",
               attrs: Optional[Dict[str, Any]] = None) -> int:
        """Absorb span records produced elsewhere (a worker, a job).

        Only well-formed records are kept — a malformed entry from an
        older or newer peer is dropped, never raised on, so the span
        key stays protocol-compatible the way ``telemetry`` is.
        Returns the number of records absorbed.
        """
        absorbed = 0
        for record in records or ():
            if not _valid_span(record):
                continue
            copied = dict(record)
            if track_prefix:
                copied["track"] = f"{track_prefix}{copied['track']}"
            if attrs:
                merged = dict(copied.get("attrs") or {})
                merged.update(attrs)
                copied["attrs"] = merged
            self._emit(copied)
            absorbed += 1
        return absorbed

    # -- snapshot --------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All recorded spans, in arrival order."""
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()

    def snapshot_lines(self, meta: Optional[Dict[str, Any]] = None) -> List[str]:
        """The JSONL span log: header line + one line per span."""
        header: Dict[str, Any] = {
            "schema": SPAN_SCHEMA_TAG,
            "version": SPAN_SCHEMA_VERSION,
        }
        if meta:
            header.update(meta)
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(record, sort_keys=True) for record in self._records
        )
        return lines

    def write(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write the JSONL span log to ``path`` (overwrites)."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.snapshot_lines(meta):
                handle.write(line + "\n")


def _valid_span(record: Any) -> bool:
    return (
        isinstance(record, dict)
        and record.get("clock") in ("wall", "sim")
        and isinstance(record.get("name"), str)
        and isinstance(record.get("track"), str)
        and isinstance(record.get("start"), (int, float))
        and isinstance(record.get("dur"), (int, float))
        and not isinstance(record.get("start"), bool)
        and not isinstance(record.get("dur"), bool)
    )


# ---------------------------------------------------------------------------
# The per-process recorder
# ---------------------------------------------------------------------------
_RECORDER: Optional[SpanRecorder] = None


def get_recorder() -> SpanRecorder:
    """The process-wide span recorder (created on first use)."""
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = SpanRecorder()
    return _RECORDER


def reset_recorder() -> SpanRecorder:
    """Replace the process-wide recorder (tests, worker sessions)."""
    global _RECORDER
    _RECORDER = SpanRecorder()
    return _RECORDER


def swap_recorder(recorder: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Install ``recorder`` as the process-wide one; return the one it
    replaces (``None`` when none was created yet), for restoring."""
    global _RECORDER
    previous, _RECORDER = _RECORDER, recorder
    return previous


# ---------------------------------------------------------------------------
# Span-log files
# ---------------------------------------------------------------------------
def read_spans(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a span log: ``(header, records)``.

    Raises :class:`~repro.errors.ExperimentError` on a missing/invalid
    header or an unsupported schema version, mirroring
    :func:`repro.obs.metrics.read_snapshot`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ExperimentError(f"{path}: empty span log")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ExperimentError(f"{path}:1: bad JSON header: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != SPAN_SCHEMA_TAG:
        raise ExperimentError(
            f"{path}: not a span log (header schema tag "
            f"{SPAN_SCHEMA_TAG!r} missing)"
        )
    if header.get("version") != SPAN_SCHEMA_VERSION:
        raise ExperimentError(
            f"{path}: span-log schema version {header.get('version')!r} "
            f"!= supported {SPAN_SCHEMA_VERSION}"
        )
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ExperimentError(f"{path}:{i}: bad JSON record: {exc}") from None
        if not _valid_span(record):
            raise ExperimentError(f"{path}:{i}: record is not a span object")
        records.append(record)
    return header, records


def summarize_spans(records: List[Dict[str, Any]]) -> str:
    """A text table aggregating spans by ``(clock, track, name)``.

    The embedded timeline summary the HTML report and ``repro trace``
    diagnostics share: span counts and total durations per lane.
    """
    totals: Dict[Tuple[str, str, str], List[float]] = {}
    for record in records:
        key = (record["clock"], record["track"], record["name"])
        entry = totals.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += record["dur"]
    lines = [f"{'clock':5s} {'track':24s} {'span':24s} {'count':>7s} {'total':>12s}"]
    lines.append("-" * len(lines[0]))
    for (clock, track, name) in sorted(totals):
        count, total = totals[(clock, track, name)]
        unit = "s" if clock == "wall" else "ms"
        value = total if clock == "wall" else total / 1e9
        lines.append(
            f"{clock:5s} {track[:24]:24s} {name[:24]:24s} {int(count):7d} "
            f"{value:10.3f} {unit}"
        )
    return "\n".join(lines)
