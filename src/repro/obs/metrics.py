"""The metrics registry and its deterministic JSONL snapshot format.

Three instrument kinds cover everything the reproduction reports about
itself:

* :class:`Counter` — a monotonically increasing integer (events
  published, jobs completed, leases expired).  Counters **add** under
  :meth:`MetricsRegistry.merge`.
* :class:`Gauge` — a last-write-wins float (heartbeat-latency EWMA,
  queue depth at snapshot time).  Gauges **overwrite** under merge.
* :class:`Histogram` — counts over *fixed* bucket edges chosen at
  creation time, so two snapshots of the same histogram are mergeable
  bucket-by-bucket and the output is deterministic (no adaptive
  binning).

Snapshots serialize to JSONL: one header line carrying
:data:`METRICS_SCHEMA_VERSION`, then one line per instrument, sorted by
``(type, name)`` — byte-stable given equal registry contents.  The
``repro metrics`` CLI summarizes and diffs these files; the schema is
documented in ``src/repro/obs/SCHEMA.md`` and CI hard-fails when the
version constant moves without a matching SCHEMA.md edit.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError

#: Version of the JSONL snapshot schema.  Bump ONLY together with a
#: matching update to ``src/repro/obs/SCHEMA.md`` — the nightly CI job
#: cross-checks the two and fails hard on a mismatch.
#: Version 2 added the per-scenario ``latency.forward.<scenario>``
#: histograms to session snapshots.
METRICS_SCHEMA_VERSION = 2

#: The header line's ``schema`` tag.
SCHEMA_TAG = "repro.obs.metrics"

#: Fixed bucket edges (µs) for the per-scenario forward-latency
#: histograms (``latency.forward.<scenario>``).  Each completed outcome
#: carrying a span-latency check observes its mean span latency once.
#: Fixed edges keep histograms mergeable across sessions and runs; the
#: range covers sub-25 µs spans up to the multi-ms tail a saturated
#: scenario produces.
FORWARD_LATENCY_EDGES_US = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0,
    1600.0, 3200.0, 6400.0, 12800.0, 25600.0,
)


class Counter:
    """A monotonically increasing integer instrument."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ExperimentError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def to_record(self) -> Dict[str, Any]:
        return {"type": self.kind, "name": self.name, "value": self.value}


class Gauge:
    """A last-write-wins float instrument."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_record(self) -> Dict[str, Any]:
        return {"type": self.kind, "name": self.name, "value": self.value}


class Histogram:
    """Counts over fixed, sorted bucket edges.

    ``edges = (e0, e1, ..., en)`` yields ``n + 2`` buckets:
    ``(-inf, e0], (e0, e1], ..., (en, +inf)`` — an observation lands in
    the first bucket whose upper edge is >= the value.  Fixed edges make
    two snapshots of the same histogram mergeable count-by-count.
    """

    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float]):
        if not edges:
            raise ExperimentError(f"histogram {name!r} needs bucket edges")
        ordered = tuple(float(e) for e in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ExperimentError(
                f"histogram {name!r} edges must be strictly increasing: "
                f"{edges!r}"
            )
        self.name = name
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "name": self.name,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """A named set of instruments with deterministic snapshot export.

    Instruments are created on first access (``counter("x")``) and
    looked up by name afterwards; asking for an existing name with a
    different kind (or different histogram edges) raises — a metric's
    shape is part of its identity.
    """

    def __init__(self):
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, kind: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
            return instrument
        if instrument.kind != kind:
            raise ExperimentError(
                f"metric {name!r} already exists as a {instrument.kind}, "
                f"not a {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        histogram = self._get(name, "histogram", lambda: Histogram(name, edges))
        if tuple(float(e) for e in edges) != histogram.edges:
            raise ExperimentError(
                f"histogram {name!r} already exists with edges "
                f"{histogram.edges!r}, not {tuple(edges)!r}"
            )
        return histogram

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- bulk ingestion --------------------------------------------------
    def merge_telemetry(self, telemetry: Dict[str, Any], prefix: str = "") -> None:
        """Ingest a backend telemetry dict.

        Integer values become counters, floats become gauges — the
        convention every :meth:`~repro.backends.base.ExecutionBackend.telemetry`
        implementation follows.
        """
        for name in sorted(telemetry):
            value = telemetry[name]
            if isinstance(value, bool) or value is None:
                continue
            if isinstance(value, int):
                self.counter(f"{prefix}{name}").inc(value)
            elif isinstance(value, float):
                self.gauge(f"{prefix}{name}").set(value)

    def merge(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge snapshot *records* (counters add, gauges overwrite,
        histograms add bucket-wise; edge mismatches raise)."""
        for record in records:
            kind = record.get("type")
            name = record.get("name")
            if not isinstance(name, str):
                raise ExperimentError(f"metrics record without a name: {record!r}")
            if kind == "counter":
                self.counter(name).inc(int(record["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(record["value"]))
            elif kind == "histogram":
                histogram = self.histogram(name, record["edges"])
                counts = record["counts"]
                if len(counts) != len(histogram.counts):
                    raise ExperimentError(
                        f"histogram {name!r} bucket count mismatch in merge"
                    )
                for i, count in enumerate(counts):
                    histogram.counts[i] += int(count)
                histogram.count += int(record["count"])
                histogram.sum += float(record["sum"])
            else:
                raise ExperimentError(
                    f"unknown metrics record type {kind!r} for {name!r}"
                )

    # -- snapshot --------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All instrument records, sorted by ``(type, name)``."""
        return [
            self._instruments[name].to_record()
            for name in sorted(
                self._instruments,
                key=lambda n: (self._instruments[n].kind, n),
            )
        ]

    def snapshot_lines(self, meta: Optional[Dict[str, Any]] = None) -> List[str]:
        """The JSONL snapshot: header line + one line per instrument."""
        header: Dict[str, Any] = {
            "schema": SCHEMA_TAG,
            "version": METRICS_SCHEMA_VERSION,
        }
        if meta:
            header.update(meta)
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(record, sort_keys=True) for record in self.records()
        )
        return lines

    def write_snapshot(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write the JSONL snapshot to ``path`` (overwrites)."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.snapshot_lines(meta):
                handle.write(line + "\n")


# ---------------------------------------------------------------------------
# Snapshot files: read / summarize / diff
# ---------------------------------------------------------------------------
def read_snapshot(
    path: str, check_version: bool = True
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a snapshot file: ``(header, records)``.

    Raises :class:`~repro.errors.ExperimentError` on a missing/invalid
    header or an unsupported schema version — readers must not guess at
    a format they do not know.  ``check_version=False`` skips only the
    version gate (the schema tag is still required); callers use it to
    inspect headers first and report a version mismatch with context —
    e.g. ``repro metrics --diff`` naming the mismatched key — instead
    of dying on whichever file is read first.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ExperimentError(f"{path}: empty metrics snapshot")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ExperimentError(f"{path}:1: bad JSON header: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_TAG:
        raise ExperimentError(
            f"{path}: not a metrics snapshot (header schema tag "
            f"{SCHEMA_TAG!r} missing)"
        )
    if check_version and header.get("version") != METRICS_SCHEMA_VERSION:
        raise ExperimentError(
            f"{path}: snapshot schema version {header.get('version')!r} "
            f"!= supported {METRICS_SCHEMA_VERSION}"
        )
    records = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ExperimentError(f"{path}:{i}: bad JSON record: {exc}") from None
        if not isinstance(record, dict):
            raise ExperimentError(f"{path}:{i}: record is not an object")
        records.append(record)
    return header, records


def summarize_snapshot(records: List[Dict[str, Any]]) -> str:
    """A text table of one snapshot's instruments."""
    lines = [f"{'type':10s} {'name':44s} value"]
    lines.append("-" * len(lines[0]))
    for record in records:
        kind = record.get("type", "?")
        name = str(record.get("name", "?"))
        if kind == "histogram":
            count = record.get("count", 0)
            total = record.get("sum", 0.0)
            mean = total / count if count else 0.0
            value = f"count={count} sum={total:g} mean={mean:g}"
        else:
            value = f"{record.get('value')}"
        lines.append(f"{kind:10s} {name[:44]:44s} {value}")
    return "\n".join(lines)


def diff_snapshots(
    base: List[Dict[str, Any]], current: List[Dict[str, Any]]
) -> str:
    """A text diff of two snapshots (added / removed / changed values)."""

    def keyed(records):
        return {
            (r.get("type"), r.get("name")): r
            for r in records
            if isinstance(r.get("name"), str)
        }

    a, b = keyed(base), keyed(current)
    lines = []
    for key in sorted(set(a) | set(b)):
        kind, name = key
        if key not in a:
            lines.append(f"+ {kind} {name} = {_scalar(b[key])}")
        elif key not in b:
            lines.append(f"- {kind} {name} = {_scalar(a[key])}")
        else:
            before, after = _scalar(a[key]), _scalar(b[key])
            if before != after:
                lines.append(f"~ {kind} {name}: {before} -> {after}")
    if not lines:
        return "snapshots are identical"
    return "\n".join(lines)


def _scalar(record: Dict[str, Any]) -> str:
    if record.get("type") == "histogram":
        return f"count={record.get('count')} sum={record.get('sum')}"
    return f"{record.get('value')}"
