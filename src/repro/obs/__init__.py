"""``repro.obs`` — metrics, spans and run telemetry.

The observation spine (:mod:`repro.trace.bus`) answers *what happened
inside one run*; this package answers *what the system is doing* while
sweeps, studies and worker fleets execute:

* :mod:`repro.obs.metrics` — a lightweight metrics registry (counters,
  gauges, fixed-edge histograms) with deterministic JSONL snapshot
  export, merge and diff.  The ``repro metrics`` CLI renders and
  compares snapshots.
* :mod:`repro.obs.spans` — dual-clock span timelines: wall-clock
  orchestration spans (session → backend → coordinator → worker → job)
  and deterministic sim-time run phases (scenario segments, per-ME
  busy/stall/idle windows, check evaluation), serialized to a versioned
  JSONL span log.  ``repro trace export`` turns the log into a
  Perfetto-loadable Chrome trace (:mod:`repro.obs.perfetto`);
  ``repro report --html`` embeds its summary.

Both JSONL schemas are documented (and version-pinned) in
``src/repro/obs/SCHEMA.md``; CI fails hard when
:data:`~repro.obs.metrics.METRICS_SCHEMA_VERSION` or
:data:`~repro.obs.spans.SPAN_SCHEMA_VERSION` changes without a matching
SCHEMA.md update.

Exported names resolve on first access (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__ = [
    "FORWARD_LATENCY_EDGES_US",
    "METRICS_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecorder",
    "diff_snapshots",
    "get_recorder",
    "read_snapshot",
    "read_spans",
    "reset_recorder",
    "summarize_snapshot",
    "summarize_spans",
]

_EXPORTS = {
    "FORWARD_LATENCY_EDGES_US": "repro.obs.metrics",
    "METRICS_SCHEMA_VERSION": "repro.obs.metrics",
    "SPAN_SCHEMA_VERSION": "repro.obs.spans",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "SpanRecorder": "repro.obs.spans",
    "diff_snapshots": "repro.obs.metrics",
    "get_recorder": "repro.obs.spans",
    "read_snapshot": "repro.obs.metrics",
    "read_spans": "repro.obs.spans",
    "reset_recorder": "repro.obs.spans",
    "summarize_snapshot": "repro.obs.metrics",
    "summarize_spans": "repro.obs.spans",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
