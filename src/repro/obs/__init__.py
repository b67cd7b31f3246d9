"""``repro.obs`` — metrics, spans, run telemetry and anomaly gates.

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
* :mod:`repro.obs.gates` — streaming anomaly gates that ride the
  TraceBus and abort a doomed job early (``aborted_early`` partial
  outcomes), opt-in via
  :attr:`repro.api.policy.ExecutionPolicy.early_abort`.

Both JSONL schemas are documented (and version-pinned) in
``src/repro/obs/SCHEMA.md``; CI fails hard when
:data:`~repro.obs.metrics.METRICS_SCHEMA_VERSION` or
:data:`~repro.obs.spans.SPAN_SCHEMA_VERSION` changes without a matching
SCHEMA.md update.
"""

from repro.obs.gates import (
    AbortSignal,
    CheckUnsatGate,
    EarlyAbortPolicy,
    LossRateGate,
    RollingQuantileGate,
    build_gates,
)
from repro.obs.metrics import (
    FORWARD_LATENCY_EDGES_US,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    read_snapshot,
    summarize_snapshot,
)
from repro.obs.spans import (
    SPAN_SCHEMA_VERSION,
    SpanRecorder,
    get_recorder,
    read_spans,
    reset_recorder,
    summarize_spans,
)

__all__ = [
    "FORWARD_LATENCY_EDGES_US",
    "METRICS_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "AbortSignal",
    "CheckUnsatGate",
    "Counter",
    "EarlyAbortPolicy",
    "Gauge",
    "Histogram",
    "LossRateGate",
    "MetricsRegistry",
    "RollingQuantileGate",
    "SpanRecorder",
    "build_gates",
    "diff_snapshots",
    "get_recorder",
    "read_snapshot",
    "read_spans",
    "reset_recorder",
    "summarize_snapshot",
    "summarize_spans",
]
