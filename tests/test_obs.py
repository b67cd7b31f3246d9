"""Tests for repro.obs: metrics and run telemetry.

Covers the metrics registry and its JSONL snapshot format (determinism,
merge rules, read/summarize/diff), the per-outcome ``obs`` payload and
the record shape around it, session metrics aggregation, backend
telemetry, and the SCHEMA.md version cross-check the nightly CI
enforces.
"""

import json
import os
import re

import pytest

from repro.errors import ExperimentError
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    diff_snapshots,
    read_snapshot,
    summarize_snapshot,
)
from repro.sweep.engine import run_job
from repro.sweep.spec import SweepSpec
from repro.sweep.store import SweepOutcome


# ---------------------------------------------------------------------------
# Metrics registry + snapshot format
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(2)
        registry.gauge("ewma").set(1.5)
        histogram = registry.histogram("lat", edges=[1.0, 2.0])
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)
        records = {r["name"]: r for r in registry.records()}
        assert records["jobs"]["value"] == 3
        assert records["ewma"]["value"] == 1.5
        assert records["lat"]["counts"] == [1, 1, 1]
        assert records["lat"]["count"] == 3

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ExperimentError):
            registry.counter("jobs").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ExperimentError):
            registry.gauge("x")

    def test_histogram_edge_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", edges=[1.0, 2.0])
        with pytest.raises(ExperimentError):
            registry.histogram("lat", edges=[1.0, 3.0])
        with pytest.raises(ExperimentError):
            registry.histogram("bad", edges=[2.0, 1.0])

    def test_snapshot_lines_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(2.0)
        registry.counter("z").inc(1)
        registry.counter("a").inc(1)
        lines = registry.snapshot_lines()
        header = json.loads(lines[0])
        assert header["schema"] == "repro.obs.metrics"
        assert header["version"] == METRICS_SCHEMA_VERSION
        names = [(json.loads(l)["type"], json.loads(l)["name"]) for l in lines[1:]]
        assert names == sorted(names)
        # Byte-stable: same contents, same lines.
        assert lines == registry.snapshot_lines()

    def test_merge_rules(self):
        a = MetricsRegistry()
        a.counter("jobs").inc(2)
        a.gauge("ewma").set(1.0)
        a.histogram("lat", edges=[1.0]).observe(0.5)
        b = MetricsRegistry()
        b.merge(a.records())
        b.merge(a.records())
        records = {r["name"]: r for r in b.records()}
        assert records["jobs"]["value"] == 4  # counters add
        assert records["ewma"]["value"] == 1.0  # gauges overwrite
        assert records["lat"]["count"] == 2  # histograms add bucket-wise
        assert records["lat"]["counts"] == [2, 0]

    def test_merge_telemetry_int_counter_float_gauge(self):
        registry = MetricsRegistry()
        registry.merge_telemetry(
            {"jobs_run": 3, "ewma_s": 0.5, "flag": True, "none": None},
            prefix="backend.serial.",
        )
        records = {r["name"]: r for r in registry.records()}
        assert records["backend.serial.jobs_run"]["type"] == "counter"
        assert records["backend.serial.ewma_s"]["type"] == "gauge"
        assert "backend.serial.flag" not in records
        assert "backend.serial.none" not in records

    def test_write_read_summarize_diff(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(2)
        registry.gauge("ewma").set(0.25)
        base_path = str(tmp_path / "base.jsonl")
        registry.write_snapshot(base_path, meta={"command": "test"})
        header, records = read_snapshot(base_path)
        assert header["command"] == "test"
        assert len(records) == 2
        assert "jobs" in summarize_snapshot(records)
        registry.counter("jobs").inc(1)
        registry.counter("fresh").inc(1)
        current_path = str(tmp_path / "current.jsonl")
        registry.write_snapshot(current_path)
        _, current = read_snapshot(current_path)
        diff = diff_snapshots(records, current)
        assert "~ counter jobs: 2 -> 3" in diff
        assert "+ counter fresh = 1" in diff
        assert diff_snapshots(current, current) == "snapshots are identical"

    def test_read_rejects_foreign_and_versioned_files(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a snapshot"}\n')
        with pytest.raises(ExperimentError):
            read_snapshot(str(path))
        path.write_text(
            json.dumps({"schema": "repro.obs.metrics", "version": 999}) + "\n"
        )
        with pytest.raises(ExperimentError):
            read_snapshot(str(path))

    def test_schema_version_matches_schema_md(self):
        # The same gate nightly CI applies: METRICS_SCHEMA_VERSION may
        # only move together with src/repro/obs/SCHEMA.md.
        import repro.obs

        schema_md = os.path.join(
            os.path.dirname(repro.obs.__file__), "SCHEMA.md"
        )
        text = open(schema_md, encoding="utf-8").read()
        match = re.search(r"\*\*Schema version:\*\*\s*(\d+)", text)
        assert match is not None, "SCHEMA.md lost its version line"
        assert int(match.group(1)) == METRICS_SCHEMA_VERSION


def test_gate_exports_are_retired():
    import importlib

    import repro.obs

    for name in (
        "AbortSignal", "CheckUnsatGate", "EarlyAbortPolicy",
        "LossRateGate", "RollingQuantileGate", "build_gates",
    ):
        assert name not in repro.obs.__all__
        with pytest.raises(AttributeError):
            getattr(repro.obs, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.gates")


# ---------------------------------------------------------------------------
# Per-outcome obs payload
# ---------------------------------------------------------------------------
def small_jobs():
    """A one-job sweep with the always-false forward-count check."""
    spec = SweepSpec(
        policies=("tdvs",),
        thresholds_mbps=(1000.0,),
        windows_cycles=(40_000,),
        duration_cycles=200_000,
        checks=("total_pkt(forward[i+1]) - total_pkt(forward[i]) == 2",),
    )
    jobs = spec.jobs()
    assert len(jobs) == 1
    return jobs


class TestOutcomeObs:
    def test_outcome_obs_counts_are_deterministic(self):
        (job,) = small_jobs()
        first, second = run_job(job), run_job(job)
        assert first.obs is not None
        assert first.obs == second.obs
        assert first.obs["channels"]["forward"]["published"] > 0

    def test_obs_key_roundtrip_and_absent_for_legacy_records(self):
        (job,) = small_jobs()
        outcome = run_job(job)
        assert SweepOutcome.from_dict(outcome.to_dict()).obs == outcome.obs
        legacy = outcome.to_dict()
        del legacy["obs"]
        assert SweepOutcome.from_dict(legacy).obs is None
        # The job and result records keep their shape: job ids and the
        # study md5 hash them, so a key added to either moves both.
        assert set(job.to_dict()) == {
            "job_id", "config", "span", "label", "scenario", "checks",
        }
        assert set(legacy["result"]) == {
            "config", "totals", "governor_policy", "governor_transitions",
            "governor_windows", "dvs_overhead_w",
        }


# ---------------------------------------------------------------------------
# Session aggregation + backend telemetry
# ---------------------------------------------------------------------------
class TestSessionMetrics:
    def test_sweep_populates_metrics_and_snapshot(self, tmp_path):
        from repro.api import Session

        session = Session()
        jobs = small_jobs()
        session.sweep(jobs)
        names = {r["name"] for r in session.metrics.records()}
        assert "session.outcomes" in names
        assert "trace.forward.published" in names
        assert "backend.serial.jobs_run" in names
        path = str(tmp_path / "metrics.jsonl")
        session.write_metrics(path, meta={"jobs": len(jobs)})
        header, records = read_snapshot(path)
        assert header["jobs"] == 1
        assert records

    def test_trace_counters_sum_outcome_published_counts(self):
        from repro.api import Session

        spec = SweepSpec(
            policies=("tdvs", "edvs"),
            thresholds_mbps=(1000.0,),
            windows_cycles=(40_000,),
            duration_cycles=200_000,
            span=20,
            checks=("total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",),
        )
        session = Session()
        outcomes = session.sweep(spec)
        assert len(outcomes) == 2
        expected = {}
        for outcome in outcomes:
            for name, stats in outcome.obs["channels"].items():
                key = f"trace.{name}.published"
                expected[key] = expected.get(key, 0) + stats["published"]
        counters = {
            r["name"]: r["value"]
            for r in session.metrics.records()
            if r["name"].startswith("trace.")
        }
        assert counters == expected
        assert counters["trace.forward.published"] > 0

    def test_serial_backend_telemetry(self):
        from repro.backends.local import SerialBackend

        backend = SerialBackend()
        list(backend.run(small_jobs()))
        assert backend.telemetry() == {"jobs_run": 1, "jobs_shared": 0}


# ---------------------------------------------------------------------------
# Fleet telemetry counters (coordinator state machine, no sockets)
# ---------------------------------------------------------------------------
class TestFleetTelemetry:
    def test_state_counters_track_lifecycle(self):
        from repro.backends.distributed import LeaseClock, _State

        jobs = small_jobs()
        state = _State(jobs, LeaseClock(initial_s=5.0), max_retries=2, log=None)
        grant = state.grant("w1")
        assert grant["type"] == "job"
        state.heartbeat(jobs[0].job_id, "w1")
        state.heartbeat(jobs[0].job_id, "w1")
        outcome = run_job(jobs[0])
        state.complete(jobs[0].job_id, outcome)
        state.complete(jobs[0].job_id, outcome)  # duplicate dropped
        state.absorb_worker_telemetry({"jobs_run": 1, "heartbeats_sent": 2})
        state.absorb_worker_telemetry("not a dict")  # ignored
        counters = state.counters
        assert counters["jobs_granted"] == 1
        assert counters["jobs_completed"] == 1
        assert counters["duplicates_dropped"] == 1
        assert counters["heartbeats"] == 2
        assert counters["lease_renewals"] == 2
        assert counters["worker_jobs_reported"] == 1
        assert counters["worker_heartbeats_reported"] == 2
        assert state.heartbeat_ewma_s is not None

    def test_requeue_counts(self):
        from repro.backends.distributed import LeaseClock, _State

        jobs = small_jobs()
        state = _State(jobs, LeaseClock(initial_s=5.0), max_retries=2, log=None)
        state.grant("w1")
        state.fail_attempt(jobs[0].job_id, "w1", "lost")
        assert state.counters["jobs_requeued"] == 1
        assert len(state.pending) == 1

    def test_backend_telemetry_before_run_is_empty(self):
        from repro.backends.distributed import DistributedBackend

        backend = DistributedBackend(port=0)
        try:
            assert backend.telemetry() == {}
        finally:
            backend.close()
