"""Tests for repro.obs: metrics, run telemetry, streaming anomaly gates.

Covers the metrics registry and its JSONL snapshot format (determinism,
merge rules, read/summarize/diff), the early-abort policy object and its
job-identity effects, the end-to-end early-abort demo (a doomed job
stops in strictly fewer simulated cycles than its full run), session
metrics aggregation, backend telemetry, the bench regression gate's
one-sided-scenario tolerance, and the SCHEMA.md version cross-check the
nightly CI enforces.
"""

import json
import os
import re

import pytest

from repro.errors import ExperimentError
from repro.obs.gates import EarlyAbortPolicy, build_gates
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


# ---------------------------------------------------------------------------
# Early-abort policy + gates
# ---------------------------------------------------------------------------
def small_jobs(**early_abort):
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
    if early_abort:
        policy = EarlyAbortPolicy(**early_abort)
        jobs = [job.gated(policy.to_dict()) for job in jobs]
    return jobs


class TestEarlyAbortPolicy:
    def test_defaults_and_enabled(self):
        policy = EarlyAbortPolicy()
        assert policy.enabled()  # check_unsat defaults on
        assert not EarlyAbortPolicy(check_unsat=False).enabled()
        assert EarlyAbortPolicy(
            check_unsat=False, loss_threshold=0.5
        ).enabled()

    def test_round_trip_and_validation(self):
        policy = EarlyAbortPolicy(check_interval=64, latency_quantile=0.95)
        assert EarlyAbortPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ExperimentError):
            EarlyAbortPolicy.from_dict({"bogus_knob": 1})
        with pytest.raises(ExperimentError):
            EarlyAbortPolicy(check_interval=0)
        with pytest.raises(ExperimentError):
            EarlyAbortPolicy(latency_quantile=1.5)

    def test_gated_job_changes_identity(self):
        (plain,) = small_jobs()
        policy = EarlyAbortPolicy()
        gated = plain.gated(policy.to_dict())
        assert gated.job_id != plain.job_id
        assert gated.early_abort == policy.to_dict()
        # Idempotent: re-gating with the same policy keeps the id.
        assert gated.gated(policy.to_dict()).job_id == gated.job_id
        assert plain.gated(None) is plain
        # Serialization round-trips the gate.
        from repro.sweep.spec import Job

        assert Job.from_dict(gated.to_dict()) == gated
        assert "early_abort" not in plain.to_dict()

    def test_build_gates_selects_by_policy(self):
        from repro.loc.monitor import build_monitor

        monitor = build_monitor(
            "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
            mode="compiled",
        )
        gates = build_gates(EarlyAbortPolicy(), [monitor])
        assert len(gates) == 1
        assert not build_gates(
            EarlyAbortPolicy(check_unsat=False), [monitor]
        )


class TestEarlyAbortEndToEnd:
    def test_doomed_job_aborts_in_fewer_cycles(self):
        # The acceptance demo: the forward-count check asks every
        # packet to advance the counter by 2, which is unsatisfiable —
        # the gate must stop the run strictly before full duration.
        (full_job,) = small_jobs()
        full = run_job(full_job)
        (doomed,) = small_jobs(check_unsat=True, check_interval=16)
        aborted = run_job(doomed)
        assert not full.result.aborted_early
        assert aborted.result.aborted_early
        assert "unsatisfiable" in aborted.result.abort_reason
        assert aborted.result.totals.duration_s < full.result.totals.duration_s
        assert aborted.job_id != full.job_id

    def test_abort_fields_serialize_only_when_set(self):
        (full_job,) = small_jobs()
        full = run_job(full_job)
        record = full.to_dict()
        assert "aborted_early" not in record["result"]
        assert SweepOutcome.from_dict(record) is not None
        (doomed,) = small_jobs(check_unsat=True, check_interval=16)
        aborted = run_job(doomed)
        record = aborted.to_dict()
        assert record["result"]["aborted_early"] is True
        restored = SweepOutcome.from_dict(record)
        assert restored.result.aborted_early
        assert restored.result.abort_reason == aborted.result.abort_reason

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

    def test_on_abort_hook_fires(self):
        from repro.api import EventHooks, ExecutionPolicy, Session

        aborted = []
        session = Session(
            execution=ExecutionPolicy(
                early_abort=EarlyAbortPolicy(check_interval=16)
            )
        )
        outcomes = session.sweep(
            small_jobs(), hooks=EventHooks(on_abort=aborted.append)
        )
        assert len(aborted) == 1
        assert aborted[0].result.aborted_early
        assert outcomes[0].result.aborted_early
        counters = {r["name"]: r["value"] for r in session.metrics.records()}
        assert counters["session.outcomes_aborted_early"] == 1

    def test_execution_policy_normalizes_early_abort_dict(self):
        from repro.api import ExecutionPolicy
        from repro.errors import ExperimentError as ApiError

        policy = ExecutionPolicy(early_abort={"check_interval": 8})
        assert isinstance(policy.early_abort, EarlyAbortPolicy)
        assert policy.early_abort.check_interval == 8
        with pytest.raises(ApiError):
            ExecutionPolicy(early_abort=42)

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
