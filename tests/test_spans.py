"""Tests for the dual-clock span layer (repro.obs.spans) and exporters.

Covers the recorder contract (malformed-record tolerance, JSONL round
trip), the determinism acceptance property (sim spans byte-identical
across backends), the distributed-protocol
compatibility story (a peer without the ``spans`` key still drains
sweeps), and the two exporters (Perfetto trace-event JSON, HTML study
report).
"""

import json
import os
import re
import socket
import threading
import time

import pytest

from repro.api import ExecutionPolicy, Session
from repro.backends import DistributedBackend
from repro.backends.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.backends.worker import run_worker
from repro.cli import main
from repro.errors import ExperimentError
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.perfetto import render_perfetto, to_perfetto, track_types
from repro.obs.spans import (
    SPAN_SCHEMA_TAG,
    SPAN_SCHEMA_VERSION,
    SpanRecorder,
    get_recorder,
    read_spans,
    reset_recorder,
    summarize_spans,
)
from repro.studies import StudySpec
from repro.studies.report import render_html, render_json
from repro.sweep import Job, SweepSpec, run_job

#: Short, deterministic grid shared by the execution tests (the
#: test_backends shape).
FAST = dict(duration_cycles=120_000, process="cbr", seeds=(11,))


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        policies=("none", "tdvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        traffic=("load:1000",),
        span=20,
        **FAST,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def sim_spans_of(outcomes):
    """The deterministic payload under test, in job order."""
    return [(o.job_id, (o.obs or {}).get("spans")) for o in outcomes]


@pytest.fixture
def spans_on():
    """A fresh per-process recorder, reset again afterwards."""
    recorder = reset_recorder()
    yield recorder
    reset_recorder()


# ---------------------------------------------------------------------------
# Schema gate + recorder contract
# ---------------------------------------------------------------------------
class TestSchemaGate:
    def test_span_schema_version_matches_schema_md(self):
        # The same gate nightly CI applies: SPAN_SCHEMA_VERSION may
        # only move together with src/repro/obs/SCHEMA.md.
        import repro.obs

        schema_md = os.path.join(
            os.path.dirname(repro.obs.__file__), "SCHEMA.md"
        )
        text = open(schema_md, encoding="utf-8").read()
        match = re.search(r"\*\*Span schema version:\*\*\s*(\d+)", text)
        assert match is not None, "SCHEMA.md lost its span version line"
        assert int(match.group(1)) == SPAN_SCHEMA_VERSION


class TestSpanRecorder:
    def test_wall_span_context_manager(self, spans_on):
        with spans_on.wall_span("stream", "session", {"jobs": 3}):
            pass
        (record,) = spans_on.records()
        assert record["clock"] == "wall"
        assert record["name"] == "stream"
        assert record["track"] == "session"
        assert record["attrs"] == {"jobs": 3}
        assert record["dur"] >= 0.0

    def test_sim_spans_are_integers(self, spans_on):
        spans_on.add_sim("busy", "me0", 0, 1_000_000, {"role": "worker"})
        (record,) = spans_on.records()
        assert record == {
            "clock": "sim", "name": "busy", "track": "me0",
            "start": 0, "dur": 1_000_000, "attrs": {"role": "worker"},
        }
        assert type(record["start"]) is int and type(record["dur"]) is int

    def test_extend_drops_malformed_and_merges_attrs(self, spans_on):
        absorbed = spans_on.extend(
            [
                {"clock": "sim", "name": "seg", "track": "scenario",
                 "start": 0, "dur": 5, "attrs": {"process": "cbr"}},
                {"clock": "nonsense", "name": "x", "track": "t",
                 "start": 0, "dur": 1},
                "not a span",
                {"clock": "sim", "name": "busy", "track": "me0",
                 "start": True, "dur": 1},
            ],
            attrs={"job": "j1"},
        )
        assert absorbed == 1
        (record,) = spans_on.records()
        assert record["attrs"] == {"process": "cbr", "job": "j1"}

    def test_listener_sees_every_span(self, spans_on):
        seen = []
        spans_on.add_listener(seen.append)
        spans_on.add_sim("busy", "me0", 0, 10)
        spans_on.remove_listener(seen.append)
        spans_on.add_sim("idle", "me0", 10, 10)
        assert [r["name"] for r in seen] == ["busy"]

    def test_jsonl_round_trip(self, spans_on, tmp_path):
        spans_on.add_wall("stream", "session", 1.5, 0.25)
        spans_on.add_sim("busy", "me0", 0, 42)
        path = str(tmp_path / "run.spans.jsonl")
        spans_on.write(path, meta={"command": "test"})
        header, records = read_spans(path)
        assert header["schema"] == SPAN_SCHEMA_TAG
        assert header["version"] == SPAN_SCHEMA_VERSION
        assert header["command"] == "test"
        assert records == spans_on.records()

    def test_empty_log_is_header_only(self, tmp_path):
        path = str(tmp_path / "empty.spans.jsonl")
        SpanRecorder().write(path)
        header, records = read_spans(path)
        assert header == {
            "schema": SPAN_SCHEMA_TAG, "version": SPAN_SCHEMA_VERSION,
        }
        assert records == []

    def test_recording_has_no_off_switch(self, monkeypatch):
        # The retired REPRO_OBS_SPANS variable no longer reaches the
        # recorder: every kind of span lands whatever it says.
        monkeypatch.setenv("REPRO_OBS_SPANS", "off")
        recorder = SpanRecorder()
        with recorder.wall_span("stream", "session"):
            pass
        recorder.add_sim("busy", "me0", 0, 10)
        recorder.add_wall("job", "job", 0.0, 1.0)
        assert recorder.extend([{"clock": "sim", "name": "x", "track": "t",
                                 "start": 0, "dur": 1}]) == 1
        assert [r["name"] for r in recorder.records()] == [
            "stream", "busy", "job", "x",
        ]

    def test_read_rejects_foreign_files(self, tmp_path):
        wrong_tag = tmp_path / "metrics.jsonl"
        wrong_tag.write_text(
            json.dumps({"schema": "repro.obs.metrics", "version": 2}) + "\n"
        )
        with pytest.raises(ExperimentError, match="not a span log"):
            read_spans(str(wrong_tag))
        wrong_version = tmp_path / "future.spans.jsonl"
        wrong_version.write_text(
            json.dumps({"schema": SPAN_SCHEMA_TAG,
                        "version": SPAN_SCHEMA_VERSION + 1}) + "\n"
        )
        with pytest.raises(ExperimentError, match="schema version"):
            read_spans(str(wrong_version))

    def test_summarize_aggregates_by_lane(self, spans_on):
        spans_on.add_sim("busy", "me0", 0, 2_000_000_000)
        spans_on.add_sim("busy", "me0", 0, 1_000_000_000)
        spans_on.add_wall("job", "job", 0.0, 0.5)
        text = summarize_spans(spans_on.records())
        assert "me0" in text and "job" in text
        assert re.search(r"busy\s+2\b", text)


# ---------------------------------------------------------------------------
# Determinism: sim spans across backends
# ---------------------------------------------------------------------------
class TestSimSpanDeterminism:
    def test_outcomes_carry_sim_spans(self, spans_on):
        outcomes = Session(execution=ExecutionPolicy(workers=1)).sweep(small_spec().jobs())
        for outcome in outcomes:
            spans = outcome.obs["spans"]
            tracks = {s["track"] for s in spans}
            assert "scenario" not in tracks  # load: traffic, no scenario
            assert any(t.startswith("me") for t in tracks)
            if outcome.check_results:
                assert "checks" in tracks
            # Sim clock only: wall spans never ride outcomes.
            assert all(s["clock"] == "sim" for s in spans)

    def test_process_pool_matches_serial(self, spans_on):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        pooled = Session(execution=ExecutionPolicy(workers=2)).sweep(jobs)
        assert sim_spans_of(serial) == sim_spans_of(pooled)

    def test_scenario_traffic_records_segments(self, spans_on):
        spec = small_spec(traffic=("scenario:flash_crowd",))
        outcomes = Session(execution=ExecutionPolicy(workers=1)).sweep(spec.jobs())
        spans = outcomes[0].obs["spans"]
        segments = [s for s in spans if s["track"] == "scenario"]
        assert segments and all(s["name"].startswith("segment") for s in segments)
        assert all("load_mbps" in s["attrs"] for s in segments)

    def test_retired_off_switch_keeps_span_payload(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_SPANS", "off")
        reset_recorder()
        session = Session(execution=ExecutionPolicy(workers=1))
        outcomes = session.sweep(small_spec().jobs())
        assert all(o.obs["spans"] for o in outcomes)
        assert any(r["clock"] == "sim" for r in session.spans.records())
        reset_recorder()

    def test_study_json_carries_no_span_timing(self, spans_on):
        # Wall spans differ from run to run; the study JSON must not
        # see them, so two runs render the same bytes.
        spec = StudySpec(
            scenarios=("link_failover",),
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
        )
        rendered = []
        for _ in range(2):
            session = Session()
            rendered.append(render_json(session.study(spec).policy_map))
            assert any(r["clock"] == "wall" for r in session.spans.records())
        assert rendered[0] == rendered[1]
        assert '"clock"' not in rendered[0]


# ---------------------------------------------------------------------------
# Session orchestration spans + span-log plumbing
# ---------------------------------------------------------------------------
class TestSessionSpans:
    def test_session_records_orchestration_timeline(self, spans_on, tmp_path):
        from repro.api import EventHooks

        seen = []
        session = Session(hooks=EventHooks(on_span=seen.append))
        outcomes = session.sweep(small_spec().jobs())
        records = session.spans.records()
        tracks = {r["track"] for r in records}
        assert {"session", "backend", "coordinator", "job"} <= tracks
        # Absorbed sim spans are tagged with their job id.
        absorbed = [r for r in records if r["clock"] == "sim"]
        assert absorbed
        assert all(r["attrs"]["job"] for r in absorbed)
        assert {o.job_id for o in outcomes} == {
            r["attrs"]["job"] for r in absorbed
        }
        # The on_span hook saw every record as it landed.
        assert seen == records
        path = str(tmp_path / "run.spans.jsonl")
        session.write_spans(path, meta={"command": "test-sweep"})
        header, read_back = read_spans(path)
        assert header["command"] == "test-sweep"
        assert read_back == records

    def test_each_session_keeps_its_own_span_log(self, spans_on):
        def job_ids(session):
            return {
                r["attrs"]["job"]
                for r in session.spans.records()
                if "job" in r.get("attrs", {})
            }

        first = Session(execution=ExecutionPolicy(workers=1))
        first_ids = {o.job_id for o in first.sweep(small_spec().jobs())}
        second = Session(execution=ExecutionPolicy(workers=1))
        second_ids = {
            o.job_id for o in second.sweep(small_spec(seeds=(12,)).jobs())
        }
        assert first_ids.isdisjoint(second_ids)
        assert job_ids(first) == first_ids
        assert job_ids(second) == second_ids
        # Each stream installed its session's recorder as the process
        # recorder, then put the previous one back.
        assert get_recorder() is spans_on
        assert len(spans_on) == 0

    def test_forward_latency_histogram_lands_in_snapshot(self, spans_on):
        # Satellite regression: the span-latency gate's unparsed LHS is
        # parenthesized — the histogram must still key off it.
        session = Session()
        spec = StudySpec(
            scenarios=("link_failover",),
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
        )
        session.study(spec)
        records = {r["name"]: r for r in session.metrics.records()}
        histogram = records["latency.forward.link_failover"]
        assert histogram["type"] == "histogram"
        assert histogram["count"] > 0
        assert histogram["sum"] > 0.0


# ---------------------------------------------------------------------------
# Distributed backend (slow lane)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestDistributedSpans:
    def test_distributed_sim_spans_match_serial(self, spans_on):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0)
        worker = threading.Thread(
            target=run_worker, args=(backend.address,),
            kwargs={"log": None}, daemon=True,
        )
        worker.start()
        distributed = Session(execution=ExecutionPolicy(backend=backend)).sweep(jobs)
        worker.join(timeout=30)
        assert sim_spans_of(serial) == sim_spans_of(distributed)

    def test_worker_without_spans_key_still_drains(self, spans_on):
        # Protocol compatibility: a v1 peer that never learned the
        # optional ``spans`` and ``telemetry`` keys must drain a sweep
        # like any worker.  The peer speaks the wire protocol directly,
        # runs each granted job and ships bare outcome messages.
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0)
        session = Session(execution=ExecutionPolicy(backend=backend))
        result = {}
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        peer = socket.create_connection((backend.host, backend.port), timeout=10)
        try:
            send_message(peer, {"type": "hello", "protocol": PROTOCOL_VERSION})
            assert recv_message(peer)["type"] == "welcome"
            shipped = 0
            while shipped < len(jobs):
                send_message(peer, {"type": "pull"})
                reply = recv_message(peer)
                if reply["type"] == "wait":
                    time.sleep(reply["poll_s"])
                    continue
                assert reply["type"] == "job"
                outcome = run_job(Job.from_dict(reply["job"]))
                send_message(peer, {
                    "type": "outcome", "job_id": outcome.job_id,
                    "outcome": outcome.to_dict(),
                })
                assert recv_message(peer)["type"] == "ok"
                shipped += 1
            sweep.join(timeout=120)
        finally:
            peer.close()
        assert not sweep.is_alive()
        distributed = result["outcomes"]
        assert [o.job_id for o in distributed] == [o.job_id for o in serial]
        assert [o.to_dict() for o in distributed] == [
            o.to_dict() for o in serial
        ]
        # The peer sent no spans, so nothing worker-side was absorbed.
        tracks = {r["track"] for r in session.spans.records()}
        assert not any(t.startswith("worker:") for t in tracks)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _timeline_records():
    """A synthetic two-job timeline exercising every exporter feature."""
    return [
        {"clock": "wall", "name": "stream", "track": "session",
         "start": 10.0, "dur": 2.0},
        {"clock": "wall", "name": "grant", "track": "coordinator",
         "start": 10.1, "dur": 0.01, "attrs": {"job": "j1", "worker": "w"}},
        {"clock": "wall", "name": "execute", "track": "worker:w",
         "start": 10.2, "dur": 1.0, "attrs": {"job": "j1"}},
        {"clock": "wall", "name": "job", "track": "job",
         "start": 10.1, "dur": 1.2, "attrs": {"job": "j1", "worker": "w"}},
        {"clock": "sim", "name": "busy", "track": "me0",
         "start": 0, "dur": 4_000_000, "attrs": {"job": "j1"}},
        {"clock": "sim", "name": "segment0", "track": "scenario",
         "start": 0, "dur": 8_000_000, "attrs": {"job": "j1"}},
    ]


class TestPerfettoExport:
    def test_track_type_inventory(self):
        trace = to_perfetto(_timeline_records())
        types = track_types(trace)
        # The acceptance floor: coordinator, worker, job and
        # kernel-phase (me) tracks all present.
        assert {"coordinator", "worker", "job", "me"} <= set(types)
        assert len(types) >= 4

    def test_wall_normalization_and_flow_events(self):
        trace = to_perfetto(_timeline_records())
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        # Earliest wall span starts at ts 0 (µs, normalized).
        assert min(e["ts"] for e in xs) == 0.0
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        starts = [e for e in flows if e["ph"] == "s"]
        ends = [e for e in flows if e["ph"] == "f"]
        assert starts[0]["id"] == ends[0]["id"]
        assert ends[0]["bp"] == "e"

    def test_render_is_stable_json(self):
        text = render_perfetto(_timeline_records(), meta={"command": "t"})
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["otherData"] == {"command": "t"}
        assert render_perfetto(_timeline_records(), meta={"command": "t"}) == text


class TestHtmlReport:
    def _metrics_records(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency.forward.flash_crowd", (50.0, 100.0, 200.0)
        )
        histogram.observe(75.0)
        histogram.observe(150.0)
        return [r for r in registry.records() if r["type"] == "histogram"]

    def test_report_sections(self, spans_on):
        spec = StudySpec(
            scenarios=("link_failover",),
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
        )
        study = Session().study(spec)
        page = render_html(
            study.policy_map,
            metrics_records=self._metrics_records(),
            span_records=_timeline_records(),
            title="test report",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "test report" in page
        assert "link_failover" in page
        assert "Pareto" in page
        # Histogram section keys off the metric name; the page shows
        # the scenario suffix.
        assert "Forward-latency distributions" in page
        assert "flash_crowd" in page
        assert "me0" in page  # the timeline summary rode along
        # Self-contained: no external fetches.
        assert "http://" not in page and "https://" not in page

    def test_report_from_study_dict(self, spans_on):
        # The CLI path: a study JSON loaded back from disk.
        spec = StudySpec(
            scenarios=("link_failover",),
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
        )
        policy_map = Session().study(spec).policy_map
        from_dict = render_html(json.loads(render_json(policy_map)))
        assert "link_failover" in from_dict


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestCliSurfaces:
    def test_trace_export_and_report(self, spans_on, tmp_path, capsys):
        spans_on.extend(_timeline_records())
        log = str(tmp_path / "run.spans.jsonl")
        spans_on.write(log, meta={"command": "test"})
        out = str(tmp_path / "run.perfetto.json")
        assert main(["trace", "export", log, "--format", "perfetto",
                     "--out", out]) == 0
        trace = json.load(open(out))
        assert {"coordinator", "worker", "job", "me"} <= set(
            track_types(trace)
        )
        captured = capsys.readouterr()
        assert "track types" in captured.err  # status goes to stderr
        assert "coordinator" in captured.out  # the timeline summary

    def test_metrics_diff_rejects_version_mismatch(self, tmp_path, capsys):
        current = tmp_path / "current.jsonl"
        registry = MetricsRegistry()
        registry.counter("session.outcomes").inc(1)
        registry.write_snapshot(str(current))
        stale = tmp_path / "stale.jsonl"
        stale.write_text(
            json.dumps({"schema": "repro.obs.metrics",
                        "version": METRICS_SCHEMA_VERSION - 1}) + "\n"
            + json.dumps({"type": "counter", "name": "session.outcomes",
                          "value": 1}) + "\n"
        )
        assert main(["metrics", str(current), "--diff", str(stale)]) == 2
        err = capsys.readouterr().err
        assert "version" in err and "mismatch" in err
