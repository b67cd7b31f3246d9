"""Tests for trace events, buffers, writers and readers."""

import io

import pytest

from repro.errors import TraceError
from repro.trace.buffer import TraceBuffer
from repro.trace.events import (
    EVENT_TYPES,
    TraceEvent,
    parse_event_name,
    prefixed_event_name,
)
from repro.trace.reader import read_csv_trace, read_text_trace
from repro.trace.writer import (
    CsvTraceWriter,
    TextTraceWriter,
    format_trace_snapshot,
)

from conftest import forward_series, make_event


class TestEventNames:
    def test_prefixing(self):
        assert prefixed_event_name("pipeline", 2) == "m2_pipeline"
        assert prefixed_event_name("forward") == "forward"

    def test_parse_round_trip(self):
        for base in EVENT_TYPES:
            for me in (None, 0, 5, 12):
                name = prefixed_event_name(base, me)
                assert parse_event_name(name) == (base, me)

    def test_paper_space_dialect(self):
        assert parse_event_name("m2 pipeline") == ("pipeline", 2)

    def test_malformed_names_rejected(self):
        for bad in ("warp", "m_pipeline", "mx_pipeline", "m2_warp", "2_pipeline"):
            with pytest.raises(TraceError):
                parse_event_name(bad)

    def test_unknown_base_rejected_on_prefixing(self):
        with pytest.raises(TraceError):
            prefixed_event_name("warp", 1)
        with pytest.raises(TraceError):
            prefixed_event_name("pipeline", -1)


class TestTraceEvent:
    def test_annotation_lookup(self):
        event = make_event("forward", cycle=7, time=1.5, energy=2.5,
                           total_pkt=3, total_bit=400)
        assert event.annotation("cycle") == 7
        assert event.annotation("time") == 1.5
        assert event.annotation("energy") == 2.5
        assert event.annotation("total_pkt") == 3
        assert event.annotation("total_bit") == 400

    def test_unknown_annotation_rejected(self):
        with pytest.raises(TraceError):
            make_event().annotation("watts")

    def test_base_type_and_me_index(self):
        event = make_event("m3_fifo")
        assert event.base_type == "fifo"
        assert event.me_index == 3

    def test_equality_and_hash(self):
        a = make_event("forward", cycle=1)
        b = make_event("forward", cycle=1)
        c = make_event("forward", cycle=2)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestTraceBuffer:
    def test_name_filter(self):
        buffer = TraceBuffer(names=("forward",))
        buffer.emit(make_event("forward"))
        buffer.emit(make_event("fifo"))
        assert len(buffer) == 1

    def test_predicate_filter(self):
        buffer = TraceBuffer(predicate=lambda e: e.cycle > 10)
        buffer.emit(make_event(cycle=5))
        buffer.emit(make_event(cycle=15))
        assert len(buffer) == 1

    def test_ring_bound_and_drop_count(self):
        buffer = TraceBuffer(max_events=3)
        for event in forward_series(5):
            buffer.emit(event)
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert buffer.total_emitted == 5
        # Oldest evicted: remaining events are the last three.
        assert [e.total_pkt for e in buffer.events] == [2, 3, 4]


class TestWritersAndReaders:
    def test_text_round_trip(self):
        events = [*forward_series(5), make_event("m2_pipeline", cycle=99)]
        buffer = io.StringIO()
        writer = TextTraceWriter(buffer)
        for event in events:
            writer.emit(event)
        buffer.seek(0)
        back = list(read_text_trace(buffer))
        assert [e.name for e in back] == [e.name for e in events]
        assert [e.cycle for e in back] == [e.cycle for e in events]

    def test_csv_round_trip_exact(self):
        events = forward_series(5, dt_us=0.123456, de_uj=0.000789)
        buffer = io.StringIO()
        writer = CsvTraceWriter(buffer)
        for event in events:
            writer.emit(event)
        buffer.seek(0)
        back = list(read_csv_trace(buffer))
        assert back == events  # repr-based floats round-trip exactly

    def test_text_reader_skips_header_comments_blanks(self):
        text = (
            "cycle time(us) energy total_pkt total_bit event\n"
            "# a comment\n"
            "\n"
            "10 1.000 0.5 1 100 forward\n"
        )
        events = list(read_text_trace(io.StringIO(text)))
        assert len(events) == 1
        assert events[0].cycle == 10

    def test_text_reader_space_event_names(self):
        text = "10 1.0 0.5 1 100 m2 pipeline\n"
        events = list(read_text_trace(io.StringIO(text)))
        assert events[0].name == "m2_pipeline"

    def test_text_reader_malformed_rejected(self):
        with pytest.raises(TraceError):
            list(read_text_trace(io.StringIO("1 2 3\n")))
        with pytest.raises(TraceError):
            list(read_text_trace(io.StringIO("x 1.0 0.5 1 100 forward\n")))

    def test_csv_reader_malformed_rejected(self):
        with pytest.raises(TraceError):
            list(read_csv_trace(io.StringIO("forward,1,2\n")))

    def test_file_writers(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        with TextTraceWriter.open(path) as writer:
            for event in forward_series(3):
                writer.emit(event)
        assert writer.events_written == 3
        events = list(read_text_trace(path))
        assert len(events) == 3

    def test_snapshot_format(self):
        snapshot = format_trace_snapshot(forward_series(3), limit=2)
        lines = snapshot.strip().splitlines()
        assert lines[0].startswith("cycle")
        assert len(lines) == 3  # header + 2 events
