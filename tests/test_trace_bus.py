"""Tests for the TraceBus observation spine.

Covers the pub/sub contract (tuple handlers, wildcard sinks, dispatch
order, interning), the no-op emitter optimization the chip relies on,
the seal semantics (subscribe-before-start), the count-only emitter of
unsubscribed primary names on an observed bus, the per-channel
``published``/``delivered`` counts, and the end-to-end chip wiring
(ports publish ``fifo``, chip publishes ``forward``, MEs publish
``m<k>_pipeline``, memqueues publish named-only ``mem_*`` channels).
"""

import pytest

from repro.config import RunConfig, TrafficConfig
from repro.errors import TraceError
from repro.loc.monitor import build_monitor
from repro.runner import SimulationRun, run_simulation
from repro.trace.annotations import AnnotationProvider
from repro.trace.buffer import TraceBuffer
from repro.trace.bus import NOOP_EMITTER, TraceBus
from repro.trace.events import TraceEvent


class _StubAnnotations:
    """Annotation provider stand-in with a deterministic counter."""

    def __init__(self):
        self.snapshots = 0

    def snapshot(self):
        self.snapshots += 1
        return (self.snapshots, float(self.snapshots), 0.0, 1, 64)


def quick_config(**overrides) -> RunConfig:
    defaults = dict(
        benchmark="ipfwdr",
        duration_cycles=40_000,
        seed=3,
        traffic=TrafficConfig(offered_load_mbps=800.0),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestTraceBus:
    def test_unsubscribed_name_binds_noop(self):
        bus = TraceBus(_StubAnnotations())
        assert bus.emitter("forward") is NOOP_EMITTER

    def test_noop_emitter_materializes_nothing(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        emit = bus.emitter("forward")
        for _ in range(10):
            emit()
        assert annotations.snapshots == 0
        assert bus.events_published == 0

    def test_tuple_handler_receives_rows_without_events(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        rows = []
        bus.subscribe("forward", rows.append)
        emit = bus.emitter("forward")
        emit()
        emit()
        assert rows == [(1, 1.0, 0.0, 1, 64), (2, 2.0, 0.0, 1, 64)]
        assert bus.events_published == 2

    def test_wildcard_sink_sees_every_name(self):
        bus = TraceBus(_StubAnnotations())
        buffer = TraceBuffer()
        bus.attach_sink(buffer)
        bus.emitter("forward")()
        bus.emitter("fifo")()
        assert [e.name for e in buffer.events] == ["forward", "fifo"]

    def test_dispatch_order_handlers_then_sinks_single_snapshot(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        order = []
        bus.subscribe("forward", lambda row: order.append(("h1", row)))
        bus.subscribe("forward", lambda row: order.append(("h2", row)))

        class Sink:
            def emit(self, event):
                order.append(("sink", event.as_tuple()[1:]))

        bus.attach_sink(Sink())
        bus.emitter("forward")()
        labels = [label for label, _ in order]
        assert labels == ["h1", "h2", "sink"]
        # One snapshot per event: every subscriber saw the same row.
        assert annotations.snapshots == 1
        assert len({row for _, row in order}) == 1

    def test_subscribe_after_binding_raises(self):
        bus = TraceBus(_StubAnnotations())
        bus.emitter("forward")
        assert bus.sealed
        with pytest.raises(TraceError):
            bus.subscribe("forward", lambda row: None)
        with pytest.raises(TraceError):
            bus.attach_sink(TraceBuffer())

    def test_sink_without_emit_rejected(self):
        bus = TraceBus(_StubAnnotations())
        with pytest.raises(TraceError):
            bus.attach_sink(object())

    def test_sampled_subscriptions_are_retired(self):
        bus = TraceBus(_StubAnnotations())
        with pytest.raises(TypeError):
            bus.subscribe("forward", lambda row: None, sample=4)

    def test_unsubscribed_primary_name_on_observed_bus_only_counts(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        bus.subscribe("forward", lambda row: None)
        fifo = bus.emitter("fifo")
        assert fifo is not NOOP_EMITTER
        fifo()
        # The emitter counts the event and reads no annotation.
        assert annotations.snapshots == 0
        assert bus.events_published == 0
        assert bus.channel_stats()["fifo"]["published"] == 1

    def test_named_only_channel_skips_sinks_and_probe(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        buffer = TraceBuffer()
        bus.attach_sink(buffer)
        emit = bus.emitter("mem_sram", to_sinks=False)
        assert emit is NOOP_EMITTER  # no tuple subscriber for the name
        rows = []
        bus2 = TraceBus(_StubAnnotations())
        bus2.subscribe("mem_sram", rows.append)
        emit2 = bus2.emitter("mem_sram", to_sinks=False)
        emit2()
        assert len(rows) == 1

    def test_emitters_are_cached_per_name(self):
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        assert bus.emitter("forward") is bus.emitter("forward")

    def test_has_any_subscriber(self):
        bus = TraceBus(_StubAnnotations())
        assert not bus.has_any_subscriber()
        bus.subscribe("forward", lambda row: None)
        assert bus.has_any_subscriber()


class TestChannelStats:
    @pytest.mark.parametrize("handlers,sinks", [(1, 0), (3, 0), (0, 2), (2, 1)])
    def test_delivered_is_published_times_fanout(self, handlers, sinks):
        # Every published event dispatches once to each handler of its
        # name and once to each wildcard sink.
        bus = TraceBus(_StubAnnotations())
        rows = []
        for _ in range(handlers):
            bus.subscribe("forward", rows.append)
        buffers = [TraceBuffer() for _ in range(sinks)]
        for buffer in buffers:
            bus.attach_sink(buffer)
        emit = bus.emitter("forward")
        for _ in range(7):
            emit()
        dispatched = len(rows) + sum(len(b.events) for b in buffers)
        assert dispatched == 7 * (handlers + sinks)
        assert bus.channel_stats() == {
            "forward": {"published": 7, "delivered": dispatched},
        }

    def test_settle_channels_count_published_only(self):
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        fifo = bus.emitter("fifo")
        for _ in range(3):
            fifo()
        stats = bus.channel_stats()
        assert stats["fifo"] == {"published": 3, "delivered": 0}

    def test_noop_channels_never_counted(self):
        bus = TraceBus(_StubAnnotations())
        emit = bus.emitter("forward")
        assert emit is NOOP_EMITTER
        emit()
        assert bus.channel_stats() == {}

    def test_counting_does_not_change_events_published(self):
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        emit = bus.emitter("forward")
        for _ in range(5):
            emit()
        assert bus.events_published == 5

    def test_primary_and_named_only_bindings_merge(self):
        # One name bound twice, once for sinks and once named-only,
        # reports as one channel.
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("mem_sram", lambda row: None)
        bus.attach_sink(TraceBuffer())
        primary = bus.emitter("mem_sram")
        named = bus.emitter("mem_sram", to_sinks=False)
        assert primary is not named
        for _ in range(2):
            primary()
        for _ in range(3):
            named()
        stats = bus.channel_stats()
        assert stats["mem_sram"] == {"published": 5, "delivered": 7}

    def test_sink_dispatches_count_as_deliveries(self):
        bus = TraceBus(_StubAnnotations())
        buffer = TraceBuffer()
        bus.attach_sink(buffer)
        emit = bus.emitter("forward")
        for _ in range(4):
            emit()
        assert len(buffer.events) == 4
        assert bus.channel_stats()["forward"] == {
            "published": 4, "delivered": 4,
        }

    def test_counters_have_no_off_switch(self, monkeypatch):
        # The retired REPRO_OBS_COUNTERS variable no longer reaches the
        # bus: channels count whatever the environment says.
        monkeypatch.setenv("REPRO_OBS_COUNTERS", "off")
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        bus.emitter("forward")()
        bus.emitter("fifo")()
        assert bus.channel_stats() == {
            "forward": {"published": 1, "delivered": 1},
            "fifo": {"published": 1, "delivered": 0},
        }


class TestChipWiring:
    def test_unobserved_run_publishes_nothing(self):
        run = SimulationRun(quick_config())
        run.run()
        assert run.bus.events_published == 0
        assert not run.bus.has_any_subscriber()

    def test_tuple_subscriber_counts_forward_events(self):
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("forward", rows.append)
        result = run.run()
        assert len(rows) == result.totals.forwarded_packets
        assert run.bus.events_published == len(rows)
        # Rows carry the cumulative forward counter as total_pkt.
        assert [row[3] for row in rows] == list(range(1, len(rows) + 1))

    def test_arrival_channel_is_retired(self):
        # The chip publishes no per-arrival event, so a monitor on the
        # name would check nothing: the chip refuses it when it starts,
        # naming the events it does publish.
        monitor = build_monitor("time(arrival[i+1]) - time(arrival[i]) >= 0")
        run = SimulationRun(quick_config(), monitors=[monitor])
        with pytest.raises(TraceError) as refused:
            run.run()
        message = str(refused.value)
        assert "event(s) arrival;" in message
        assert "publish fifo, forward, mem_ixbus" in message
        assert run.sim.now_ps == 0

    def test_wildcard_sink_equivalent_to_legacy_sinks(self):
        buffer = TraceBuffer()
        result = run_simulation(quick_config(), sinks=[buffer])
        names = {e.name for e in buffer.events}
        assert names <= {"fifo", "forward"}
        forwards = [e for e in buffer.events if e.name == "forward"]
        assert len(forwards) == result.totals.forwarded_packets

    def test_add_sink_after_start_raises(self):
        run = SimulationRun(quick_config())
        run.run()
        with pytest.raises(TraceError):
            run.chip.add_sink(TraceBuffer())

    def test_pipeline_events_only_when_configured(self):
        buffer = TraceBuffer()
        run_simulation(
            quick_config(pipeline_events="chunk"), sinks=[buffer]
        )
        assert any(e.name.endswith("_pipeline") for e in buffer.events)
        buffer2 = TraceBuffer()
        run_simulation(quick_config(), sinks=[buffer2])
        assert not any(e.name.endswith("_pipeline") for e in buffer2.events)

    def test_mem_events_are_named_only(self):
        # A wildcard sink never sees mem_* channels ...
        buffer = TraceBuffer()
        run_simulation(quick_config(), sinks=[buffer])
        assert not any(e.name.startswith("mem_") for e in buffer.events)
        # ... but a named subscriber receives one row per request.
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("mem_sdram", rows.append)
        run.run()
        assert len(rows) == run.chip.sdram.requests
        assert len(rows) > 0

    def test_observation_does_not_change_totals(self):
        unobserved = run_simulation(quick_config())
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("forward", rows.append)
        run.bus.subscribe("mem_sram", lambda row: None)
        observed = run.run()
        assert observed.totals.forwarded_packets == (
            unobserved.totals.forwarded_packets
        )
        assert observed.totals.offered_packets == (
            unobserved.totals.offered_packets
        )

    def test_snapshot_matches_make_event(self):
        run = SimulationRun(quick_config())
        provider = run.chip.annotations
        assert isinstance(provider, AnnotationProvider)
        event = provider.make_event("forward")
        assert isinstance(event, TraceEvent)
        row = provider.snapshot()
        assert event.as_tuple()[1:] == row
