"""Tests for the event-driven simulation kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.kernel import Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now_ps == 0
    assert sim.pending_events == 0
    assert sim.events_executed == 0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, order.append, "c")
    sim.schedule(100, order.append, "a")
    sim.schedule(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now_ps == 300


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(50, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(1234, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert sim.now_ps == 1234


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(50, lambda: None)


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.schedule(500, fired.append, "b")
    sim.run(until_ps=200)
    assert fired == ["a"]
    assert sim.now_ps == 200
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now_ps == 500


def test_run_until_advances_time_even_without_events():
    sim = Simulator()
    sim.run(until_ps=9999)
    assert sim.now_ps == 9999


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now_ps == 30


def test_stop_is_retired():
    # A run ends at its deadline or when the queue drains; nothing else
    # ends it early.
    assert not hasattr(Simulator, "stop")
    assert not hasattr(Simulator, "stopped")
    assert not hasattr(Simulator(), "_stopped")


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(20, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == [1, 2]


def test_peek_next_time():
    sim = Simulator()
    assert sim.peek_next_time() is None
    assert sim.schedule(20, lambda: None) is None
    assert sim.schedule_at(10, lambda: None) is None
    assert sim.peek_next_time() == 10
    sim.step()
    assert sim.peek_next_time() == 20
    assert sim.pending_events == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_event_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda a, b, c: seen.append((a, b, c)), 1, "x", None)
    sim.run()
    assert seen == [(1, "x", None)]


def test_schedule_rounds_float_delay():
    """A float delay rounds to the nearest picosecond, never truncates."""
    sim = Simulator()
    fired = []
    sim.schedule(100.6, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now_ps == 101


def test_schedule_at_rounds_float_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(250.4, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now_ps == 250


def test_schedule_rejects_negative_float_delay():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.5, lambda: None)


def test_post_and_schedule_share_one_sequence():
    """post/post_at interleave with schedule in strict call order at a tie."""
    sim = Simulator()
    order = []
    sim.schedule(100, order.append, "a")
    sim.post(100, order.append, "b")
    sim.schedule_at(100, order.append, "c")
    sim.post_at(100, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_poll_band_runs_after_ordinary_events_in_rank_order():
    sim = Simulator()
    order = []
    sim.post_poll(100, 2, order.append, "poll2")
    sim.post_poll(100, 0, order.append, "poll0")
    sim.schedule_at(100, order.append, "a")
    sim.schedule(50, sim.post, 50, order.append, "b")  # posted last
    sim.post_at(99, order.append, "early")
    sim.run()
    assert order == ["early", "a", "b", "poll0", "poll2"]


def test_delivered_key():
    """``now_seq`` is the delivered entry's sequence number, its rank
    past the poll band's offset in the poll band, and a key after every
    event's in the run-end hooks."""
    sim = Simulator()
    seen = []

    def record(tag):
        seen.append((tag, sim.now_ps, sim.now_seq))

    sim.schedule(100, record, "a")
    sim.post_poll(100, 3, record, "poll3")
    sim.post_at(100, record, "b")
    sim.on_run_end.append(lambda: record("end"))
    sim.run(until_ps=150)
    assert seen == [
        ("a", 100, 1),
        ("b", 100, 2),
        ("poll3", 100, 2**62 + 3),
        ("end", 150, 2**63),
    ]
    # A call after the run still sorts after every delivered event.
    assert sim.now_seq == 2**63


def test_step_records_the_delivered_key():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.post_poll(10, 1, lambda: None)
    sim.step()
    assert (sim.now_ps, sim.now_seq) == (10, 1)
    sim.step()
    assert (sim.now_ps, sim.now_seq) == (10, 2**62 + 1)


def test_reserved_entry_runs_where_a_post_at_reservation_would():
    sim = Simulator()
    order = []
    sim.post_at(100, order.append, "before")
    seq = sim.reserve_seq()
    sim.post_at(100, order.append, "after")
    sim.schedule(50, sim.post_reserved, 100, seq, order.append, "reserved")
    sim.run()
    assert seq == 2
    assert order == ["before", "reserved", "after"]
