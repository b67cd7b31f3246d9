"""LOC instance semantics, checked on the shipped engine.

The semantics cases run :func:`check_trace` / :func:`analyze_trace` and
a monitor's ``feed_event``: the generated code that also checks live
runs.  The last cases test the differential oracle of ``loc_oracle``
itself: its window stays bounded and its counters count.
"""

import math

import pytest

from repro.loc.analyzer import analyze_trace
from repro.loc.checker import check_trace
from repro.loc.monitor import build_monitor
from repro.loc.parser import parse_formula

from conftest import forward_series, make_event
from loc_oracle import OracleEvaluator


def test_simple_single_event_formula():
    result = check_trace(
        "time(forward[i+1]) - time(forward[i]) <= 2", forward_series(5, dt_us=1.0)
    )
    # 5 events -> instances 0..3 (each needs i and i+1).
    assert result.instances_checked == 4
    assert result.lhs_min == pytest.approx(1.0)
    assert result.lhs_max == pytest.approx(1.0)
    assert result.passed


def test_instances_stream_incrementally():
    monitor = build_monitor("time(forward[i+2]) - time(forward[i]) <= 100")
    checked = []
    for event in forward_series(4):
        monitor.feed_event(event)
        checked.append(monitor.finish().instances_checked)
    assert checked == [0, 0, 1, 2]


def test_multi_event_formula():
    events = []
    for k in range(3):
        events.append(make_event("enq", cycle=100 * k))
        events.append(make_event("deq", cycle=100 * k + 30))
    result = check_trace("cycle(deq[i]) - cycle(enq[i]) <= 50", events)
    assert result.instances_checked == 3
    assert result.lhs_min == result.lhs_max == 30


def test_interleaving_does_not_matter_for_instance_values():
    formula = "cycle(deq[i]) - cycle(enq[i]) <= 7"
    enqs = [make_event("enq", cycle=10 * k) for k in range(4)]
    deqs = [make_event("deq", cycle=10 * k + 5 + k) for k in range(4)]
    grouped = check_trace(formula, enqs + deqs)
    interleaved = check_trace(
        formula, [e for pair in zip(enqs, deqs) for e in pair]
    )
    assert grouped == interleaved
    assert [(v.instance, v.lhs) for v in grouped.violations] == [(3, 8)]


def test_negative_index_instances_skipped():
    result = check_trace(
        "time(forward[i]) - time(forward[i-2]) <= 1", forward_series(5, dt_us=1.0)
    )
    # Instances 0 and 1 reference negative indices: skipped.
    assert result.instances_checked == 3
    assert [v.instance for v in result.violations] == [2, 3, 4]
    assert all(v.lhs == pytest.approx(2.0) for v in result.violations)


def test_negative_index_on_one_event_skips_for_all():
    events = [make_event("a", cycle=k) for k in range(4)]
    events += [make_event("b", cycle=10 * k) for k in range(4)]
    result = check_trace("cycle(b[i]) - cycle(a[i-1]) >= 0", events)
    # Instance 0 reads a[-1]: vacuous; instances 1..3 read b[i], a[i-1].
    assert result.instances_checked == 3
    assert result.lhs_min == 10 - 0 and result.lhs_max == 30 - 2


def test_absolute_index_reference():
    result = check_trace(
        "time(forward[i]) - time(forward[0]) <= 3", forward_series(4, dt_us=2.0)
    )
    assert result.instances_checked == 4
    assert [(v.instance, round(v.lhs)) for v in result.violations] == [
        (2, 4),
        (3, 6),
    ]


def test_absolute_pin_waits_for_its_row():
    # Instance i needs forward[i] and fifo[2]: nothing is ready before
    # the third fifo row, then every buffered forward row is.
    monitor = build_monitor("time(forward[i]) - time(fifo[2]) <= 100")
    for event in forward_series(5):
        monitor.feed_event(event)
    assert monitor.finish().instances_checked == 0
    for k in range(3):
        monitor.feed_event(make_event("fifo", time=float(k)))
    assert monitor.finish().instances_checked == 5


def test_division_by_zero_is_undefined():
    events = [
        make_event("forward", time=1.0, energy=5.0),
        make_event("forward", time=1.0, energy=6.0),  # zero dt
    ]
    expr = "energy(forward[i+1]) / (time(forward[i+1]) - time(forward[i]))"
    checked = check_trace(expr + " <= 1", events)
    assert (checked.instances_checked, checked.undefined_instances) == (0, 1)
    assert checked.passed
    binned = analyze_trace(expr + " in <0, 10, 1>", events)
    assert (binned.total, binned.undefined) == (0, 1)


def test_unreferenced_events_ignored():
    events = [
        make_event("forward", time=0.0),
        make_event("fifo", time=0.5),
        make_event("m2_pipeline", time=0.7),
        make_event("forward", time=1.0),
    ]
    result = check_trace("time(forward[i+1]) - time(forward[i]) <= 5", events)
    assert result.instances_checked == 1


def test_arithmetic_evaluation():
    result = analyze_trace(
        "-(time(forward[i]) * 2 + 1) / -2 - 0.5 in <0, 10, 1>",
        forward_series(3, dt_us=3.0),
    )
    # Instance values 0, 3 and 6.
    assert result.total == 3
    assert (result.value_min, result.value_max) == pytest.approx((0.0, 6.0))
    assert result.value_sum == pytest.approx(9.0)
    assert [k for k, count in enumerate(result.counts) if count] == [0, 3, 6]


# -- the oracle itself -----------------------------------------------------


def test_oracle_window_eviction_bounds_memory():
    evaluator = OracleEvaluator(
        parse_formula("time(forward[i+3]) - time(forward[i]) <= 100")
    )
    for event in forward_series(500):
        for _ in evaluator.feed(event):
            pass
    # Window retains at most max_offset + 1 rows (plus slack of 1).
    assert len(evaluator._series["forward"].values) <= 5


def test_oracle_instances_evaluated_counter():
    evaluator = OracleEvaluator(
        parse_formula("time(forward[i+1]) - time(forward[i]) <= 100")
    )
    for event in forward_series(10):
        for _ in evaluator.feed(event):
            pass
    assert evaluator.instances_evaluated == 9


def test_oracle_division_by_zero_yields_nan():
    evaluator = OracleEvaluator(
        parse_formula(
            "energy(forward[i+1]) / (time(forward[i+1]) - time(forward[i])) <= 1"
        )
    )
    out = []
    for event in [
        make_event("forward", time=1.0, energy=5.0),
        make_event("forward", time=1.0, energy=6.0),
    ]:
        out.extend(evaluator.feed(event))
    assert len(out) == 1
    assert math.isnan(out[0][1][0])
    assert evaluator.undefined_instances == 1
