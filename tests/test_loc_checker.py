"""Tests for LOC assertion checkers."""

import pytest

from repro.errors import LocError
from repro.loc.checker import check_trace

from conftest import make_event


def latency_trace(latencies):
    events = []
    for k, latency in enumerate(latencies):
        events.append(make_event("enq", cycle=1000 * k))
        events.append(make_event("deq", cycle=1000 * k + latency))
    return events


def test_passing_assertion():
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([10, 20, 50])
    )
    assert result.passed
    assert result.instances_checked == 3
    assert result.violations_total == 0


def test_violations_reported_with_instance_numbers():
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([10, 99, 50, 77])
    )
    assert not result.passed
    assert result.violations_total == 2
    assert [v.instance for v in result.violations] == [1, 3]
    assert result.violations[0].lhs == 99


def test_violation_recording_capped_but_counted():
    latencies = [100] * 250
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50",
        latency_trace(latencies),
        max_recorded_violations=10,
    )
    assert result.violations_total == 250
    assert len(result.violations) == 10


@pytest.mark.parametrize(
    "op,lhs,rhs,expected",
    [
        ("<", 5, 5, False),
        ("<=", 5, 5, True),
        (">", 5, 5, False),
        (">=", 5, 5, True),
        ("==", 5, 5, True),
        ("!=", 5, 5, False),
    ],
)
def test_all_operators(op, lhs, rhs, expected):
    events = [make_event("e", cycle=lhs)]
    result = check_trace(f"cycle(e[i]) {op} {rhs}", events)
    assert result.passed is expected


def test_distribution_formula_rejected():
    with pytest.raises(LocError):
        check_trace("cycle(e[i]) in <0, 10, 1>", [])


def test_report_format():
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([10, 99])
    )
    report = result.report()
    assert "violations        : 1" in report
    assert "RESULT: FAIL" in report
    assert "instance 1" in report


def test_report_pass():
    result = check_trace("cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([1]))
    assert "RESULT: PASS" in result.report()


def test_undefined_instances_counted_not_judged():
    events = [
        make_event("e", cycle=10, time=0.0),
        make_event("e", cycle=20, time=0.0),
    ]
    result = check_trace("cycle(e[i+1]) / (time(e[i+1]) - time(e[i])) <= 1", events)
    assert result.undefined_instances == 1
    assert result.instances_checked == 0
    assert result.passed


def test_lhs_statistics_accumulated():
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([10, 99, 50])
    )
    assert result.lhs_min == 10
    assert result.lhs_max == 99
    assert result.mean_lhs == pytest.approx((10 + 99 + 50) / 3)
    assert result.violation_fraction == pytest.approx(1 / 3)


def test_lhs_statistics_empty_trace():
    import math

    result = check_trace("cycle(deq[i]) - cycle(enq[i]) <= 50", [])
    assert math.isnan(result.mean_lhs)
    assert result.violation_fraction == 0.0


def test_check_result_dict_round_trip():
    result = check_trace(
        "cycle(deq[i]) - cycle(enq[i]) <= 50", latency_trace([10, 99, 50, 77])
    )
    from repro.loc.checker import CheckResult

    rebuilt = CheckResult.from_dict(result.to_dict())
    assert rebuilt == result
    assert rebuilt.to_dict() == result.to_dict()


def test_check_result_dict_round_trip_empty():
    from repro.loc.checker import CheckResult

    result = check_trace("cycle(deq[i]) - cycle(enq[i]) <= 50", [])
    rebuilt = CheckResult.from_dict(result.to_dict())
    assert rebuilt == result  # inf/-inf sentinels survive the None mapping


def test_malformed_check_record_rejected():
    from repro.loc.checker import CheckResult

    with pytest.raises(LocError):
        CheckResult.from_dict({"formula_text": "x <= 1"})
