"""Tests for standalone LOC analyzer generation.

The generated source is executed (as generated code would be run in the
field) and its results are cross-checked against the in-process
:func:`check_trace` / :func:`analyze_trace` on the same traces: both run
the same generated monitor code.
"""

import io
import math
import subprocess
import sys

import pytest

from repro.errors import LocError, LocSemanticError
from repro.loc.analyzer import analyze_trace
from repro.loc.checker import check_trace
from repro.loc.codegen import (
    generate_analyzer_source,
    generate_monitor_source,
    write_analyzer,
)
from repro.trace.writer import TextTraceWriter

from conftest import forward_series, make_event


def exec_generated(source):
    namespace = {"__name__": "generated_test_module"}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


def trace_lines(events):
    buffer = io.StringIO()
    writer = TextTraceWriter(buffer)
    for event in events:
        writer.emit(event)
    return buffer.getvalue().splitlines()


POWER_FORMULA = (
    "(energy(forward[i+10]) - energy(forward[i])) / "
    "(time(forward[i+10]) - time(forward[i])) below <0.5, 2.25, 0.05>"
)


def test_generated_distribution_matches_evaluator():
    events = forward_series(60, dt_us=1.0, de_uj=1.2)
    module = exec_generated(generate_analyzer_source(POWER_FORMULA))
    generated = module["analyze_lines"](trace_lines(events))
    reference = analyze_trace(POWER_FORMULA, events)
    assert generated["total"] == reference.total
    assert generated["counts"] == reference.counts
    assert generated["curve"] == pytest.approx(
        [(edge, frac) for edge, frac in reference.curve()]
    )


def test_generated_above_mode_matches():
    formula = (
        "(total_bit(forward[i+5]) - total_bit(forward[i])) / "
        "(time(forward[i+5]) - time(forward[i])) above <100, 3300, 100>"
    )
    events = forward_series(40, dt_us=1.0, bits=900)
    module = exec_generated(generate_analyzer_source(formula))
    generated = module["analyze_lines"](trace_lines(events))
    reference = analyze_trace(formula, events)
    assert generated["counts"] == reference.counts
    assert dict(generated["curve"]) == pytest.approx(dict(reference.curve()))


def test_generated_checker_matches():
    formula = "cycle(deq[i]) - cycle(enq[i]) <= 50"
    events = []
    for k, latency in enumerate([10, 80, 30, 99]):
        events.append(make_event("enq", cycle=1000 * k))
        events.append(make_event("deq", cycle=1000 * k + latency))
    module = exec_generated(generate_analyzer_source(formula))
    generated = module["analyze_lines"](trace_lines(events))
    reference = check_trace(formula, events)
    assert generated["checked"] == reference.instances_checked
    assert generated["violations_total"] == reference.violations_total
    assert [v[0] for v in generated["violations"]] == [
        v.instance for v in reference.violations
    ]
    assert generated["passed"] is reference.passed


def test_generated_handles_multi_event_and_absolute_refs():
    formula = "time(deq[i]) - time(enq[0]) <= 100"
    events = [
        make_event("enq", time=1.0),
        *(make_event("deq", time=1.0 + k) for k in range(5)),
    ]
    module = exec_generated(generate_analyzer_source(formula))
    generated = module["analyze_lines"](trace_lines(events))
    reference = check_trace(formula, events)
    assert generated["checked"] == reference.instances_checked
    assert generated["passed"] is reference.passed


def test_generated_script_is_self_contained(tmp_path):
    """The script runs as a subprocess with only the standard library."""
    script = tmp_path / "analyzer.py"
    write_analyzer(POWER_FORMULA, str(script))
    trace = tmp_path / "trace.txt"
    events = forward_series(30, dt_us=1.0, de_uj=1.5)
    with TextTraceWriter.open(str(trace)) as writer:
        for event in events:
            writer.emit(event)
    proc = subprocess.run(
        [sys.executable, str(script), str(trace)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "LOC distribution" in proc.stdout
    assert "instances : 20" in proc.stdout


def test_generated_script_usage_error(tmp_path):
    script = tmp_path / "analyzer.py"
    write_analyzer(POWER_FORMULA, str(script))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def test_generated_source_has_no_repro_imports():
    source = generate_analyzer_source(POWER_FORMULA)
    assert "import repro" not in source
    assert "from repro" not in source
    assert "import sys" in source


def test_generated_div_by_zero_counted_undefined():
    formula = "energy(e[i]) / time(e[i]) below <0, 10, 1>"
    events = [make_event("e", time=0.0, energy=5.0), make_event("e", time=2.0, energy=4.0)]
    module = exec_generated(generate_analyzer_source(formula))
    generated = module["analyze_lines"](trace_lines(events))
    assert generated["undefined"] == 1
    assert generated["total"] == 1


def test_generated_nan_instance_counted_undefined_like_check_trace():
    formula = "time(forward[i]) >= 0"
    events = forward_series(4)
    events[2] = make_event("forward", cycle=1200, time=math.nan, total_pkt=2)
    lines = trace_lines(events)
    assert "nan" in lines[3]
    generated = exec_generated(generate_analyzer_source(formula))["analyze_lines"](
        lines
    )
    reference = check_trace(formula, events)
    counts = (
        generated["checked"], generated["violations_total"], generated["undefined"]
    )
    assert counts == (
        reference.instances_checked,
        reference.violations_total,
        reference.undefined_instances,
    ) == (3, 0, 1)


def test_generated_script_embeds_the_monitor_source():
    formula = "time(deq[i]) - time(enq[0]) <= 100"
    assert generate_monitor_source(formula) in generate_analyzer_source(formula)


@pytest.mark.parametrize(
    "formula",
    ["time(forward[3]) - time(forward[0]) >= 0", "3 <= 2", "cycle(e[0]) in <0, 9, 1>"],
)
def test_formula_no_instance_index_reaches_is_refused(formula):
    with pytest.raises(LocError, match="relative to i"):
        generate_monitor_source(formula)
    with pytest.raises(LocError, match="relative to i"):
        generate_analyzer_source(formula)


@pytest.mark.parametrize(
    "formula",
    ["watts(forward[i]) <= 100", "cyc(forward[i+1]) - cyc(forward[i]) <= 5"],
)
def test_unknown_annotation_is_refused(formula):
    known = "cycle, time, energy, total_pkt, total_bit"
    with pytest.raises(LocSemanticError, match=known):
        generate_monitor_source(formula)
    with pytest.raises(LocSemanticError, match="unknown annotation"):
        generate_analyzer_source(formula)
