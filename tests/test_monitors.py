"""The one LOC engine against the differential oracle.

Every formula is checked by generated code (:mod:`repro.loc.codegen`,
wrapped by :func:`repro.loc.monitor.build_monitor`); ``loc_oracle``
keeps an independent interpretive evaluator.  This module proves the
two equal, field by field:

* **hypothesis** — random formulas over one or two events (relative
  offsets from -5 to 8, absolute pins, all six relational operators,
  division, both formula kinds) over random interleaved streams;
* **golden traces** — every catalog scenario simulated once, its trace
  checked with the real study-gate and builtin formulas;
* **real runs** — formulas over the bus's named-only ``mem_*`` channels
  check instances on a live run, equal to the oracle over the same rows.

It also pins what the engine refuses — a formula no instance index
reaches, before any event is fed — and that the retired monitor-mode
knob and ``repro lint --loc-coverage`` stay gone.
"""

import dataclasses
import json
import math

import pytest

from repro.cli import main as cli_main
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import LocError
from repro.loc.analyzer import analyze_trace
from repro.loc.checker import check_trace
from repro.loc.codegen import generate_monitor_source
from repro.loc.monitor import build_monitor, run_monitor
from repro.runner import SimulationRun, run_simulation
from repro.scenarios import list_scenarios
from repro.sweep.engine import run_job
from repro.sweep.spec import Job, SweepSpec
from repro.trace.buffer import TraceBuffer
from repro.trace.events import TraceEvent

from conftest import quick_config
from loc_oracle import oracle_analyze_trace, oracle_check_trace


def synthetic_events(count=400, seed=11, names=("forward", "fifo")):
    """A deterministic pseudo-trace with monotone annotations."""
    import random

    rng = random.Random(seed)
    events = []
    cycle, time_us, energy, pkt, bits = 0, 0.0, 0.0, 0, 0
    for _ in range(count):
        cycle += rng.randint(1, 60)
        time_us += rng.random() * 2.5
        energy += rng.random() * 1.5
        pkt += 1
        bits += rng.randint(64, 1500) * 8
        name = names[0] if rng.random() < 0.7 else names[rng.randrange(len(names))]
        events.append(TraceEvent(name, cycle, time_us, energy, pkt, bits))
    return events


def assert_same(result, reference):
    """Every field equal; NaN equals NaN (an empty distribution's min)."""
    got, want = dataclasses.asdict(result), dataclasses.asdict(reference)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == value, key


def check_both(formula, events):
    """The engine's and the oracle's result for ``formula``, compared."""
    if any(word in formula for word in (" in <", " below <", " above <")):
        assert_same(analyze_trace(formula, events), oracle_analyze_trace(formula, events))
    else:
        assert_same(check_trace(formula, events), oracle_check_trace(formula, events))


CHECKER_FORMULAS = [
    "time(forward[i+100]) - time(forward[i]) <= 50",
    "time(forward[i+7]) - time(forward[i-3]) <= 20",
    "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
    "energy(forward[i]) / (time(forward[i]) - time(forward[i-1])) >= 0.1",
    "time(forward[i-2]) - time(forward[i-1]) <= 5",
    "cycle(forward[i]) != 0",
    "total_bit(forward[i+5]) - total_bit(forward[i]) > 300",
    # Division by a delta that can be zero: undefined accounting.
    "energy(forward[i+2]) / (total_pkt(forward[i+2]) - total_pkt(forward[i+2])) < 1",
    # Several events, absolute pins, both at once.
    "cycle(forward[i]) - cycle(fifo[i]) <= 100000",
    "time(fifo[i+2]) - time(forward[i-4]) < 40",
    "time(forward[i]) - time(forward[0]) >= 0",
    "time(forward[i+1]) - time(fifo[3]) > time(forward[2])",
    "time(forward[i+1]) - time(fifo[3]) > time(fifo[0])",
]

DISTRIBUTION_FORMULAS = [
    "(energy(forward[i+20]) - energy(forward[i])) / "
    "(time(forward[i+20]) - time(forward[i])) below <0.5, 2.25, 0.01>",
    "time(forward[i+20]) - time(forward[i]) in <10, 80, 5>",
    "(total_bit(forward[i+20]) - total_bit(forward[i])) / "
    "(time(forward[i+20]) - time(forward[i])) above <100, 3300, 10>",
    "time(fifo[i]) - time(forward[i+1]) in <-200, 200, 25>",
    "(energy(forward[i]) - energy(forward[1])) / (time(fifo[i]) - time(fifo[0])) "
    "above <0, 3, 0.25>",
]


class TestSyntheticTraces:
    @pytest.mark.parametrize("formula", CHECKER_FORMULAS + DISTRIBUTION_FORMULAS)
    def test_engine_equals_oracle(self, formula):
        events = synthetic_events()
        check_both(formula, events)

    def test_fifo_only_formula_ignores_forward_rows(self):
        formula = "cycle(fifo[i+1]) - cycle(fifo[i]) >= 1"
        result = check_trace(formula, synthetic_events())
        fifo = [e for e in synthetic_events() if e.name == "fifo"]
        assert result.instances_checked == len(fifo) - 1
        check_both(formula, synthetic_events())


class TestBuildMonitor:
    def test_expect_kind_guard(self):
        with pytest.raises(LocError):
            build_monitor(DISTRIBUTION_FORMULAS[0], expect="checker")
        with pytest.raises(LocError):
            build_monitor(CHECKER_FORMULAS[0], expect="distribution")

    def test_one_feed_per_event_name(self):
        monitor = build_monitor("time(forward[i]) - time(fifo[0]) <= 5")
        subscribed = []

        class Recorder:
            def subscribe(self, name, handler):
                subscribed.append(name)

        monitor.attach(Recorder())
        assert subscribed == ["fifo", "forward"]
        assert not hasattr(monitor, "emit")  # never a wildcard sink

    def test_ring_source_is_pure_python(self):
        source = generate_monitor_source(
            "time(forward[i+10]) - time(forward[i]) <= 50"
        )
        compile(source, "<test>", "exec")  # must be valid source
        assert "_make_monitor" in source
        assert "buf = [None] * 11" in source
        assert "return {'forward': feed}, collect" in source

    def test_series_source_is_pure_python(self):
        source = generate_monitor_source("time(forward[i]) - time(fifo[0]) <= 5")
        compile(source, "<test>", "exec")
        assert "rows1 = deque()" in source
        assert "return {'fifo': feed0, 'forward': feed1}, collect" in source


class TestNoInstanceIndex:
    """A formula that reads no event at ``i`` is refused up front.

    Nothing is fed: a pin-only formula would otherwise evaluate the same
    instance for ever once its rows arrived.
    """

    PINNED = "time(forward[3]) - time(forward[0]) >= 0"
    CONSTANT = "3 <= 2"

    @pytest.mark.parametrize("formula", [PINNED, CONSTANT])
    def test_build_monitor_refuses(self, formula):
        with pytest.raises(LocError, match="relative to i"):
            build_monitor(formula)

    @pytest.mark.parametrize("formula", [PINNED, CONSTANT])
    def test_check_trace_refuses(self, formula):
        with pytest.raises(LocError, match="relative to i"):
            check_trace(formula, [])

    def test_analyze_trace_refuses(self):
        with pytest.raises(LocError, match="relative to i"):
            analyze_trace("time(forward[3]) - time(forward[0]) in <0, 9, 1>", [])

    @pytest.mark.parametrize("formula", [PINNED, CONSTANT])
    def test_job_build_refuses_in_the_submitting_process(self, formula):
        with pytest.raises(LocError, match="relative to i"):
            Job.build(quick_config(), checks=(formula,))
        with pytest.raises(LocError, match="relative to i"):
            SweepSpec(policies=("tdvs",), checks=(formula,)).jobs()

    def test_negative_pin_is_refused(self):
        from repro.loc.ast_nodes import (
            AnnotationRef,
            BinaryOp,
            CheckerFormula,
            IndexExpr,
            Number,
        )

        delta = BinaryOp(
            "-",
            AnnotationRef("time", "forward", IndexExpr(0)),
            AnnotationRef("time", "forward", IndexExpr(-1, absolute=True)),
        )
        with pytest.raises(LocError, match="negative instance"):
            build_monitor(CheckerFormula(delta, ">=", Number(0)))

    def test_loc_gen_refuses(self, capsys):
        assert cli_main(["loc-gen", self.PINNED]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "relative to i" in captured.err


class TestRetiredKnobs:
    """The monitor-mode knob and the coverage report stay gone."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_monitor(CHECKER_FORMULAS[0], mode="interpreted"),
            lambda: check_trace(CHECKER_FORMULAS[0], [], mode="interpreted"),
            lambda: analyze_trace(DISTRIBUTION_FORMULAS[0], [], mode="compiled"),
        ],
    )
    def test_mode_argument_is_gone(self, call):
        with pytest.raises(TypeError):
            call()

    def test_loc_coverage_option_is_gone(self, tmp_path, capsys):
        out = tmp_path / "coverage.json"
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "--loc-coverage", str(out)])
        capsys.readouterr()
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_monitor_env_var_changes_no_result(self, monkeypatch):
        job = TestRunJob.job()
        plain = json.dumps(run_job(job).to_dict(), sort_keys=True)
        monkeypatch.setenv("REPRO_LOC_MONITOR", "interpreted")
        flipped = json.dumps(run_job(job).to_dict(), sort_keys=True)
        assert plain == flipped


class TestGoldenScenarioTraces:
    """The engine and the oracle over every catalog scenario's real trace."""

    @pytest.fixture(scope="class")
    def scenario_traces(self):
        traces = {}
        for name in list_scenarios():
            buffer = TraceBuffer()
            run_simulation(
                RunConfig(
                    benchmark="ipfwdr",
                    duration_cycles=100_000,
                    seed=5,
                    traffic=TrafficConfig.for_scenario(name),
                    dvs=DvsConfig(policy="tdvs"),
                ),
                sinks=[buffer],
            )
            traces[name] = buffer.events
        return traces

    def test_every_catalog_scenario_agrees(self, scenario_traces):
        from repro.scenarios import get_scenario
        from repro.studies.spec import StudySpec

        spec = StudySpec(span=10)
        for name, events in scenario_traces.items():
            for assertion in spec.assertions_for(get_scenario(name)):
                result = check_trace(assertion.formula, events)
                assert result.instances_checked > 0, (name, assertion.formula)
                assert_same(result, oracle_check_trace(assertion.formula, events))

    def test_distributions_agree_on_scenario_traces(self, scenario_traces):
        for name, events in scenario_traces.items():
            for formula in DISTRIBUTION_FORMULAS[:3]:
                assert_same(
                    analyze_trace(formula, events),
                    oracle_analyze_trace(formula, events),
                )


class TestRealRuns:
    """Named-only ``mem_*`` channels reach every formula shape."""

    FORMULAS = (
        "time(mem_sram[i]) - time(mem_sram[0]) >= 0",
        "time(mem_sram[i]) - time(forward[i]) <= 1e9",
    )

    def test_mem_formulas_check_instances_and_equal_the_oracle(self):
        monitors = [build_monitor(formula) for formula in self.FORMULAS]
        run = SimulationRun(quick_config(), monitors=monitors)
        rows = {"mem_sram": [], "forward": []}
        for name, kept in rows.items():
            run.bus.subscribe(name, kept.append)
        run.run()
        events = [
            TraceEvent(name, *row) for name, kept in rows.items() for row in kept
        ]
        for formula, monitor in zip(self.FORMULAS, monitors):
            result = monitor.finish()
            assert result.instances_checked > 0, formula
            assert_same(result, oracle_check_trace(formula, events))


class TestRunJob:
    @staticmethod
    def job() -> Job:
        spec = SweepSpec(
            policies=("tdvs",),
            thresholds_mbps=(1000.0,),
            windows_cycles=(40_000,),
            traffic=("scenario:flash_crowd",),
            duration_cycles=200_000,
            span=10,
            checks=(
                "time(forward[i+10]) - time(forward[i]) <= 1000",
                "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
                "time(mem_sram[i+10]) - time(mem_sram[i]) <= 1000",
                "time(mem_sram[i]) - time(forward[i]) <= 1e9",
            ),
        )
        return spec.jobs()[0]

    def test_check_results_populated(self):
        outcome = run_job(self.job())
        assert len(outcome.check_results) == 4
        assert all(c.instances_checked > 0 for c in outcome.check_results)


# ---------------------------------------------------------------------------
# hypothesis: arbitrary formulas over arbitrary streams
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the 'test' extra (hypothesis)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_ANNOTATIONS = ("cycle", "time", "energy", "total_pkt", "total_bit")
_OPS = ("<=", "<", ">=", ">", "==", "!=")
_EVENTS = ("forward", "fifo")


@st.composite
def formula_text(draw, kind):
    """A random formula over one or two events.

    One side always reads an event at an ``i``-relative index (the
    engine refuses formulas without one); other references may be
    relative (offsets -5..8) or absolute pins.
    """

    def ref(relative):
        annotation = draw(st.sampled_from(_ANNOTATIONS))
        event = draw(st.sampled_from(_EVENTS))
        if not relative and draw(st.booleans()):
            return f"{annotation}({event}[{draw(st.integers(0, 4))}])"
        offset = draw(st.integers(min_value=-5, max_value=8))
        index = "i" if offset == 0 else f"i{'+' if offset > 0 else '-'}{abs(offset)}"
        return f"{annotation}({event}[{index}])"

    def term(relative=False):
        shape = draw(st.integers(min_value=0, max_value=2))
        if shape == 0:
            return ref(relative)
        if shape == 1 and not relative:
            return str(draw(st.integers(min_value=-50, max_value=50)))
        op = draw(st.sampled_from(("+", "-", "*", "/")))
        return f"({ref(relative)} {op} {ref(False)})"

    if kind == "distribution":
        mode = draw(st.sampled_from(("in", "below", "above")))
        low = draw(st.integers(min_value=-50, max_value=50))
        step = draw(st.sampled_from((0.5, 1, 2.5, 10)))
        high = low + step * draw(st.integers(min_value=1, max_value=20))
        return f"{term(True)} {mode} <{low}, {high}, {step}>"
    sides = [term(True), term()]
    if draw(st.booleans()):
        sides.reverse()
    return f"{sides[0]} {draw(st.sampled_from(_OPS))} {sides[1]}"


@st.composite
def event_stream(draw):
    """Interleaved ``forward``/``fifo`` rows, an occasional NaN time."""
    count = draw(st.integers(min_value=0, max_value=120))
    events = []
    cycle, time_us, energy, pkt, bits = 0, 0.0, 0.0, 0, 0
    for _ in range(count):
        cycle += draw(st.integers(min_value=0, max_value=40))
        time_us += draw(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
        )
        energy += draw(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
        )
        pkt += draw(st.integers(min_value=0, max_value=2))
        bits += draw(st.integers(min_value=0, max_value=12_000))
        stamp = math.nan if draw(st.integers(0, 30)) == 0 else time_us
        name = draw(st.sampled_from(_EVENTS))
        events.append(TraceEvent(name, cycle, stamp, energy, pkt, bits))
    return events


class TestEngineProperties:
    @given(formula=formula_text("checker"), events=event_stream())
    @settings(max_examples=150, deadline=None)
    def test_checker_equals_oracle(self, formula, events):
        check_both(formula, events)

    @given(formula=formula_text("distribution"), events=event_stream())
    @settings(max_examples=100, deadline=None)
    def test_distribution_equals_oracle(self, formula, events):
        check_both(formula, events)

    @given(events=event_stream())
    @settings(max_examples=50, deadline=None)
    def test_incremental_equals_batch(self, events):
        """Snapshots taken mid-stream equal the oracle's on that prefix."""
        formula = "time(forward[i+3]) - time(fifo[i]) <= 4"
        incremental = build_monitor(formula)
        for k, event in enumerate(events):
            incremental.feed_event(event)
            if k % 10 == 0:
                assert_same(
                    incremental.finish(), oracle_check_trace(formula, events[: k + 1])
                )
        batch = run_monitor(build_monitor(formula), events)
        assert_same(incremental.finish(), batch)
