"""Tests for the scenario-conditioned study engine (repro.studies)."""

import json
import math

import pytest

from repro.api import ExecutionPolicy, Session, StorePolicy
from repro.cli import main
from repro.errors import AnalysisError, ConfigError
from repro.scenarios import get_scenario
from repro.studies import (
    StudyAssertion,
    StudySpec,
    dominates,
    get_objective,
    pareto_front,
    select_design_point,
)
from repro.studies.policymap import CandidateSummary, PolicyMap, _verdict
from repro.studies.report import render_json, render_markdown, render_text

from conftest import make_event

#: Short, deterministic study shape shared by the execution tests.
TINY = dict(
    thresholds_mbps=(1000.0, 1400.0),
    windows_cycles=(40_000,),
    duration_cycles=120_000,
    span=20,
)


def tiny_spec(**overrides) -> StudySpec:
    settings = dict(
        scenarios=("link_failover",), policies=("tdvs", "edvs"), **TINY
    )
    settings.update(overrides)
    return StudySpec(**settings)


def one_power_sample(watts: float):
    """A span-1 power distribution holding the one value ``watts``."""
    from repro.loc.analyzer import analyze_trace
    from repro.loc.builtin import power_distribution_formula

    events = [make_event("forward"), make_event("forward", time=1.0, energy=watts)]
    return analyze_trace(
        power_distribution_formula(span=1, low=0.5, high=2.25, step=0.25), events
    )


class TestSpecExpansion:
    def test_grid_counts(self):
        spec = StudySpec(
            scenarios=("flash_crowd", "link_failover"),
            policies=("tdvs", "edvs"),
            thresholds_mbps=(800.0, 1000.0),
            windows_cycles=(20_000, 40_000),
            seeds=(1, 2),
        )
        # Per scenario: baseline none (1) + tdvs 2x2 + edvs 2, x 2 seeds.
        per_scenario = (1 + 4 + 2) * 2
        assert spec.job_count() == 2 * per_scenario
        by_scenario = spec.jobs_by_scenario()
        assert [name for name, _ in by_scenario] == ["flash_crowd", "link_failover"]
        assert all(len(jobs) == per_scenario for _, jobs in by_scenario)

    def test_empty_scenarios_resolve_to_full_catalog(self):
        spec = StudySpec()
        assert len(spec.resolved_scenarios()) >= 9

    def test_duplicate_scenarios_deduped(self):
        """A repeated name must not run its grid twice for one map row."""
        spec = tiny_spec(scenarios=("link_failover", "link_failover"))
        assert spec.resolved_scenarios() == ("link_failover",)
        assert spec.job_count() == tiny_spec().job_count()

    def test_none_policy_competes_only_when_requested(self):
        spec = tiny_spec(policies=("none", "tdvs"))
        assert spec.competing_policies() == ("none", "tdvs")
        # But the sweep always includes the baseline exactly once.
        sweep = spec.sweep_spec_for("link_failover")
        assert sweep.policies.count("none") == 1

    def test_every_job_carries_the_scenario_checks(self):
        spec = tiny_spec()
        for _, jobs in spec.jobs_by_scenario():
            for job in jobs:
                assert len(job.checks) == 2
                assert "time(forward" in job.checks[0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(policies=("magic",)).validate()

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(objective="fastest").validate()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(Exception):
            tiny_spec(scenarios=("no_such_workload",)).validate()

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(policies=()).validate()


class TestAssertionDerivation:
    def test_latency_bound_scales_with_slack(self):
        spec1 = tiny_spec(latency_slack=1.0)
        spec2 = tiny_spec(latency_slack=3.0)
        scenario = get_scenario("flash_crowd")
        assert spec2.latency_bound_us(scenario) == pytest.approx(
            3.0 * spec1.latency_bound_us(scenario)
        )

    def test_bound_uses_quietest_phase(self):
        """A quieter scenario gets a laxer (larger) latency bound."""
        spec = tiny_spec()
        trough = spec.latency_bound_us(get_scenario("overnight_trough"))
        saturated = spec.latency_bound_us(get_scenario("saturation_stress"))
        assert trough > saturated

    def test_assertion_tolerance(self):
        gate = StudyAssertion("g", "x <= 1", max_violation_fraction=0.1)
        assert gate.holds(100, 10)
        assert not gate.holds(100, 11)
        assert not gate.holds(0, 0), "zero instances prove nothing"
        strict = StudyAssertion("g", "x <= 1")
        assert strict.holds(5, 0) and not strict.holds(5, 1)


def candidate(
    policy="tdvs",
    threshold=1000.0,
    window=40_000,
    power=1.0,
    loss=0.01,
    latency=50.0,
    passed=True,
) -> CandidateSummary:
    return CandidateSummary(
        scenario="synthetic",
        policy=policy,
        threshold_mbps=threshold,
        window_cycles=window,
        seed=7,
        job_id=f"{policy}-{threshold}-{window}-{power}",
        label="synthetic",
        metrics={
            "power_w": power,
            "throughput_mbps": 1000.0,
            "loss_fraction": loss,
            "latency_mean_us": latency,
        },
        gates={"span_latency": passed},
        passed=passed,
    )


class TestObjectiveReduction:
    def test_winner_is_assertion_passing_minimum(self):
        """The globally cheapest config loses when its assertions fail."""
        baseline = candidate(policy="none", threshold=None, window=None, power=1.5)
        cheapest_but_failing = candidate(power=0.7, passed=False)
        cheapest_passing = candidate(power=0.9, window=20_000)
        pool = [cheapest_but_failing, cheapest_passing, candidate(power=1.2)]
        verdict = _verdict("synthetic", get_objective("min_energy"), baseline, pool)
        assert verdict.winner is cheapest_passing
        assert verdict.fallback is None
        assert verdict.power_saving_fraction == pytest.approx(1 - 0.9 / 1.5)

    def test_fallback_when_nothing_passes(self):
        baseline = candidate(policy="none", threshold=None, window=None, power=1.5)
        pool = [candidate(power=1.2, passed=False), candidate(power=0.8, passed=False)]
        verdict = _verdict("synthetic", get_objective("min_energy"), baseline, pool)
        assert verdict.winner is None
        assert verdict.fallback is pool[1]
        assert verdict.power_saving_fraction is None

    def test_objective_direction_respected(self):
        baseline = candidate(policy="none", threshold=None, window=None)
        slow = candidate(power=0.8)
        fast = candidate(power=1.2, window=20_000)
        fast.metrics["throughput_mbps"] = 1400.0
        verdict = _verdict(
            "synthetic", get_objective("max_throughput"), baseline, [slow, fast]
        )
        assert verdict.winner is fast

    def test_nan_metric_always_loses(self):
        baseline = candidate(policy="none", threshold=None, window=None)
        nan_latency = candidate(latency=math.nan)
        finite = candidate(latency=80.0, window=20_000)
        verdict = _verdict(
            "synthetic", get_objective("min_latency"), baseline, [nan_latency, finite]
        )
        assert verdict.winner is finite

    def test_tie_keeps_job_order(self):
        baseline = candidate(policy="none", threshold=None, window=None)
        first = candidate(power=1.0)
        second = candidate(power=1.0, window=20_000)
        verdict = _verdict(
            "synthetic", get_objective("min_energy"), baseline, [first, second]
        )
        assert verdict.winner is first

    def test_empty_pool_rejected(self):
        with pytest.raises(AnalysisError):
            _verdict(
                "synthetic",
                get_objective("min_energy"),
                candidate(policy="none", threshold=None, window=None),
                [],
            )


class TestSelectDesignPoint:
    def test_min_max_and_ties(self):
        cells = [(("a"), 2.0), (("b"), 1.0), (("c"), 1.0)]
        assert select_design_point(cells, "min") == ("b", 1.0)
        assert select_design_point(cells, "max") == ("a", 2.0)

    def test_errors(self):
        with pytest.raises(ConfigError):
            select_design_point([], "min")
        with pytest.raises(ConfigError):
            select_design_point([("a", 1.0)], "sideways")

    def test_surfaces_consult_the_same_reduction(self):
        """fig08/fig09 read-offs go through select_design_point."""
        from repro.analysis.surface import PercentileSurface
        from repro.experiments.fig08_power_surface import surface_optimum

        surface = PercentileSurface((1.0, 2.0), (10.0, 20.0))
        for k, (row, col) in enumerate(
            [(r, c) for r in (1.0, 2.0) for c in (10.0, 20.0)]
        ):
            surface.add(row, col, one_power_sample(0.6 + 0.25 * k))
        assert surface_optimum(surface, "min") == surface.argmin()
        assert surface_optimum(surface, "max") == surface.argmax()

    def test_surface_optimum_tolerates_missing_cells(self):
        """Like argmin/argmax, only populated cells are considered."""
        from repro.analysis.surface import PercentileSurface
        from repro.experiments.fig08_power_surface import surface_optimum

        surface = PercentileSurface((1.0, 2.0), (10.0, 20.0))
        surface.add(2.0, 20.0, one_power_sample(1.0))
        assert surface_optimum(surface, "min") == surface.argmin()


class TestPareto:
    def test_front_is_non_dominated(self):
        points = [
            (1.0, 0.1, 50.0),   # cheap, lossy-ish
            (1.2, 0.05, 45.0),  # middle
            (1.5, 0.01, 40.0),  # expensive, clean
            (1.6, 0.02, 41.0),  # dominated by the previous point
            (1.2, 0.05, 46.0),  # dominated by the second point
        ]
        front = pareto_front(points)
        assert front == [0, 1, 2]
        for i in front:
            assert not any(dominates(points[j], points[i]) for j in front if j != i)

    def test_duplicates_all_survive(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert pareto_front(points) == [0, 1]

    def test_nan_axis_never_dominates(self):
        clean = (1.0, 1.0)
        nanpt = (0.5, math.nan)
        assert not dominates(nanpt, clean)
        assert dominates((0.5, 1.0), (0.5, math.nan))
        assert pareto_front([clean, nanpt]) == [0, 1]  # incomparable: both stay

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            dominates((1.0,), (1.0, 2.0))


class TestRunStudy:
    def test_map_covers_every_scenario_and_gates_winners(self):
        spec = tiny_spec(scenarios=("link_failover", "overnight_trough"))
        result = Session(execution=ExecutionPolicy(workers=1)).study(spec)
        policy_map = result.policy_map
        assert len(policy_map) == 2
        assert set(policy_map.entries) == {"link_failover", "overnight_trough"}
        for verdict in policy_map:
            assert verdict.baseline.policy == "none"
            # Competing pool excludes the implicit baseline.
            assert all(c.policy != "none" for c in verdict.candidates)
            assert verdict.pareto, "front is never empty"
            if verdict.winner is not None:
                assert verdict.winner.passed
                assert all(verdict.winner.gates.values())
            else:
                assert verdict.fallback is not None

    @pytest.mark.slow
    def test_serial_and_parallel_maps_identical(self):
        spec = tiny_spec(scenarios=("link_failover", "saturation_stress"))
        serial = Session(execution=ExecutionPolicy(workers=1)).study(spec)
        parallel = Session(execution=ExecutionPolicy(workers=2)).study(spec)
        assert json.dumps(serial.policy_map.to_dict(), sort_keys=True) == json.dumps(
            parallel.policy_map.to_dict(), sort_keys=True
        )

    def test_store_makes_studies_resumable(self, tmp_path):
        from repro.sweep import ResultStore

        path = str(tmp_path / "study.jsonl")
        spec = tiny_spec()
        first = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).study(spec)
        assert first.cached_jobs == 0
        second = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).study(spec)
        assert second.cached_jobs == second.total_jobs == first.total_jobs

        def normalized(result):
            # The cached provenance flag is the one legitimate difference.
            data = json.loads(json.dumps(result.policy_map.to_dict()))
            for scenario in data["scenarios"]:
                for value in scenario.values():
                    for entry in value if isinstance(value, list) else [value]:
                        if isinstance(entry, dict):
                            entry.pop("cached", None)
            return json.dumps(data, sort_keys=True)

        assert normalized(first) == normalized(second)

    def test_mismatched_outcomes_rejected(self):
        """PolicyMap.build refuses outcomes missing the study's checks."""
        from repro.sweep import SweepSpec

        spec = tiny_spec()
        (job,) = SweepSpec(
            policies=("none",),
            traffic=("scenario:link_failover",),
            duration_cycles=120_000,
            span=20,
        ).jobs()
        (outcome,) = Session(execution=ExecutionPolicy(workers=1)).sweep([job])
        with pytest.raises(AnalysisError):
            PolicyMap.build(spec, [("link_failover", [outcome])])


class TestReports:
    @pytest.fixture(scope="class")
    def study(self):
        return Session(execution=ExecutionPolicy(workers=1)).study(tiny_spec())

    def test_text_report_lists_scenarios(self, study):
        text = render_text(study.policy_map)
        assert "link_failover" in text
        assert "LOC-assertion gated" in text

    def test_markdown_report_has_map_and_fronts(self, study):
        markdown = render_markdown(study.policy_map)
        assert markdown.startswith("# Scenario-conditioned DVS policy study")
        assert "| scenario |" in markdown
        assert "Pareto front" in markdown

    def test_json_report_round_trips(self, study):
        data = json.loads(render_json(study.policy_map))
        assert data["objective"] == "min_energy"
        assert [s["scenario"] for s in data["scenarios"]] == ["link_failover"]


class TestCli:
    def test_study_smoke(self, capsys, tmp_path):
        store = str(tmp_path / "study.jsonl")
        argv = [
            "study", "--scenario", "link_failover", "--policy", "tdvs,edvs",
            "--threshold", "1200", "--window", "40000",
            "--profile", "bench", "--workers", "1", "--store", store,
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "link_failover" in out
        assert "optimal DVS policy map" in out
        # Second invocation is served from the store cache.
        assert main(argv) == 0
        assert "link_failover" in capsys.readouterr().out

    def test_study_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "map.json"
        assert main([
            "study", "--scenario", "overnight_trough", "--policy", "edvs",
            "--window", "40000", "--profile", "bench", "--workers", "1",
            "--json", "--quiet", "--out", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert [s["scenario"] for s in data["scenarios"]] == ["overnight_trough"]

    def test_study_unknown_objective_raises(self):
        with pytest.raises(ConfigError):
            main([
                "study", "--scenario", "overnight_trough",
                "--objective", "fastest", "--quiet",
            ])
