"""Tests for the per-run observation benchmark harness."""

import json

import pytest

from repro.bench import (
    DEFAULT_SCENARIOS,
    bench_formulas,
    bench_scenario,
    calibration_ratio,
    compare_bench,
    host_calibration,
    kernel_gain,
    load_bench_json,
    render_bench_text,
    run_bench,
    write_bench_json,
)


def _artifact(interpreted=80_000.0, compiled=900_000.0, scenario_ev=900_000.0):
    return {
        "bench": "run",
        "profile": "bench",
        "span": 20,
        "repeats": 1,
        "scenarios": {
            "flash_crowd": {
                "events": 700,
                "run_wall_s": {
                    "no_checkers": 0.45,
                    "interpreted": 0.47,
                    "compiled": 0.44,
                },
                "run_events_per_s": {
                    "no_checkers": 1555.6,
                    "interpreted": 1489.4,
                    "compiled": 1590.9,
                },
                "checking": {
                    "replayed_events": 100_000,
                    "interpreted": {"wall_s": 1.0, "events_per_s": interpreted},
                    "compiled": {"wall_s": 0.1, "events_per_s": scenario_ev},
                    "speedup": 10.0,
                },
            }
        },
        "totals": {
            "replayed_events": 100_000,
            "events_per_s_checking": {
                "interpreted": interpreted,
                "compiled": compiled,
            },
            "speedup_compiled_vs_interpreted": compiled / interpreted,
            "run_speedup_with_checkers": 1.05,
        },
    }


class TestCompareBench:
    def test_no_warning_within_tolerance(self):
        old, new = _artifact(), _artifact(compiled=800_000.0)
        assert compare_bench(old, new, tolerance=0.20) == []

    def test_warns_on_total_regression(self):
        old, new = _artifact(), _artifact(
            compiled=500_000.0, scenario_ev=500_000.0
        )
        warnings = compare_bench(old, new, tolerance=0.20)
        assert any("totals.compiled" in w for w in warnings)
        assert any("flash_crowd.compiled" in w for w in warnings)

    def test_new_scenarios_warn_and_skip(self):
        old = _artifact()
        new = _artifact()
        new["scenarios"]["brand_new"] = new["scenarios"]["flash_crowd"]
        warnings = compare_bench(old, new, tolerance=0.20)
        # One-sided scenarios are noted, never compared (no KeyError,
        # no false regression) -- and symmetric keys stay clean.
        assert warnings == [
            "brand_new: in current run but not baseline; skipping comparison"
        ]

    def test_missing_values_ignored(self):
        old = _artifact()
        old["totals"]["events_per_s_checking"]["compiled"] = None
        assert compare_bench(old, _artifact(), tolerance=0.20) == []

    def test_warns_on_run_throughput_regression(self):
        # The kernel-speed number: whole-run events/sec, compiled mode.
        old, new = _artifact(), _artifact()
        new["scenarios"]["flash_crowd"]["run_events_per_s"]["compiled"] = 1000.0
        warnings = compare_bench(old, new, tolerance=0.20)
        assert any("flash_crowd.run.compiled" in w for w in warnings)


class TestKernelGain:
    def test_ratios_and_geomean(self):
        old, new = _artifact(), _artifact()
        new["scenarios"]["flash_crowd"]["run_events_per_s"]["compiled"] = 3181.8
        gain = kernel_gain(old, new)
        entry = gain["scenarios"]["flash_crowd"]
        assert entry["baseline"] == 1590.9
        assert entry["current"] == 3181.8
        assert entry["speedup"] == pytest.approx(2.0, abs=0.01)
        assert gain["min_speedup"] == entry["speedup"]
        assert gain["geomean_speedup"] == pytest.approx(2.0, abs=0.01)

    def test_empty_without_overlap(self):
        gain = kernel_gain({"scenarios": {}}, _artifact())
        assert gain["scenarios"] == {}
        assert gain["min_speedup"] is None
        assert gain["geomean_speedup"] is None


class TestHostCalibration:
    def test_spin_score_is_positive_and_repeatable_shape(self):
        host = host_calibration(repeats=2)
        assert host["spin_ops"] > 0
        assert host["spin_best_s"] > 0
        assert host["ops_per_s"] == pytest.approx(
            host["spin_ops"] / host["spin_best_s"], rel=1e-3
        )

    def test_ratio_defaults_to_one_without_stamps(self):
        assert calibration_ratio(_artifact(), _artifact()) == 1.0

    def test_ratio_scales_with_host_speed(self):
        old, new = _artifact(), _artifact()
        old["host"] = {"ops_per_s": 1_000_000.0}
        new["host"] = {"ops_per_s": 2_000_000.0}
        assert calibration_ratio(old, new) == pytest.approx(2.0)

    def test_compare_bench_rescales_by_calibration(self):
        # Current host is 2x faster; identical simulator speed should
        # read as a ~2x *shortfall* against the calibrated baseline.
        old, new = _artifact(), _artifact()
        old["host"] = {"ops_per_s": 1_000_000.0}
        new["host"] = {"ops_per_s": 2_000_000.0}
        warnings = compare_bench(old, new, tolerance=0.20)
        assert any("flash_crowd.run.compiled" in w for w in warnings)
        # And a half-speed host excuses a halved measurement.
        slow = _artifact()
        slow["host"] = {"ops_per_s": 500_000.0}
        for mode in slow["scenarios"]["flash_crowd"]["run_events_per_s"]:
            slow["scenarios"]["flash_crowd"]["run_events_per_s"][mode] /= 2
        for mode in slow["totals"]["events_per_s_checking"]:
            slow["totals"]["events_per_s_checking"][mode] /= 2
        slow["scenarios"]["flash_crowd"]["checking"]["interpreted"][
            "events_per_s"
        ] /= 2
        slow["scenarios"]["flash_crowd"]["checking"]["compiled"][
            "events_per_s"
        ] /= 2
        assert compare_bench(old, slow, tolerance=0.20) == []


class TestBenchPieces:
    def test_bench_formulas_shape(self):
        formulas = bench_formulas("flash_crowd", span=20)
        # Two paper distributions + the study engine's two gates.
        assert len(formulas) == 4
        texts = [f if isinstance(f, str) else f.unparse() for f in formulas]
        assert any("energy(forward" in t for t in texts)
        assert any("== 1" in t for t in texts)

    def test_default_scenarios_exist(self):
        from repro.scenarios import get_scenario

        for name in DEFAULT_SCENARIOS:
            get_scenario(name)

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "bench.json")
        write_bench_json(_artifact(), path)
        data = load_bench_json(path)
        assert data["totals"]["events_per_s_checking"]["compiled"] == 900_000.0
        with open(path) as handle:
            assert json.load(handle) == data

    def test_render_text(self):
        text = render_bench_text(_artifact())
        assert "flash_crowd" in text
        assert "events/s" in text


@pytest.mark.slow
class TestBenchExecution:
    def test_bench_scenario_measures_and_verifies(self):
        entry = bench_scenario(
            "flash_crowd", profile="bench", repeats=1,
            replay_target_events=5_000,
        )
        assert entry["results_identical"]
        assert entry["events"] > 0
        assert set(entry["run_wall_s"]) == {
            "no_checkers", "interpreted", "compiled",
        }
        assert entry["checking"]["speedup"] > 1.0

    def test_run_bench_totals(self):
        data = run_bench(
            scenarios=["flash_crowd"], repeats=1, replay_target_events=5_000
        )
        assert list(data["scenarios"]) == ["flash_crowd"]
        totals = data["totals"]
        assert totals["speedup_compiled_vs_interpreted"] > 1.0
        render_bench_text(data)  # must render without error

    def test_session_bench_run_wiring(self):
        from repro.api import Session

        seen = []
        data = Session().bench_run(
            scenarios=["flash_crowd"],
            repeats=1,
            replay_target_events=2_000,
            progress=lambda name, entry: seen.append(name),
        )
        assert seen == ["flash_crowd"]
        assert "totals" in data
