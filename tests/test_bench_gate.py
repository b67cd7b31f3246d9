"""Tests for tools/bench_gate.py, the nightly gate over simbench output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE_PATH = ROOT / "tools" / "bench_gate.py"

_spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

REFERENCE = {"sim_cycles_per_s": 9_000_000.0, "study_wall_s": 3.5}


def write_output(path, workload="saturated_apps", correct=True, failed=0,
                 cycles=9_000_000.0, wall=3.5):
    """A synthetic ``simbench/run.py --trace 0`` output file."""
    detail = {"detail": {"workload": workload, "seed": 7, "failures": []}}
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {
            "sim_cycles_per_s": {"value": cycles, "unit": "cycles/s"},
            "study_wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.2, "unit": "s"},
            "peak_rss_mb": {"value": 60.0, "unit": "MB"},
        },
    }
    path.write_text(json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    return str(path)


@pytest.fixture
def history(tmp_path):
    """Two history lines; the newer one is :data:`REFERENCE`."""
    path = tmp_path / "BENCH_history.jsonl"
    older = {"commit": "old", "workloads": {
        "saturated_apps": {"sim_cycles_per_s": 1.0, "study_wall_s": 100.0},
    }}
    newer = {"commit": "new", "workloads": {"saturated_apps": REFERENCE}}
    path.write_text(json.dumps(older) + "\n" + json.dumps(newer) + "\n")
    return path


def failures(tmp_path, history, **fields):
    output = write_output(tmp_path / "simbench.out", **fields)
    return bench_gate.gate([output], history=history)


@pytest.mark.parametrize("scale", [1.0, 0.81])
def test_passes_within_bound(tmp_path, history, scale):
    # Equal numbers, and 19% worse on both gated metrics.
    assert failures(
        tmp_path, history,
        cycles=REFERENCE["sim_cycles_per_s"] * scale,
        wall=REFERENCE["study_wall_s"] * (2.0 - scale),
    ) == []


def test_fails_on_cycles_drop(tmp_path, history):
    (message,) = failures(
        tmp_path, history, cycles=REFERENCE["sim_cycles_per_s"] * 0.79
    )
    assert "sim_cycles_per_s" in message and "-21.0%" in message


def test_fails_on_wall_rise(tmp_path, history):
    (message,) = failures(
        tmp_path, history, wall=REFERENCE["study_wall_s"] * 1.21
    )
    assert "study_wall_s" in message and "+21.0%" in message


@pytest.mark.parametrize("fields", [{"correct": False}, {"failed": 1}])
def test_fails_on_unclean_run(tmp_path, history, fields):
    (message,) = failures(tmp_path, history, **fields)
    assert "not clean" in message


def test_fails_without_history_line(tmp_path, history):
    (message,) = failures(tmp_path, history, workload="trough_idle")
    assert "trough_idle" in message and "no line" in message


def test_fails_on_truncated_output(tmp_path, history):
    path = tmp_path / "simbench.out"
    path.write_text("Traceback (most recent call last):\n")
    (message,) = bench_gate.gate([str(path)], history=history)
    assert "not a simbench output" in message


def test_committed_history_covers_every_workload():
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for workload in workloads:
        entry = bench_gate.newest_entry(workload["name"])
        assert entry is not None, workload["name"]
        assert set(bench_gate.GATED) <= set(entry)


def test_script_exit_status_and_annotation(tmp_path):
    # Run as the nightly does: against the committed history.
    reference = bench_gate.newest_entry("catalog_study")
    passing = write_output(
        tmp_path / "simbench-catalog_study.out", workload="catalog_study",
        cycles=reference["sim_cycles_per_s"], wall=reference["study_wall_s"],
    )
    unknown = write_output(
        tmp_path / "simbench-unknown.out", workload="no_such_workload"
    )
    env = {**os.environ, "GITHUB_ACTIONS": "true"}
    ok = subprocess.run([sys.executable, str(GATE_PATH), passing],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0, ok.stderr
    bad = subprocess.run([sys.executable, str(GATE_PATH), passing, unknown],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 1
    assert "::error title=bench_gate::no_such_workload" in bad.stdout


def test_other_workload_lines_do_not_shadow(tmp_path, history):
    # A newer line that names only another workload leaves the
    # reference of this one where it was.
    with history.open("a") as handle:
        handle.write(json.dumps({"commit": "newest", "workloads": {
            "trough_idle": {"sim_cycles_per_s": 1.0, "study_wall_s": 1.0},
        }}) + "\n")
    assert bench_gate.newest_entry("saturated_apps", history) == REFERENCE
    (message,) = failures(
        tmp_path, history, cycles=REFERENCE["sim_cycles_per_s"] * 0.79
    )
    assert "saturated_apps" in message


def test_improvements_pass(tmp_path, history):
    assert failures(
        tmp_path, history,
        cycles=REFERENCE["sim_cycles_per_s"] * 2.0,
        wall=REFERENCE["study_wall_s"] * 0.5,
    ) == []


def test_direction_comes_from_benchmark_json(tmp_path, history):
    # Flip study_wall_s to higher-is-better: a 21% rise now passes and
    # a 21% drop fails.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"]:
        if entry["name"] == "study_wall_s":
            entry["better"] = "higher"
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(spec))
    rise = write_output(tmp_path / "rise.out",
                        wall=REFERENCE["study_wall_s"] * 1.21)
    drop = write_output(tmp_path / "drop.out",
                        wall=REFERENCE["study_wall_s"] * 0.79)
    assert bench_gate.gate([rise], history=history, benchmark=benchmark) == []
    (message,) = bench_gate.gate([drop], history=history, benchmark=benchmark)
    assert "study_wall_s" in message and "higher is better" in message


def test_fails_when_output_lacks_a_gated_metric(tmp_path, history):
    path = Path(write_output(tmp_path / "simbench.out"))
    detail, result = path.read_text().splitlines()
    result = json.loads(result)
    del result["metrics"]["study_wall_s"]
    path.write_text(detail + "\n" + json.dumps(result) + "\n")
    (message,) = bench_gate.gate([str(path)], history=history)
    assert message == "saturated_apps: study_wall_s missing"


def test_fails_when_history_line_lacks_a_gated_metric(tmp_path):
    history = tmp_path / "BENCH_history.jsonl"
    history.write_text(json.dumps({"workloads": {
        "saturated_apps": {"study_wall_s": REFERENCE["study_wall_s"]},
    }}) + "\n")
    (message,) = failures(tmp_path, history)
    assert message == "saturated_apps: sim_cycles_per_s missing"


def test_fails_without_history_file(tmp_path):
    (message,) = failures(tmp_path, tmp_path / "absent.jsonl")
    assert "saturated_apps" in message and "no line" in message


def test_reports_every_failing_file(tmp_path, history):
    clean = write_output(tmp_path / "clean.out")
    slow = write_output(tmp_path / "slow.out",
                        cycles=REFERENCE["sim_cycles_per_s"] * 0.5)
    broken = write_output(tmp_path / "broken.out", failed=2)
    messages = bench_gate.gate([clean, slow, broken], history=history)
    assert len(messages) == 2
    assert "sim_cycles_per_s" in messages[0]
    assert "not clean" in messages[1]


def test_reads_past_stray_lines(tmp_path, history):
    # Lines that are not JSON, before or between the two simbench
    # lines, do not hide the detail or the result line.
    path = Path(write_output(tmp_path / "simbench.out"))
    detail, result = path.read_text().splitlines()
    path.write_text(f"warming up\n{detail}\nnote: 4 cases\n{result}\n")
    assert bench_gate.read_run(path) == ("saturated_apps", json.loads(result))
    assert bench_gate.gate([str(path)], history=history) == []


def test_script_without_arguments_prints_usage(tmp_path):
    run = subprocess.run([sys.executable, str(GATE_PATH)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "usage" in run.stderr


def test_script_annotates_only_under_github_actions(tmp_path):
    unknown = write_output(
        tmp_path / "simbench-unknown.out", workload="no_such_workload"
    )
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
    run = subprocess.run([sys.executable, str(GATE_PATH), unknown],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "FAIL no_such_workload" in run.stderr
    assert "::error" not in run.stdout
