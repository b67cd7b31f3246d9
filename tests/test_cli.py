"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def refused(argv, capsys) -> str:
    """Run a command the CLI must refuse; return its one stderr line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("repro: ")
    return lines[0]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig06" in out
    assert "fig11" in out


def test_run_static_experiment(capsys):
    assert main(["run", "fig05"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "1000" in out


def test_run_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fig03.txt"
    assert main(["run", "fig03", "--out", str(out_path)]) == 0
    content = out_path.read_text()
    assert "Annotation type" in content


def test_simulate_command(capsys):
    assert main([
        "simulate", "--benchmark", "nat", "--load", "500",
        "--cycles", "120000", "--process", "cbr",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean power" in out
    assert "ME0" in out


def test_simulate_with_policy(capsys):
    assert main([
        "simulate", "--policy", "tdvs", "--window", "20000",
        "--threshold", "1200", "--load", "300", "--cycles", "200000",
        "--process", "cbr",
    ]) == 0
    out = capsys.readouterr().out
    assert "VF transitions" in out


def test_scenarios_list(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "flash_crowd" in out
    assert "ddos_min64" in out
    # At least 8 catalog entries plus the header line.
    assert len(out.strip().splitlines()) >= 9


def test_scenarios_detail(capsys):
    assert main(["scenarios", "link_failover"]) == 0
    out = capsys.readouterr().out
    assert "Link-failover" in out
    assert "Mbps" in out


def test_scenarios_run(capsys):
    assert main([
        "scenarios", "overnight_trough", "--run", "--profile", "bench",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean power" in out
    assert "forwarded" in out


def test_scenarios_unknown_exits_2(capsys):
    line = refused(["scenarios", "no_such_workload"], capsys)
    assert "unknown scenario 'no_such_workload'" in line
    assert "flash_crowd" in line


def test_refusal_ends_in_one_line_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "scenarios", "no_such"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("repro: unknown scenario 'no_such'")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_sweep_small_grid(capsys, tmp_path):
    store = str(tmp_path / "sweep.jsonl")
    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--traffic", "load:800",
        "--profile", "bench", "--workers", "1", "--store", store, "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 jobs" in out
    assert "power(W)" in out
    # Second invocation hits the store cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "yes" in out


def test_sweep_explicit_serial_backend(capsys):
    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--traffic", "load:800",
        "--profile", "bench", "--backend", "serial", "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "backend=serial" in out
    assert "power(W)" in out


def test_sweep_distributed_backend_needs_endpoint(capsys):
    argv = [
        "sweep", "--policy", "tdvs", "--threshold", "1200",
        "--window", "40000", "--profile", "bench",
        "--backend", "distributed", "--quiet",
    ]
    assert "connect" in refused(argv, capsys)


@pytest.mark.parametrize(
    "argv", [["run", "fig05"], ["sweep", "--profile", "bench", "--quiet"]]
)
def test_zero_workers_refused(argv, capsys):
    # ``run`` builds its session as ``sweep`` does, so neither clamps
    # ``--workers 0`` to one worker.
    line = refused([*argv, "--workers", "0"], capsys)
    assert line == "repro: workers must be >= 1, got 0"


@pytest.mark.slow
def test_worker_command_drains_a_distributed_sweep(capsys):
    """`repro worker --connect` against an in-process coordinator."""
    import threading

    from repro.api import ExecutionPolicy, Session
    from repro.backends import DistributedBackend
    from repro.sweep import SweepSpec

    jobs = SweepSpec(
        policies=("none",), traffic=("load:800",),
        duration_cycles=120_000, process="cbr", seeds=(11,),
    ).jobs()
    backend = DistributedBackend(port=0)
    result = {}
    sweep = threading.Thread(
        target=lambda: result.update(
            outcomes=Session(execution=ExecutionPolicy(backend=backend)).sweep(jobs)
        ),
        daemon=True,
    )
    sweep.start()
    assert main(["worker", "--connect", backend.address, "--quiet"]) == 0
    sweep.join(timeout=120)
    assert not sweep.is_alive()
    out = capsys.readouterr().out
    assert "completed 1 job(s)" in out
    assert len(result["outcomes"]) == 1


def test_worker_requires_connect():
    with pytest.raises(SystemExit):
        main(["worker"])


def test_loc_gen_to_stdout(capsys):
    assert main(["loc-gen", "cycle(deq[i]) - cycle(enq[i]) <= 50"]) == 0
    out = capsys.readouterr().out
    assert "Auto-generated LOC analyzer" in out
    assert "def analyze_lines" in out


def test_loc_gen_to_file(tmp_path, capsys):
    path = tmp_path / "analyzer.py"
    assert main(["loc-gen", "cycle(e[i]) below <0, 5, 1>", "--out", str(path)]) == 0
    assert "def analyze_lines" in path.read_text()


def test_bad_formula_exits_2(capsys):
    assert "unexpected character '@'" in refused(["loc-gen", "not a formula @@"], capsys)


def test_sweep_help_gives_each_level_load(capsys):
    from repro.experiments.common import LEVEL_LOADS_MBPS
    from repro.traffic.diurnal import level_load_bps

    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    low, med, high = (round(level_load_bps(level) / 1e6) for level in ("low", "med", "high"))
    assert f"level:low|med|high ({low}, {med} or {high} Mbps" in text
    figures = [f"{LEVEL_LOADS_MBPS[level]:g}" for level in ("low", "med", "high")]
    assert f"{figures[0]}, {figures[1]} and {figures[2]} Mbps" in text


def test_unknown_annotation_exits_2(capsys):
    line = refused(["loc-gen", "cyc(forward[i+1]) - cyc(forward[i]) <= 5"], capsys)
    assert "unknown annotation 'cyc'" in line
    assert "cycle, time, energy, total_pkt, total_bit" in line


def test_unknown_experiment_exits_2(capsys):
    assert "unknown experiment 'fig99'" in refused(["run", "fig99"], capsys)


def test_bench_subcommand_is_retired(capsys):
    # simbench/run.py is the one benchmark; the CLI no longer parses
    # ``bench`` nor lists it.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "study"])
def test_early_abort_flag_is_retired(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--early-abort"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --early-abort" in capsys.readouterr().err
