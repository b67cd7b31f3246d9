"""Command-line interface.

Usage::

    repro list                              # list experiments
    repro run fig06 [--profile quick] [--workers 4]
    repro run all  [--profile quick]        # regenerate everything
    repro simulate --benchmark ipfwdr --load 1000 --policy tdvs ...
    repro scenarios                         # list the workload catalog
    repro scenarios flash_crowd --run       # play one scenario
    repro sweep --policy tdvs --workers 4   # parallel design-space sweep
    repro study --scenario all --policy tdvs,edvs --workers 4
    repro sweep --backend distributed --connect 0.0.0.0:7641  # coordinator
    repro worker --connect HOST:7641        # pull jobs from a coordinator
    repro loc-gen "FORMULA" --out analyzer.py

``repro simulate`` runs a single configuration and prints the totals;
``repro sweep`` expands a policy/threshold/window/traffic/seed grid and
fans it out over worker processes (see :mod:`repro.sweep`);
``repro scenarios`` lists and runs the built-in workload catalog
(:mod:`repro.scenarios`); ``repro study`` runs the scenario-conditioned
policy study (:mod:`repro.studies`) and prints the per-scenario
optimal (threshold, window) map; ``repro worker`` joins a distributed
sweep as a job-pulling worker (:mod:`repro.backends`); ``repro
loc-gen`` emits a standalone LOC analyzer script for a formula.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ReproError
from repro.version import PAPER, __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=f"Reproduction toolkit for: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, or 'all'")
    run_parser.add_argument(
        "--profile",
        default="quick",
        choices=("bench", "quick", "paper"),
        help="run-length profile (default: quick)",
    )
    run_parser.add_argument(
        "--out", default=None, help="write output to this file instead of stdout"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the experiments' data dictionaries as JSON instead of text",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for simulation grids (default: serial)",
    )

    sim_parser = sub.add_parser("simulate", help="run one simulation")
    sim_parser.add_argument("--benchmark", default="ipfwdr")
    sim_parser.add_argument("--load", type=float, default=1000.0, help="offered Mbps")
    sim_parser.add_argument(
        "--policy", default="none", choices=("none", "tdvs", "edvs")
    )
    sim_parser.add_argument("--window", type=int, default=40_000, help="cycles")
    sim_parser.add_argument("--threshold", type=float, default=1000.0, help="Mbps")
    sim_parser.add_argument("--idle-threshold", type=float, default=0.10)
    sim_parser.add_argument("--cycles", type=int, default=1_600_000)
    sim_parser.add_argument("--seed", type=int, default=1)
    sim_parser.add_argument(
        "--process", default="mmpp", choices=("mmpp", "poisson", "cbr")
    )

    scen_parser = sub.add_parser(
        "scenarios", help="list, inspect or run catalog traffic scenarios"
    )
    scen_parser.add_argument(
        "name", nargs="?", default=None, help="scenario to inspect (default: list all)"
    )
    scen_parser.add_argument(
        "--run", action="store_true", help="simulate the named scenario"
    )
    scen_parser.add_argument(
        "--profile",
        default="quick",
        choices=("bench", "quick", "paper"),
        help="run-length profile for --run (default: quick)",
    )
    scen_parser.add_argument("--benchmark", default="ipfwdr")
    scen_parser.add_argument(
        "--policy", default="none", choices=("none", "tdvs", "edvs", "combined")
    )
    scen_parser.add_argument("--seed", type=int, default=1)

    sweep_parser = sub.add_parser(
        "sweep", help="run a design-space sweep, optionally in parallel"
    )
    sweep_parser.add_argument(
        "--policy",
        action="append",
        choices=("none", "tdvs", "edvs", "combined"),
        help="policy axis (repeatable; default: tdvs)",
    )
    sweep_parser.add_argument(
        "--threshold",
        action="append",
        type=float,
        help="TDVS top-threshold axis in Mbps (repeatable; default: the "
        "paper's 800/1000/1200/1400 grid)",
    )
    sweep_parser.add_argument(
        "--window",
        action="append",
        type=int,
        help="monitor-window axis in cycles (repeatable; default: the "
        "paper's 20k/40k/60k/80k grid)",
    )
    sweep_parser.add_argument(
        "--traffic",
        action="append",
        help="traffic axis: level:high, load:1000 or scenario:flash_crowd "
        "(repeatable; default: level:high)",
    )
    sweep_parser.add_argument("--benchmark", action="append", help="benchmark axis")
    sweep_parser.add_argument(
        "--seed", action="append", type=int, help="seed axis (repeatable)"
    )
    sweep_parser.add_argument(
        "--profile",
        default="quick",
        choices=("bench", "quick", "paper"),
        help="run-length profile (default: quick)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: serial)"
    )
    sweep_parser.add_argument(
        "--store",
        default=None,
        help="JSONL result store: completed jobs are skipped on re-runs",
    )
    sweep_parser.add_argument(
        "--distributions",
        action="store_true",
        help="attach the formula (2)/(3) distribution analyzers to each job",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    _add_backend_args(sweep_parser)

    study_parser = sub.add_parser(
        "study",
        help="scenario-conditioned DVS policy study: per-scenario optimal "
        "(threshold, window) maps with LOC-assertion gating",
    )
    study_parser.add_argument(
        "--scenario",
        action="append",
        help="scenario names (repeatable, comma lists allowed; "
        "'all' or omitted: the whole catalog)",
    )
    study_parser.add_argument(
        "--policy",
        action="append",
        help="competing policies (repeatable, comma lists allowed; "
        "default: tdvs,edvs)",
    )
    study_parser.add_argument(
        "--objective",
        default="min_energy",
        help="study objective (default: min_energy; see repro.studies)",
    )
    study_parser.add_argument(
        "--threshold",
        action="append",
        type=float,
        help="TDVS top-threshold axis in Mbps (repeatable; default: the "
        "paper's 800/1000/1200/1400 grid)",
    )
    study_parser.add_argument(
        "--window",
        action="append",
        type=int,
        help="monitor-window axis in cycles (repeatable; default: the "
        "paper's 20k/40k/60k/80k grid)",
    )
    study_parser.add_argument("--benchmark", default="ipfwdr")
    study_parser.add_argument(
        "--seed", action="append", type=int, help="seed axis (repeatable)"
    )
    study_parser.add_argument(
        "--profile",
        default="quick",
        choices=("bench", "quick", "paper"),
        help="run-length profile (default: quick)",
    )
    study_parser.add_argument(
        "--latency-slack",
        type=float,
        default=None,
        help="multiplier on the quietest-phase pace in the derived LOC "
        "span-latency bound (default: 2.0)",
    )
    study_parser.add_argument(
        "--loss-margin",
        type=float,
        default=None,
        help="tolerated absolute loss-fraction excess over the ungoverned "
        "baseline (default: 0.02)",
    )
    study_parser.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: serial)"
    )
    study_parser.add_argument(
        "--store",
        default=None,
        help="JSONL result store: completed jobs are skipped on re-runs",
    )
    study_parser.add_argument(
        "--json", action="store_true", help="emit the policy map as JSON"
    )
    study_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the full markdown report (map + per-scenario Pareto fronts)",
    )
    study_parser.add_argument(
        "--pareto",
        action="store_true",
        help="also print per-scenario Pareto front tables (text output)",
    )
    study_parser.add_argument(
        "--out", default=None, help="write the report to this file instead of stdout"
    )
    study_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    study_parser.add_argument(
        "--mem-gates",
        action="store_true",
        help="also gate candidates on the mem_* queue-pressure channels "
        "(memory service-latency LOC assertions; see StudySpec.mem_gates)",
    )
    _add_backend_args(study_parser)

    worker_parser = sub.add_parser(
        "worker",
        help="join a distributed sweep: pull jobs from a coordinator, "
        "run them locally, stream outcomes back",
    )
    worker_parser.add_argument(
        "--connect", required=True, help="coordinator HOST:PORT to pull jobs from"
    )
    worker_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after this many completed jobs (default: until shutdown)",
    )
    worker_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the coordinator connection (default: 30)",
    )
    worker_parser.add_argument(
        "--serve",
        action="store_true",
        help="after a sweep finishes, reconnect and serve the next one "
        "until no coordinator appears within --timeout",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job worker log lines"
    )

    gen_parser = sub.add_parser("loc-gen", help="generate a standalone LOC analyzer")
    gen_parser.add_argument("formula", help="LOC formula text")
    gen_parser.add_argument("--out", default=None, help="output path (default stdout)")

    lint_parser = sub.add_parser(
        "lint",
        help="static invariant checks: determinism hazards, LOC formula "
        "analysis, wire/schema consistency",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any unsuppressed finding (the CI gate)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        dest="fmt",
        help="output format (github emits ::error annotations)",
    )
    lint_parser.add_argument(
        "--root",
        default=None,
        metavar="PATH",
        help="repository root to lint (default: the root containing "
        "the installed repro package, else the current directory)",
    )
    lint_parser.add_argument(
        "--no-catalog",
        action="store_true",
        help="skip the builtin/study-gate formula analysis (file-level "
        "passes only)",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="summarize or diff repro.obs metrics snapshots "
        "(the JSONL files --metrics-out writes)",
    )
    metrics_parser.add_argument("snapshot", help="metrics snapshot JSONL path")
    metrics_parser.add_argument(
        "--diff",
        default=None,
        metavar="BASELINE",
        help="diff the snapshot against this baseline snapshot instead "
        "of summarizing it",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="work with span logs (the JSONL files --spans-out writes)",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    export_parser = trace_sub.add_parser(
        "export",
        help="export a span log for an external timeline viewer",
    )
    export_parser.add_argument("spanlog", help="span log JSONL path")
    export_parser.add_argument(
        "--format",
        default="perfetto",
        choices=("perfetto",),
        help="export format: perfetto emits Chrome trace-event JSON "
        "(loads in https://ui.perfetto.dev or chrome://tracing)",
    )
    export_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: <spanlog-stem>.perfetto.json)",
    )

    report_parser = sub.add_parser(
        "report",
        help="render a study report from a study JSON artifact "
        "(repro study --json --out study.json)",
    )
    report_parser.add_argument("study", help="study JSON path")
    report_parser.add_argument(
        "--html",
        action="store_true",
        help="render the self-contained HTML study report (winner "
        "tables, Pareto fronts, latency histograms, timeline summary)",
    )
    report_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: <study-stem>.html)",
    )
    report_parser.add_argument(
        "--metrics",
        default=None,
        metavar="SNAPSHOT",
        help="metrics snapshot JSONL to render forward-latency "
        "histograms from",
    )
    report_parser.add_argument(
        "--spans",
        default=None,
        metavar="SPANLOG",
        help="span log JSONL to embed the run-timeline summary from",
    )
    report_parser.add_argument(
        "--title",
        default="Scenario-conditioned DVS policy study",
        help="report page title",
    )

    return parser


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """The shared execution-backend selector (sweep and study)."""
    parser.add_argument(
        "--backend",
        default=None,
        choices=("serial", "process", "distributed"),
        help="execution backend (default: serial/process chosen from "
        "--workers)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        help="with --backend distributed: HOST:PORT the coordinator listens "
        "on (port 0 picks a free port; workers join with "
        "'repro worker --connect HOST:PORT')",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the session's metrics snapshot (trace channel "
        "counters, outcome tallies, backend telemetry) to this JSONL "
        "file when the command finishes (a span log lands next to it "
        "as <stem>.spans<ext> unless --spans-out says otherwise)",
    )
    parser.add_argument(
        "--spans-out",
        default=None,
        metavar="PATH",
        help="write the session's span timeline (wall-clock "
        "orchestration + deterministic sim-time run phases) to this "
        "JSONL span log; feed it to 'repro trace export' or "
        "'repro report --html'",
    )


def _make_backend(args):
    """Build the backend the sweep/study commands were asked for.

    Returns ``None`` when no explicit ``--backend`` was given, letting
    the session's :class:`~repro.api.policy.ExecutionPolicy` apply its
    serial/process default.  A distributed coordinator announces its
    bound address up front so workers can be pointed at it.
    """
    if args.backend is None:
        return None
    from repro.backends import get_backend

    def log(line: str) -> None:
        print(f"coordinator: {line}", file=sys.stderr)

    backend = get_backend(
        args.backend,
        workers=args.workers,
        connect=args.connect,
        log=None if getattr(args, "quiet", False) else log,
    )
    if args.backend == "distributed":
        # A wildcard bind is not a dialable address; tell remote
        # workers to use this machine's name instead.
        join = backend.address
        if backend.host in ("0.0.0.0", "::"):
            import socket

            join = f"{socket.gethostname()}:{backend.port}"
        print(
            f"coordinator listening on {backend.address} — join with: "
            f"repro worker --connect {join}",
            file=sys.stderr,
        )
    return backend


def _run_session(args, backend=None, store=None) -> "Session":
    """The :class:`~repro.api.session.Session` one command runs under.

    Policy fields come straight from the parsed flags; anything the
    user did not pass stays ``None`` and takes the policy's default.
    A ``store`` instance takes the place of a ``--store`` path.
    """
    from repro.api import ExecutionPolicy, Session, StorePolicy

    return Session(
        execution=ExecutionPolicy(
            backend=backend, workers=getattr(args, "workers", None)
        ),
        store=StorePolicy(path=getattr(args, "store", None), store=store),
    )


def _write_session_metrics(session, args, meta: dict) -> None:
    """Honor ``--metrics-out`` / ``--spans-out`` after a command finishes.

    The span log defaults to living next to the metrics snapshot
    (``study-metrics.jsonl`` → ``study-metrics.spans.jsonl``) so one
    flag ships both observability artifacts; ``--spans-out`` overrides
    the location (and works without ``--metrics-out``).
    """
    path = getattr(args, "metrics_out", None)
    if path:
        session.write_metrics(path, meta=meta)
        print(f"wrote metrics snapshot {path}", file=sys.stderr)
    spans_path = getattr(args, "spans_out", None)
    if not spans_path and path:
        root, ext = os.path.splitext(path)
        spans_path = f"{root}.spans{ext or '.jsonl'}"
    if spans_path:
        session.write_spans(spans_path, meta=meta)
        print(f"wrote span log {spans_path}", file=sys.stderr)


def _cmd_list() -> int:
    from repro.experiments import get_experiment, list_experiments

    for experiment_id in list_experiments():
        experiment = get_experiment(experiment_id)
        print(f"{experiment_id:15s} {experiment.paper_ref:12s} {experiment.title}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import list_experiments
    from repro.sweep.store import ResultStore

    ids = list_experiments() if args.experiment == "all" else [args.experiment]
    # One in-memory store per command: experiments that share jobs (the
    # Figures 6-9 grid, the no-DVS baselines) simulate each one once.
    session = _run_session(args, store=ResultStore())
    chunks = []
    for experiment_id in ids:
        result = session.experiment(experiment_id, profile=args.profile)
        if args.json:
            chunks.append(result.to_json())
        else:
            chunks.append(f"## {experiment_id}\n\n{result.text}")
    if args.json:
        output = "[\n" + ",\n".join(chunks) + "\n]\n" if len(chunks) > 1 else chunks[0] + "\n"
    else:
        output = "\n\n\n".join(chunks) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
        print(f"wrote {args.out}")
    else:
        print(output, end="")
    return 0


def _cmd_simulate(args) -> int:
    from repro.runner import run_simulation

    dvs = DvsConfig(
        policy=args.policy,
        window_cycles=args.window,
        top_threshold_mbps=args.threshold,
        idle_threshold=args.idle_threshold,
    )
    config = RunConfig(
        benchmark=args.benchmark,
        duration_cycles=args.cycles,
        seed=args.seed,
        traffic=TrafficConfig(offered_load_mbps=args.load, process=args.process),
        dvs=dvs,
    )
    result = run_simulation(config)
    totals = result.totals
    print(f"benchmark        : {args.benchmark}")
    print(f"policy           : {args.policy}")
    _print_run_totals(result)
    for me in totals.me_summaries:
        print(
            f"  ME{me.index} ({me.role}) busy={me.busy_fraction:.2f} "
            f"idle={me.idle_fraction:.2f} stalled={me.stalled_fraction:.2f} "
            f"freq={me.freq_mhz:.0f}MHz"
        )
    return 0


def _print_run_totals(result) -> None:
    totals = result.totals
    print(f"simulated time   : {totals.duration_s * 1e3:.3f} ms")
    print(f"offered          : {totals.offered_mbps:.1f} Mbps "
          f"({totals.offered_packets} packets)")
    print(f"forwarded        : {totals.throughput_mbps:.1f} Mbps "
          f"({totals.forwarded_packets} packets)")
    print(f"loss             : {totals.loss_fraction * 100:.2f}%")
    print(f"mean power       : {totals.mean_power_w:.3f} W")
    if result.governor_policy != "none":
        print(f"VF transitions   : {result.governor_transitions}")
        print(f"monitor overhead : {result.dvs_overhead_w * 1e3:.3f} mW")


def _cmd_scenarios(args) -> int:
    from repro.scenarios import all_scenarios, get_scenario

    if args.name is None:
        print(f"{'name':18s} {'segs':>4s} {'mean':>8s} {'peak':>8s}  title")
        for scenario in all_scenarios():
            print(
                f"{scenario.name:18s} {len(scenario.segments):4d} "
                f"{scenario.mean_load_mbps:8.1f} {scenario.peak_load_mbps:8.1f}  "
                f"{scenario.title}"
            )
        return 0

    scenario = get_scenario(args.name)
    print(f"scenario : {scenario.name} — {scenario.title}")
    print(f"about    : {scenario.description}")
    print(
        f"load     : mean {scenario.mean_load_mbps:.1f} Mbps, "
        f"peak {scenario.peak_load_mbps:.1f} Mbps"
    )
    print(f"flows    : {scenario.num_flows} (zipf s={scenario.zipf_s:g})")
    total = scenario.total_weight
    for k, segment in enumerate(scenario.segments):
        print(
            f"  [{k}] {100 * segment.weight / total:5.1f}% of run  "
            f"{segment.offered_load_mbps:7.1f} Mbps  {segment.process:7s} "
            f"{segment.size_mix}"
        )
    if not args.run:
        return 0

    from repro.experiments.common import cycles_for
    from repro.runner import run_simulation

    config = RunConfig(
        benchmark=args.benchmark,
        duration_cycles=cycles_for(args.profile),
        seed=args.seed,
        traffic=TrafficConfig.for_scenario(scenario.name),
        dvs=DvsConfig(policy=args.policy),
    )
    result = run_simulation(config)
    print()
    print(f"benchmark        : {args.benchmark}")
    print(f"policy           : {args.policy}")
    _print_run_totals(result)
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.common import (
        EXPERIMENT_SEED,
        TDVS_THRESHOLDS_MBPS,
        TDVS_WINDOWS_CYCLES,
        cycles_for,
        span_for,
    )
    from repro.api import EventHooks
    from repro.sweep import SweepSpec, progress_printer, summarize

    spec = SweepSpec(
        benchmarks=tuple(args.benchmark or ("ipfwdr",)),
        policies=tuple(args.policy or ("tdvs",)),
        thresholds_mbps=tuple(args.threshold or TDVS_THRESHOLDS_MBPS),
        windows_cycles=tuple(args.window or TDVS_WINDOWS_CYCLES),
        traffic=tuple(args.traffic or ("level:high",)),
        seeds=tuple(args.seed or (EXPERIMENT_SEED,)),
        duration_cycles=cycles_for(args.profile),
        span=span_for(args.profile) if args.distributions else None,
    )
    jobs = spec.jobs()
    workers = args.workers
    print(
        f"sweep: {len(jobs)} jobs, "
        f"backend={args.backend or 'auto'}, "
        f"workers={workers if workers is not None else 'auto'}, "
        f"store={args.store or 'none'}"
    )
    session = _run_session(args, backend=_make_backend(args))
    outcomes = session.sweep(
        jobs,
        hooks=EventHooks(progress=None if args.quiet else progress_printer()),
    )
    print(summarize(outcomes))
    _write_session_metrics(session, args, {"command": "sweep", "jobs": len(jobs)})
    return 0


def _split_csv(values: Optional[List[str]]) -> List[str]:
    """Flatten repeatable, comma-separated CLI values.

    ``["tdvs,edvs", "combined"]`` becomes ``["tdvs", "edvs", "combined"]``.
    """
    out: List[str] = []
    for value in values or []:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def _cmd_study(args) -> int:
    from repro.api import EventHooks
    from repro.experiments.common import cycles_for, span_for
    from repro.studies import StudySpec
    from repro.studies.report import (
        render_json,
        render_markdown,
        render_pareto_text,
        render_text,
    )
    from repro.sweep import progress_printer

    scenarios = [s for s in _split_csv(args.scenario) if s != "all"]
    policies = _split_csv(args.policy) or ["tdvs", "edvs"]
    overrides = {}
    if args.latency_slack is not None:
        overrides["latency_slack"] = args.latency_slack
    if args.loss_margin is not None:
        overrides["loss_margin"] = args.loss_margin
    spec = StudySpec(
        scenarios=tuple(scenarios),
        policies=tuple(policies),
        thresholds_mbps=tuple(args.threshold or StudySpec.thresholds_mbps),
        windows_cycles=tuple(args.window or StudySpec.windows_cycles),
        benchmark=args.benchmark,
        seeds=tuple(args.seed or StudySpec.seeds),
        duration_cycles=cycles_for(args.profile),
        span=span_for(args.profile),
        objective=args.objective,
        mem_gates=args.mem_gates,
        **overrides,
    )
    spec.validate()
    jobs_by_scenario = spec.jobs_by_scenario()
    total_jobs = sum(len(jobs) for _, jobs in jobs_by_scenario)
    print(
        f"study: {len(jobs_by_scenario)} scenarios, "
        f"{total_jobs} jobs, objective={spec.objective}, "
        f"backend={args.backend or 'auto'}, "
        f"workers={args.workers if args.workers is not None else 'auto'}, "
        f"store={args.store or 'none'}"
    )
    session = _run_session(args, backend=_make_backend(args))
    result = session.study(
        spec,
        jobs_by_scenario=jobs_by_scenario,
        hooks=EventHooks(progress=None if args.quiet else progress_printer()),
        on_scenario_complete=None if args.quiet else _study_live_line,
    )
    if args.json:
        report = render_json(result.policy_map)
    elif args.markdown:
        report = render_markdown(result.policy_map)
    else:
        report = render_text(result.policy_map) + "\n"
        if args.pareto:
            for verdict in result.policy_map:
                report += "\n" + render_pareto_text(verdict) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    _write_session_metrics(
        session, args, {"command": "study", "jobs": total_jobs}
    )
    return 0


def _study_live_line(verdict) -> None:
    """One stderr line the moment a scenario's grid drains.

    This is the streaming payoff of the session API: LOC-gated winners
    print as each scenario completes, not after the whole study lands.
    """
    winner = verdict.winner
    if winner is None:
        line = (
            f"study: {verdict.scenario}: no gated winner "
            f"({verdict.candidates_passing}/{len(verdict.candidates)} passed)"
        )
    else:
        knobs = []
        if winner.threshold_mbps is not None:
            knobs.append(f"thr={winner.threshold_mbps:g}")
        if winner.window_cycles is not None:
            knobs.append(f"win={winner.window_cycles}")
        saving = verdict.power_saving_fraction
        line = (
            f"study: {verdict.scenario}: winner {winner.policy}"
            f"{' (' + ', '.join(knobs) + ')' if knobs else ''}"
            f" {winner.power_w:.3f} W"
            + (f" (-{saving * 100:.1f}%)" if saving is not None else "")
        )
    print(line, file=sys.stderr)


def _cmd_worker(args) -> int:
    from repro.backends.worker import _log_to_stderr, run_worker

    completed = run_worker(
        args.connect,
        max_jobs=args.max_jobs,
        connect_timeout_s=args.timeout,
        serve=args.serve,
        log=None if args.quiet else _log_to_stderr,
    )
    print(f"worker: completed {completed} job(s)")
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs.metrics import diff_snapshots, read_snapshot, summarize_snapshot

    if args.diff:
        # Inspect both headers tolerantly first: mismatched schema
        # versions get a named-key refusal (exit 2) instead of an
        # unexplained parse error on whichever file is read first —
        # silently diffing incompatible layouts is never an option.
        header, _ = read_snapshot(args.snapshot, check_version=False)
        base_header, _ = read_snapshot(args.diff, check_version=False)
        if base_header.get("version") != header.get("version"):
            print(
                f"metrics diff: snapshot schema mismatch on key "
                f"'version': {args.diff} has "
                f"{base_header.get('version')!r}, {args.snapshot} has "
                f"{header.get('version')!r} — refusing to diff "
                f"incompatible snapshot layouts",
                file=sys.stderr,
            )
            return 2
        header, records = read_snapshot(args.snapshot)
        base_header, base_records = read_snapshot(args.diff)
        meta = {k: v for k, v in header.items() if k not in ("schema", "version")}
        print(f"metrics diff: {args.diff} -> {args.snapshot}")
        if meta:
            print("  " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
        output = diff_snapshots(base_records, records)
        print(output if output else "no differences")
    else:
        header, records = read_snapshot(args.snapshot)
        print(summarize_snapshot(records))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.perfetto import render_perfetto, to_perfetto, track_types
    from repro.obs.spans import read_spans, summarize_spans

    header, records = read_spans(args.spanlog)
    meta = {k: v for k, v in header.items() if k not in ("schema", "version")}
    out = args.out or (os.path.splitext(args.spanlog)[0] + ".perfetto.json")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(render_perfetto(records, meta))
    types = track_types(to_perfetto(records, meta))
    print(
        f"wrote {out}: {len(records)} span(s), track types: "
        f"{', '.join(types) if types else '(none)'}",
        file=sys.stderr,
    )
    if records:
        print(summarize_spans(records))
    return 0


def _cmd_report(args) -> int:
    if not args.html:
        print(
            "repro report: pass --html (the only supported renderer; "
            "use 'repro study --markdown/--json' for the other formats)",
            file=sys.stderr,
        )
        return 2
    from repro.studies.report import render_html

    with open(args.study, "r", encoding="utf-8") as handle:
        study = json.load(handle)
    metrics_records = None
    if args.metrics:
        from repro.obs.metrics import read_snapshot

        metrics_records = read_snapshot(args.metrics)[1]
    span_records = None
    if args.spans:
        from repro.obs.spans import read_spans

        span_records = read_spans(args.spans)[1]
    out = args.out or (os.path.splitext(args.study)[0] + ".html")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(
            render_html(
                study,
                metrics_records=metrics_records,
                span_records=span_records,
                title=args.title,
            )
        )
    print(f"wrote study report {out}", file=sys.stderr)
    return 0


def _cmd_loc_gen(args) -> int:
    from repro.loc.codegen import generate_analyzer_source

    source = generate_analyzer_source(args.formula)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.out}")
    else:
        print(source, end="")
    return 0


def _default_lint_root() -> str:
    """The repo root: the directory whose ``src/repro`` we run from."""
    package_root = Path(__file__).resolve().parent  # .../src/repro
    candidate = package_root.parent.parent
    if (candidate / "src" / "repro").is_dir():
        return str(candidate)
    return os.getcwd()


def _cmd_lint(args) -> int:
    from repro.analysis.lint import render, run_lint

    root = args.root or _default_lint_root()
    if not (Path(root) / "src" / "repro").is_dir():
        print(f"repro lint: no src/repro under {root}", file=sys.stderr)
        return 2
    result = run_lint(root, catalog=not args.no_catalog)
    print(render(result, args.fmt))
    if args.strict and result.active:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A refused request (any :class:`~repro.errors.ReproError`: an unknown
    name, a bad value) ends in one ``repro: <message>`` line on stderr
    and exit status 2, the status argparse gives a usage error.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print("repro: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "study":
        return _cmd_study(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "loc-gen":
        return _cmd_loc_gen(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
