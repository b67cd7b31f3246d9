"""Measurement loops, correctness checks and the result line.

``run(args)`` runs one workload.  With ``--trace 0`` it runs a closed
loop of untraced rounds (studies) for ``--seconds`` plus set-up probes,
and reports the end-to-end metrics.  With ``--trace 1`` it runs two
untraced rounds for the count ledger and one round under cProfile (for
the study: one untraced study and one on :mod:`profiled`'s pool), and
reports the per-layer metrics.  Every run is checked: see
:class:`Tally`.
"""

from __future__ import annotations

import cProfile
import ctypes
import gc
import heapq
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import layers
import profiled
import workloads

HERE = Path(__file__).resolve().parent

#: End-to-end metrics and their units.
END_TO_END = {
    "sim_cycles_per_s": "cycles/s",
    "study_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, in output order.
PER_LAYER = (
    "sim.events", "sim.events_per_s", "sim.self_s",
    "microengine.missed_polls", "microengine.missed_poll_share",
    "microengine.missed_poll_share_max", "microengine.poll_hit_ratio",
    "microengine.packets", "microengine.instructions",
    "microengine.busy_frac", "microengine.stalled_frac",
    "microengine.idle_frac", "microengine.self_s",
    "memqueue.requests", "memqueue.busy_ps", "memqueue.wait_ps",
    "memqueue.max_wait_ps", "memqueue.self_s",
    "ports.rx_dropped", "ports.fifo_max_depth", "ports.self_s",
    "packetbuf.failures", "packetbuf.peak_in_use", "packetbuf.self_s",
    "chip.self_s",
    "apps.self_s", "apps.ipfwdr.self_s", "apps.nat.self_s",
    "apps.url.self_s", "apps.md4.self_s",
    "traffic.offered_packets", "traffic.self_s",
    "power.self_s",
    "dvs.windows", "dvs.transitions", "dvs.self_s",
    "trace.events_published", "trace.self_s",
    "loc.instances_checked", "loc.self_s",
    "packets_per_s",
    "orchestration.expand_s", "orchestration.reduce_s",
    "orchestration.ttfo_s", "orchestration.first_verdict_s",
    "orchestration.dispatch_s", "orchestration.self_s",
    "other.self_s", "profile.self_s", "profile.overhead_ratio",
    "failed_share", "sim_digest",
)

#: Timed set-up probes per run (after one that warms the bytecode cache).
SETUP_PROBES = 9
#: Fewest untraced rounds per run: the determinism check needs a repeat.
MIN_ROUNDS = 2
#: Seconds a set-up probe may take before it counts as failed.
PROBE_TIMEOUT_S = 60
#: Spin iterations per host-speed sample, and seconds between samples.
SAMPLE_OPS = 12_000
SAMPLE_PERIOD_S = 0.2
#: CPU seconds one sample takes on the reference host, which runs the
#: spin at 1.6M ops/s (an idle 2-core Intel Xeon cloud VM; compare
#: ``host.ops_per_s`` in the detail line).  Timed metrics are scaled to it.
REFERENCE_SAMPLE_S = SAMPLE_OPS / 1.6e6


#: ``prctl`` option: the signal a child gets when its parent ends (Linux).
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Make every process this one forks from now on die with it.

    Pool workers otherwise outlive a benchmark process that is killed.
    A no-op where ``prctl`` is missing.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    forker = [os.getpid()]

    def in_child() -> None:
        prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))
        if os.getppid() != forker[0]:  # the parent ended before prctl
            os._exit(1)

    os.register_at_fork(
        before=lambda: forker.__setitem__(0, os.getpid()), after_in_child=in_child
    )


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "sim_digest":
        return "id"
    if name == "profile.overhead_ratio":
        return "x"
    if name == "sim.events_per_s":
        return "1/s"
    if name == "packets_per_s":
        return "packets/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ps"):
        return "ps"
    if name.endswith(("_frac", "_share", "_ratio", "_share_max")):
        return "ratio"
    return "count"


def canon(obj) -> str:
    """Canonical JSON text (NaN-safe comparison of simulated records)."""
    return json.dumps(obj, sort_keys=True, default=str)


def _close(a, b) -> bool:
    """Structural equality with floats compared to a relative 1e-9."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and (
            math.isclose(a, b, rel_tol=1e-9) or (math.isnan(a) and math.isnan(b))
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


class Tally:
    """Attempted and failed runs, and the reference record of each config.

    A run fails when it raises, when its simulated record differs from
    an earlier run of the same config in this invocation (a repeat, or
    the same config with monitors on instead of off), or when a study
    check fails.  Monitor results are compared only between runs that
    both had monitors.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.reference: Dict[str, str] = {}

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)
        print(f"simbench: failed: {reason}", file=sys.stderr)

    def matches(self, key: str, record: Dict, tolerant: bool = False) -> bool:
        """Keep the first record per key; False when a later one differs.

        ``tolerant`` compares floats to a relative 1e-9 instead of
        exactly.  Runs with monitors on and off need it: monitors read
        the energy annotation, which settles the power integrals at
        extra instants, so power totals differ in the last bits.
        """
        base = {k: v for k, v in record.items() if k != "monitors"}
        first = self.reference.setdefault(key, canon(base))
        text = canon(base)
        same = first == text or (tolerant and _close(json.loads(first), json.loads(text)))
        if "monitors" in record:
            text = canon(record["monitors"])
            same = self.reference.setdefault(key + "#monitors", text) == text and same
        return same

    def attempt(self, key: str, fn, *args):
        """Call ``fn(*args)`` as one attempted run; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.fail(1, f"{key}: raised")
            return None

    def digest(self, keys: List[str]) -> str:
        """Digest of the reference records of ``keys``."""
        return layers.digest(
            [[key, self.reference.get(key), self.reference.get(key + "#monitors")] for key in keys]
        )


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spin(ops: int) -> int:
    """Integer arithmetic plus heap churn, the shape of ``repro.bench``'s
    host-calibration spin (and of the kernel's hot loop).

    A copy, not a call: the yardstick must not move when the program
    under measurement changes.
    """
    heap: List = []
    acc = 0
    for i in range(ops):
        acc = (acc * 33 + i) % 1_000_003
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
    return acc


class HostSpeed:
    """Samples how fast this host runs interpreter-bound code, meanwhile.

    Shared cloud hosts slow down and speed up by 2x within seconds, and
    the guest sees it as slower CPU, not as lost CPU.  A background
    thread times a short spin by its own CPU time every
    :data:`SAMPLE_PERIOD_S`; a timed window is divided by the mean
    slowdown sampled within it, which scales it to the reference host.
    The sampler costs the measured code about 4% of one core, the same
    on every run.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = time.thread_time()
            _spin(SAMPLE_OPS)
            self._samples.append(time.thread_time() - start)

    def mark(self) -> int:
        """A window start for :meth:`slowdown`."""
        return len(self._samples)

    def slowdown(self, since: int) -> float:
        """Mean slowdown against the reference host since ``since``.

        A window too short to hold a sample uses the latest one.
        """
        window = self._samples[since:] or self._samples[-1:]
        if not window:
            start = time.thread_time()
            _spin(SAMPLE_OPS)
            window = [time.thread_time() - start]
        return statistics.fmean(window) / REFERENCE_SAMPLE_S


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------
def setup_samples(args, tally: Tally, detail: Dict, speed: HostSpeed) -> List[float]:
    """Seconds from launching a fresh interpreter to its ``ready`` line,
    scaled to the reference host."""
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    samples = []
    for index in range(SETUP_PROBES + 1):
        tally.attempted += 1
        mark = speed.mark()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(HERE.parent)) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            try:
                code = probe.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                code = probe.wait()
        if line.strip() != b"ready" or code != 0:
            tally.fail(1, f"set-up probe exited {code} without a ready line")
        elif index:
            samples.append(elapsed / speed.slowdown(mark))
    detail["setup_samples_s"] = samples
    return samples


# ---------------------------------------------------------------------------
# Single-run workloads
# ---------------------------------------------------------------------------
def _run_config(config, monitored: bool, profiler=None):
    monitors = workloads.single_run_monitors(config, monitored)
    return workloads.simulate(config, monitors, profiler)


def single_run_workload(args, tally: Tally, detail: Dict) -> Dict[str, float]:
    monitored = args.workload == "saturated_apps"
    configs = workloads.single_run_configs(args.workload, args.seed)
    keys = [config.benchmark for config in configs]

    def one_round(profiler=None, monitors=monitored) -> Optional[List]:
        samples = []
        for key, config in zip(keys, configs):
            sample = tally.attempt(key, _run_config, config, monitors, profiler)
            if sample is None:
                return None
            if not tally.matches(key, sample[1], tolerant=monitors != monitored):
                tally.fail(1, f"{key}: simulated record differs from an earlier run")
            samples.append(sample)
        return samples

    rounds: List[List] = []
    scaled: List[float] = []  # round walls on the reference host
    setup: List[float] = []
    started, attempts = time.perf_counter(), 0
    wanted = args.seconds if args.trace == 0 else 0.0
    with HostSpeed() as speed:
        while attempts < MIN_ROUNDS or time.perf_counter() - started < wanted:
            attempts += 1
            mark = speed.mark()
            samples = one_round()
            if samples is not None:
                rounds.append(samples)
                scaled.append(sum(s[0] for s in samples) / speed.slowdown(mark))
        if args.trace == 0:
            setup = setup_samples(args, tally, detail, speed)
    # The same configs with monitors flipped must simulate identically.
    one_round(monitors=not monitored)

    cycles = sum(config.duration_cycles for config in configs)
    forwarded = [
        sum(s[1]["totals"]["forwarded_packets"] for s in samples) for samples in rounds
    ]
    detail["round_walls_s"] = [sum(s[0] for s in samples) for samples in rounds]
    detail["round_scaled_walls_s"] = scaled
    detail["sim_digest"] = tally.digest(keys)
    if rounds:
        detail["runs"] = {key: s[2] for key, s in zip(keys, rounds[0])}
        for samples in rounds[1:]:
            for key, sample in zip(keys, samples):
                if sample[2] != detail["runs"][key]:
                    tally.fail(1, f"{key}: count ledger differs between repeats")

    if args.trace == 0:
        return {
            "sim_cycles_per_s": median_of([cycles / wall for wall in scaled]),
            "study_wall_s": median_of(scaled),
            "setup_s": median_of(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    profiler = cProfile.Profile()
    traced = one_round(profiler)
    metrics: Dict[str, float] = {}
    if rounds and traced:
        metrics.update(layers.combine_ledgers(detail["runs"].values()))
        metrics["packets_per_s"] = median_of([f / w for f, w in zip(forwarded, scaled)])
        metrics["sim.events_per_s"] = metrics["sim.events"] / median_of(scaled)
        metrics.update(layers.fold_profile(pstats.Stats(profiler)))
        # Orchestration phases exist only in the study.
        for phase in ("expand_s", "reduce_s", "ttfo_s", "first_verdict_s", "dispatch_s"):
            metrics[f"orchestration.{phase}"] = 0.0
        metrics["profile.overhead_ratio"] = (
            sum(s[0] for s in traced) / median_of(detail["round_walls_s"])
        )
    return metrics


# ---------------------------------------------------------------------------
# The catalog study
# ---------------------------------------------------------------------------
def _study(spec, backend, tally: Tally, profiler=None) -> Optional[Dict]:
    """One full study; its timings and the policy map, all outputs checked.

    ``backend`` is ``"process"`` or an ``ExecutionBackend`` instance.
    """
    from repro.api import EventHooks
    from repro.studies.policymap import PolicyMap
    from repro.studies.report import render_json

    clock = time.perf_counter()
    jobs_by_scenario = spec.jobs_by_scenario()
    expand_s = time.perf_counter() - clock
    jobs = [job for _, scenario_jobs in jobs_by_scenario for job in scenario_jobs]
    tally.attempted += len(jobs)
    marks: Dict[str, float] = {}
    hooks = EventHooks(on_outcome=lambda _o: marks.setdefault("ttfo", time.perf_counter()))

    def on_verdict(_verdict) -> None:
        marks.setdefault("verdict", time.perf_counter())

    gc.collect()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        result = workloads.study_session(backend).study(
            spec, jobs_by_scenario=jobs_by_scenario, hooks=hooks,
            on_scenario_complete=on_verdict,
        )
    except Exception:
        traceback.print_exc()
        tally.fail(len(jobs), "study raised")
        return None
    finally:
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()

    clock = time.perf_counter()
    PolicyMap.build(spec, result.outcomes_by_scenario)
    reduce_s = time.perf_counter() - clock

    policy_map = result.policy_map
    missing = [
        name for name, _ in jobs_by_scenario
        if name not in policy_map.entries
        or (policy_map.entries[name].winner is None and policy_map.entries[name].fallback is None)
    ]
    if missing:
        tally.fail(len(jobs), f"study: no verdict for {missing}")
    elif not tally.matches("study", {"policy_map": render_json(policy_map)}):
        tally.fail(len(jobs), "study: policy map differs from an earlier study")
    forwarded = 0
    for _, outcomes in result.outcomes_by_scenario:
        for outcome in outcomes:
            forwarded += outcome.result.totals.forwarded_packets
            if not tally.matches(outcome.job_id, layers.outcome_record(outcome)):
                tally.fail(1, f"job {outcome.job_id}: record differs from an earlier run")
    return {
        "wall_s": wall,
        "expand_s": expand_s,
        "reduce_s": reduce_s,
        "ttfo_s": marks.get("ttfo", start) - start,
        "first_verdict_s": marks.get("verdict", start) - start,
        "cycles": spec.duration_cycles * len(jobs),
        "forwarded": forwarded,
        "job_ids": sorted({job.job_id for job in jobs}),
    }


def _check_monitors_off(jobs_by_scenario, tally: Tally) -> None:
    """Each scenario's first and last job, re-run without monitors."""
    for _, jobs in jobs_by_scenario:
        for job in (jobs[0], jobs[-1]):
            sample = tally.attempt(job.job_id, workloads.rerun_unmonitored, job)
            if sample is not None and not tally.matches(job.job_id, sample[1], tolerant=True):
                tally.fail(1, f"job {job.job_id}: monitors on and off disagree")


def catalog_workload(args, tally: Tally, detail: Dict) -> Dict[str, float]:
    spec = workloads.study_spec(args.seed)
    studies: List[Dict] = []
    started, attempts = time.perf_counter(), 0
    wanted = args.seconds if args.trace == 0 else 0.0
    minimum = MIN_ROUNDS if args.trace == 0 else 1
    setup: List[float] = []
    with HostSpeed() as speed:
        while attempts < minimum or time.perf_counter() - started < wanted:
            attempts += 1
            mark = speed.mark()
            study = _study(spec, "process", tally)
            if study is not None:
                study["scaled_s"] = study["wall_s"] / speed.slowdown(mark)
                studies.append(study)
        if args.trace == 0:
            setup = setup_samples(args, tally, detail, speed)
    _check_monitors_off(spec.jobs_by_scenario(), tally)
    scaled = [s["scaled_s"] for s in studies]
    detail["study_walls_s"] = [s["wall_s"] for s in studies]
    detail["study_scaled_walls_s"] = scaled
    if not studies:
        return {}
    job_ids = studies[0]["job_ids"]
    detail["sim_digest"] = tally.digest(["study"] + job_ids)

    if args.trace == 0:
        peak_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        return {
            "sim_cycles_per_s": median_of([s["cycles"] / s["scaled_s"] for s in studies]),
            "study_wall_s": median_of(scaled),
            "setup_s": median_of(setup),
            "peak_rss_mb": peak_kb / 1024.0,
        }

    # The traced study profiles this process (orchestration) and, on a
    # profiled pool, every job; the pool also reads each run's counts.
    # This process mostly waits for the pool, so its profile counts CPU
    # time: waiting is not self time.
    untraced = studies[0]
    backend = profiled.ProfiledPoolBackend(workloads.STUDY_WORKERS)
    profiler = cProfile.Profile(time.process_time)
    traced = _study(spec, backend, tally, profiler)
    metrics: Dict[str, float] = {}
    if traced is None or len(backend.ledgers) != len(job_ids):
        return metrics
    stats = pstats.Stats(profiler)
    stats.add(*(profiled.RawStats(table) for table in backend.profiles))
    metrics.update(layers.combine_ledgers(backend.ledgers[job_id] for job_id in job_ids))
    metrics["packets_per_s"] = untraced["forwarded"] / untraced["scaled_s"]
    metrics["sim.events_per_s"] = metrics["sim.events"] / untraced["scaled_s"]
    metrics.update(layers.fold_profile(stats))
    for name in ("expand_s", "reduce_s", "ttfo_s", "first_verdict_s"):
        metrics[f"orchestration.{name}"] = untraced[name]
    metrics["orchestration.dispatch_s"] = traced["wall_s"] - max(backend.run_job_s)
    metrics["profile.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    detail["traced_wall_s"] = traced["wall_s"]
    return metrics


# ---------------------------------------------------------------------------
# Result line
# ---------------------------------------------------------------------------
def run(args) -> int:
    from repro.bench import host_calibration

    die_with_parent()
    tally = Tally()
    detail: Dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host": host_calibration(),
    }
    if args.workload == "catalog_study":
        measured = catalog_workload(args, tally, detail)
    else:
        measured = single_run_workload(args, tally, detail)

    attempted = max(tally.attempted, 1)
    failed = min(tally.failed, attempted)
    if args.trace == 0:
        names, unit = list(END_TO_END), END_TO_END.get
    else:
        measured["failed_share"] = failed / attempted
        if "sim_digest" in detail:
            measured["sim_digest"] = layers.digest_number(detail["sim_digest"])
        names, unit = list(PER_LAYER), unit_of
    missing = [name for name in names if name not in measured]
    if missing:
        tally.fail(0, f"no measurement for {missing}")
    detail["failures"] = tally.reasons
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not tally.reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured.get(name, 0.0), "unit": unit(name)} for name in names
        },
    }))
    return 0
