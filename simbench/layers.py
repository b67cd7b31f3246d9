"""Per-layer measurements: the deterministic count ledger and cProfile
self time folded into layers named after the simulator's modules.

Everything here reads the simulator from outside: public attributes of
a finished :class:`repro.runner.SimulationRun` for the counts, and the
``pstats`` table of a profiled run for host self time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pstats
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Count metrics summed over the runs of a workload.
SUMMED = (
    "sim.events",
    "microengine.missed_polls",
    "microengine.packets",
    "microengine.instructions",
    "memqueue.requests",
    "memqueue.busy_ps",
    "memqueue.wait_ps",
    "ports.rx_dropped",
    "packetbuf.failures",
    "traffic.offered_packets",
    "dvs.windows",
    "dvs.transitions",
    "trace.events_published",
    "loc.instances_checked",
)

#: Count metrics combined by maximum (high-water marks).
MAXED = ("memqueue.max_wait_ps", "ports.fifo_max_depth", "packetbuf.peak_in_use")

#: Per-ME state fractions, averaged over every ME of every run (all runs
#: of one workload simulate the same number of cycles).
FRACTIONS = ("microengine.busy_frac", "microengine.stalled_frac", "microengine.idle_frac")

#: Layers whose host self time the traced run reports, in output order.
LAYERS = (
    "sim",
    "microengine",
    "memqueue",
    "ports",
    "packetbuf",
    "chip",
    "apps",
    "traffic",
    "power",
    "dvs",
    "trace",
    "loc",
    "orchestration",
    "other",
)

#: Applications with their own self-time row (module stem -> app).
APP_MODULES = {
    "ipfwdr": "ipfwdr",
    "nat": "nat",
    "nat_table": "nat",
    "url": "url",
    "md4": "md4",
    "md4_core": "md4",
}
APPS = ("ipfwdr", "nat", "url", "md4")

#: ``repro`` sub-packages and modules -> layer.  Modules not listed here
#: (``units``, ``errors``, ...) are helpers: their time goes to whichever
#: layer called them, like the standard library's.
_PACKAGE_LAYER = {
    "sim": "sim",
    "apps": "apps",
    "traffic": "traffic",
    "scenarios": "traffic",
    "power": "power",
    "dvs": "dvs",
    "trace": "trace",
    "loc": "loc",
    "api": "orchestration",
    "sweep": "orchestration",
    "studies": "orchestration",
    "backends": "orchestration",
    "obs": "orchestration",
    "experiments": "orchestration",
    "runner.py": "orchestration",
    "config.py": "orchestration",
    "bench.py": "orchestration",
}
_NPU_LAYER = {
    "microengine.py": "microengine",
    "memqueue.py": "memqueue",
    "memstore.py": "memqueue",
    "ports.py": "ports",
    "fifo.py": "ports",
    "packetbuf.py": "packetbuf",
    "chip.py": "chip",
    # Step objects are built by the applications' step streams, and the
    # instruction-level interpreter runs the microcoded applications.
    "steps.py": "apps",
    "interpreter.py": "apps",
    "isa.py": "apps",
    "assembler.py": "apps",
}


# ---------------------------------------------------------------------------
# Count ledger
# ---------------------------------------------------------------------------
def run_ledger(run, monitor_results: Sequence = ()) -> Dict[str, float]:
    """Counts of one finished :class:`SimulationRun`, from public attributes.

    ``monitor_results`` are the run's LOC results (``CheckResult`` /
    ``DistributionResult``), which give the instances checked.
    """
    chip = run.chip
    mes = chip.mes
    memories = list(chip.memories.values())
    fifo_depths = [port.rx_queue.max_depth for port in chip.ports.ports]
    fifo_depths += [ring.max_depth for ring in chip.tx_rings]
    instances = sum(
        getattr(result, "instances_checked", None) or getattr(result, "total", 0)
        for result in monitor_results
    )
    summaries = chip.totals().me_summaries
    governor = run.governor
    return {
        "sim.events": run.sim.events_executed,
        "microengine.missed_polls": sum(me.polls for me in mes),
        "microengine.packets": sum(me.packets_processed for me in mes),
        "microengine.instructions": sum(me.instructions_executed for me in mes),
        "microengine.busy_frac": sum(s.busy_fraction for s in summaries) / len(summaries),
        "microengine.stalled_frac": sum(s.stalled_fraction for s in summaries) / len(summaries),
        "microengine.idle_frac": sum(s.idle_fraction for s in summaries) / len(summaries),
        "memqueue.requests": sum(m.requests for m in memories),
        "memqueue.busy_ps": sum(m.busy_ps for m in memories),
        "memqueue.wait_ps": sum(m.total_wait_ps for m in memories),
        "memqueue.max_wait_ps": max(m.max_wait_ps for m in memories),
        "ports.rx_dropped": chip.ports.rx_dropped,
        "ports.fifo_max_depth": max(fifo_depths),
        "packetbuf.failures": chip.buffer_pool.failures,
        "packetbuf.peak_in_use": chip.buffer_pool.peak_in_use,
        "traffic.offered_packets": chip.offered_packets,
        "dvs.windows": governor.windows_evaluated if governor else 0,
        "dvs.transitions": governor.transitions if governor else 0,
        "trace.events_published": run.bus.events_published,
        "loc.instances_checked": instances,
    }


def combine_ledgers(ledgers: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Fold per-run ledgers into one workload ledger plus derived ratios."""
    ledgers = list(ledgers)
    out: Dict[str, float] = {}
    for key in SUMMED:
        out[key] = sum(ledger[key] for ledger in ledgers)
    for key in MAXED:
        out[key] = max(ledger[key] for ledger in ledgers)
    for key in FRACTIONS:
        out[key] = sum(ledger[key] for ledger in ledgers) / len(ledgers)
    missed, packets, events = (
        out["microengine.missed_polls"], out["microengine.packets"], out["sim.events"]
    )
    out["microengine.missed_poll_share"] = missed / events if events else 0.0
    out["microengine.missed_poll_share_max"] = max(
        ledger["microengine.missed_polls"] / ledger["sim.events"] if ledger["sim.events"] else 0.0
        for ledger in ledgers
    )
    out["microengine.poll_hit_ratio"] = packets / (packets + missed) if packets + missed else 0.0
    return out


# ---------------------------------------------------------------------------
# Simulated-statistics digest
# ---------------------------------------------------------------------------
def jsonable(obj):
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return obj


def result_record(result) -> Dict:
    """Everything a run simulated, as a JSON-able dict.

    Host-independent and observer-independent: the same config gives
    the same record on any host, with monitors on or off (the monitor
    verdicts are recorded separately, under ``"monitors"``).
    """
    return {
        "totals": dataclasses.asdict(result.totals),
        "governor_transitions": result.governor_transitions,
        "governor_windows": result.governor_windows,
        "dvs_overhead_w": result.dvs_overhead_w,
    }


def outcome_monitor_results(outcome) -> List:
    """A study outcome's LOC results, in the order the job attached them."""
    return [outcome.power_dist, outcome.throughput_dist, *outcome.check_results]


def outcome_record(outcome) -> Dict:
    """A study outcome's record, in the form :func:`workloads.simulate` gives."""
    record = result_record(outcome.result)
    record["monitors"] = [jsonable(r) for r in outcome_monitor_results(outcome)]
    return record


def digest(records: Sequence) -> str:
    """sha256 over the canonical JSON of simulated records."""
    payload = json.dumps(list(records), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_number(hex_digest: str) -> int:
    """The digest's first 52 bits: exact as a JSON number."""
    return int(hex_digest[:13], 16)


# ---------------------------------------------------------------------------
# cProfile self time by layer
# ---------------------------------------------------------------------------
_Key = Tuple[str, int, str]


def _direct_layer(key: _Key) -> Optional[str]:
    """The layer a frame belongs to by its own file, or ``None``."""
    filename, _line, name = key
    if filename == "~":
        return "sim" if "_heapq." in name else None
    if filename.startswith("<loc-"):
        # Compiled LOC monitor and tap closures (repro.loc.codegen).
        return "loc"
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split("/")
    if parts[0] == "npu" and len(parts) > 1:
        return _NPU_LAYER.get(parts[1])
    return _PACKAGE_LAYER.get(parts[0])


def _app_row(key: _Key) -> Optional[str]:
    path = key[0].replace("\\", "/")
    if "/repro/apps/" not in path:
        return None
    stem = path.rsplit("/", 1)[-1][:-3]
    return APP_MODULES.get(stem)


def fold_profile(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer (``<layer>.self_s``) from a ``pstats`` table.

    Frames of ``repro`` modules go to their layer; ``heapq`` builtins go
    to ``sim`` and compiled monitor closures to ``loc``.  Standard-library
    and builtin frames, and ``repro`` helper modules, go to the layers
    that called them, split by the time each caller accounts for.  What
    no layer called (interpreter start-up, this harness) is ``other``.
    Per-application rows ``apps.<app>.self_s`` split out the application
    modules' own frames.
    """
    table = stats.stats  # type: ignore[attr-defined]
    memo: Dict[_Key, Dict[str, float]] = {}
    active = set()

    def shares(key: _Key) -> Dict[str, float]:
        if key in memo:
            return memo[key]
        layer = _direct_layer(key)
        if layer is not None:
            memo[key] = {layer: 1.0}
            return memo[key]
        active.add(key)
        callers = {
            caller: entry
            for caller, entry in (table[key][4] if key in table else {}).items()
            if caller not in active  # skip recursive edges
        }
        # Weight callers by the time this frame spent on their behalf, or
        # by call counts when no time was measured.
        weights = {caller: entry[2] for caller, entry in callers.items()}
        if not sum(weights.values()):
            weights = {caller: entry[1] for caller, entry in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in shares(caller).items():
                result[name] = result.get(name, 0.0) + share * weight / total
        active.discard(key)
        memo[key] = result or {"other": 1.0}
        return memo[key]

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"apps.{app}.self_s": 0.0 for app in APPS})
    for key, (_cc, _nc, tt, _ct, _callers) in table.items():
        for layer, share in shares(key).items():
            out[f"{layer}.self_s"] += tt * share
        app = _app_row(key)
        if app is not None:
            out[f"apps.{app}.self_s"] += tt
    out["profile.self_s"] = sum(entry[2] for entry in table.values())
    return out
