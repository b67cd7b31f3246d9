"""Extension experiments beyond the paper's figures.

``abl-combined``
    The combined TDVS+EDVS governor the paper declined for monitor-cost
    reasons (Section 4: "monitoring both traffic load and processor
    idle time on a chip is expensive").  Measures all four policies at
    the same operating point *including the monitor-hardware overhead*,
    so the cost objection is quantified instead of assumed.

``formula1``
    The paper's formula (1) — the forwarding-latency distribution
    ``time(forward[i+100]) - time(forward[i]) in <40, 80, 5>`` — is
    introduced as the methodology example but never plotted; this
    harness evaluates it on the model (with the analysis window
    re-centred on the measured latency scale).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import EXPERIMENT_SEED, DvsConfig, RunConfig, TrafficConfig
from repro.experiments.common import cycles_for, instrumented_job, span_for
from repro.experiments.registry import ExperimentResult, register
from repro.loc.builtin import forwarding_latency_formula
from repro.loc.monitor import build_monitor
from repro.runner import run_simulation

#: The policies ``abl-combined`` compares, in render order.
COMBINED_POLICIES = ("none", "tdvs", "edvs", "combined")


@register("abl-combined", "Combined TDVS+EDVS governor", "Section 4 (declined)")
def run_combined(profile: str, session) -> ExperimentResult:
    """All four policies at the high traffic sample, with monitor cost."""
    jobs = [
        instrumented_job(
            profile,
            level="high",
            dvs=DvsConfig(
                policy=policy,
                window_cycles=40_000,
                top_threshold_mbps=1400.0,
                idle_threshold=0.10,
            )
            if policy != "none"
            else None,
        )
        for policy in COMBINED_POLICIES
    ]
    rows = []
    data = {}
    for policy, outcome in zip(COMBINED_POLICIES, session.sweep(jobs)):
        result = outcome.result
        overhead_mw = result.dvs_overhead_w * 1e3
        rows.append(
            (
                policy,
                f"{result.mean_power_w:.3f}",
                f"{result.throughput_mbps:.0f}",
                f"{result.totals.loss_fraction * 100:.1f}%",
                result.governor_transitions,
                f"{overhead_mw:.2f}",
            )
        )
        data[policy] = {
            "power_w": result.mean_power_w,
            "throughput_mbps": result.throughput_mbps,
            "transitions": result.governor_transitions,
            "overhead_w": result.dvs_overhead_w,
        }
    text = format_table(
        ("policy", "power (W)", "thr (Mbps)", "loss", "transitions",
         "monitor mW"),
        rows,
        title=(
            "Extension: combined TDVS+EDVS vs. the single policies "
            "(ipfwdr, high traffic)"
        ),
    )
    return ExperimentResult("abl-combined", text, data=data)


@register("formula1", "Forwarding-latency distribution", "Formula (1)")
def run_formula1(profile: str, session) -> ExperimentResult:
    """Evaluate formula (1) over a no-DVS run.

    The paper's illustrative triple <40, 80, 5> (us per 100 packets)
    belongs to its testbed's latency scale; the harness keeps the
    formula shape and span but widens the analysis range to bracket the
    model's measured scale, then reports both.

    This run stays a direct :func:`~repro.runner.run_simulation` call
    outside the session: it needs a formula (1) distribution monitor,
    and a :class:`~repro.sweep.spec.Job` carries only its span's
    formulas (2)/(3) and checker formulas.
    """
    span = span_for(profile)
    monitor = build_monitor(
        forwarding_latency_formula(span=span, low=0.0, high=1000.0, step=10.0),
        expect="distribution",
    )
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=cycles_for(profile),
        seed=EXPERIMENT_SEED,
        traffic=TrafficConfig(level="med", offered_load_mbps=None),
    )
    run_simulation(config, monitors=[monitor])
    result = monitor.finish()
    text = (
        f"Formula (1): time(forward[i+{span}]) - time(forward[i])  "
        "in <0, 1000, 10>  (us)\n\n" + result.report(max_rows=14)
    )
    return ExperimentResult(
        "formula1",
        text,
        data={
            "mean_us": result.mean,
            "min_us": result.value_min,
            "max_us": result.value_max,
            "instances": result.total,
        },
    )
