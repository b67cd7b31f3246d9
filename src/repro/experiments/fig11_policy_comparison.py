"""Figure 11: noDVS / EDVS / TDVS power comparison.

All four benchmarks at the low/medium/high traffic samples, each policy
at its optimal configuration from the Section 4.1/4.2 analyses (TDVS:
1400 Mbps top threshold, 40k window — the power-first pick; EDVS: 10 %
idle threshold, 40k window).  Expected qualitative outcomes:

* TDVS saves more power than EDVS overall;
* TDVS savings shrink as traffic volume rises, EDVS stays steady;
* `nat` sees ~no EDVS savings (no memory accesses to idle on);
* memory-intensive benchmarks benefit most from EDVS;
* EDVS throughput loss ~none, TDVS within a few percent.
"""

from __future__ import annotations

from repro.analysis.compare import PolicyComparison, PolicyOutcome
from repro.config import DvsConfig
from repro.experiments.common import instrumented_job
from repro.experiments.registry import ExperimentResult, register

BENCHMARKS = ("ipfwdr", "url", "nat", "md4")
LEVELS = ("low", "med", "high")

#: Optimal configurations carried over from the design-space analyses.
TDVS_OPTIMAL = DvsConfig(policy="tdvs", window_cycles=40_000, top_threshold_mbps=1400.0)
EDVS_OPTIMAL = DvsConfig(policy="edvs", window_cycles=40_000, idle_threshold=0.10)

#: The policy axis, in render order.
POLICY_POINTS = (
    ("none", None),
    ("edvs", EDVS_OPTIMAL),
    ("tdvs", TDVS_OPTIMAL),
)


def build_comparison(profile: str, session) -> PolicyComparison:
    """Run the full 4 x 3 x 3 grid through ``session``."""
    cells = [
        (benchmark, level, policy, dvs)
        for benchmark in BENCHMARKS
        for level in LEVELS
        for policy, dvs in POLICY_POINTS
    ]
    jobs = [
        instrumented_job(profile, benchmark=benchmark, level=level, dvs=dvs)
        for benchmark, level, _policy, dvs in cells
    ]
    outcomes = session.sweep(jobs)
    comparison = PolicyComparison(BENCHMARKS, LEVELS)
    for (benchmark, level, policy, _dvs), outcome in zip(cells, outcomes):
        comparison.add(
            benchmark,
            level,
            PolicyOutcome(
                policy=policy,
                mean_power_w=outcome.result.mean_power_w,
                throughput_mbps=outcome.result.throughput_mbps,
                loss_fraction=outcome.result.totals.loss_fraction,
                power_distribution=outcome.power_dist,
            ),
        )
    return comparison


@register("fig11", "Policy comparison across benchmarks/traffic", "Figure 11")
def run(profile: str, session) -> ExperimentResult:
    """Run the comparison grid and render the panel."""
    comparison = build_comparison(profile, session)
    text = comparison.render(
        title="Figure 11: power comparison, optimal configs (vs. noDVS)"
    )
    data = {
        "tdvs_savings": {
            b: comparison.tdvs_savings_by_level(b) for b in BENCHMARKS
        },
        "edvs_savings": {
            b: comparison.edvs_savings_by_level(b) for b in BENCHMARKS
        },
    }
    return ExperimentResult("fig11", text, data=data)
