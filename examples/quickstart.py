#!/usr/bin/env python3
"""Quickstart: simulate the NPU, attach LOC monitors, compare policies.

Runs the `ipfwdr` benchmark at a medium traffic sample three times — no
DVS, traffic-based DVS (TDVS) and execution-based DVS (EDVS) — with the
paper's power/throughput LOC formulas attached as live monitors, then
prints a side-by-side summary.

Run:  python examples/quickstart.py
"""

from repro import DvsConfig, RunConfig, TrafficConfig, run_simulation
from repro.loc import (
    build_monitor,
    power_distribution_formula,
    throughput_distribution_formula,
)

CYCLES = 1_600_000  # ~2.7 ms of simulated time at the 600 MHz reference
LOAD_MBPS = 1000.0


def simulate(policy: str):
    """Run one policy and return (result, power dist, throughput dist)."""
    power = build_monitor(power_distribution_formula(span=50))
    throughput = build_monitor(throughput_distribution_formula(span=50))
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=CYCLES,
        seed=7,
        traffic=TrafficConfig(offered_load_mbps=LOAD_MBPS),
        dvs=DvsConfig(
            policy=policy,
            window_cycles=40_000,
            top_threshold_mbps=1000.0,
            idle_threshold=0.10,
        )
        if policy != "none"
        else DvsConfig(policy="none"),
    )
    result = run_simulation(config, monitors=[power, throughput])
    return result, power.finish(), throughput.finish()


def main() -> None:
    print(f"ipfwdr at {LOAD_MBPS:.0f} Mbps offered, {CYCLES:,} reference cycles\n")
    baseline_power = None
    for policy in ("none", "tdvs", "edvs"):
        result, power, throughput = simulate(policy)
        totals = result.totals
        if baseline_power is None:
            baseline_power = totals.mean_power_w
        saving = 1.0 - totals.mean_power_w / baseline_power
        print(f"policy={policy:5s}  power={totals.mean_power_w:.3f} W "
              f"(saving {saving * 100:5.1f}%)  "
              f"throughput={totals.throughput_mbps:7.1f} Mbps  "
              f"loss={totals.loss_fraction * 100:.2f}%  "
              f"transitions={result.governor_transitions}")
        # The paper's 80%-level readouts (Figures 8/9 use exactly these):
        print(f"              80% of power samples below "
              f"{power.level_cutoff(0.8):.3f} W; 80% of throughput samples "
              f"above {throughput.level_cutoff(0.8):.0f} Mbps")
    print("\nPer-ME view of the last run (EDVS):")
    for me in result.totals.me_summaries:
        print(f"  ME{me.index} ({me.role})  freq={me.freq_mhz:.0f} MHz  "
              f"busy={me.busy_fraction * 100:4.1f}%  "
              f"idle={me.idle_fraction * 100:4.1f}%")


if __name__ == "__main__":
    main()
