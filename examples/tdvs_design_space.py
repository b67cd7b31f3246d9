#!/usr/bin/env python3
"""TDVS design-space exploration (the paper's Section 4.1 workflow).

Sweeps the traffic threshold x window-size grid for `ipfwdr` at a high
traffic sample, extracts the 80%-level power and throughput values from
the auto-generated LOC distribution analyzers, prints both surfaces, and
reads off the power-first and performance-first design points — exactly
how the paper's Figures 8/9 are used.

The three steps share one session with an in-memory result store, so
the 17-simulation grid runs once and the two surfaces read it back.

Run:  python examples/tdvs_design_space.py        (quick, ~1 minute)
      python examples/tdvs_design_space.py paper  (full 8M-cycle runs)
"""

import sys

from repro.analysis.report import format_surface
from repro.api import Session, StorePolicy
from repro.experiments.common import tdvs_design_space
from repro.experiments.fig08_power_surface import build_power_surface, surface_optimum
from repro.experiments.fig09_throughput_surface import build_throughput_surface
from repro.sweep import ResultStore


def main() -> None:
    profile = sys.argv[1] if len(sys.argv) > 1 else "quick"
    session = Session(store=StorePolicy(store=ResultStore()))
    print(f"running the 17-simulation design grid (profile={profile}) ...")
    grid = tdvs_design_space(profile, session)
    baseline = grid[(None, None)]
    print(f"no-DVS baseline: {baseline.result.mean_power_w:.3f} W, "
          f"{baseline.result.throughput_mbps:.0f} Mbps\n")

    power_surface = build_power_surface(profile, session)
    print(format_surface(
        power_surface.row_values, power_surface.col_values, power_surface.grid(),
        row_label="thr Mbps", col_label="window",
        title="Power (W) at the 80% CDF level  [Figure 8]",
    ))
    print()
    throughput_surface = build_throughput_surface(profile, session)
    print(format_surface(
        throughput_surface.row_values, throughput_surface.col_values,
        throughput_surface.grid(),
        row_label="thr Mbps", col_label="window",
        title="Throughput (Mbps) at the 80% CCDF level  [Figure 9]",
    ))

    thr_p, win_p, val_p = surface_optimum(power_surface, "min")
    thr_t, win_t, val_t = surface_optimum(throughput_surface, "max")
    print(f"\npower-first pick      : threshold {thr_p:.0f} Mbps, "
          f"window {win_p} cycles ({val_p:.3f} W)")
    print(f"performance-first pick: threshold {thr_t:.0f} Mbps, "
          f"window {win_t} cycles ({val_t:.0f} Mbps)")


if __name__ == "__main__":
    main()
