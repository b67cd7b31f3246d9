"""Benches for the TDVS design-space artifacts: Figures 6-9.

The 17-simulation grid is primed by the session fixture (untimed) in
the store of the session it returns; the benches run each figure
through that session, so they time reading the grid back from the
store plus the per-figure analysis/rendering, and assert the paper's
qualitative shape.
"""

from repro.config import TDVS_THRESHOLDS_MBPS

from conftest import PROFILE, run_once


def test_fig06_tdvs_power_distributions(benchmark, design_grid):
    result = run_once(benchmark, design_grid.experiment, "fig06", PROFILE)
    print(result.text)
    powers = result.data["mean_power_w"]
    baseline = powers[(None, None)]
    # Every TDVS design point saves power vs. noDVS.
    assert all(
        power < baseline for key, power in powers.items() if key != (None, None)
    )
    # Smaller windows scale more aggressively -> lower power.
    for threshold in TDVS_THRESHOLDS_MBPS:
        assert powers[(threshold, 20_000)] < powers[(threshold, 80_000)]


def test_fig07_tdvs_throughput_distributions(benchmark, design_grid):
    result = run_once(benchmark, design_grid.experiment, "fig07", PROFILE)
    print(result.text)
    throughput = result.data["throughput_mbps"]
    # The 20k window pays for its power savings with throughput.
    assert throughput[(1400.0, 20_000)] < throughput[(1400.0, 80_000)]


def test_fig08_power_surface(benchmark, design_grid):
    result = run_once(benchmark, design_grid.experiment, "fig08", PROFILE)
    print(result.text)
    grid = result.data["grid"]
    # The 1000 Mbps threshold row (index 1) keeps the highest power at
    # large windows — it tracks the offered load and stays fast.
    assert grid[1][-1] == max(row[-1] for row in grid)


def test_fig09_throughput_surface(benchmark, design_grid):
    result = run_once(benchmark, design_grid.experiment, "fig09", PROFILE)
    print(result.text)
    grid = result.data["grid"]
    # For the load-tracking 1000 Mbps threshold, larger windows never
    # perform worse than the penalty-heavy 20k window.
    assert grid[1][-1] >= grid[1][0]
    # Power-first and performance-first picks differ (the trade-off).
    assert result.data["argmax"][:2] != design_grid.experiment(
        "fig08", PROFILE
    ).data["argmin"][:2]
