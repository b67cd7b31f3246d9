"""Figure 5: the detailed VF scaling values.

The ladder of frequency/voltage pairs and the frequency-proportional
TDVS traffic thresholds for the 1000 Mbps top threshold — the paper's
exact table (1000, 916, 833, 750, 666 Mbps).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import NpuConfig
from repro.dvs.vf_table import VfTable
from repro.experiments.registry import ExperimentResult, register


@register("fig05", "VF ladder and traffic thresholds", "Figure 5")
def run(profile: str, session) -> ExperimentResult:
    """Render the scaling table (static; profile ignored)."""
    table = VfTable.from_config(NpuConfig())
    rows = table.scaling_table(top_threshold_mbps=1000.0)
    text = format_table(
        ("Frequency (MHz)", "Voltage (V)", "Traffic Threshold (Mbps)"),
        [(f"{f:.0f}", f"{v:.2f}", f"{t:.0f}") for f, v, t in rows],
        title="Figure 5: detailed scaling values (top threshold 1000 Mbps)",
    )
    return ExperimentResult("fig05", text, data={"rows": rows})
