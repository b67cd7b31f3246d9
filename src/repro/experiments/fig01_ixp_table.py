"""Figure 1: power and performance of the Intel IXP NPU family.

Prints the paper's reference table, plus the reproduction model's own
configured operating point for context (the model is an IXP1200-derived
chip scaled to 600 MHz as in the paper's experiments).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.config import NpuConfig
from repro.experiments.registry import ExperimentResult, register
from repro.power.tables import IXP_FAMILY


@register("fig01", "IXP family power/performance table", "Figure 1")
def run(profile: str, session) -> ExperimentResult:
    """Render Figure 1 (static reference data; profile is ignored)."""
    headers = (
        "Description",
        "Performance(MIPS)",
        "Media Bandwidth(Gbps)",
        "Frequency of ME(MHz)",
        "Number of MEs",
        "Power(W)",
    )
    rows = [
        (
            point.name,
            point.performance_mips,
            point.media_bandwidth_gbps,
            point.me_frequency_mhz,
            point.num_mes,
            point.power_w,
        )
        for point in IXP_FAMILY
    ]
    npu = NpuConfig()
    rows.append(
        (
            "this model",
            int(npu.num_microengines * npu.me_freq_max_hz / 1e6),
            round(npu.num_ports * npu.port_rate_bps / 1e9, 1),
            int(npu.me_freq_max_hz / 1e6),
            npu.num_microengines,
            "~1.5 (measured)",
        )
    )
    text = format_table(headers, rows, title="Figure 1: Intel IXP NPU family")
    return ExperimentResult(
        "fig01",
        text,
        data={"rows": rows},
    )
