"""Figure 2: example IP packet distribution over a day.

Reproduces the paper's NLANR edge-router plot — max/median/min observed
throughput per time-of-day bucket across the daytime window the paper
shows (9:47 to 16:43).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.registry import ExperimentResult, register
from repro.traffic.diurnal import DiurnalModel


@register("fig02", "Diurnal IP traffic distribution", "Figure 2")
def run(profile: str, session) -> ExperimentResult:
    """Sample a synthetic day and render the max/med/min series."""
    model = DiurnalModel()
    start_s = 9 * 3600 + 47 * 60
    end_s = 16 * 3600 + 43 * 60
    samples = 30 if profile != "bench" else 8
    buckets = model.sample_day(
        bucket_s=300.0, samples_per_bucket=samples, start_s=start_s, end_s=end_s
    )
    shown = buckets[:: max(1, len(buckets) // 18)]
    rows = [
        (
            bucket.label,
            f"{bucket.max_bps / 1e6:.1f}",
            f"{bucket.med_bps / 1e6:.1f}",
            f"{bucket.min_bps / 1e6:.1f}",
        )
        for bucket in shown
    ]
    text = format_table(
        ("Time", "Max (Mbit/s)", "Med (Mbit/s)", "Min (Mbit/s)"),
        rows,
        title="Figure 2: day-time packet-rate distribution (synthetic NLANR-like)",
    )
    peak = max(bucket.max_bps for bucket in buckets)
    trough = min(bucket.min_bps for bucket in buckets)
    return ExperimentResult(
        "fig02",
        text,
        data={
            "buckets": [
                (b.start_s, b.min_bps, b.med_bps, b.max_bps) for b in buckets
            ],
            "peak_bps": peak,
            "trough_bps": trough,
        },
    )
