"""Diurnal traffic-rate model (the paper's Figure 2 substitute).

The paper samples a day of NLANR edge-router traffic and plots, per time
bucket, the max/median/min observed throughput — a mid-day swell from
roughly 10 Mbit/s overnight to bursts above 200 Mbit/s in the afternoon.
:class:`DiurnalModel` synthesizes a rate profile with that shape:

* a smooth base curve — low overnight, rising through the morning,
  peaking early afternoon (sum of two raised cosines);
* lognormal short-timescale variation around the base, giving the
  max/med/min envelope when many sub-samples fall in one bucket.

The paper: "It is obviously too expensive to simulate the entire day ...
We sample a few seconds of real traffic in high, medium and low arriving
rates as individual inputs to the simulator."  :data:`LEVEL_LOADS_MBPS`
holds those three inputs, one load per level, in the NPU's regime: the
paper's NPU is driven well above the sampled router's absolute rates
(its throughput axes reach 1400 Mbps).  Every figure and every named
level (``TrafficConfig(level=...)``, a sweep's ``level:`` token) offers
these loads.  The catalog's diurnal replays scale the day curve itself
into the same regime (:mod:`repro.scenarios.catalog`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import TrafficError
from repro.sim.rng import RngStreams

SECONDS_PER_DAY = 86_400.0

#: Offered load (Mbps) of each named traffic level.  ``high`` is the
#: near-saturation sample the TDVS/EDVS sweeps use; ``med``/``low``
#: match the medium/low samples of Figure 11.
LEVEL_LOADS_MBPS: Dict[str, float] = {"low": 400.0, "med": 1000.0, "high": 1550.0}


@dataclass
class DiurnalBucket:
    """Aggregated rate statistics for one time-of-day bucket."""

    start_s: float
    min_bps: float
    med_bps: float
    max_bps: float

    @property
    def label(self) -> str:
        """``HH:MM`` label of the bucket start."""
        minutes = int(self.start_s // 60) % (24 * 60)
        return f"{minutes // 60:02d}:{minutes % 60:02d}"


class DiurnalModel:
    """Synthetic one-day rate profile with a configurable peak.

    Parameters
    ----------
    night_bps:
        Base rate in the overnight trough.
    peak_bps:
        Mean rate at the mid-afternoon peak.
    peak_hour:
        Hour of day (0-24) where the smooth curve peaks.
    sigma:
        Lognormal sigma of the short-timescale variation.
    seed:
        Root seed for the variation stream.
    """

    def __init__(
        self,
        night_bps: float = 1.0e7,
        peak_bps: float = 2.0e8,
        peak_hour: float = 14.0,
        sigma: float = 0.35,
        seed: int = 2005,
    ):
        if night_bps <= 0 or peak_bps <= night_bps:
            raise TrafficError(
                f"need 0 < night_bps < peak_bps, got {night_bps}, {peak_bps}"
            )
        if not 0.0 <= peak_hour < 24.0:
            raise TrafficError(f"peak_hour must be in [0, 24), got {peak_hour}")
        if sigma < 0:
            raise TrafficError(f"sigma must be non-negative, got {sigma}")
        self.night_bps = night_bps
        self.peak_bps = peak_bps
        self.peak_hour = peak_hour
        self.sigma = sigma
        self._rng = RngStreams(seed).get("diurnal")

    # ------------------------------------------------------------------
    # Smooth base curve
    # ------------------------------------------------------------------
    def base_rate_bps(self, time_of_day_s: float) -> float:
        """The deterministic mean rate at a time of day (seconds)."""
        hours = (time_of_day_s / 3600.0) % 24.0
        # Primary raised cosine centered on the peak hour (working day),
        # plus a smaller evening shoulder two hours after the peak.
        main = _raised_cosine(hours, center=self.peak_hour, width=9.0)
        shoulder = 0.35 * _raised_cosine(hours, center=self.peak_hour + 4.0, width=5.0)
        shape = min(1.0, main + shoulder)
        return self.night_bps + (self.peak_bps - self.night_bps) * shape

    def instantaneous_rate_bps(self, time_of_day_s: float) -> float:
        """Base rate with lognormal short-timescale variation applied."""
        noise = math.exp(self._rng.gauss(0.0, self.sigma) - self.sigma**2 / 2.0)
        return self.base_rate_bps(time_of_day_s) * noise

    # ------------------------------------------------------------------
    # Figure 2 reproduction
    # ------------------------------------------------------------------
    def sample_day(
        self,
        bucket_s: float = 300.0,
        samples_per_bucket: int = 30,
        start_s: float = 0.0,
        end_s: float = SECONDS_PER_DAY,
    ) -> List[DiurnalBucket]:
        """Sample the day and aggregate max/median/min per bucket.

        This is exactly the reduction behind the paper's Figure 2 plot.
        """
        if bucket_s <= 0:
            raise TrafficError(f"bucket_s must be positive, got {bucket_s}")
        if samples_per_bucket < 1:
            raise TrafficError("samples_per_bucket must be at least 1")
        if end_s <= start_s:
            raise TrafficError("end_s must exceed start_s")
        buckets: List[DiurnalBucket] = []
        t = start_s
        while t < end_s:
            samples = sorted(
                self.instantaneous_rate_bps(t + k * bucket_s / samples_per_bucket)
                for k in range(samples_per_bucket)
            )
            buckets.append(
                DiurnalBucket(
                    start_s=t,
                    min_bps=samples[0],
                    med_bps=samples[len(samples) // 2],
                    max_bps=samples[-1],
                )
            )
            t += bucket_s
        return buckets


def _raised_cosine(hours: float, center: float, width: float) -> float:
    """A single hump: 1 at ``center``, 0 outside ``center ± width`` hours."""
    distance = abs(hours - center)
    distance = min(distance, 24.0 - distance)  # wrap around midnight
    if distance >= width:
        return 0.0
    return 0.5 * (1.0 + math.cos(math.pi * distance / width))
