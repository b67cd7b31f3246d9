"""Declarative traffic scenarios.

A :class:`Scenario` is a named, documented workload: an ordered sequence
of :class:`ScenarioSegment` phases that together span one simulation run.
Each segment holds a share of the run's duration (``weight``), an offered
load, an arrival process and a packet-size mix.

Every run plays a scenario: a :class:`~repro.config.RunConfig` either
references a catalog entry by name (``TrafficConfig(scenario=
"flash_crowd", ...)``), which makes scenarios the workload axis of the
sweep engine (:mod:`repro.sweep`), or sets the single-rate fields, which
the runner turns into a one-segment scenario
(:func:`repro.runner.traffic_scenario`).  :meth:`Scenario.phases` is
what a :class:`~repro.traffic.generator.TrafficSource` plays.  The
built-in catalog lives in :mod:`repro.scenarios.catalog`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Tuple

from repro.errors import TrafficError
from repro.traffic.arrivals import ArrivalProcess, arrival_process
from repro.traffic.sizes import SIZE_MIXES, PacketSizeMix

_PROCESSES = ("poisson", "cbr", "mmpp")


@dataclass(frozen=True)
class ScenarioSegment:
    """One phase of a scenario.

    Attributes
    ----------
    weight:
        This segment's share of the run duration.  Weights are relative;
        the scenario normalizes them, so ``(1, 2, 1)`` splits a run
        25/50/25.
    offered_load_mbps:
        Mean offered load during the segment.
    process:
        Arrival process (``poisson``/``cbr``/``mmpp``).
    burst_ratio / burst_fraction:
        MMPP shape parameters (ignored by other processes).
    size_mix:
        Packet-size mix active during the segment.
    """

    weight: float
    offered_load_mbps: float
    process: str = "mmpp"
    burst_ratio: float = 4.0
    burst_fraction: float = 0.3
    size_mix: str = "imix"

    def validate(self) -> None:
        """Raise :class:`TrafficError` on inconsistent settings."""
        if self.weight <= 0:
            raise TrafficError(f"segment weight must be positive, got {self.weight}")
        if self.offered_load_mbps <= 0:
            raise TrafficError(
                f"segment load must be positive, got {self.offered_load_mbps}"
            )
        if self.process not in _PROCESSES:
            raise TrafficError(
                f"unknown arrival process {self.process!r}; known: {_PROCESSES}"
            )
        if self.size_mix not in SIZE_MIXES:
            raise TrafficError(
                f"unknown size mix {self.size_mix!r}; known: {sorted(SIZE_MIXES)}"
            )
        if self.process == "mmpp":
            if self.burst_ratio <= 1.0:
                raise TrafficError("burst_ratio must exceed 1")
            if not 0.0 < self.burst_fraction < 1.0:
                raise TrafficError("burst_fraction must be in (0, 1)")

    @property
    def mix(self) -> PacketSizeMix:
        """The segment's :class:`~repro.traffic.sizes.PacketSizeMix`."""
        return SIZE_MIXES[self.size_mix]

    def arrival_process(self) -> ArrivalProcess:
        """A fresh arrival process at the segment's load and shape."""
        kwargs = {}
        if self.process == "mmpp":
            kwargs = {
                "burst_ratio": self.burst_ratio,
                "burst_fraction": self.burst_fraction,
            }
        return arrival_process(
            self.process, self.offered_load_mbps * 1e6, self.mix.mean_bits, **kwargs
        )


@dataclass(frozen=True)
class Scenario:
    """A named workload: an ordered sequence of traffic phases.

    Attributes
    ----------
    name:
        Catalog key (kebab/underscore identifier).
    title:
        One-line human label.
    description:
        What the workload models and why it stresses a DVS policy.
    segments:
        The ordered phases; weights are normalized over the run.
    num_flows / zipf_s:
        Flow-population shape shared by all phases.
    """

    name: str
    title: str
    description: str
    segments: Tuple[ScenarioSegment, ...]
    num_flows: int = 512
    zipf_s: float = 0.9

    def validate(self) -> None:
        """Raise :class:`TrafficError` on inconsistent settings."""
        if not self.name:
            raise TrafficError("scenario name must be non-empty")
        if not self.segments:
            raise TrafficError(f"scenario {self.name!r} has no segments")
        for segment in self.segments:
            segment.validate()
        if self.num_flows <= 0:
            raise TrafficError("num_flows must be positive")
        if self.zipf_s < 0:
            raise TrafficError("zipf_s must be non-negative")

    # -- derived load figures -------------------------------------------
    @property
    def total_weight(self) -> float:
        """Sum of segment weights (the normalization divisor)."""
        return sum(segment.weight for segment in self.segments)

    @property
    def mean_load_mbps(self) -> float:
        """Duration-weighted mean offered load over the whole run."""
        return (
            sum(s.weight * s.offered_load_mbps for s in self.segments)
            / self.total_weight
        )

    @property
    def peak_load_mbps(self) -> float:
        """Highest per-segment offered load."""
        return max(s.offered_load_mbps for s in self.segments)

    @property
    def min_load_mbps(self) -> float:
        """Lowest per-segment offered load (the quietest phase)."""
        return min(s.offered_load_mbps for s in self.segments)

    @property
    def mean_packet_bytes(self) -> float:
        """Duration-weighted mean packet size over the whole run.

        Weights segment size-mix means by segment weight; an
        approximation (segments also differ in load), good enough for
        deriving order-of-magnitude latency bounds in the study engine.
        """
        return (
            sum(s.weight * s.mix.mean_bytes for s in self.segments)
            / self.total_weight
        )

    def segment_spans_ps(self, duration_ps: int) -> List[Tuple[int, ScenarioSegment]]:
        """``(end_ps, segment)`` boundaries over a run of ``duration_ps``.

        The last boundary is exactly ``duration_ps``; earlier boundaries
        are proportional to the normalized weights.
        """
        if duration_ps <= 0:
            raise TrafficError(f"duration_ps must be positive, got {duration_ps}")
        total = self.total_weight
        spans: List[Tuple[int, ScenarioSegment]] = []
        acc = 0.0
        for segment in self.segments[:-1]:
            acc += segment.weight
            spans.append((int(round(duration_ps * acc / total)), segment))
        spans.append((duration_ps, self.segments[-1]))
        return spans

    def phases(
        self, duration_ps: int
    ) -> List[Tuple[int, ArrivalProcess, PacketSizeMix]]:
        """The ``(end_ps, process, size_mix)`` phases a run of
        ``duration_ps`` plays (see
        :class:`~repro.traffic.generator.TrafficSource`), with fresh
        arrival processes."""
        return [
            (end_ps, segment.arrival_process(), segment.mix)
            for end_ps, segment in self.segment_spans_ps(duration_ps)
        ]

    # -- dict round-trip ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (segments become a list of dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Rebuild from :meth:`to_dict` output; unknown keys are errors."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise TrafficError(
                f"Scenario: unknown keys {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["segments"] = tuple(
            ScenarioSegment(**segment) if isinstance(segment, dict) else segment
            for segment in data.get("segments", ())
        )
        scenario = cls(**kwargs)
        scenario.validate()
        return scenario
