"""Declarative sweep grids and their expansion into jobs.

A :class:`SweepSpec` names the axes of a design-space exploration —
benchmarks x policies x thresholds x windows x traffic x seeds — and
expands the cross product into :class:`Job` objects.  A job is nothing
but a serialized :class:`~repro.config.RunConfig` (via ``to_dict``) plus
an optional LOC analysis span, so jobs pickle cheaply across worker
processes and hash stably for result caching.

Traffic axis entries are compact tokens::

    level:high            # named diurnal level
    load:1000             # explicit offered Mbps
    scenario:flash_crowd  # catalog scenario (repro.scenarios)

The engine (:mod:`repro.sweep.engine`) runs jobs; the store
(:mod:`repro.sweep.store`) persists and caches their outcomes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ConfigError


def config_hash(
    config: Dict[str, Any],
    span: Optional[int] = None,
    scenario: Optional[Dict[str, Any]] = None,
    checks: Sequence[str] = (),
) -> str:
    """Stable short hash of a config dict (+ span, scenario, checks).

    Key order does not matter; values must be JSON-serializable, which
    every ``RunConfig.to_dict`` / ``Scenario.to_dict`` output is.  The
    scenario *definition* participates so that re-registering a name
    with different segments changes job identity; so do the attached LOC
    checker formulas.  The ``checks`` key is omitted when empty, keeping
    job ids of plain sweeps identical to those of earlier releases
    (existing result stores stay valid caches).
    """
    payload_dict: Dict[str, Any] = {
        "config": config,
        "span": span,
        "scenario": scenario,
    }
    if checks:
        payload_dict["checks"] = list(checks)
    payload = json.dumps(payload_dict, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    """One runnable unit of a sweep: a config dict plus analysis span.

    ``span`` is the LOC formula packet span; when set, the worker
    attaches the paper's formula (2)/(3) distribution analyzers and the
    outcome carries both distributions.  ``scenario`` embeds the full
    scenario definition when the config references one by name, making
    jobs self-contained: worker processes re-register it locally, so
    custom (non-built-in) scenarios sweep correctly even under spawn /
    forkserver start methods.  ``checks`` is an ordered tuple of LOC
    *checker* formulas (relational assertions); the worker attaches one
    monitor (:func:`~repro.loc.monitor.build_monitor`) per formula and
    the outcome carries their :class:`~repro.loc.checker.CheckResult`
    verdicts in the same order.  ``label`` is display-only and excluded
    from the identity hash.
    """

    job_id: str
    config: Dict[str, Any]
    span: Optional[int] = None
    label: str = ""
    scenario: Optional[Dict[str, Any]] = None
    checks: Tuple[str, ...] = ()

    @classmethod
    def build(
        cls,
        config: "RunConfig | Dict[str, Any]",
        span: Optional[int] = None,
        label: str = "",
        checks: Sequence[str] = (),
    ) -> "Job":
        """Make a job from a config (validated) or a config dict."""
        if isinstance(config, RunConfig):
            config.validate()
            config = config.to_dict()
        else:
            RunConfig.from_dict(config)  # validates (and normalizes errors)
        checks = tuple(checks)
        if checks:
            # Generate each check's monitor now, so a malformed formula
            # fails at build time, in the submitting process, rather
            # than inside a worker.
            from repro.loc.monitor import build_monitor

            for check in checks:
                build_monitor(check, expect="checker")
        scenario = None
        scenario_name = (config.get("traffic") or {}).get("scenario")
        if scenario_name is not None:
            from repro.scenarios.catalog import get_scenario

            scenario = get_scenario(scenario_name).to_dict()
        return cls(
            job_id=config_hash(config, span, scenario, checks),
            config=config,
            span=span,
            label=label,
            scenario=scenario,
            checks=checks,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe wire form (the distributed backend's job payload).

        Carries every identity-bearing field verbatim — the receiving
        side rebuilds the exact same job, so config hashes, embedded
        scenarios and check formulas survive the network unchanged.
        """
        return {
            "job_id": self.job_id,
            "config": self.config,
            "span": self.span,
            "label": self.label,
            "scenario": self.scenario,
            "checks": list(self.checks),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        """Rebuild from :meth:`to_dict` output (no re-hashing: the
        ``job_id`` is authoritative, exactly as for store records)."""
        try:
            return cls(
                job_id=data["job_id"],
                config=data["config"],
                span=data.get("span"),
                label=data.get("label", ""),
                scenario=data.get("scenario"),
                checks=tuple(data.get("checks") or ()),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed job payload: {exc!r}") from None

    def run_config(self) -> RunConfig:
        """Rebuild the validated :class:`RunConfig`.

        Re-registers the embedded scenario first, so the rebuild works
        in worker processes whose catalog only holds the built-ins.
        """
        if self.scenario is not None:
            from repro.scenarios.catalog import register_scenario
            from repro.scenarios.spec import Scenario

            register_scenario(Scenario.from_dict(self.scenario), replace=True)
        return RunConfig.from_dict(self.config)


def parse_traffic_token(token: str) -> TrafficConfig:
    """Turn a ``kind:value`` traffic token into a :class:`TrafficConfig`."""
    kind, sep, value = token.partition(":")
    if not sep or not value:
        raise ConfigError(
            f"traffic token {token!r} must look like level:high / "
            "load:1000 / scenario:flash_crowd"
        )
    if kind == "level":
        return TrafficConfig(level=value, offered_load_mbps=None)
    if kind == "load":
        try:
            mbps = float(value)
        except ValueError:
            raise ConfigError(f"bad load in traffic token {token!r}") from None
        return TrafficConfig(offered_load_mbps=mbps)
    if kind == "scenario":
        return TrafficConfig.for_scenario(value)
    raise ConfigError(
        f"unknown traffic kind {kind!r} in {token!r}; "
        "use level: / load: / scenario:"
    )


@dataclass
class SweepSpec:
    """The axes of one design-space sweep.

    Attributes
    ----------
    benchmarks / policies / traffic / seeds:
        Outer cross-product axes.  ``traffic`` entries are the tokens
        described in the module docstring.
    thresholds_mbps:
        TDVS top-threshold axis; applies to ``tdvs``/``combined``
        policies (ignored for others).  Empty means policy defaults.
    windows_cycles:
        Monitor-window axis; applies to every DVS policy.
    idle_threshold:
        EDVS idle fraction (a scalar — the paper fixes it at 10 %).
    duration_cycles / process / span:
        Shared run shape: run length, arrival process for level/load
        traffic, and the LOC analysis span (``None`` disables the
        distribution analyzers).
    checks:
        LOC checker formulas attached to every job; each outcome then
        carries one :class:`~repro.loc.checker.CheckResult` per formula.
    base:
        Optional :class:`RunConfig` field overrides merged into every
        job (e.g. ``{"pipeline_events": "chunk"}`` or a custom ``npu``
        dict).
    """

    benchmarks: Tuple[str, ...] = ("ipfwdr",)
    policies: Tuple[str, ...] = ("none",)
    thresholds_mbps: Tuple[float, ...] = ()
    windows_cycles: Tuple[int, ...] = ()
    idle_threshold: float = 0.10
    traffic: Tuple[str, ...] = ("level:high",)
    seeds: Tuple[int, ...] = (7,)
    duration_cycles: int = 1_600_000
    process: str = "mmpp"
    span: Optional[int] = None
    checks: Tuple[str, ...] = ()
    base: Dict[str, Any] = field(default_factory=dict)

    def dvs_points(self, policy: str) -> List[DvsConfig]:
        """The DVS-parameter axis for one policy."""
        windows = self.windows_cycles or (DvsConfig.window_cycles,)
        if policy == "none":
            return [DvsConfig(policy="none")]
        if policy == "edvs":
            return [
                DvsConfig(
                    policy="edvs",
                    window_cycles=window,
                    idle_threshold=self.idle_threshold,
                )
                for window in windows
            ]
        if policy in ("tdvs", "combined"):
            thresholds = self.thresholds_mbps or (DvsConfig.top_threshold_mbps,)
            return [
                DvsConfig(
                    policy=policy,
                    window_cycles=window,
                    top_threshold_mbps=threshold,
                    idle_threshold=self.idle_threshold,
                )
                for threshold in thresholds
                for window in windows
            ]
        raise ConfigError(f"unknown policy {policy!r} in sweep spec")

    def jobs(self) -> List[Job]:
        """Expand the cross product into an ordered, de-duplicated job list.

        Raises :class:`ConfigError` when any outer axis is empty — an
        empty ``policies`` or ``traffic`` tuple would otherwise expand
        to zero jobs and make a sweep silently report nothing.
        """
        for axis in ("benchmarks", "policies", "traffic", "seeds"):
            if not getattr(self, axis):
                raise ConfigError(
                    f"SweepSpec.{axis} is empty — the sweep would expand to "
                    "zero jobs; give the axis at least one entry"
                )
        jobs: List[Job] = []
        seen = set()
        for benchmark in self.benchmarks:
            for token in self.traffic:
                for policy in self.policies:
                    for dvs in self.dvs_points(policy):
                        for seed in self.seeds:
                            traffic = parse_traffic_token(token)
                            if traffic.scenario is None:
                                traffic = traffic.replaced(process=self.process)
                            config = RunConfig(
                                benchmark=benchmark,
                                duration_cycles=self.duration_cycles,
                                seed=seed,
                                traffic=traffic,
                                dvs=dvs,
                            )
                            config_dict = config.to_dict()
                            config_dict.update(self.base)
                            job = Job.build(
                                config_dict,
                                span=self.span,
                                label=_job_label(benchmark, token, dvs, seed),
                                checks=self.checks,
                            )
                            if job.job_id in seen:
                                continue
                            seen.add(job.job_id)
                            jobs.append(job)
        return jobs


def _job_label(benchmark: str, traffic_token: str, dvs: DvsConfig, seed: int) -> str:
    parts = [benchmark, traffic_token, dvs.policy]
    if dvs.policy in ("tdvs", "combined"):
        parts.append(f"thr={dvs.top_threshold_mbps:g}")
    if dvs.policy != "none":
        parts.append(f"win={dvs.window_cycles}")
    parts.append(f"seed={seed}")
    return " ".join(parts)
