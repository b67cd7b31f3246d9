"""Sweep outcomes and their JSONL persistence.

:class:`SweepOutcome` is the full result of one job — the
:class:`~repro.runner.RunResult` plus the optional formula (2)/(3)
distributions — and it round-trips losslessly through plain dicts so a
:class:`ResultStore` can keep one JSON line per completed job.  The
store doubles as the sweep cache: job ids are config hashes, so an
interrupted or repeated sweep skips every job whose line is already on
disk.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional

from repro.config import RunConfig
from repro.errors import ExperimentError
from repro.loc.analyzer import DistributionResult
from repro.loc.checker import CheckResult
from repro.npu.chip import MeSummary, RunTotals
from repro.runner import RunResult


@dataclass
class SweepOutcome:
    """Everything one finished sweep job reports."""

    job_id: str
    label: str
    result: RunResult
    power_dist: Optional[DistributionResult] = None
    throughput_dist: Optional[DistributionResult] = None
    #: LOC checker verdicts, in the order of the job's ``checks`` tuple.
    check_results: List[CheckResult] = field(default_factory=list)
    #: True when this outcome was loaded from a store instead of run.
    cached: bool = False
    #: Run-level observability payload: per-channel ``published`` event
    #: counts (the observer-independent half of
    #: :meth:`repro.trace.bus.TraceBus.channel_stats` — delivery counts
    #: vary with which monitors subscribe and stay bus-local)
    #: and, under ``spans``, the run's deterministic sim-time span
    #: records (scenario segments, per-ME phase windows,
    #: check-evaluation windows — see :mod:`repro.obs.spans`); ``None``
    #: when nothing was collected.
    #: Contents are deterministic — event counts and integer-picosecond
    #: sim times, never wall-clock — so outcomes stay bit-identical
    #: across backends.
    obs: Optional[Dict[str, Any]] = None

    @property
    def mean_power_w(self) -> float:
        """Mean chip power over the run."""
        return self.result.mean_power_w

    @property
    def throughput_mbps(self) -> float:
        """Forwarded throughput over the run."""
        return self.result.throughput_mbps

    @property
    def assertions_passed(self) -> bool:
        """True when every attached LOC check had zero violations.

        Vacuously true for jobs that carried no checks; callers that
        need tolerance-based gating (allow a bounded violation fraction)
        should inspect :attr:`check_results` directly, as the study
        engine does.
        """
        return all(check.passed for check in self.check_results)

    # -- dict round-trip ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (one store line).

        The ``obs`` key is present only when an observability payload
        was collected, so records of unobserved runs — and every store
        written by an earlier release — keep their exact historical
        shape.
        """
        record = {
            "job_id": self.job_id,
            "label": self.label,
            "result": _result_to_dict(self.result),
            "power_dist": _dist_to_dict(self.power_dist),
            "throughput_dist": _dist_to_dict(self.throughput_dist),
            "check_results": [check.to_dict() for check in self.check_results],
        }
        if self.obs is not None:
            record["obs"] = self.obs
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepOutcome":
        """Rebuild from :meth:`to_dict` output."""
        try:
            return cls(
                job_id=data["job_id"],
                label=data.get("label", ""),
                result=_result_from_dict(data["result"]),
                power_dist=_dist_from_dict(data.get("power_dist")),
                throughput_dist=_dist_from_dict(data.get("throughput_dist")),
                check_results=[
                    CheckResult.from_dict(check)
                    for check in data.get("check_results", [])
                ],
                cached=True,
                obs=data.get("obs"),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed sweep record: {exc!r}") from None


# ---------------------------------------------------------------------------
# RunResult / DistributionResult <-> dict
# ---------------------------------------------------------------------------
def _result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "config": result.config.to_dict(),
        "totals": asdict(result.totals),
        "governor_policy": result.governor_policy,
        "governor_transitions": result.governor_transitions,
        "governor_windows": result.governor_windows,
        "dvs_overhead_w": result.dvs_overhead_w,
    }


def _result_from_dict(data: Dict[str, Any]) -> RunResult:
    totals = dict(data["totals"])
    totals["me_summaries"] = [MeSummary(**me) for me in totals.get("me_summaries", [])]
    return RunResult(
        config=RunConfig.from_dict(data["config"]),
        totals=RunTotals(**totals),
        governor_policy=data["governor_policy"],
        governor_transitions=data["governor_transitions"],
        governor_windows=data["governor_windows"],
        dvs_overhead_w=data["dvs_overhead_w"],
    )


def _dist_to_dict(dist: Optional[DistributionResult]) -> Optional[Dict[str, Any]]:
    if dist is None:
        return None
    data = asdict(dist)
    # JSON has no NaN literal; empty distributions carry NaN min/max.
    for key in ("value_min", "value_max"):
        if isinstance(data[key], float) and math.isnan(data[key]):
            data[key] = None
    return data


def _dist_from_dict(data: Optional[Dict[str, Any]]) -> Optional[DistributionResult]:
    if data is None:
        return None
    rebuilt = dict(data)
    for key in ("value_min", "value_max"):
        if rebuilt.get(key) is None:
            rebuilt[key] = math.nan
    return DistributionResult(**rebuilt)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class ResultStore:
    """Config-hash keyed JSONL store of sweep outcomes.

    Parameters
    ----------
    path:
        JSONL file to load from / append to.  ``None`` keeps the store
        in memory only (useful as a per-process cache in tests).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._records: Dict[str, Dict[str, Any]] = {}
        self._outcomes: Dict[str, SweepOutcome] = {}
        #: Set when a torn tail was dropped but could not be truncated
        #: away; the next append then starts on a fresh line.
        self._needs_newline = False
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        """Load the JSONL file, tolerating a torn final line.

        A crash mid-:meth:`add` leaves a truncated last line; erroring
        on it would brick the whole cache, so a malformed *final*
        record is dropped (and truncated off the file, keeping later
        appends clean).  Corruption anywhere earlier still raises —
        silently skipping interior records would return wrong cache
        misses forever after.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        offsets = []
        offset = 0
        for raw in lines:
            offsets.append(offset)
            offset += len(raw) + 1
        last = max(
            (i for i, raw in enumerate(lines) if raw.strip()), default=None
        )
        for i, raw in enumerate(lines):
            stripped = raw.strip()
            if not stripped:
                continue
            record: Any = None
            error = ""
            try:
                record = json.loads(stripped.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                error = str(exc)
            if not isinstance(record, dict) or "job_id" not in record:
                if i == last:
                    self._drop_tail(path, offsets[i])
                    break
                raise ExperimentError(
                    f"{path}:{i + 1}: bad JSON in result store: "
                    f"{error or 'record is not an object with a job_id'}"
                )
            self._records[record["job_id"]] = record

    def _drop_tail(self, path: str, offset: int) -> None:
        """Remove a torn final line from the backing file."""
        try:
            with open(path, "rb+") as handle:
                handle.truncate(offset)
        except OSError:
            # Read-only file: recover in memory and keep appends clean
            # by prefixing the next one with a newline.
            self._needs_newline = True

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._records

    def completed_ids(self) -> List[str]:
        """Job ids with a stored outcome, sorted."""
        return sorted(self._records)

    def get(self, job_id: str) -> Optional[SweepOutcome]:
        """The stored outcome for a job id, or ``None``."""
        if job_id not in self._records:
            return None
        if job_id not in self._outcomes:
            self._outcomes[job_id] = SweepOutcome.from_dict(self._records[job_id])
        return self._outcomes[job_id]

    def add(self, outcome: SweepOutcome) -> None:
        """Record a fresh outcome (appends one JSONL line when backed)."""
        record = outcome.to_dict()
        self._records[outcome.job_id] = record
        # Anything served back out of the store is, by definition, cached.
        self._outcomes[outcome.job_id] = replace(outcome, cached=True)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                if self._needs_newline:
                    handle.write("\n")
                    self._needs_newline = False
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def iter_outcomes(self) -> Iterator[SweepOutcome]:
        """All stored outcomes, in job-id order."""
        for job_id in self.completed_ids():
            outcome = self.get(job_id)
            assert outcome is not None
            yield outcome
