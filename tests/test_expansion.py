"""Sweep expansion derives what its jobs share once, and changes no job.

:meth:`SweepSpec.jobs` validates each check and serializes each
scenario once per expansion, validates each config once, and
:meth:`RunConfig.to_dict` walks a field table instead of
``dataclasses.asdict``.  The jobs must stay what they were: the digests
below were recorded with the expansion that re-derived everything per
job, so existing result stores stay valid.  Each job must still own
its dicts.  (``tests/test_sweep.py`` checks that both entry points
refuse a malformed check.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DvsConfig,
    MemoryConfig,
    NpuConfig,
    PowerConfig,
    RunConfig,
    TrafficConfig,
)
from repro.experiments.common import cycles_for, span_for
from repro.scenarios import get_scenario
from repro.studies.spec import StudySpec
from repro.sweep.spec import Job, SweepSpec

FORWARD_GAP = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


def digest(jobs) -> str:
    """The jobs' wire forms in order, key order included, hashed."""
    payload = json.dumps([job.to_dict() for job in jobs])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def catalog_jobs(seed: int):
    spec = StudySpec(
        policies=("tdvs", "edvs"),
        duration_cycles=cycles_for("bench"),
        span=span_for("bench"),
        seeds=(seed,),
    )
    return [job for _, jobs in spec.jobs_by_scenario() for job in jobs]


def checked_sweep(**base) -> SweepSpec:
    """Every traffic kind and policy, two checks, and a merged base."""
    return SweepSpec(
        policies=("none", "tdvs", "edvs"),
        thresholds_mbps=(1000.0, 1200.0),
        windows_cycles=(20_000, 40_000),
        traffic=("load:800", "scenario:flash_crowd", "level:high"),
        seeds=(7, 11),
        duration_cycles=120_000,
        span=20,
        checks=(FORWARD_GAP, "time(forward[i+20]) - time(forward[i]) <= 50000000"),
        base=base or {"pipeline_events": "chunk"},
    )


@pytest.mark.parametrize(
    "seed, expected", [(7, "deb1cd010c6cfe7b"), (29, "4c541e7a792f8c44")]
)
def test_catalog_study_jobs_are_unchanged(seed, expected):
    jobs = catalog_jobs(seed)
    assert len(jobs) == 189
    assert digest(jobs) == expected


def test_checked_sweep_with_base_is_unchanged():
    jobs = checked_sweep().jobs()
    assert len(jobs) == 42
    assert digest(jobs) == "bcc8a035a79f70ac"


@pytest.mark.parametrize("base", [{}, {"pipeline_events": "chunk"}])
def test_expanded_jobs_equal_built_jobs(base):
    spec = dataclasses.replace(checked_sweep(), base=base)
    for job in spec.jobs():
        built = Job.build(job.config, span=job.span, label=job.label, checks=job.checks)
        assert built == job


# -- RunConfig.to_dict --------------------------------------------------
_reals = st.floats(allow_nan=False)
_indices = st.lists(st.integers(0, 7), max_size=4)
_memory = st.builds(
    MemoryConfig, sram_bytes=st.integers(), sdram_access_ns=_reals, bus_byte_ns=_reals
)
_npu = st.builds(
    NpuConfig,
    rx_me_indices=_indices.map(tuple) | _indices,
    tx_me_indices=_indices.map(tuple),
    reference_freq_hz=_reals,
    poll_counts_as_idle=st.booleans(),
    memory=_memory,
)
_power = st.builds(PowerConfig, me_active_w_max=_reals, base_w=_reals)
_dvs = st.builds(
    DvsConfig,
    policy=st.sampled_from(("none", "tdvs", "edvs", "combined")),
    window_cycles=st.integers(),
    top_threshold_mbps=_reals,
)
_traffic = st.builds(
    TrafficConfig,
    level=st.none() | st.sampled_from(("low", "med", "high")),
    offered_load_mbps=st.none() | _reals,
    scenario=st.none() | st.text(max_size=12),
    num_flows=st.integers(),
)
_run = st.builds(
    RunConfig,
    benchmark=st.text(max_size=8),
    duration_cycles=st.integers(),
    seed=st.integers(),
    npu=_npu,
    power=_power,
    dvs=_dvs,
    traffic=_traffic,
    pipeline_events=st.none() | st.sampled_from(("chunk", "instruction")),
)


@settings(max_examples=200, deadline=None)
@given(_run)
def test_to_dict_equals_asdict(config):
    out = config.to_dict()
    expected = dataclasses.asdict(config)
    assert out == expected
    # Equality takes 1 for 1.0 and True for 1; the JSON text does not.
    assert json.dumps(out) == json.dumps(expected)
    indices = out["npu"]["rx_me_indices"]
    assert type(indices) is type(config.npu.rx_me_indices)
    if isinstance(indices, list):
        indices.append(99)
        assert 99 not in config.npu.rx_me_indices
    out["npu"]["memory"]["sram_bytes"] = -1
    assert config.to_dict() == expected


# -- every job owns its dicts ----------------------------------------------
def test_jobs_share_no_dict():
    spec = checked_sweep(pipeline_events="chunk", npu={"num_ports": 16})
    jobs = spec.jobs()
    before = digest(jobs)
    first, *others = [job for job in jobs if job.scenario is not None]
    first.config["seed"] = -1
    first.config["dvs"]["window_cycles"] = 1
    first.config["npu"]["num_ports"] = 4
    first.config["traffic"]["num_flows"] = 1
    first.scenario["title"] = "edited"
    first.scenario["segments"][0]["weight"] = 99.0
    assert digest(others) == digest([job for job in spec.jobs() if job.scenario][1:])
    assert spec.base == {"pipeline_events": "chunk", "npu": {"num_ports": 16}}
    assert get_scenario("flash_crowd").segments[0].weight != 99.0
    assert digest(spec.jobs()) == before


def test_built_job_owns_its_config():
    config = RunConfig().to_dict()
    job = Job.build(config)
    config["seed"] = 5
    config["npu"]["num_ports"] = 4
    assert job == Job.build(RunConfig().to_dict())


def test_catalog_jobs_share_no_dict():
    first, second, *_ = catalog_jobs(7)
    first.config["npu"]["memory"]["sram_bytes"] = 1
    first.scenario["segments"][0]["offered_load_mbps"] = 1.0
    assert second.config["npu"]["memory"]["sram_bytes"] == MemoryConfig().sram_bytes
    assert second.scenario["segments"][0]["offered_load_mbps"] != 1.0
    assert digest(catalog_jobs(7)) == "deb1cd010c6cfe7b"
