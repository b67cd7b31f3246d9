"""Determinism regression wall around the sweep substrate.

Pins down four contracts future scaling PRs must not break:

* **Job identity is stable across releases** — golden config hashes.
  A hash change silently invalidates every on-disk result store, so it
  must always be a deliberate, reviewed event (update the goldens in
  the same commit that changes the hashing scheme).
* **Simulated output is stable across releases** — golden digests of
  a small full-catalog study's report JSON, of one job record with
  same-picosecond poll ties, of a small grid of single-rate runs, and
  (slow) of the quick-profile full-catalog study.
* **Worker count never changes results** — serial and parallel
  ``Session.sweep`` outputs are bit-identical, down to the serialized
  dict.
* **Cache replay is lossless** — a ``ResultStore`` reloaded from disk
  returns rows bit-identical to the outcomes that produced them.
"""

import hashlib
import json

import pytest

from repro.api import ExecutionPolicy, Session, StorePolicy
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.experiments.common import cycles_for, span_for
from repro.studies import StudySpec, render_json
from repro.sweep import Job, ResultStore, SweepSpec, config_hash

#: Golden identity hashes.  If a change to RunConfig defaults, the
#: to_dict schema, or the hashing payload alters these, every existing
#: JSONL result store stops acting as a cache — bump the goldens only
#: when that invalidation is intended.
GOLDEN_DEFAULT_CONFIG_HASH = "a017c46d3db3322b"
GOLDEN_SCENARIO_JOB_ID = "1b807faede27c961"
GOLDEN_CHECKED_JOB_ID = "336cec82d6b48e68"

#: sha256 of the policy-map JSON that ``test_study_output_digest``
#: renders: a 27-job TDVS+EDVS study over the whole scenario catalog.
GOLDEN_STUDY_SHA256 = (
    "9f01a4605172613287baf04a2a33ef4b9313035aa4227d248a9273b581625722"
)

#: sha256 of one bench-profile study job's outcome record (ddos_min64,
#: TDVS at 1200 Mbps with a 20k-cycle window, seed 7).  Unlike the
#: 27-job study above, this run has same-picosecond poll ties, so it
#: pins the poll-band tie rule of :meth:`repro.sim.kernel.Simulator.post_poll`.
GOLDEN_TIE_JOB_SHA256 = (
    "3fa0c3b43254da8f82ddfc6f2c130616e19b64cdfe675c2a8d55d13083182529"
)

#: sha256 of the outcome records of :func:`single_rate_jobs`, six runs
#: that play no catalog scenario, with formula (2)/(3) distributions.
#: Its three named-level runs play the figures' 400, 1,000 and
#: 1,550 Mbps, and their job ids hash those loads.
GOLDEN_SINGLE_RATE_SHA256 = (
    "898f36bc522e1709576b055feccc2511db3f8bf9a4978c835597a5db8e021f7f"
)

#: md5 of the report ``repro study --scenario all --policy tdvs,edvs
#: --json --quiet --out FILE`` writes: the full-catalog study at the
#: quick profile, the number each md5-move commit message quotes.
GOLDEN_CATALOG_STUDY_MD5 = "299e9f449b030caf01e1a0f5a31aff9b"

CHECK = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


def scenario_config() -> RunConfig:
    return RunConfig(
        duration_cycles=120_000,
        seed=11,
        traffic=TrafficConfig.for_scenario("flash_crowd"),
        dvs=DvsConfig(policy="tdvs", window_cycles=40_000, top_threshold_mbps=1200.0),
    )


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        policies=("none", "tdvs", "edvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        traffic=("scenario:link_failover", "load:900"),
        seeds=(11,),
        duration_cycles=120_000,
        span=20,
        checks=(CHECK,),
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def single_rate_jobs():
    """Runs of the single-rate traffic fields: each named level over
    MMPP, an explicit load over Poisson and over CBR, and min64 packets."""
    tdvs = DvsConfig(policy="tdvs", window_cycles=40_000, top_threshold_mbps=1200.0)
    edvs = DvsConfig(policy="edvs", window_cycles=40_000)
    runs = (
        ("ipfwdr", TrafficConfig(level="low", offered_load_mbps=None), tdvs),
        ("nat", TrafficConfig(level="med", offered_load_mbps=None), edvs),
        ("ipfwdr", TrafficConfig(level="high", offered_load_mbps=None), tdvs),
        ("ipfwdr", TrafficConfig(offered_load_mbps=700.0, process="poisson"),
         DvsConfig()),
        ("nat", TrafficConfig(offered_load_mbps=700.0, process="cbr"), tdvs),
        ("ipfwdr", TrafficConfig(offered_load_mbps=700.0, size_mix="min64"), edvs),
    )
    return [
        Job.build(
            RunConfig(benchmark=benchmark, duration_cycles=400_000, seed=11,
                      traffic=traffic, dvs=dvs),
            span=20,
        )
        for benchmark, traffic, dvs in runs
    ]


def outcome_dicts(outcomes):
    """Fully serialized outcome list — the bit-identity yardstick."""
    return [json.dumps(o.to_dict(), sort_keys=True) for o in outcomes]


class TestGoldenHashes:
    def test_default_config_hash(self):
        assert config_hash(RunConfig().to_dict()) == GOLDEN_DEFAULT_CONFIG_HASH

    def test_scenario_job_id(self):
        job = Job.build(scenario_config(), span=20)
        assert job.job_id == GOLDEN_SCENARIO_JOB_ID

    def test_checks_change_job_identity(self):
        job = Job.build(scenario_config(), span=20, checks=(CHECK,))
        assert job.job_id == GOLDEN_CHECKED_JOB_ID
        assert job.job_id != GOLDEN_SCENARIO_JOB_ID

    def test_empty_checks_preserve_legacy_identity(self):
        """checks=() must hash exactly like the pre-checks scheme."""
        assert Job.build(scenario_config(), span=20, checks=()).job_id == (
            GOLDEN_SCENARIO_JOB_ID
        )

    def test_check_order_changes_identity(self):
        other = "time(forward[i+1]) - time(forward[i]) >= 0"
        a = Job.build(scenario_config(), checks=(CHECK, other))
        b = Job.build(scenario_config(), checks=(other, CHECK))
        assert a.job_id != b.job_id

    def test_study_output_digest(self):
        """Every simulated number a study reports, pinned.

        Any change to simulated output moves this digest.  Changing the
        constant is the deliberate, documented md5-move commit: it
        lands once per fix, with the new full-catalog study md5 in its
        message, never as a side effect.
        """
        spec = StudySpec(
            scenarios=(),  # empty = the whole catalog
            policies=("tdvs", "edvs"),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
            seeds=(11,),
        )
        result = Session(execution=ExecutionPolicy(workers=1)).study(spec)
        rendered = render_json(result.policy_map).encode("utf-8")
        assert hashlib.sha256(rendered).hexdigest() == GOLDEN_STUDY_SHA256

    def test_tie_bearing_job_record(self):
        spec = StudySpec(
            scenarios=("ddos_min64",),
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(20_000,),
            duration_cycles=400_000,
            span=20,
            seeds=(7,),
        )
        ((_, jobs),) = spec.jobs_by_scenario()
        (job,) = [j for j in jobs if j.run_config().dvs.policy == "tdvs"]
        (outcome,) = Session(execution=ExecutionPolicy(workers=1)).sweep([job])
        (record,) = outcome_dicts([outcome])
        assert hashlib.sha256(record.encode("utf-8")).hexdigest() == (
            GOLDEN_TIE_JOB_SHA256
        )

    def test_single_rate_job_records(self):
        outcomes = Session(execution=ExecutionPolicy(workers=1)).sweep(
            single_rate_jobs()
        )
        records = "\n".join(outcome_dicts(outcomes)).encode("utf-8")
        assert hashlib.sha256(records).hexdigest() == GOLDEN_SINGLE_RATE_SHA256

    @pytest.mark.slow
    def test_full_catalog_study_md5(self):
        spec = StudySpec(
            policies=("tdvs", "edvs"),
            duration_cycles=cycles_for("quick"),
            span=span_for("quick"),
        )
        result = Session(execution=ExecutionPolicy(workers=2)).study(spec)
        rendered = render_json(result.policy_map).encode("utf-8")
        assert hashlib.md5(rendered).hexdigest() == GOLDEN_CATALOG_STUDY_MD5


class TestSerialParallelBitIdentity:
    @pytest.mark.slow
    def test_outputs_bit_identical(self):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        parallel = Session(execution=ExecutionPolicy(workers=3)).sweep(jobs)
        assert outcome_dicts(serial) == outcome_dicts(parallel)

    @pytest.mark.slow
    def test_check_results_bit_identical(self):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        parallel = Session(execution=ExecutionPolicy(workers=2)).sweep(jobs)
        for s, p in zip(serial, parallel):
            assert [c.to_dict() for c in s.check_results] == [
                c.to_dict() for c in p.check_results
            ]
            assert s.check_results and s.check_results[0].instances_checked > 0


class TestStoreReplay:
    def test_replay_rows_bit_identical(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec(policies=("none", "tdvs")).jobs()
        fresh = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)

        replayed = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        assert all(o.cached for o in replayed)
        assert outcome_dicts(fresh) == outcome_dicts(replayed)

    def test_replay_preserves_check_results(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        (job,) = small_spec(
            policies=("none",), traffic=("scenario:link_failover",)
        ).jobs()
        (fresh,) = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([job])
        cached = ResultStore(path).get(job.job_id)
        assert cached is not None
        assert [c.to_dict() for c in cached.check_results] == [
            c.to_dict() for c in fresh.check_results
        ]
        assert cached.assertions_passed == fresh.assertions_passed

    def test_legacy_rows_without_checks_still_load(self, tmp_path):
        """Stores written before the checks field must stay readable."""
        path = str(tmp_path / "results.jsonl")
        (job,) = small_spec(
            policies=("none",), traffic=("load:900",), checks=()
        ).jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([job])
        record = json.loads(open(path).readline())
        record.pop("check_results")
        (tmp_path / "legacy.jsonl").write_text(json.dumps(record) + "\n")
        legacy = ResultStore(str(tmp_path / "legacy.jsonl")).get(job.job_id)
        assert legacy is not None
        assert legacy.check_results == []
        assert legacy.assertions_passed
