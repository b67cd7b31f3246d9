"""Threshold siblings share a run (repro.sweep.engine.run_family).

A family is a set of TDVS jobs that differ only in the traffic rule's
own parameters.  A member whose rule, replayed over a finished member's
recorded window inputs, makes every decision that member made takes a
copy of its outcome instead of simulating.  Covered here:

* **replay** — on synthetic window inputs: equal transition counts and
  final levels with different timing do not share, and hysteresis takes
  part in the comparison;
* **family key** — every identity-bearing field except the rule's own
  splits families;
* **oracle** — families whose decisions split (bench profile, seed 7)
  give, on the serial and process backends, exactly the outcomes of
  ``run_job`` on each member alone, from one simulation per distinct
  level history; derived outcomes share no mutable object with their
  source;
* **hypothesis** (slow) — random threshold sets and hysteresis values
  on one short scenario.
"""

import contextlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.local import ProcessBackend, SerialBackend
from repro.config import DvsConfig, NpuConfig, RunConfig, TrafficConfig
from repro.dvs.governor import TRAFFIC_RULE_FIELDS, traffic_rule
from repro.dvs.tdvs import TdvsDecisions
from repro.dvs.vf_table import VfTable
from repro.runner import SimulationRun
from repro.studies import StudySpec
from repro.sweep import Job
from repro.sweep.engine import family_key, job_families, run_family, run_job

VF_TABLE = VfTable.from_config(NpuConfig())

#: Bench-profile run shape and the paper's threshold axis.
BENCH_CYCLES = 400_000
BENCH_SPAN = 20

CHECK = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


def tdvs(threshold, hysteresis=0.0, window=20_000):
    return DvsConfig(
        policy="tdvs",
        window_cycles=window,
        top_threshold_mbps=threshold,
        tdvs_hysteresis=hysteresis,
    )


def record(outcome):
    return json.dumps(outcome.to_dict(), sort_keys=True)


@contextlib.contextmanager
def counted_runs():
    """Every ``SimulationRun.run`` in this process, as its TDVS level
    history (``None`` for other policies)."""
    histories = []
    run = SimulationRun.run

    def counting_run(self):
        result = run(self)
        governor = self.governor
        histories.append(
            tuple(governor.level_history)
            if self.config.dvs.policy == "tdvs"
            else None
        )
        return result

    SimulationRun.run = counting_run
    try:
        yield histories
    finally:
        SimulationRun.run = run


# ---------------------------------------------------------------------------
# Replay on synthetic window inputs
# ---------------------------------------------------------------------------
#: Recorded under a 1000 Mbps top threshold, no hysteresis: down at the
#: first window (960 < 1000), up at the second (930 > 916.7, the 550 MHz
#: threshold), held at the top on the third.
DOWN_UP = TdvsDecisions(VF_TABLE, (0, 1, 0, 0), (960.0, 930.0, 1100.0))


def replay_own(config, rates):
    """The level history ``config``'s rule produces on its own."""
    levels = [0]
    for rate in rates:
        levels.append(traffic_rule(VF_TABLE, config, levels[-1], rate))
    return levels


class TestReplay:
    def test_recording_rule_reproduces_itself(self):
        assert DOWN_UP.reproduced_by(tdvs(1000.0))

    def test_same_count_and_final_level_with_other_timing_do_not_share(self):
        # At 950 Mbps the rule holds at the first window, steps down at
        # the second and back up at the third: two transitions, final
        # level 0, like the recording, one window later.
        other = tdvs(950.0)
        levels = replay_own(other, DOWN_UP.rates_mbps)
        assert levels == [0, 0, 1, 0]
        transitions = sum(a != b for a, b in zip(levels, levels[1:]))
        assert transitions == 2 and levels[-1] == DOWN_UP.levels[-1]
        assert not DOWN_UP.reproduced_by(other)

    def test_hysteresis_takes_part(self):
        # A 5% band keeps 960 Mbps above 950: no down-step at window 0.
        assert not DOWN_UP.reproduced_by(tdvs(1000.0, hysteresis=0.05))
        # A 1% band (990) still steps down: every decision is the same.
        assert DOWN_UP.reproduced_by(tdvs(1000.0, hysteresis=0.01))

    def test_every_window_counts(self):
        # 1010 Mbps decides the first two windows like 1000 Mbps (down
        # at 960, up at 930 > 925.8), then steps down at 1005 where the
        # recording held at the top.
        recorded = TdvsDecisions(VF_TABLE, (0, 1, 0, 0), (960.0, 930.0, 1005.0))
        assert recorded.reproduced_by(tdvs(1000.0))
        prefix = TdvsDecisions(VF_TABLE, (0, 1, 0), (960.0, 930.0))
        assert prefix.reproduced_by(tdvs(1010.0))
        assert not recorded.reproduced_by(tdvs(1010.0))

    def test_no_windows_is_reproduced_by_any_rule(self):
        assert TdvsDecisions(VF_TABLE, (0,), ()).reproduced_by(tdvs(1400.0))


# ---------------------------------------------------------------------------
# Family key
# ---------------------------------------------------------------------------
def base_job(**overrides):
    config = RunConfig(
        duration_cycles=120_000,
        seed=7,
        traffic=TrafficConfig.for_scenario("flash_crowd"),
        dvs=tdvs(1000.0),
    )
    return Job.build(config, span=BENCH_SPAN, checks=(CHECK,), **overrides)


def leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaf_paths(value[key], path + (key,))
    else:
        yield path


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (list, tuple)):
        return [*value, 99]
    return "set"  # None


def with_leaf(config, path, value):
    if not path:
        return value
    copied = dict(config)
    copied[path[0]] = with_leaf(config[path[0]], path[1:], value)
    return copied


def job_with(job, **changes):
    fields = dict(
        job_id="x", config=job.config, span=job.span, label=job.label,
        scenario=job.scenario, checks=job.checks,
    )
    fields.update(changes)
    return Job(**fields)


class TestFamilyKey:
    def test_only_traffic_rule_fields_leave_the_key(self):
        job = base_job()
        key = family_key(job)
        assert key is not None
        paths = list(leaf_paths(job.config))
        rule_paths = {("dvs", name) for name in TRAFFIC_RULE_FIELDS}
        assert rule_paths <= set(paths)
        for path in paths:
            leaf = job.config
            for part in path:
                leaf = leaf[part]
            changed = job_with(job, config=with_leaf(job.config, path, perturbed(leaf)))
            if path in rule_paths:
                assert family_key(changed) == key, path
            else:
                assert family_key(changed) != key, path

    def test_run_shape_fields_split_families(self):
        job = base_job()
        key = family_key(job)
        scenario = dict(job.scenario, name=job.scenario["name"] + "x")
        for changed in (
            job_with(job, span=job.span + 1),
            job_with(job, scenario=scenario),
            job_with(job, checks=()),
        ):
            assert family_key(changed) != key

    def test_label_and_id_do_not_split_families(self):
        job = base_job()
        assert family_key(job_with(job, label="other", job_id="y")) == family_key(job)

    @pytest.mark.parametrize("policy", ["none", "edvs", "combined"])
    def test_only_tdvs_has_families(self, policy):
        job = base_job()
        dvs = dict(job.config["dvs"], policy=policy)
        assert family_key(job_with(job, config=dict(job.config, dvs=dvs))) is None

    def test_families_keep_first_appearance_and_job_order(self):
        def job(policy, threshold, window):
            config = RunConfig(
                duration_cycles=120_000,
                dvs=DvsConfig(
                    policy=policy, window_cycles=window,
                    top_threshold_mbps=threshold,
                ),
            )
            return Job.build(config, label=f"{policy} {threshold} {window}")

        jobs = [
            job("tdvs", 800.0, 20_000),
            job("edvs", 1000.0, 20_000),
            job("tdvs", 800.0, 40_000),
            job("tdvs", 1200.0, 20_000),
            job("combined", 800.0, 20_000),
            job("combined", 1200.0, 20_000),
            job("tdvs", 1200.0, 40_000),
        ]
        families = [[j.label for j in family] for family in job_families(jobs)]
        assert families == [
            ["tdvs 800.0 20000", "tdvs 1200.0 20000"],
            ["edvs 1000.0 20000"],
            ["tdvs 800.0 40000", "tdvs 1200.0 40000"],
            ["combined 800.0 20000"],
            ["combined 1200.0 20000"],
        ]


# ---------------------------------------------------------------------------
# Oracle: families whose decisions split
# ---------------------------------------------------------------------------
#: Bench profile, seed 7: at 800/1000/1200/1400 Mbps, weekday_diurnal's
#: 20k-cycle family decides four ways and bursty_onoff's 80k-cycle
#: family three ways.
SPLIT_FAMILIES = (("weekday_diurnal", 20_000, 4), ("bursty_onoff", 80_000, 3))


def split_family_jobs():
    """Both families with their scenarios' baselines, as a study runs them."""
    jobs = []
    for scenario, window, _ in SPLIT_FAMILIES:
        spec = StudySpec(
            scenarios=(scenario,),
            policies=("tdvs",),
            windows_cycles=(window,),
            duration_cycles=BENCH_CYCLES,
            span=BENCH_SPAN,
            seeds=(7,),
        )
        ((_, scenario_jobs),) = spec.jobs_by_scenario()
        jobs.extend(scenario_jobs)
    return jobs


@pytest.fixture(scope="module")
def oracle():
    """``run_job`` on each member alone: records and level histories."""
    jobs = split_family_jobs()
    records, histories = {}, {}
    with counted_runs() as runs:
        for job in jobs:
            records[job.job_id] = record(run_job(job))
            histories[job.job_id] = runs[-1]
    assert len(runs) == len(jobs)
    return jobs, records, histories


def distinct_histories(jobs, histories):
    return {
        (family_key(job) or job.job_id, histories[job.job_id]) for job in jobs
    }


class TestSharingOracle:
    def test_families_split_as_named(self, oracle):
        jobs, _, histories = oracle
        classes = sorted(
            len({histories[job.job_id] for job in family})
            for family in job_families(jobs)
            if len(family) > 1
        )
        assert classes == sorted(count for _, _, count in SPLIT_FAMILIES)

    def test_serial_backend_matches_run_job(self, oracle):
        jobs, records, histories = oracle
        backend = SerialBackend()
        with counted_runs() as runs:
            outcomes = list(backend.run(jobs))
        assert {o.job_id: record(o) for o in outcomes} == records
        assert len(outcomes) == len(jobs)
        distinct = distinct_histories(jobs, histories)
        assert len(runs) == len(distinct)
        assert backend.telemetry() == {
            "jobs_run": len(jobs),
            "jobs_shared": len(jobs) - len(distinct),
        }

    def test_process_backend_matches_run_job(self, oracle):
        jobs, records, histories = oracle
        backend = ProcessBackend(workers=2)
        outcomes = list(backend.run(jobs))
        assert {o.job_id: record(o) for o in outcomes} == records
        assert len(outcomes) == len(jobs)
        telemetry = backend.telemetry()
        assert telemetry["jobs_run"] == len(jobs)
        assert telemetry["jobs_shared"] == len(jobs) - len(
            distinct_histories(jobs, histories)
        )

    def test_mixed_job_list_shares_only_within_families(self, oracle):
        jobs, records, histories = oracle
        with counted_runs() as runs:
            pairs = list(run_family(jobs))
        assert [record(outcome) for outcome, _ in pairs] == [
            records[job.job_id] for job in jobs
        ]
        assert len(runs) == len(distinct_histories(jobs, histories))

    def test_derived_outcome_shares_no_mutable_object(self, oracle):
        jobs, _, _ = oracle
        (family,) = [
            family for family in job_families(jobs)
            if len(family) > 1
            and family[0].config["traffic"]["scenario"] == "bursty_onoff"
        ]
        pairs = list(run_family(family))
        assert any(shared for _, shared in pairs)
        reachable = [mutable_ids(outcome) for outcome, _ in pairs]
        for i, left in enumerate(reachable):
            for right in reachable[i + 1:]:
                assert not left & right


def mutable_ids(value, found=None):
    """Ids of every non-atomic object reachable from ``value``."""
    if found is None:
        found = set()
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return found
    if not isinstance(value, tuple):
        if id(value) in found:
            return found
        found.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            mutable_ids(key, found)
            mutable_ids(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            mutable_ids(item, found)
    elif hasattr(value, "__dict__"):
        mutable_ids(vars(value), found)
    return found


# ---------------------------------------------------------------------------
# Random threshold sets and hysteresis values (slow lane)
# ---------------------------------------------------------------------------
SCENARIO_SPEC = StudySpec(scenarios=("flash_crowd",), span=BENCH_SPAN)


def member(threshold, hysteresis):
    config = RunConfig(
        duration_cycles=200_000,
        seed=11,
        traffic=TrafficConfig.for_scenario("flash_crowd"),
        dvs=tdvs(threshold, hysteresis),
    )
    checks = SCENARIO_SPEC.sweep_spec_for("flash_crowd").checks
    return Job.build(config, span=BENCH_SPAN, checks=checks)


@pytest.mark.slow
class TestSharingProperty:
    @given(
        members=st.lists(
            st.tuples(
                st.sampled_from([600.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1400.0]),
                st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.25]),
            ),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    @settings(deadline=None, max_examples=12)
    def test_family_equals_members_alone(self, members):
        jobs = [member(threshold, hysteresis) for threshold, hysteresis in members]
        (family,) = job_families(jobs)
        assert family == jobs
        with counted_runs() as alone:
            expected = [record(run_job(job)) for job in jobs]
        with counted_runs() as shared:
            pairs = list(run_family(jobs))
        assert [record(outcome) for outcome, _ in pairs] == expected
        assert len(shared) == len(set(alone))
        assert sum(flag for _, flag in pairs) == len(jobs) - len(set(alone))
