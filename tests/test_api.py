"""Tests for the unified session API (repro.api).

Covers the policy objects (backend choice from arguments alone), the
Session facade (sweep order, streaming completion order on all three
backends, event hooks, store reuse/overwrite, figures run through a
session), and the study streaming surface (per-scenario verdicts,
byte-identical reports).
"""

import json
import threading

import pytest

import repro.api
from repro.api import (
    EventHooks,
    ExecutionPolicy,
    Session,
    StorePolicy,
    chain_hooks,
)
from repro.backends import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.backends.worker import run_worker
from repro.config import RunConfig, TrafficConfig
from repro.errors import ExperimentError
from repro.experiments.common import EDVS_WINDOWS_CYCLES
from repro.experiments.registry import get_experiment, run_experiment
from repro.runner import run_simulation
from repro.sweep import ResultStore, SweepSpec

#: Short, deterministic grid shared by the execution tests.
FAST = dict(duration_cycles=120_000, process="cbr", seeds=(11,))

#: A checker formula that always fails: forwarded spans take time > 0.
ALWAYS_FAILING_CHECK = "time(forward[i+1]) - time(forward[i]) <= 0"


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        policies=("none", "tdvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        traffic=("load:1000",),
        span=20,
        **FAST,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def assert_identical(left, right):
    assert [o.job_id for o in left] == [o.job_id for o in right]
    for a, b in zip(left, right):
        assert a.to_dict() == b.to_dict()


class TestExecutionPolicy:
    def test_environment_variables_choose_nothing(self, monkeypatch):
        # The retired environment channel: setting its variables changes
        # no backend choice.
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "process")
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        monkeypatch.setenv("REPRO_SWEEP_CONNECT", "127.0.0.1:0")
        assert isinstance(ExecutionPolicy().make_backend(4), SerialBackend)

    def test_classic_default_serial_for_single_pending_job(self):
        policy = ExecutionPolicy(workers=4)
        assert isinstance(policy.make_backend(1), SerialBackend)
        assert isinstance(policy.make_backend(2), ProcessBackend)

    def test_explicit_backend_keeps_its_worker_count(self):
        backend = ExecutionPolicy(backend="process", workers=3).make_backend(1)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 3

    def test_distributed_policy_binds_a_coordinator(self):
        policy = ExecutionPolicy(backend="distributed", connect="127.0.0.1:0")
        backend = policy.make_backend(4)
        try:
            assert isinstance(backend, DistributedBackend)
            assert backend.port != 0  # ephemeral port resolved at bind
        finally:
            backend.close()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            ExecutionPolicy(workers=0)

    @pytest.mark.parametrize(
        "field, value",
        [("early_abort", {"check_interval": 8}), ("retries", 5), ("lease_s", 9.0)],
    )
    def test_retired_fields_are_refused(self, field, value):
        with pytest.raises(TypeError):
            ExecutionPolicy(**{field: value})

    @pytest.mark.parametrize(
        "policy, name",
        [
            (ExecutionPolicy, "from_env"),
            (ExecutionPolicy, "scoped_env"),
            (ExecutionPolicy, "resolved_workers"),
            (ExecutionPolicy, "with_"),
            (StorePolicy, "with_"),
        ],
    )
    def test_environment_and_copy_methods_are_retired(self, policy, name):
        assert not hasattr(policy, name)

    def test_default_session_is_retired(self):
        assert "default_session" not in repro.api.__all__
        assert not hasattr(repro.api, "default_session")


class TestSessionSweep:
    def test_sweep_accepts_spec_and_preserves_job_order(self):
        spec = small_spec()
        jobs = spec.jobs()
        outcomes = Session().sweep(spec)
        assert [o.job_id for o in outcomes] == [j.job_id for j in jobs]

    def test_duplicate_jobs_execute_once_and_fan_out(self):
        jobs = small_spec(policies=("none",)).jobs()
        doubled = jobs + jobs
        starts = []
        session = Session(hooks=EventHooks(on_job_start=starts.append))
        outcomes = session.sweep(doubled)
        assert len(outcomes) == 2
        assert outcomes[0] is outcomes[1]
        assert len(starts) == 1  # executed once

    def test_run_single_config_matches_run_simulation(self):
        config = RunConfig(
            benchmark="ipfwdr",
            duration_cycles=120_000,
            seed=11,
            traffic=TrafficConfig(offered_load_mbps=1000.0, process="cbr"),
        )
        outcome = Session().run(config, label="one-off")
        direct = run_simulation(config)
        assert outcome.label == "one-off"
        assert outcome.result.totals == direct.totals

    def test_session_experiment_runs_under_policy(self):
        session = Session(execution=ExecutionPolicy(workers=1))
        result = session.experiment("fig01")
        assert result.experiment_id == "fig01"

    def test_session_experiment_rejects_backend_instances(self):
        # A figure may run several sweeps; an instance is single-use.
        session = Session(execution=ExecutionPolicy(backend=SerialBackend()))
        with pytest.raises(ExperimentError, match="named backend"):
            session.experiment("fig01")

    def test_figure_grid_sweeps_through_the_session(self):
        # fig10's five-job grid runs through the session's policy,
        # store and hooks; two workers give the serial session's data.
        seen = []
        store = ResultStore()
        serial = Session(
            store=StorePolicy(store=store),
            hooks=EventHooks(on_outcome=seen.append),
        ).experiment("fig10", profile="bench")
        parallel = Session(execution=ExecutionPolicy(workers=2)).experiment(
            "fig10", profile="bench"
        )
        assert len(seen) == len(store) == 1 + len(EDVS_WINDOWS_CYCLES)
        assert parallel.to_json() == serial.to_json()

    def test_registry_entry_points_run_through_the_session(self):
        # run_experiment and Experiment.run hand their session on, and
        # an instance backend is refused on that path too.
        seen = []
        session = Session(hooks=EventHooks(on_outcome=seen.append))
        result = run_experiment("fig10", profile="bench", session=session)
        assert len(seen) == 1 + len(EDVS_WINDOWS_CYCLES)
        assert result.to_json() == get_experiment("fig10").run("bench").to_json()
        instance = Session(execution=ExecutionPolicy(backend=SerialBackend()))
        with pytest.raises(ExperimentError, match="named backend"):
            run_experiment("fig01", session=instance)


class TestSessionStream:
    def test_serial_stream_yields_in_submission_order(self):
        jobs = small_spec().jobs()
        session = Session(execution=ExecutionPolicy(backend="serial"))
        streamed = list(session.stream(jobs))
        assert [o.job_id for o in streamed] == [j.job_id for j in jobs]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_stream_yields_every_job_exactly_once(self, backend):
        jobs = small_spec().jobs()
        session = Session(
            execution=ExecutionPolicy(backend=backend, workers=2)
        )
        streamed = list(session.stream(jobs))
        assert sorted(o.job_id for o in streamed) == sorted(
            j.job_id for j in jobs
        )

    def test_stream_is_incremental_not_batched(self):
        """The first outcome must arrive before the last job finishes:
        each serial yield happens with later jobs still pending."""
        jobs = small_spec().jobs()
        seen_at_yield = []
        session = Session(execution=ExecutionPolicy(backend="serial"))
        started = []
        stream = session.stream(
            jobs, hooks=EventHooks(on_job_start=started.append)
        )
        for outcome in stream:
            seen_at_yield.append((outcome.job_id, len(started)))
        # At the first yield only the first job had been dispatched.
        assert seen_at_yield[0][1] == 1
        assert seen_at_yield[-1][1] == len(jobs)

    def test_cached_outcomes_stream_first(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        store = ResultStore(path)
        session = Session(store=StorePolicy(store=store))
        session.sweep(jobs[:1])  # prime the cache with the first job
        streamed = list(
            Session(store=StorePolicy(path=path)).stream(list(reversed(jobs)))
        )
        assert streamed[0].job_id == jobs[0].job_id
        assert streamed[0].cached

    @pytest.mark.slow
    def test_distributed_stream_yields_outcomes_in_completion_order(self):
        jobs = small_spec().jobs()
        backend = DistributedBackend(port=0)
        workers = [
            threading.Thread(
                target=run_worker, args=(backend.address,),
                kwargs={"log": None}, daemon=True,
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        session = Session(execution=ExecutionPolicy(backend=backend))
        streamed = list(session.stream(jobs))
        for worker in workers:
            worker.join(timeout=60)
        assert sorted(o.job_id for o in streamed) == sorted(
            j.job_id for j in jobs
        )
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        by_id = {o.job_id: o for o in streamed}
        assert_identical(serial, [by_id[j.job_id] for j in jobs])


class TestEventHooks:
    def test_all_hooks_fire(self):
        jobs = small_spec(policies=("none",)).jobs()
        events = {"start": [], "outcome": [], "progress": []}
        session = Session(
            hooks=EventHooks(
                on_job_start=lambda job: events["start"].append(job.job_id),
                on_outcome=lambda o: events["outcome"].append(o.job_id),
                progress=lambda done, total, o: events["progress"].append(
                    (done, total)
                ),
            )
        )
        session.sweep(jobs)
        assert events["start"] == [jobs[0].job_id]
        assert events["outcome"] == [jobs[0].job_id]
        assert events["progress"] == [(1, 1)]

    def test_on_check_failed_fires_for_violations(self):
        jobs = small_spec(
            policies=("none",), checks=(ALWAYS_FAILING_CHECK,)
        ).jobs()
        failures = []
        session = Session(
            hooks=EventHooks(
                on_check_failed=lambda o, failed: failures.append(
                    (o.job_id, [c.formula_text for c in failed])
                )
            )
        )
        (outcome,) = session.sweep(jobs)
        assert not outcome.assertions_passed
        assert len(failures) == 1
        job_id, formulas = failures[0]
        assert job_id == jobs[0].job_id
        # The checker reports its canonical (unparsed) formula text.
        assert formulas == [outcome.check_results[0].formula_text]
        assert "<= 0" in formulas[0]

    def test_on_check_failed_quiet_when_checks_pass(self):
        jobs = small_spec(policies=("none",)).jobs()
        failures = []
        session = Session(
            hooks=EventHooks(
                on_check_failed=lambda o, failed: failures.append(o)
            )
        )
        session.sweep(jobs)
        assert failures == []

    def test_session_and_call_hooks_both_fire(self):
        jobs = small_spec(policies=("none",)).jobs()
        order = []
        session = Session(
            hooks=EventHooks(on_outcome=lambda o: order.append("session"))
        )
        session.sweep(
            jobs, hooks=EventHooks(on_outcome=lambda o: order.append("call"))
        )
        assert order == ["session", "call"]

    def test_chain_hooks_empty_is_falsy(self):
        assert not chain_hooks(None, EventHooks())
        assert chain_hooks(EventHooks(progress=print))

    def test_chain_hooks_fans_out_every_hook(self):
        # chain_hooks names each hook by hand; every field of
        # EventHooks must reach both bundles, session first.
        import dataclasses

        names = [spec.name for spec in dataclasses.fields(EventHooks)]
        calls = []

        def bundle(tag):
            return EventHooks(**{
                name: (lambda *args, name=name: calls.append((name, tag)))
                for name in names
            })

        chained = chain_hooks(bundle("session"), bundle("call"))
        for name in names:
            getattr(chained, name)(None)
        assert calls == [
            (name, tag) for name in names for tag in ("session", "call")
        ]

    def test_on_abort_hook_is_retired(self):
        with pytest.raises(TypeError):
            EventHooks(on_abort=print)


class TestStorePolicy:
    def test_reuse_serves_cached_outcomes(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        session = Session(store=StorePolicy(path=path))
        fresh = session.sweep(jobs)
        assert all(not o.cached for o in fresh)
        replay = session.sweep(jobs)
        assert all(o.cached for o in replay)

    def test_overwrite_reruns_and_replaces_records(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec(policies=("none",)).jobs()
        Session(store=StorePolicy(path=path)).sweep(jobs)
        rerun = Session(store=StorePolicy(path=path, reuse=False)).sweep(jobs)
        assert all(not o.cached for o in rerun)
        # The file holds two lines for the job; the *last* one wins on
        # reload, so the store still resolves to one record.
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 2
        assert len(ResultStore(path)) == 1

    def test_store_instance_wins_over_path(self, tmp_path):
        shared = ResultStore()  # in-memory
        policy = StorePolicy(path=str(tmp_path / "ignored.jsonl"), store=shared)
        assert policy.make() is shared


class TestSessionStudy:
    def _spec(self, scenarios=("flash_crowd", "bursty_onoff")):
        from repro.studies import StudySpec

        spec = StudySpec(
            scenarios=scenarios,
            policies=("tdvs",),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
            seeds=(11,),
        )
        spec.validate()
        return spec

    def test_on_scenario_complete_fires_per_scenario(self):
        spec = self._spec()
        verdicts = []
        session = Session(execution=ExecutionPolicy(workers=1))
        result = session.study(spec, on_scenario_complete=verdicts.append)
        assert sorted(v.scenario for v in verdicts) == sorted(
            spec.resolved_scenarios()
        )
        # Early verdicts are identical to the final map's entries.
        for verdict in verdicts:
            final = result.policy_map.entries[verdict.scenario]
            assert verdict.to_dict() == final.to_dict()

    def test_scenario_verdicts_stream_before_study_ends(self):
        """With a serial backend the first scenario's verdict must land
        before the second scenario's outcomes exist."""
        spec = self._spec()
        timeline = []
        session = Session(
            execution=ExecutionPolicy(backend="serial"),
            hooks=EventHooks(
                on_outcome=lambda o: timeline.append(("outcome", o.job_id))
            ),
        )
        session.study(
            spec,
            on_scenario_complete=lambda v: timeline.append(
                ("verdict", v.scenario)
            ),
        )
        first_verdict = next(
            i for i, (kind, _) in enumerate(timeline) if kind == "verdict"
        )
        assert first_verdict < len(timeline) - 1  # not the last event
