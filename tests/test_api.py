"""Tests for the unified session API (repro.api).

Covers the policy objects (env/kwarg precedence, resolution order),
the Session facade (sweep order, streaming completion order on all
three backends, event hooks, store reuse/overwrite), and the study
streaming surface (per-scenario verdicts, byte-identical reports).
"""

import json
import os
import threading

import pytest

from repro.api import (
    EventHooks,
    ExecutionPolicy,
    Session,
    StorePolicy,
    chain_hooks,
    default_session,
)
from repro.backends import (
    BACKEND_ENV_VAR,
    CONNECT_ENV_VAR,
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.backends.worker import run_worker
from repro.config import RunConfig, TrafficConfig
from repro.errors import ExperimentError
from repro.runner import run_simulation
from repro.sweep import ResultStore, SweepSpec
from repro.sweep.engine import WORKERS_ENV_VAR

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
    def test_defaults_defer_to_env_at_resolve_time(self, monkeypatch):
        policy = ExecutionPolicy()
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert policy.resolved_workers() == 6
        assert isinstance(policy.make_backend(4), SerialBackend)

    def test_from_env_captures_variables_once(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(CONNECT_ENV_VAR, "127.0.0.1:7641")
        policy = ExecutionPolicy.from_env()
        assert policy.backend == "process"
        assert policy.workers == 3
        assert policy.connect == "127.0.0.1:7641"
        # Captured: later environment changes no longer matter.
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        backend = policy.make_backend(4)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 3

    def test_explicit_kwargs_beat_env_in_from_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        policy = ExecutionPolicy.from_env(workers=2, backend="serial")
        assert policy.workers == 2
        assert policy.backend == "serial"
        assert isinstance(policy.make_backend(4), SerialBackend)

    def test_explicit_field_beats_env_at_resolve_time(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        policy = ExecutionPolicy(backend="serial", workers=2)
        assert policy.resolved_workers() == 2
        assert isinstance(policy.make_backend(4), SerialBackend)

    def test_classic_default_serial_for_single_pending_job(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        policy = ExecutionPolicy(workers=4)
        assert isinstance(policy.make_backend(1), SerialBackend)
        assert isinstance(policy.make_backend(2), ProcessBackend)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            ExecutionPolicy(workers=0)

    def test_invalid_retries_rejected(self):
        with pytest.raises(ExperimentError, match="retries"):
            ExecutionPolicy(retries=-1)

    def test_early_abort_field_is_retired(self):
        with pytest.raises(TypeError):
            ExecutionPolicy(early_abort={"check_interval": 8})

    def test_bad_env_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(ExperimentError):
            ExecutionPolicy.from_env()

    def test_session_rejects_bad_env_workers_at_run_time(self, monkeypatch):
        # An unset policy resolves REPRO_SWEEP_WORKERS when the sweep
        # starts, not when the session is built.
        session = Session()
        monkeypatch.setenv(WORKERS_ENV_VAR, "not a number")
        with pytest.raises(ExperimentError):
            session.sweep(small_spec(policies=("none",)).jobs())

    def test_retries_and_lease_reach_distributed_backend(self):
        policy = ExecutionPolicy(
            backend="distributed", connect="127.0.0.1:0",
            retries=5, lease_s=9.0,
        )
        backend = policy.make_backend(4)
        try:
            assert isinstance(backend, DistributedBackend)
            assert backend.max_retries == 5
            assert backend.lease_s == 9.0
        finally:
            backend.close()

    def test_scoped_env_exports_and_restores(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        policy = ExecutionPolicy(backend="serial", workers=2)
        with policy.scoped_env():
            assert os.environ[WORKERS_ENV_VAR] == "2"
            assert os.environ[BACKEND_ENV_VAR] == "serial"
        assert WORKERS_ENV_VAR not in os.environ
        assert os.environ[BACKEND_ENV_VAR] == "process"

    def test_scoped_env_rejects_backend_instances(self):
        policy = ExecutionPolicy(backend=SerialBackend())
        with pytest.raises(ExperimentError, match="named backend"):
            with policy.scoped_env():
                pass  # pragma: no cover

    def test_with_override(self):
        policy = ExecutionPolicy(workers=2)
        assert policy.with_(workers=5).workers == 5
        assert policy.workers == 2


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

    def test_default_session_is_shared(self):
        assert default_session() is default_session()


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
