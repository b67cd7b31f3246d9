"""Exact integer energy: who watches never matters, and the books balance.

Energy is computed from counters only when it is read (see
:mod:`repro.power.model`), so:

* the report has a fixed set of components, in a fixed order;
* who watches a run never changes its totals — study monitors,
  named-only subscribers and readers at random events alike;
* at any instant the components' integer units sum exactly to the
  total, and two reads at one instant agree;
* an ME's units equal busy_ps × P_busy + other_ps × P_idle summed over
  its V/F intervals, recomputed here from the power model alone.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.experiments.common import cycles_for, span_for
from repro.npu.chip import build_chip
from repro.npu.microengine import BUSY
from repro.power.model import FW_PER_W
from repro.runner import SimulationRun, run_simulation
from repro.studies import StudySpec
from repro.sweep.engine import run_job

from conftest import quick_config

BREAKDOWN_KEYS = [
    "me0", "me1", "me2", "me3", "me4", "me5",
    "sram", "sdram", "scratch", "ixbus", "base", "dvs_overhead",
]

#: Every named-only channel that reads the annotations per request.
NAMED_ONLY_CHANNELS = ("mem_sram", "mem_sdram", "mem_scratch", "mem_ixbus")


def totals_json(result) -> str:
    return json.dumps(dataclasses.asdict(result.totals), sort_keys=True)


def catalog_jobs():
    """Each catalog scenario × {none, tdvs, edvs}: bench profile, seed 7."""
    spec = StudySpec(
        policies=("tdvs", "edvs"),
        thresholds_mbps=(1000.0,),
        windows_cycles=(40_000,),
        seeds=(7,),
        duration_cycles=cycles_for("bench"),
        span=span_for("bench"),
    )
    return [job for _, jobs in spec.jobs_by_scenario() for job in jobs]


CATALOG_JOBS = catalog_jobs()


def short_config(app, policy, load_mbps, seed=3) -> RunConfig:
    return RunConfig(
        benchmark=app,
        duration_cycles=90_000,
        seed=seed,
        traffic=TrafficConfig(offered_load_mbps=load_mbps),
        dvs=DvsConfig(policy=policy, window_cycles=10_000),
    )


configs = st.builds(
    short_config,
    app=st.sampled_from(["ipfwdr", "nat", "url", "md4"]),
    policy=st.sampled_from(["none", "tdvs", "edvs", "combined"]),
    load_mbps=st.sampled_from([300.0, 900.0, 1600.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestBreakdownKeys:
    def test_zero_traffic_run_reports_every_component(self):
        chip = build_chip(quick_config())
        chip.start()
        chip.sim.run(until_ps=50_000_000)
        breakdown = chip.totals().power_breakdown_w
        assert list(breakdown) == BREAKDOWN_KEYS
        for name in ("sram", "sdram", "scratch", "ixbus", "dvs_overhead"):
            assert breakdown[name] == 0.0

    @pytest.mark.parametrize("app", ["ipfwdr", "nat"])
    def test_order_does_not_follow_first_access(self, app):
        result = run_simulation(
            RunConfig(
                benchmark=app,
                duration_cycles=200_000,
                seed=7,
                traffic=TrafficConfig(offered_load_mbps=800.0),
            )
        )
        assert list(result.totals.power_breakdown_w) == BREAKDOWN_KEYS

    def test_dvs_overhead_w_is_the_breakdown_entry(self):
        result = run_simulation(short_config("ipfwdr", "tdvs", 900.0))
        assert result.dvs_overhead_w > 0
        assert result.dvs_overhead_w == result.totals.power_breakdown_w["dvs_overhead"]


class TestObservationIndependence:
    @pytest.mark.parametrize(
        "job", CATALOG_JOBS, ids=[job.label for job in CATALOG_JOBS]
    )
    def test_totals_identical_whoever_watches(self, job):
        config = job.run_config()
        unobserved = SimulationRun(config).run()
        monitored = run_job(job).result
        run = SimulationRun(config)
        for name in NAMED_ONLY_CHANNELS:
            run.bus.subscribe(name, lambda row: None)
        subscribed = run.run()
        assert totals_json(monitored) == totals_json(unobserved)
        assert totals_json(subscribed) == totals_json(unobserved)

    @given(
        config=configs,
        channel=st.sampled_from(["forward", "fifo", "mem_sdram", "mem_sram"]),
        read_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reads_at_random_events_leave_totals_unchanged(
        self, config, channel, read_seed
    ):
        unobserved = SimulationRun(config).run()
        run = SimulationRun(config)
        accountant = run.chip.accountant
        chooser = random.Random(read_seed)

        def maybe_read(row):
            if chooser.random() < 0.5:
                accountant.total_energy_j()

        run.bus.subscribe(channel, maybe_read)
        assert totals_json(run.run()) == totals_json(unobserved)


class TestIntegerIdentity:
    @given(
        config=configs,
        instants=st.lists(
            st.integers(min_value=0, max_value=149_000_000), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_components_sum_to_total_and_reads_repeat(self, config, instants):
        run = SimulationRun(config)
        accountant = run.chip.accountant
        reads = []

        def read():
            components = accountant.component_units()
            total = accountant.total_units()
            assert sum(components.values()) == total
            assert accountant.component_units() == components
            assert accountant.total_units() == total
            reads.append(total)

        for at_ps in instants:
            run.sim.schedule_at(at_ps, read)
        run.run()
        read()
        assert reads == sorted(reads)

    def test_me_units_equal_residency_times_prices(self):
        # A TDVS run whose level moves both ways, with stalls on every
        # transition: each ME closes several V/F intervals.
        config = RunConfig(
            benchmark="ipfwdr",
            duration_cycles=cycles_for("bench"),
            seed=7,
            traffic=TrafficConfig.for_scenario("flash_crowd"),
            dvs=DvsConfig(policy="tdvs", window_cycles=20_000),
        )
        run = SimulationRun(config)
        chip = run.chip
        model = chip.me_power_model
        logs = {}
        for me in chip.mes:
            log = logs[me.index] = []

            def recording_set_vf(freq_hz, vdd, me=me, log=log, set_vf=me.set_vf):
                log.append((me.states.totals_ps(), me.clock.freq_hz, me.vdd))
                set_vf(freq_hz, vdd)

            me.set_vf = recording_set_vf
        run.run()
        assert run.governor.transitions >= 2
        components = chip.accountant.component_units()
        for me in chip.mes:
            intervals = logs[me.index] + [
                (me.states.totals_ps(), me.clock.freq_hz, me.vdd)
            ]
            assert len({(freq, vdd) for _, freq, vdd in intervals}) >= 2
            units = busy_before = other_before = 0
            for totals, freq_hz, vdd in intervals:
                busy = totals.get(BUSY, 0)
                other = sum(totals.values()) - busy
                p_busy = round(model.active_w(freq_hz, vdd) * FW_PER_W)
                p_idle = round(model.idle_w(freq_hz, vdd) * FW_PER_W)
                units += (busy - busy_before) * p_busy
                units += (other - other_before) * p_idle
                busy_before, other_before = busy, other
            assert other_before > 0
            assert components[f"me{me.index}"] == units
