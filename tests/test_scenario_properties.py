"""Property-based tests for scenario playback invariants.

Uses hypothesis (the ``test`` extra) to hammer the declarative scenario
layer with arbitrary *valid* inputs and assert the conservation laws the
sweep and study engines rely on:

* segment spans partition the run exactly — the last boundary is the
  run length and boundaries are strictly increasing;
* the phases a traffic source plays follow the spans, loads and size
  mixes of the segments;
* derived load figures (mean/peak/min) stay inside the per-segment
  bounds;
* :class:`PacketSizeMix` expectations stay inside the size range for
  arbitrary valid mixes.
"""

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the 'test' extra (hypothesis)"
)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import Scenario, ScenarioSegment
from repro.traffic.sizes import PacketSizeMix

settings.register_profile("repro", deadline=None, max_examples=60)
settings.load_profile("repro")

loads = st.floats(min_value=1.0, max_value=5000.0, allow_nan=False)
weights = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


@st.composite
def segments(draw) -> ScenarioSegment:
    process = draw(st.sampled_from(("poisson", "cbr", "mmpp")))
    return ScenarioSegment(
        weight=draw(weights),
        offered_load_mbps=draw(loads),
        process=process,
        burst_ratio=draw(st.floats(min_value=1.1, max_value=16.0)),
        burst_fraction=draw(st.floats(min_value=0.01, max_value=0.99)),
        size_mix=draw(st.sampled_from(("imix", "imix_downstream", "min64"))),
    )


@st.composite
def scenarios(draw) -> Scenario:
    scenario = Scenario(
        name="prop",
        title="property-test workload",
        description="generated by hypothesis",
        segments=tuple(draw(st.lists(segments(), min_size=1, max_size=8))),
        num_flows=draw(st.integers(min_value=1, max_value=4096)),
        zipf_s=draw(st.floats(min_value=0.0, max_value=2.0)),
    )
    scenario.validate()
    return scenario


@given(scenarios(), st.integers(min_value=1, max_value=10**13))
def test_segment_spans_partition_the_run(scenario, duration_ps):
    spans = scenario.segment_spans_ps(duration_ps)
    assert len(spans) == len(scenario.segments)
    assert spans[-1][0] == duration_ps
    boundaries = [end for end, _ in spans]
    assert boundaries == sorted(boundaries)
    assert all(0 <= end <= duration_ps for end in boundaries)
    # Playback order is preserved exactly.
    assert [segment for _, segment in spans] == list(scenario.segments)


@given(scenarios(), st.integers(min_value=1, max_value=10**13))
def test_phases_follow_the_segments(scenario, duration_ps):
    phases = scenario.phases(duration_ps)
    spans = scenario.segment_spans_ps(duration_ps)
    assert [end for end, _, _ in phases] == [end for end, _ in spans]
    for (_, process, mix), segment in zip(phases, scenario.segments):
        assert mix is segment.mix
        assert process.mean_rate_pps == pytest.approx(
            segment.offered_load_mbps * 1e6 / segment.mix.mean_bits
        )
    # Each call builds fresh processes: a process keeps its own state.
    assert phases[0][1] is not scenario.phases(duration_ps)[0][1]


@given(scenarios())
def test_load_figures_stay_within_segment_bounds(scenario):
    segment_loads = [s.offered_load_mbps for s in scenario.segments]
    assert scenario.peak_load_mbps == max(segment_loads)
    assert scenario.min_load_mbps == min(segment_loads)
    assert (
        min(segment_loads) - 1e-9
        <= scenario.mean_load_mbps
        <= max(segment_loads) + 1e-9
    )


@given(scenarios())
def test_mean_packet_bytes_within_mix_bounds(scenario):
    mix_means = [s.mix.mean_bytes for s in scenario.segments]
    assert (
        min(mix_means) - 1e-9
        <= scenario.mean_packet_bytes
        <= max(mix_means) + 1e-9
    )


@given(scenarios())
def test_dict_round_trip_is_lossless(scenario):
    assert Scenario.from_dict(scenario.to_dict()) == scenario


size_points = st.lists(
    st.tuples(
        st.integers(min_value=40, max_value=9000),
        st.floats(min_value=0.0, max_value=100.0),
    ),
    min_size=1,
    max_size=12,
).filter(lambda points: sum(weight for _, weight in points) > 0)


@given(size_points)
def test_size_mix_mean_stays_within_size_range(points):
    mix = PacketSizeMix(points)
    sizes = [size for size, _ in points]
    assert min(sizes) <= mix.mean_bytes <= max(sizes)
    assert mix.mean_bits == mix.mean_bytes * 8


@given(size_points, st.integers(min_value=0, max_value=2**32 - 1))
def test_size_mix_samples_only_listed_sizes(points, seed):
    import random

    mix = PacketSizeMix(points)
    rng = random.Random(seed)
    sizes = {size for size, _ in points}
    assert all(mix.sample(rng) in sizes for _ in range(32))
