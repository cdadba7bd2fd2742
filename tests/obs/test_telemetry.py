"""Tests for hot-path counter aggregation (:mod:`repro.obs.telemetry`)."""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim import ScenarioConfig, build_scenario

_QUICK = ScenarioConfig(duration_s=20.0, warmup_s=0.0)


def _block(**overrides) -> RunTelemetry:
    telemetry = RunTelemetry(
        events_processed=100, spf_full_computations=2,
        flood_generated=5, cache_table_hits=3, cache_table_misses=1,
        wall_s=0.5,
    )
    for name, value in overrides.items():
        setattr(telemetry, name, value)
    return telemetry


def test_merge_sums_every_field():
    a = _block()
    b = _block(events_processed=50)
    merged = a.merge(b)
    assert merged.runs == 2
    assert merged.events_processed == 150
    assert merged.spf_full_computations == 4
    assert merged.wall_s == 1.0
    # Inputs untouched.
    assert a.events_processed == 100 and b.events_processed == 50


def test_merge_is_associative_and_commutative():
    a = _block(events_processed=1)
    b = _block(events_processed=10)
    c = _block(events_processed=100)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.to_dict() == right.to_dict()
    assert a.merge(b).to_dict() == b.merge(a).to_dict()


#: Every integer counter field -- derived from the dataclass so a newly
#: added counter is property-tested automatically.
_COUNTER_FIELDS = [
    f.name for f in dataclasses.fields(RunTelemetry)
    if f.name not in ("runs", "wall_s")
]


def _arbitrary_block(values) -> RunTelemetry:
    block = RunTelemetry()
    for name, value in zip(_COUNTER_FIELDS, values):
        setattr(block, name, value)
    return block


@given(st.lists(
    st.lists(st.integers(min_value=0, max_value=10**9),
             min_size=len(_COUNTER_FIELDS),
             max_size=len(_COUNTER_FIELDS)),
    min_size=3, max_size=3,
))
def test_merge_associativity_property_over_every_counter(rows):
    """(a+b)+c == a+(b+c) and a+b == b+a, fieldwise, for all counters."""
    a, b, c = (_arbitrary_block(row) for row in rows)
    left = a.merge(b).merge(c).to_dict()
    right = a.merge(b.merge(c)).to_dict()
    assert left == right
    assert a.merge(b).to_dict() == b.merge(a).to_dict()
    for name in ("flood_duplicates", "updates_retransmitted",
                 "meter_samples"):
        assert left[name] == sum(
            getattr(block, name) for block in (a, b, c)
        )


def test_merge_telemetry_reducer_skips_none():
    assert merge_telemetry([]) is None
    assert merge_telemetry([None, None]) is None
    a, b = _block(), _block(events_processed=1)
    merged = merge_telemetry([None, a, None, b])
    assert merged.runs == 2
    assert merged.events_processed == 101


def test_to_dict_covers_all_fields():
    field_names = {f.name for f in dataclasses.fields(RunTelemetry)}
    assert set(_block().to_dict()) == field_names


def test_collect_harvests_a_run():
    simulation = build_scenario("two-region-dspf", config=_QUICK)
    report = simulation.run()
    telemetry = simulation.telemetry()
    assert telemetry.runs == 1
    assert telemetry.events_processed > 0
    assert telemetry.events_pending == simulation.sim.pending
    assert telemetry.spf_full_computations >= len(simulation.psns)
    assert telemetry.flood_generated > 0
    assert telemetry.data_packets_sent > 0
    assert telemetry.trace_events == 0  # tracing was off
    # run() attached an equal harvest to its report.
    assert report.telemetry is not None
    assert report.telemetry.events_processed == telemetry.events_processed


def test_report_asdict_excludes_telemetry():
    """The golden snapshots must never see the observability side-channel."""
    simulation = build_scenario("two-region-dspf", config=_QUICK)
    report = simulation.run()
    assert report.telemetry is not None
    assert "telemetry" not in dataclasses.asdict(report)
