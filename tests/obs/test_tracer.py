"""Unit tests for the tracer and its sinks (:mod:`repro.obs.tracer`)."""

import json

import pytest

from repro.obs.tracer import (
    COST_CHANGE,
    EVENT_KINDS,
    JsonlSink,
    NULL_TRACER,
    NullSink,
    PACKET_DROP,
    RingSink,
    Tracer,
    build_tracer,
)


def test_event_kinds_are_distinct_strings():
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
    assert all(isinstance(kind, str) for kind in EVENT_KINDS)


def _emitted(*args, **kwargs):
    tracer = Tracer(RingSink())
    tracer.emit(*args, **kwargs)
    (event,) = tracer.events()
    return event


def test_event_to_dict_omits_none_fields():
    event = _emitted(1.5, COST_CHANGE, link=3, value=42)
    assert event == {"t": 1.5, "kind": COST_CHANGE, "link": 3, "value": 42}
    # The key order is the JSONL line's.
    assert list(event) == ["t", "kind", "link", "value"]


def test_event_to_dict_merges_extra_data():
    event = _emitted(2.0, PACKET_DROP, node=7,
                     data={"reason": "congestion", "dst": 9})
    assert event == {
        "t": 2.0, "kind": PACKET_DROP, "node": 7,
        "reason": "congestion", "dst": 9,
    }


def test_ring_sink_keeps_most_recent_events():
    tracer = Tracer(RingSink(capacity=3))
    for i in range(5):
        tracer.emit(float(i), COST_CHANGE, link=0, value=i)
    assert tracer.events_emitted == 5
    assert [e["value"] for e in tracer.events()] == [2, 3, 4]


def test_ring_sink_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingSink(capacity=0)


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(str(path)))
    tracer.emit(1.0, COST_CHANGE, link=2, value=46)
    tracer.emit(2.0, PACKET_DROP, node=4, data={"reason": "hop-limit"})
    tracer.close()
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"t": 1.0, "kind": COST_CHANGE, "link": 2, "value": 46},
        {"t": 2.0, "kind": PACKET_DROP, "node": 4, "reason": "hop-limit"},
    ]


def test_null_sink_counts_but_retains_nothing():
    tracer = Tracer(NullSink())
    tracer.emit(0.0, COST_CHANGE, link=0, value=1)
    assert tracer.enabled
    assert tracer.events_emitted == 1
    with pytest.raises(TypeError):
        tracer.events()  # only RingSink retains


def test_null_tracer_is_disabled_and_sinkless():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.sink is None


def test_build_tracer_specs(tmp_path):
    assert build_tracer(None) is NULL_TRACER
    assert isinstance(build_tracer("memory").sink, RingSink)
    assert isinstance(build_tracer("null").sink, NullSink)
    path = str(tmp_path / "t.jsonl")
    jsonl = build_tracer(path)
    assert isinstance(jsonl.sink, JsonlSink)
    jsonl.close()
    existing = Tracer(RingSink())
    assert build_tracer(existing) is existing
    with pytest.raises(TypeError):
        build_tracer(1234)
