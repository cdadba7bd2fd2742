"""Unit tests for named random streams."""

import random

import pytest

from repro.des import RandomStreams


def test_same_name_same_sequence():
    a = RandomStreams(master_seed=7)
    b = RandomStreams(master_seed=7)
    seq_a = [a.stream("traffic").random() for _ in range(10)]
    seq_b = [b.stream("traffic").random() for _ in range(10)]
    assert seq_a == seq_b


def test_different_names_are_decorrelated():
    streams = RandomStreams(master_seed=7)
    seq_a = [streams.stream("alpha").random() for _ in range(10)]
    seq_b = [streams.stream("beta").random() for _ in range(10)]
    assert seq_a != seq_b


def test_different_master_seeds_differ():
    seq_a = [RandomStreams(1).stream("x").random() for _ in range(5)]
    seq_b = [RandomStreams(2).stream("x").random() for _ in range(5)]
    assert seq_a != seq_b


def test_stream_independent_of_creation_order():
    first = RandomStreams(3)
    first.stream("aaa")
    value_after_other = first.stream("zzz").random()

    second = RandomStreams(3)
    value_alone = second.stream("zzz").random()
    assert value_after_other == value_alone


def test_seed_seeds_the_stream_sequence_without_caching():
    streams = RandomStreams(5)
    rebuilt = random.Random(streams.seed("flow-3-4"))
    assert streams._streams == {}
    cached = RandomStreams(5).stream("flow-3-4")
    assert [rebuilt.random() for _ in range(10)] == [
        cached.random() for _ in range(10)
    ]


def test_exponential_mean_roughly_correct():
    streams = RandomStreams(11)
    n = 20000
    mean = sum(streams.exponential("arrivals", 4.0) for _ in range(n)) / n
    assert mean == pytest.approx(4.0, rel=0.05)


def test_exponential_rejects_bad_mean():
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        streams.exponential("x", 0.0)


def test_uniform_within_bounds():
    streams = RandomStreams(5)
    for _ in range(100):
        value = streams.uniform("u", 2.0, 3.0)
        assert 2.0 <= value < 3.0


def test_choice_picks_members():
    streams = RandomStreams(9)
    options = ["red", "green", "blue"]
    picks = {streams.choice("c", options) for _ in range(50)}
    assert picks <= set(options)
    assert len(picks) > 1
