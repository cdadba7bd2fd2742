"""Tests for the experiment-harness plumbing."""

import pytest

from repro.experiments.base import (
    ExperimentResult,
    arpanet_response_map,
    arpanet_traffic,
    equilibrium_reference_link,
    fresh_arpanet,
)
from repro.sim.scenarios import AUG_1987_BPS, MAY_1987_BPS


def test_paper_traffic_totals():
    """Table 1's internode traffic figures, in b/s."""
    assert MAY_1987_BPS == pytest.approx(366_260.0)
    assert AUG_1987_BPS == pytest.approx(413_990.0)
    assert AUG_1987_BPS / MAY_1987_BPS == \
        pytest.approx(1.13, abs=0.01)


def test_arpanet_traffic_scales():
    traffic = arpanet_traffic()
    assert traffic.total_bps() == pytest.approx(MAY_1987_BPS)
    heavier = arpanet_traffic(AUG_1987_BPS)
    assert heavier.total_bps() == pytest.approx(AUG_1987_BPS)


def test_response_map_is_cached():
    first = arpanet_response_map()
    second = arpanet_response_map()
    assert first is second


def test_reference_link_has_negligible_propagation():
    link = equilibrium_reference_link()
    assert link.line_type.name == "56K-T"
    assert link.propagation_s <= 0.002


def test_fresh_arpanet_instances_independent():
    a = fresh_arpanet()
    b = fresh_arpanet()
    a.set_circuit_state(0, up=False)
    assert b.links[0].up


def test_experiment_result_str_is_rendered():
    result = ExperimentResult("x", "Title", "the body", {})
    assert str(result) == "the body"
