"""Tests for the configuration self-checks."""

from dataclasses import replace

import pytest

from repro.analysis import (
    all_passed,
    build_response_map,
    reference_link,
    validate_configuration,
)
from repro.metrics import DEFAULT_HNSPF_PARAMS, HNSPF_STAGES, HopNormalizedMetric
from repro.metrics.base import ease_in
from repro.topology import build_arpanet_1987, build_string_network
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix


@pytest.fixture(scope="module")
def arpanet_setting():
    network = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(
        network, 366_000.0, weights=site_weights()
    )
    response = build_response_map(network, traffic)
    link = reference_link("56K-T", propagation_s=0.001)
    return network, traffic, link, response


def run_checks(setting, metric=None):
    network, traffic, link, response = setting
    return validate_configuration(
        network, traffic, link, metric=metric, response=response
    )


def test_paper_defaults_pass_everything(arpanet_setting):
    checks = run_checks(arpanet_setting)
    assert all_passed(checks), [str(c) for c in checks if not c.passed]
    assert len(checks) == 6


def test_oversized_cap_fails_shedding_check(arpanet_setting):
    """max_cost = 255 means ~8.5 relative hops: above the network's
    shed-everything point, D-SPF's failure mode."""
    wide = HopNormalizedMetric(params={"56K-T": replace(
        DEFAULT_HNSPF_PARAMS["56K-T"], max_cost=255,
        max_up=130, max_down=129,
    )})
    checks = {c.name: c for c in run_checks(arpanet_setting, wide)}
    assert not checks["cap-below-shedding-point"].passed


def test_no_ease_in_fails_check(arpanet_setting):
    metric = HopNormalizedMetric(
        stages=[stage for stage in HNSPF_STAGES if stage is not ease_in]
    )
    checks = {c.name: c for c in run_checks(arpanet_setting, metric)}
    assert not checks["ease-in-starts-expensive"].passed


def test_sluggish_limits_fail_reaction_check(arpanet_setting):
    slow = HopNormalizedMetric(params={"56K-T": replace(
        DEFAULT_HNSPF_PARAMS["56K-T"], max_up=3, max_down=2,
        min_change=1,
    )})
    checks = {c.name: c for c in run_checks(arpanet_setting, slow)}
    assert not checks["reacts-within-a-few-periods"].passed


def test_chain_topology_fails_shedding_check():
    """A chain has no alternate paths: adaptive routing is pointless and
    the check says so."""
    network = build_string_network(4)
    traffic = TrafficMatrix.uniform(network, 50_000.0)
    link = reference_link("56K-T", propagation_s=0.001)
    checks = {
        c.name: c
        for c in validate_configuration(network, traffic, link)
    }
    assert not checks["cap-below-shedding-point"].passed
    assert "no alternate paths" in checks["cap-below-shedding-point"].detail


def test_check_result_str():
    checks = run_checks_str = None
    from repro.analysis.validation import CheckResult

    ok = CheckResult("x", True, "fine")
    bad = CheckResult("y", False, "broken")
    assert str(ok).startswith("[PASS] x")
    assert str(bad).startswith("[FAIL] y")
