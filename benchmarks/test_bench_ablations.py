"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation switches off one ingredient of the revised metric -- a
stage removed from its chain, or a parameter changed -- and checks the
failure mode the paper predicts for its absence, using the same
equilibrium-model machinery as Figures 9-12.
"""

from dataclasses import replace

import pytest

from repro.analysis import cobweb_trace, equilibrium_point
from repro.experiments.base import (
    arpanet_response_map,
    equilibrium_reference_link,
)
from repro.experiments.fig12 import run as fig12_run
from repro.metrics import HNSPF_STAGES, HopNormalizedMetric
from repro.metrics.base import average, ease_in, limit
from repro.metrics.params import DEFAULT_HNSPF_PARAMS
from repro.report import ascii_table


def without(*removed):
    """HN-SPF with ``removed`` taken out of its chain."""
    return HopNormalizedMetric(
        stages=[stage for stage in HNSPF_STAGES if stage not in removed]
    )


@pytest.fixture(scope="module")
def rmap():
    return arpanet_response_map()


@pytest.fixture(scope="module")
def link():
    return equilibrium_reference_link()


def test_bench_ablation_movement_limits(benchmark, rmap, link):
    """Without movement limits HN-SPF oscillates with larger amplitude
    (but stays bounded by the cap, unlike D-SPF)."""

    def compare():
        bounded = cobweb_trace(
            HopNormalizedMetric(), link, rmap, 3.0, periods=80
        )
        unbounded = cobweb_trace(
            without(limit), link, rmap, 3.0, periods=80
        )
        return bounded, unbounded

    bounded, unbounded = benchmark(compare)
    emit_rows = [
        ("with limits", bounded.amplitude(), max(bounded.reported_hops)),
        ("without limits", unbounded.amplitude(),
         max(unbounded.reported_hops)),
    ]
    print()
    print(ascii_table(
        ["variant", "tail amplitude (hops)", "peak cost (hops)"],
        emit_rows, title="Ablation: movement limits at 300% offered load",
    ))
    assert unbounded.amplitude() >= bounded.amplitude()
    assert max(unbounded.reported_hops) <= 3.0 + 1e-9  # cap still holds


def test_bench_ablation_averaging_filter(benchmark, rmap, link):
    """Without the recursive filter the loop reacts a full step per
    period: faster oscillation (more sign flips in the cost series)."""

    def compare():
        smoothed = cobweb_trace(
            without(limit), link, rmap, 3.0, periods=80
        )
        raw = cobweb_trace(
            without(limit, average), link, rmap, 3.0, periods=80
        )
        return smoothed, raw

    def flips(trace):
        deltas = [
            b - a
            for a, b in zip(trace.reported_hops, trace.reported_hops[1:])
        ]
        return sum(
            1 for d0, d1 in zip(deltas, deltas[1:]) if d0 * d1 < 0
        )

    smoothed, raw = benchmark(compare)
    print()
    print(ascii_table(
        ["variant", "direction flips", "amplitude"],
        [
            ("averaging filter (0.5)", flips(smoothed),
             smoothed.amplitude()),
            ("no filter (1.0)", flips(raw), raw.amplitude()),
        ],
        title="Ablation: the recursive averaging filter",
    ))
    # "Averaging increases the period of routing oscillations."
    assert flips(raw) >= flips(smoothed)


def test_bench_ablation_absolute_cap(benchmark, rmap, link):
    """Raising the 3x cap toward the 8-bit limit recreates D-SPF's
    sheds-everything behaviour: lower equilibrium utilization."""
    wide_params = {
        "56K-T": replace(
            DEFAULT_HNSPF_PARAMS["56K-T"], max_cost=255,
            max_up=255, max_down=254, min_change=1,
        )
    }

    def compare():
        capped = equilibrium_point(
            HopNormalizedMetric(), link, rmap, 2.0
        )
        uncapped = equilibrium_point(
            HopNormalizedMetric(params=wide_params), link, rmap, 2.0
        )
        return capped, uncapped

    capped, uncapped = benchmark(compare)
    print()
    print(ascii_table(
        ["variant", "equilibrium cost (hops)", "equilibrium utilization"],
        [
            ("3x cap (paper)", capped.reported_cost_hops,
             capped.utilization),
            ("8-bit cap (D-SPF-like)", uncapped.reported_cost_hops,
             uncapped.utilization),
        ],
        title="Ablation: absolute cost cap at 200% offered load",
    ))
    assert capped.utilization >= uncapped.utilization


def test_bench_ablation_utilization_threshold(benchmark, rmap, link):
    """Dropping the 50% flat region makes the metric shed traffic at
    light loads, wasting capacity exactly where D-SPF does."""
    eager_params = {
        "56K-T": replace(
            DEFAULT_HNSPF_PARAMS["56K-T"], utilization_threshold=0.0
        )
    }

    def compare():
        with_knee = equilibrium_point(
            HopNormalizedMetric(), link, rmap, 0.5
        )
        without_knee = equilibrium_point(
            HopNormalizedMetric(params=eager_params), link, rmap, 0.5
        )
        return with_knee, without_knee

    with_knee, without_knee = benchmark(compare)
    print()
    print(ascii_table(
        ["variant", "equilibrium utilization at 50% load"],
        [
            ("50% threshold (paper)", with_knee.utilization),
            ("0% threshold", without_knee.utilization),
        ],
        title="Ablation: the utilization threshold",
    ))
    assert with_knee.utilization == pytest.approx(0.5, abs=0.02)
    assert without_knee.utilization < with_knee.utilization


def test_bench_ablation_ease_in(benchmark, rmap, link):
    """Without ease-in a recovering link starts at its minimum cost and
    instantly attracts the full offered load (the overshoot the paper's
    ease-in avoids)."""

    def compare():
        eased = cobweb_trace(
            HopNormalizedMetric(), link, rmap, 1.5, periods=40
        )
        abrupt = cobweb_trace(
            without(ease_in), link, rmap, 1.5, periods=40
        )
        return eased, abrupt

    eased, abrupt = benchmark(compare)
    print()
    print(ascii_table(
        ["variant", "first-period utilization", "peak early utilization"],
        [
            ("ease-in (start at max)", eased.utilizations[0],
             max(eased.utilizations[:5])),
            ("no ease-in (start at min)", abrupt.utilizations[0],
             max(abrupt.utilizations[:5])),
        ],
        title="Ablation: easing in a new link at 150% offered load",
    ))
    assert abrupt.utilizations[0] > eased.utilizations[0]
    assert abrupt.utilizations[0] == pytest.approx(1.0, abs=0.01)


def test_bench_ablation_fig12_machinery(benchmark):
    """Sanity: the full Figure-12 pipeline runs end to end quickly."""
    result = benchmark(fig12_run, fast=True)
    assert result.data["easing"].converged(tolerance=0.5)


def test_bench_parameter_sensitivity(benchmark, rmap, link):
    """One table quantifying every knob the paper leaves tunable."""
    from repro.analysis import sweep_parameter
    from repro.metrics.params import DEFAULT_HNSPF_PARAMS

    base = DEFAULT_HNSPF_PARAMS["56K-T"]

    def sweep_all():
        return {
            "max_cost": sweep_parameter(
                base, "max_cost", [60, 90, 150, 255], link, rmap, 2.0
            ),
            "utilization_threshold": sweep_parameter(
                base, "utilization_threshold", [0.0, 0.25, 0.5, 0.75],
                link, rmap, 2.0,
            ),
            "max_up": sweep_parameter(
                base, "max_up", [5, 17, 45], link, rmap, 2.0
            ),
        }

    sweeps = benchmark(sweep_all)
    rows = [
        (field, point.value, point.equilibrium_utilization,
         point.oscillation_amplitude_hops)
        for field, points in sweeps.items()
        for point in points
    ]
    print()
    print(ascii_table(
        ["parameter", "value", "equilibrium util @200% load",
         "oscillation amplitude (hops)"],
        rows,
        title="HN-SPF parameter sensitivity (paper defaults: max_cost "
              "90, threshold 0.5, max_up 17)",
    ))
    caps = [p.equilibrium_utilization for p in sweeps["max_cost"]]
    assert caps == sorted(caps, reverse=True)
    knees = [
        p.equilibrium_utilization
        for p in sweeps["utilization_threshold"]
    ]
    assert knees == sorted(knees)
    amplitudes = [
        p.oscillation_amplitude_hops for p in sweeps["max_up"]
    ]
    assert amplitudes[0] < amplitudes[-1]
