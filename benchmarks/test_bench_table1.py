"""Benchmark: regenerate Table 1 (network-wide performance indicators).

D-SPF under the May 1987 load vs HN-SPF under the 13% higher August 1987
load.  Shape assertions follow the paper: delay down despite more
traffic, fewer updates, path ratio down.
"""

from conftest import emit

from repro.experiments import table1


def test_bench_table1(benchmark):
    result = benchmark.pedantic(
        table1.run, kwargs={"fast": False}, rounds=1, iterations=1
    )
    emit(result)
    may, aug = result.data["may"], result.data["aug"]
    # HN-SPF carries MORE traffic (the offered load is 13% higher and it
    # delivers a larger fraction of it)...
    assert aug.internode_traffic_kbps > may.internode_traffic_kbps
    # ...with LOWER round-trip delay (paper: -46%; we accept any
    # meaningful reduction).
    assert aug.round_trip_delay_ms < 0.9 * may.round_trip_delay_ms
    # Fewer routing updates => longer update period per node (paper:
    # 22.1 s -> 26.3 s; ours, seed 3: 14.2 s -> 24.9 s, August's near
    # the paper's while May's D-SPF updates more often than the paper's).
    assert aug.update_period_per_node_s > may.update_period_per_node_s
    # Path ratio falls (paper: 1.24 -> 1.14).
    assert aug.path_ratio < may.path_ratio
    # Congestion drops fall despite the higher load (Figure 13's story).
    assert aug.congestion_drops < may.congestion_drops
    # Both runs deliver the bulk of their traffic.
    assert may.delivery_ratio > 0.85
    assert aug.delivery_ratio > 0.95
