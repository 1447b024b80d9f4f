"""Full-stack grid-vs-brute equivalence: same seeds, same RunSummary.

The spatial-grid link builder must be invisible to protocol behavior: a
complete run (placement, mobility, PHY, MAC, BLESS, multicast, metrics)
produces a bit-identical summary to the same run with every link table
served by the brute-force reference. The reference replaces
``table_from`` on the built network, so ``ScenarioConfig`` -- and every
``config_hash`` derived from it -- is identical on both sides.
"""

from repro.world.network import ScenarioConfig, build_network
from tests.phy.brute_links import install_reference_tables


def run_with_links(config, reference):
    network = build_network(config)
    neighbors = network.testbed.neighbors
    if reference:
        install_reference_tables(neighbors)
    return network.run(), neighbors.counters


STATIC = ScenarioConfig(n_nodes=40, width=360.0, height=220.0, rate_pps=5.0,
                        n_packets=15, warmup_s=2.0, drain_s=2.0, seed=3)
MOBILE = STATIC.variant(mobile=True, n_nodes=30, width=300.0, height=200.0,
                        seed=4)


def test_static_run_bit_identical_across_indexing():
    grid, grid_counters = run_with_links(STATIC, reference=False)
    brute, brute_counters = run_with_links(STATIC, reference=True)
    assert grid.to_dict() == brute.to_dict()
    assert grid_counters.table_rebuilds == 1
    assert brute_counters.table_rebuilds == 0


def test_mobile_run_bit_identical_across_indexing():
    grid, grid_counters = run_with_links(MOBILE, reference=False)
    brute, _ = run_with_links(MOBILE, reference=True)
    assert grid.to_dict() == brute.to_dict()
    # Tables were computed across several bucket epochs -- eagerly
    # (rebuilds) or lazily (misses) depending on per-bucket density.
    assert grid_counters.table_rebuilds + grid_counters.table_misses > 1
    assert grid_counters.links_built > 0


def test_neighbor_counters_surface_in_telemetry():
    config = STATIC.variant(collect_telemetry=True, n_packets=5)
    summary = build_network(config).run()
    neighbors = summary.telemetry["neighbors"]
    assert neighbors["table_hits"] > 0
    assert neighbors["links_built"] > 0
    # Static run: every table frozen once, then pure cache hits.
    assert neighbors["table_misses"] == 0
