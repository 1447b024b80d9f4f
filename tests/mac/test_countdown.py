"""The event-driven backoff countdown against the per-slot reference.

Whole runs of every MAC must be bit-identical with either countdown
(``tests/mac/polling_backoff.py`` keeps the per-slot one), and the
crafted two-node test pins the same-instant order between two nodes
counting in the same slot phase.
"""

import json

import pytest

from repro.experiments.bench import METRIC_FIELDS
from repro.mac.addresses import BROADCAST
from repro.phy.params import DEFAULT_PHY
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Tracer
from repro.sim.units import MS
from repro.world.network import ScenarioConfig, build_network

from tests.conftest import make_dot11_testbed, make_rmac_testbed
from tests.mac.polling_backoff import install_polling

SLOT = DEFAULT_PHY.slot_time


def _trace(tracer):
    return [(e.time, e.node, e.kind, e.detail) for e in tracer.events]


def _tie_run(polling: bool):
    """Nodes 0 and 2 count down in the same slot phase, out of range of
    each other. Node 0's countdown starts from a tick queued one slot
    after its channel cleared; node 2's from an immediate kick in the
    instant the channel cleared, after node 0's tick was queued."""
    coords = [(0.0, 0.0), (50.0, 0.0), (1000.0, 0.0)]
    tb = make_rmac_testbed(coords, seed=3, trace=True)
    if polling:
        for mac in tb.macs:
            install_polling(mac)
    waiter, sender, kicker = tb.macs
    # Node 1 transmits at once at 1 ms (BI 0, idle channels).
    tb.sim.at(1 * MS, lambda: sender.send_unreliable(BROADCAST, "c", 200))

    def queue_while_busy():
        waiter.send_unreliable(BROADCAST, "w", 60)
        waiter.backoff.bi = 4  # the kick's draw happened; pin BI

    tb.sim.at(1 * MS + 100_000, queue_while_busy)
    airtime = tb.phy.frame_airtime(200 + sender.config.data_overhead)
    delay = {link.node: link.delay_ns
             for link in tb.neighbors.table_from(1, 0).links}[0]
    cleared = 1 * MS + airtime + delay  # node 1's frame ends at node 0
    kicker.backoff.bi = 5
    tb.sim.at(cleared, lambda: kicker.send_unreliable(BROADCAST, "k", 60))
    tb.run(5 * MS)
    return tb, cleared


def test_countdowns_in_one_slot_phase_keep_the_polling_order():
    tb, cleared = _tie_run(polling=False)
    ref, _ = _tie_run(polling=True)
    # Node 2 counts 5 -> 4 at `cleared`, node 0 counts 4 -> 3 one slot
    # later; both expire 4 slots after `cleared`.
    expiry = cleared + 4 * SLOT
    starts = [(e.node, e.kind) for e in tb.tracer.events
              if e.time == expiry and e.kind in ("state", "tx-start")]
    assert [node for node, _ in starts] == [0, 0, 2, 2]
    assert _trace(tb.tracer) == _trace(ref.tracer)


@pytest.mark.parametrize("protocol", ["rmac", "bmmm", "bmw", "lbp", "lamm", "mx"])
def test_whole_run_matches_polling(protocol):
    def run(polling):
        config = ScenarioConfig(protocol=protocol, n_nodes=14, width=220.0,
                                height=150.0, rate_pps=10.0, n_packets=8,
                                seed=5)
        tracer = Tracer(enabled=True)
        network = build_network(config, tracer=tracer)
        if polling:
            for mac in network.macs:
                install_polling(mac)
        summary = network.run()
        metrics = json.dumps([getattr(summary, f) for f in METRIC_FIELDS])
        return metrics, _trace(tracer), summary.events_processed

    metrics, trace, events = run(polling=False)
    ref_metrics, ref_trace, ref_events = run(polling=True)
    assert trace == ref_trace
    assert metrics == ref_metrics
    assert events < ref_events


def test_dcf_unicast_traffic_matches_polling():
    """Plain 802.11 RTS/CTS/DATA/ACK between hidden terminals."""
    coords = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (60.0, 50.0)]

    def run(polling):
        tb = make_dot11_testbed(coords, protocol="dot11", seed=4, trace=True)
        if polling:
            for mac in tb.macs:
                install_polling(mac)
        for k in range(12):
            src, dst = [(0, 1), (2, 1), (3, 1), (1, 3)][k % 4]
            tb.sim.at(k * 700_000, lambda s=src, d=dst: tb.macs[s]
                      .send_reliable((d,), f"p{k}", 300))
        tb.run(60 * MS)
        return _trace(tb.tracer), tb.sim.events_processed

    trace, events = run(polling=False)
    ref_trace, ref_events = run(polling=True)
    assert trace == ref_trace
    assert events < ref_events


def test_schedule_reserved_runs_at_the_reserved_position():
    sim = Simulator()
    order = []

    class Mark:
        _cancelled = False
        callback = None
        label = ""

        def __init__(self, name):
            self.name = name

        def __call__(self):
            order.append(self.name)

    seq = sim.schedule_fast(10, Mark("first"))
    sim.schedule_fast(50, Mark("queued-later"))
    sim.schedule_reserved(50, seq, Mark("reserved"))
    sim.run()
    assert order == ["first", "reserved", "queued-later"]
    with pytest.raises(SimulationError):
        sim.schedule_reserved(10, seq, Mark("past"))
