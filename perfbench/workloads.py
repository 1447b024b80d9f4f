"""The benchmark's four workloads and the one operation each one times.

An *operation* is one run through the public API: ``build_network(config)``
then ``Network.run()`` for the network workloads, or the construction of a
``ResultStore`` and ``Campaign`` then ``Campaign.run(workers=2)`` for the
sweep. Operation ``k`` of a benchmark run with seed ``s`` uses placement
seed ``s * 1000 + k``, so the same ``--seed`` always yields the same inputs
and different seeds never share one.

Every operation runs in a fresh forked child (see ``run.Operation``), so
its peak RSS and its CPU time belong to that operation alone.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import ScenarioConfig, build_network
from repro.experiments import Campaign, ResultStore, sweep_failures
from repro.net.multicast import MulticastConfig
from repro.sim.units import SEC

#: Operations per seed before the placement sequence wraps around.
PLACEMENTS = 1000

#: Temporary result stores go under here: the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: RunSummary fields that depend on wall time or instrumentation, left out
#: of the output fingerprint.
_UNFINGERPRINTED = ("events_processed", "wall_time_s", "events_per_sec",
                    "telemetry", "oracle_violations", "oracle_report")


def placement_seed(seed: int, k: int) -> int:
    """The scenario seed of operation ``k`` of a run with ``seed``."""
    return seed * PLACEMENTS + k % PLACEMENTS


def fingerprint(summary) -> dict:
    """The simulated outputs of one run: its RunSummary metric block."""
    return {name: value for name, value in summary.to_dict().items()
            if name not in _UNFINGERPRINTED}


def sim_seconds(config: ScenarioConfig) -> float:
    """Simulated seconds ``Network.run`` covers for ``config``."""
    traffic = MulticastConfig(rate_pps=config.rate_pps,
                              n_packets=config.n_packets,
                              payload_bytes=config.payload_bytes,
                              start_time=round(config.warmup_s * SEC))
    return (traffic.traffic_end + round(config.drain_s * SEC)) / SEC


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class NetworkWorkload:
    """One scenario family run through ``build_network(config).run()``."""

    name: str
    why: str
    base: ScenarioConfig
    #: Whether the invariant oracle applies (its rules are RMAC's).
    oracle: bool
    #: Processes one operation keeps busy.
    processes = 1

    def config(self, seed: int, k: int, **changes) -> ScenarioConfig:
        return self.base.variant(seed=placement_seed(seed, k), **changes)

    def operation(self, seed: int, k: int, *, oracle: bool = False,
                  telemetry: bool = False, keep_delays: bool = False,
                  probe=None) -> dict:
        """Build and run one placement; returns its timings and outputs.

        ``oracle`` and ``telemetry`` switch on the instrumentation the
        per-layer run prices; ``keep_delays`` keeps every delivery delay
        so an untraced run can be compared with a traced one. A ``probe``
        (see ``layers.Probe``) wraps set-up and run and profiles the run.
        """
        config = self.config(seed, k, oracle=oracle,
                             collect_telemetry=telemetry)
        if probe is not None:
            probe.install()
        t0 = time.perf_counter()
        net = build_network(config)
        t1 = time.perf_counter()
        net.metrics.keep_delays = keep_delays
        if probe is not None:
            probe.begin(net.sim)
        c0 = time.process_time()
        t2 = time.perf_counter()
        summary = net.run()
        t3 = time.perf_counter()
        c1 = time.process_time()
        if probe is not None:
            probe.end()
        if net.sim.now != round(sim_seconds(config) * SEC):
            raise RuntimeError(f"run ended at {net.sim.now} ns, not at the "
                               f"scenario's end {sim_seconds(config)} s")
        return {
            "setup_s": t1 - t0,
            "run_wall_s": t3 - t2,
            "run_cpu_s": c1 - c0,
            "sim_s": net.sim.now / SEC,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "events": net.sim.events_processed,
            "fingerprint": fingerprint(summary),
            "oracle_violations": summary.oracle_violations,
            "n_packets": config.n_packets,
            "counters": counters(net, summary),
            "delays_ns": sorted(d for _, _, d in net.metrics.delay_records),
        }


def counters(net, summary) -> Dict[str, int]:
    """Exact simulated counts from the counters every run keeps: MacStats,
    NeighborCounters and the RunSummary. Ratios are formed after summing
    these over operations (see ``layers.layer_metrics``)."""
    stats = [mac.stats for mac in net.macs]
    neighbors = net.testbed.neighbors.counters
    return {
        "events": net.sim.events_processed,
        "frames_tx": sum(sum(s.frames_tx.values()) for s in stats),
        "offered": sum(s.packets_offered for s in stats),
        "retransmissions": sum(s.retransmissions for s in stats),
        "dropped": sum(s.packets_dropped for s in stats),
        "control_ns": sum(s.control_tx_time + s.control_rx_time
                          + s.abt_check_time for s in stats),
        "data_tx_ns": sum(s.data_tx_time for s in stats),
        "mrts": sum(s.mrts_transmissions for s in stats),
        "mrts_aborted": sum(s.mrts_aborted for s in stats),
        "table_hits": neighbors.table_hits,
        "table_lookups": neighbors.table_hits + neighbors.table_misses,
        "rebuilds": neighbors.table_rebuilds,
        "links_built": neighbors.links_built,
        **delivery_counters([summary]),
    }


def delivery_counters(summaries) -> Dict[str, int]:
    """Receptions, and the receptions a perfect run would make."""
    return {
        "deliveries": sum(s.total_deliveries for s in summaries),
        "expected": sum(s.n_generated * (s.n_nodes - 1) for s in summaries),
    }


@dataclass(frozen=True)
class CampaignWorkload:
    """A small Fig. 7-style matrix run through ``Campaign.run``."""

    name: str
    why: str
    base: ScenarioConfig
    protocols: Tuple[str, ...]
    rates: Tuple[float, ...]
    workers: int
    #: Seeds per (protocol, rate) point.
    seeds_per_point: int = 2
    oracle: bool = False

    @property
    def processes(self) -> int:
        return self.workers

    def seeds(self, seed: int, k: int) -> List[int]:
        first = placement_seed(seed, k) * self.seeds_per_point
        return [first + i for i in range(self.seeds_per_point)]

    def make_config(self, protocol: str, scenario: str, rate: float,
                    seed: int) -> ScenarioConfig:
        return self.base.variant(protocol=protocol, rate_pps=rate, seed=seed)

    def operation(self, seed: int, k: int, *, oracle: bool = False,
                  telemetry: bool = False, keep_delays: bool = False,
                  probe=None) -> dict:
        """Run the matrix once into a fresh store; returns timings and outputs.

        ``telemetry`` turns telemetry on in every point, which is how the
        traced run sees event counts from inside the pool workers. A
        ``probe`` traces the parent side only. ``oracle`` and
        ``keep_delays`` do not apply to a sweep.
        """
        seeds = self.seeds(seed, k)

        def make_config(protocol, scenario, rate, point_seed):
            return self.make_config(protocol, scenario, rate, point_seed
                                    ).variant(collect_telemetry=telemetry)

        directory = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
        try:
            if probe is not None:
                probe.install()
            t0 = time.perf_counter()
            campaign = Campaign(ResultStore(os.path.join(directory, "store")))
            t1 = time.perf_counter()
            if probe is not None:
                probe.begin()
            children0 = _children_cpu_s()
            c0 = time.process_time()
            t2 = time.perf_counter()
            results = campaign.run(self.protocols, ["stationary"], self.rates,
                                   seeds, make_config, workers=self.workers)
            t3 = time.perf_counter()
            c1 = time.process_time()
            if probe is not None:
                probe.end()
            children_cpu = _children_cpu_s() - children0
            failures = sweep_failures(results)
            if failures:
                raise RuntimeError(f"sweep points failed: {failures[0]}")
            stored = len(campaign)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        summaries = [s for result in results for s in result.per_seed]
        if stored != len(summaries):
            raise RuntimeError(f"store holds {stored} points, "
                               f"sweep returned {len(summaries)}")
        return {
            "setup_s": t1 - t0,
            "run_wall_s": t3 - t2,
            "run_cpu_s": (c1 - c0) + children_cpu,
            "parent_cpu_s": c1 - c0,
            "children_cpu_s": children_cpu,
            "sim_s": sum(sim_seconds(self.make_config(p, "stationary", r, s))
                         for p in self.protocols for r in self.rates
                         for s in seeds),
            "peak_rss_mb": max(_peak_rss_mb(resource.RUSAGE_SELF),
                               _peak_rss_mb(resource.RUSAGE_CHILDREN)),
            "events": None,
            "fingerprint": [fingerprint(s) for s in summaries],
            "oracle_violations": None,
            "n_packets": self.base.n_packets,
            "points": len(summaries),
            "workers": self.workers,
            "telemetry": [s.telemetry for s in summaries] if telemetry else [],
            "counters": delivery_counters(summaries),
        }


#: Section 4.1's network: 75 nodes on 500 x 300 m with 75 m range, one
#: multicast source. Twenty packets per second keeps the channel busy. The
#: run is short (2 s warm-up for the BLESS tree, 2 s of traffic, 0.5 s
#: drain) so that a benchmark run can time many placements: host timing
#: noise and placement-to-placement cost differences both shrink with the
#: number of operations a median is taken over.
_PAPER = ScenarioConfig(protocol="rmac", n_nodes=75, width=500.0,
                        height=300.0, radio_range=75.0, rate_pps=20.0,
                        n_packets=40, warmup_s=2.0, drain_s=0.5)

WORKLOADS: Dict[str, object] = {
    w.name: w for w in (
        NetworkWorkload(
            name="paper-rmac",
            why="Section 4.1 network on RMAC: the RMAC pump, channel "
                "arrivals and busy tones do the work; neighbour tables are "
                "built once, then only served from cache",
            base=_PAPER, oracle=True),
        NetworkWorkload(
            name="paper-bmmm",
            why="the same network and seeds on BMMM: per-receiver "
                "RTS/CTS/RAK/ACK rounds and the shared 802.11 DCF pump, "
                "with no busy-tone work",
            base=_PAPER.variant(protocol="bmmm"), oracle=False),
        NetworkWorkload(
            name="waypoint-1000",
            why="1000 moving RMAC nodes, light traffic: link-table "
                "rebuilds, mobility, BLESS hellos and a deep event queue "
                "dominate; the only workload with a non-trivial set-up",
            base=ScenarioConfig(protocol="rmac", n_nodes=1000, width=1600.0,
                                height=1000.0, radio_range=75.0, mobile=True,
                                rate_pps=2.0, n_packets=2, warmup_s=1.0,
                                drain_s=0.5),
            oracle=True),
        CampaignWorkload(
            name="campaign-sweep",
            why="{rmac, bmmm} x 2 rates x 2 seeds on 40 static nodes "
                "through Campaign.run(workers=2): process-pool dispatch, "
                "pickling and store appends",
            base=ScenarioConfig(n_nodes=40, width=360.0, height=220.0,
                                radio_range=75.0, n_packets=20,
                                warmup_s=2.0, drain_s=0.5),
            protocols=("rmac", "bmmm"), rates=(10.0, 20.0), workers=2),
    )
}
