"""Per-layer measurement from outside the program.

A :class:`Probe` traces one operation without changing any code under
``src/``:

* cProfile self time, folded by ``repro.<package>.<module>`` into the
  layers of :data:`LAYERS`. Time in code outside ``repro`` (builtins, the
  standard library, numpy) is charged to the ``repro`` layer that called
  it, so a layer's figure includes the library work it asks for;
* wrappers on public entry points, which count calls and time them;
* a :class:`~repro.sim.telemetry.Telemetry` attached to the simulator
  through its public API, for per-label event counts and queue depth.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.world.network as network_module
from repro.experiments.store import ResultStore
from repro.mac.base import MacProtocol
from repro.metrics.collectors import MetricsCollector
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.net.packet import RoutingMessage
from repro.phy.busytone import BusyToneChannel
from repro.phy.channel import DataChannel
from repro.phy.neighbors import NeighborService
from repro.sim.telemetry import Telemetry
from workloads import CampaignWorkload

#: Module prefix -> layer, first match wins. The tracer, telemetry and
#: oracle are the instrumentation itself; so is the benchmark's own code.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.telemetry", "instr"),
    ("repro.sim.trace", "instr"),
    ("repro.oracle", "instr"),
    ("repro.sim", "sim"),
    ("repro.core", "core"),
    ("repro.mac", "mac"),
    ("repro.phy.radio", "phy.radio"),
    ("repro.phy.busytone", "phy.busytone"),
    ("repro.phy.neighbors", "phy.neighbors"),
    ("repro.phy.grid", "phy.neighbors"),
    ("repro.phy.propagation", "phy.neighbors"),
    ("repro.phy", "phy.channel"),
    ("repro.mobility", "mobility"),
    ("repro.net", "net"),
    ("repro.metrics", "metrics"),
    ("repro.world", "world"),
    ("repro.experiments", "experiments"),
)

#: Every layer a fold reports, ``other`` being time with no ``repro`` or
#: benchmark frame anywhere above it.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in MODULE_LAYERS] + ["other"]))

#: Telemetry label prefix -> per-layer event metric.
EVENT_PREFIXES: Dict[str, str] = {
    "rmac": "sim.events.rmac", "dcf": "sim.events.dcf", "rx": "sim.events.rx",
    "tx": "sim.events.tx", "tone": "sim.events.tone",
    "bless": "sim.events.bless",
}

_SRC = os.path.dirname(os.path.abspath(repro.__file__))
_BENCH = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(path: str) -> Optional[str]:
    """The layer of a source file, or None for code outside ``repro``."""
    path = os.path.abspath(path)
    if path.startswith(_BENCH + os.sep):
        return "instr"
    if not path.startswith(_SRC + os.sep):
        return None
    module = "repro." + os.path.splitext(
        os.path.relpath(path, _SRC))[0].replace(os.sep, ".")
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def fold(stats: dict) -> Dict[str, float]:
    """Fold ``pstats.Stats(...).stats`` into self seconds per layer.

    A function outside ``repro`` passes its self time up to its callers in
    proportion to the time each caller spent in it, until the time reaches
    a ``repro`` or benchmark frame.
    """
    layer_cache: Dict[tuple, Optional[str]] = {}

    def layer(func) -> Optional[str]:
        if func not in layer_cache:
            filename = func[0]
            layer_cache[func] = (None if filename.startswith(("~", "<"))
                                 else layer_of_file(filename))
        return layer_cache[func]

    out: Dict[str, float] = {name: 0.0 for name in LAYERS}

    def charge(func, seconds: float, seen: frozenset) -> None:
        own = layer(func)
        if own is not None:
            out[own] += seconds
            return
        callers = stats[func][4] if func in stats else {}
        callers = {c: w for c, w in callers.items() if c not in seen}
        total = sum(w[3] for w in callers.values())
        if total <= 0:
            out["other"] += seconds
            return
        for caller, weights in callers.items():
            charge(caller, seconds * weights[3] / total, seen | {func})

    for func, (_cc, _nc, self_s, _cum, _callers) in stats.items():
        if self_s:
            charge(func, self_s, frozenset())
    return out


class Probe:
    """Traces one operation: profile, entry-point wrappers and telemetry."""

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.delays_ns: List[int] = []
        self.telemetry: Optional[Telemetry] = None
        self._profile = cProfile.Profile()
        self._restore: List[Tuple[object, str, object]] = []
        self._wall0 = 0.0
        self.wall_s = 0.0

    # -- wrappers ------------------------------------------------------
    def _wrap(self, owner, name: str,
              make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def _counted(self, metric: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _timed(self, metric: str):
        times = self.times

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    times[metric] += time.perf_counter() - t0
            return wrapper
        return make

    def _install(self) -> None:
        counts, delays = self.counts, self.delays_ns

        def send_unreliable(original):
            def wrapper(mac, dst, payload, *args, **kwargs):
                counts["mac.send_calls"] += 1
                if type(payload) is RoutingMessage:
                    counts["net.routing_msgs"] += 1
                return original(mac, dst, payload, *args, **kwargs)
            return wrapper

        def record_delivery(original):
            def wrapper(collector, node, pkt_id, delay_ns):
                delays.append(delay_ns)
                return original(collector, node, pkt_id, delay_ns)
            return wrapper

        self._wrap(DataChannel, "transmit", self._counted("phy.channel.transmits"))
        self._wrap(BusyToneChannel, "turn_on", self._counted("phy.busytone.turn_ons"))
        self._wrap(MacProtocol, "send_reliable", self._counted("mac.send_calls"))
        self._wrap(MacProtocol, "send_unreliable", send_unreliable)
        self._wrap(StationaryModel, "position", self._counted("mobility.position_calls"))
        self._wrap(RandomWaypointModel, "position",
                   self._counted("mobility.position_calls"))
        self._wrap(NeighborService, "table_from", self._timed("phy.neighbors.table_from"))
        self._wrap(MetricsCollector, "record_delivery", record_delivery)
        self._wrap(network_module, "random_placement", self._timed("world.placement"))
        self._wrap(ResultStore, "record_success", self._timed("experiments.store_append"))

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- lifecycle -----------------------------------------------------
    def install(self) -> None:
        """Install the wrappers; call before the operation's set-up.

        A process forked from here on (a sweep's pool workers) would
        inherit the wrappers and, once :meth:`begin` ran, the profiler
        hook, run slowed down and lose what they record, so forked
        children remove both.
        """
        self._install()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        sys.setprofile(None)
        self._uninstall()

    def begin(self, sim=None) -> None:
        """Attach telemetry to ``sim``, if given, and start profiling; call
        right before the run, so the profile covers the run alone."""
        if sim is not None:
            self.telemetry = Telemetry().attach(sim)
        self._wall0 = time.perf_counter()
        self._profile.enable()

    def end(self) -> None:
        """Stop profiling and remove the wrappers; call right after the run."""
        self._profile.disable()
        self.wall_s = time.perf_counter() - self._wall0
        self._uninstall()

    def report(self) -> dict:
        """What the traced operation measured, as plain data."""
        report = {
            "wall_s": self.wall_s,
            "self_s": fold(pstats.Stats(self._profile).stats),
            "counts": dict(self.counts),
            "times": dict(self.times),
            "delays_ns": sorted(self.delays_ns),
        }
        if self.telemetry is not None:
            telemetry = self.telemetry.report()
            report["label_counts"] = telemetry.label_counts
            report["queue_depth_max"] = telemetry.heap_depth_max
        return report


def traced_operation(workload, seed: int, k: int) -> dict:
    """One operation of ``workload`` with a :class:`Probe` on it.

    A sweep's points run in pool workers the parent cannot profile, so
    there the points collect telemetry themselves.
    """
    probe = Probe()
    result = workload.operation(
        seed, k, probe=probe, telemetry=isinstance(workload, CampaignWorkload))
    result["trace"] = probe.report()
    return result


def label_events(label_counts: Dict[str, int]) -> Dict[str, int]:
    """Per-label event counts grouped into the ``sim.events.*`` metrics."""
    out = {metric: 0 for metric in EVENT_PREFIXES.values()}
    for label, count in label_counts.items():
        metric = EVENT_PREFIXES.get(label.split("-", 1)[0])
        if metric is not None:
            out[metric] += count
    return out


#: Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    **{metric: ("count", "lower") for metric in EVENT_PREFIXES.values()},
    "sim.queue_depth_max": ("count", "lower"),
    **{f"{layer}.{kind}": (unit, "lower") for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("self_share", "ratio"))},
    "mac.send_calls": ("count", "lower"),
    "mac.frames_tx": ("count", "lower"),
    "mac.retx_ratio": ("ratio", "lower"),
    "mac.txoh_ratio": ("ratio", "lower"),
    "mac.drop_ratio": ("ratio", "lower"),
    "mac.abort_ratio": ("ratio", "lower"),
    "phy.channel.transmits": ("count", "lower"),
    "phy.busytone.turn_ons": ("count", "lower"),
    "phy.neighbors.table_from_s": ("s", "lower"),
    "phy.neighbors.rebuilds": ("count", "lower"),
    "phy.neighbors.links_built": ("count", "lower"),
    "phy.neighbors.hit_ratio": ("ratio", "higher"),
    "mobility.position_calls": ("count", "lower"),
    "net.routing_msgs": ("count", "lower"),
    "net.deliveries": ("count", "higher"),
    "net.delivery_ratio": ("ratio", "higher"),
    "net.sim_delay_p50_ms": ("ms", "lower"),
    "net.sim_delay_p99_ms": ("ms", "lower"),
    "world.placement_s": ("s", "lower"),
    "experiments.points": ("count", "higher"),
    "experiments.parent_cpu_s": ("s", "lower"),
    "experiments.store_append_s": ("s", "lower"),
    "experiments.worker_busy_ratio": ("ratio", "higher"),
    "instr.traced_wall_s": ("s", "lower"),
    "instr.telemetry_ratio": ("ratio", "lower"),
    "instr.oracle_ratio": ("ratio", "lower"),
    "instr.trace_ratio": ("ratio", "lower"),
}


def _total(ops: List[dict], key: str) -> float:
    return sum(op[key] for op in ops)


def _sum_dicts(dicts) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(int)
    for d in dicts:
        for key, value in d.items():
            out[key] += value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(sorted_ns: List[int], q: float) -> float:
    """Nearest-rank percentile of simulated delays, in milliseconds."""
    if not sorted_ns:
        return 0.0
    rank = max(1, -(-len(sorted_ns) * q // 100))
    return sorted_ns[int(rank) - 1] / 1e6


def layer_metrics(ref: List[dict], traced: List[dict], telemetry: List[dict],
                  oracle: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the operations of one traced benchmark run.

    ``ref`` are untraced operations on the same placements as ``traced``
    (``telemetry`` and ``oracle`` likewise, with those switched on;
    ``oracle`` is empty where the oracle does not apply). Every list is in
    placement order. A metric the run cannot observe reads 0.
    """
    traces = [op["trace"] for op in traced]
    wall = sum(t["wall_s"] for t in traces)
    self_s = _sum_dicts(t["self_s"] for t in traces)
    probe = _sum_dicts(t["counts"] for t in traces)
    probe_s = _sum_dicts(t["times"] for t in traces)
    raw = _sum_dicts(op["counters"] for op in traced)
    labels = _sum_dicts(t.get("label_counts", {}) for t in traces)
    depth = max((t.get("queue_depth_max", 0) for t in traces), default=0)
    points = [p for op in traced for p in op.get("telemetry", [])]
    if points:
        # A sweep: event and neighbour counts come from the points'
        # telemetry, collected inside the pool workers.
        labels = _sum_dicts(p["label_counts"] for p in points)
        depth = max(p["heap_depth"]["max"] for p in points)
        hood = _sum_dicts(p["neighbors"] for p in points)
        raw["events"] = sum(p["events"] for p in points)
        raw["table_hits"] = hood["table_hits"]
        raw["table_lookups"] = hood["table_hits"] + hood["table_misses"]
        raw["rebuilds"] = hood["table_rebuilds"]
        raw["links_built"] = hood["links_built"]
    delays = sorted(d for t in traces for d in t["delays_ns"])
    ref_wall = _total(ref, "run_wall_s")
    sweep = [op for op in ref if "points" in op]

    metrics: Dict[str, float] = {
        "sim.events": raw.get("events", 0),
        **label_events(labels),
        "sim.queue_depth_max": depth,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = _ratio(self_s[layer], wall)
    metrics.update({
        "mac.send_calls": probe["mac.send_calls"],
        "mac.frames_tx": raw.get("frames_tx", 0),
        "mac.retx_ratio": _ratio(raw.get("retransmissions", 0), raw.get("offered", 0)),
        "mac.txoh_ratio": _ratio(raw.get("control_ns", 0), raw.get("data_tx_ns", 0)),
        "mac.drop_ratio": _ratio(raw.get("dropped", 0), raw.get("offered", 0)),
        "mac.abort_ratio": _ratio(raw.get("mrts_aborted", 0), raw.get("mrts", 0)),
        "phy.channel.transmits": probe["phy.channel.transmits"],
        "phy.busytone.turn_ons": probe["phy.busytone.turn_ons"],
        "phy.neighbors.table_from_s": probe_s["phy.neighbors.table_from"],
        "phy.neighbors.rebuilds": raw.get("rebuilds", 0),
        "phy.neighbors.links_built": raw.get("links_built", 0),
        "phy.neighbors.hit_ratio": _ratio(raw.get("table_hits", 0),
                                          raw.get("table_lookups", 0)),
        "mobility.position_calls": probe["mobility.position_calls"],
        "net.routing_msgs": probe["net.routing_msgs"],
        "net.deliveries": raw["deliveries"],
        "net.delivery_ratio": _ratio(raw["deliveries"], raw["expected"]),
        "net.sim_delay_p50_ms": _percentile_ms(delays, 50),
        "net.sim_delay_p99_ms": _percentile_ms(delays, 99),
        "world.placement_s": probe_s["world.placement"],
        "experiments.points": sum(op["points"] for op in sweep),
        "experiments.parent_cpu_s": sum(op["parent_cpu_s"] for op in sweep),
        "experiments.store_append_s": probe_s["experiments.store_append"],
        "experiments.worker_busy_ratio": _ratio(
            sum(op["children_cpu_s"] for op in sweep),
            sum(op["workers"] * op["run_wall_s"] for op in sweep)),
        "instr.traced_wall_s": wall,
        "instr.telemetry_ratio": _ratio(_total(telemetry, "run_wall_s"), ref_wall),
        "instr.oracle_ratio": _ratio(_total(oracle, "run_wall_s"),
                                     ref_wall if oracle else 0.0),
        "instr.trace_ratio": _ratio(wall, ref_wall),
    })
    return metrics
