"""The ``repro bench`` performance benchmark.

Ownership: this module owns **performance measurement** -- a fixed,
committed workload and its baseline comparison. It deliberately does
not use the sweep runner or the result store: a benchmark wants
identical, unresumed, freshly-timed runs every time, where a campaign
wants to skip everything it already knows.

A fixed sweep of paper-scale scenarios timed end to end (wall seconds
per fixed scenario, with event counts and events/sec reported
alongside), with the result committed to the repository as
``benchmarks/BENCH_<rev>.json``. Each PR that touches the kernel or the
PHY re-runs the sweep and compares against the committed baseline, so
"make the hot path faster" (the ROADMAP's north star) is a measured
claim instead of a hope, and accidental slowdowns fail CI.

Three tiers:

* **full** -- three 40-node paper-scale runs (RMAC x2 seeds, BMMM x1),
  a few hundred thousand events each. This is the number quoted in
  ``BENCH_*.json`` and in PR descriptions.
* **smoke** -- a 12-node run (~13k events) finishing in well under a
  second, plus a same-scale ``sinr-shadowing`` companion through the
  SINR interference subsystem; cheap enough for CI on every push. CI
  compares each point's wall time against the committed baseline with a
  generous regression threshold (wall-clock on shared runners is noisy),
  which also fails the build if SINR work slows the threshold path.
* **large** -- the scaling tier (200/500/1000 nodes, static + random
  waypoint), a ``sinr-500`` point measuring accumulated-power
  reception under shadowing at 500 nodes, plus ``neighbor-rebuild``
  microbenchmark points that time whole-bucket link-table rebuilds of
  the spatial grid on random-waypoint trajectories, free of event-loop
  dilution.

The smoke/full sweeps are **static-only** (no mobility) on purpose:
static scenarios exercise the frozen-link fast path and keep the
per-run ``metrics`` block bit-identical across machines and across
mobility-model changes, so the baseline doubles as a determinism
regression check -- same seeds must produce the same delivery/
retransmission/delay numbers, or something changed protocol behavior
rather than just speed.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenarios import sinr_preset
from repro.world.network import ScenarioConfig, build_network

#: RunSummary fields captured per point; all deterministic given the seed.
METRIC_FIELDS = (
    "delivery_ratio",
    "avg_delay_s",
    "max_delay_s",
    "avg_drop_ratio",
    "avg_retx_ratio",
    "avg_txoh_ratio",
    "mrts_len_avg",
    "mrts_len_max",
    "abort_avg",
    "n_generated",
    "total_deliveries",
    "total_drops",
    "total_retransmissions",
)


def _point(mode: str, protocol: str, seed: int, repeat: int = 1, **config) -> dict:
    return {"mode": mode, "protocol": protocol, "seed": seed,
            "repeat": repeat, "config": config}


_FULL_SCALE = dict(n_nodes=40, width=360.0, height=220.0, rate_pps=20.0, n_packets=120)

#: The committed full sweep (static, paper-scale).
FULL_POINTS: List[dict] = [
    _point("full", "rmac", 1, **_FULL_SCALE),
    _point("full", "rmac", 2, **_FULL_SCALE),
    _point("full", "bmmm", 3, **_FULL_SCALE),
]

#: The CI smoke sweep: one small static run, best-of-3 -- a cold
#: process's first run pays interpreter warm-up that would otherwise
#: read as a 30%+ "regression" on an 80 ms benchmark. The labeled
#: ``sinr-shadowing`` companion runs the same scale through the SINR
#: subsystem (accumulated-power reception under lognormal shadowing),
#: so CI measures the interference path's cost separately -- the
#: unlabeled threshold-path point must stay untouched by SINR work.
#: Point configs hold live ``SinrConfig`` objects; points are consumed
#: in-process by :func:`run_point` and never serialized (only the
#: resulting records are).
SMOKE_POINTS: List[dict] = [
    _point("smoke", "rmac", 2, repeat=3, n_nodes=12, width=200.0,
           height=140.0, rate_pps=5.0, n_packets=10),
    {**_point("smoke", "rmac", 5, repeat=3, n_nodes=12, width=200.0,
              height=140.0, rate_pps=5.0, n_packets=10,
              sinr=sinr_preset("shadowing")),
     "label": "sinr-shadowing"},
]

#: Field sizes for the scaling tier, chosen to keep the paper's node
#: density (75 nodes per 500x300 m) roughly constant so connected
#: placements stay drawable at every size.
_LARGE_FIELDS: Dict[int, Tuple[float, float]] = {
    200: (715.0, 450.0),
    500: (1130.0, 700.0),
    1000: (1600.0, 1000.0),
}

#: Light traffic for the scaling tier: the point is topology scale, not
#: offered load, and 1000-node full-stack runs must finish in minutes.
_LARGE_TRAFFIC = dict(rate_pps=2.0, n_packets=6, warmup_s=2.0, drain_s=2.0)


def _large_point(n_nodes: int, mobile: bool, seed: int, **extra) -> dict:
    width, height = _LARGE_FIELDS[n_nodes]
    point = _point("large", "rmac", seed, n_nodes=n_nodes, width=width,
                   height=height, mobile=mobile, **_LARGE_TRAFFIC)
    point["label"] = f"{'waypoint' if mobile else 'static'}-{n_nodes}"
    point.update(extra)
    return point


def _rebuild_point(n_nodes: int, epochs: int, seed: int = 1) -> dict:
    width, height = _LARGE_FIELDS[n_nodes]
    return {"mode": "large", "protocol": "neighbors", "seed": seed,
            "kind": "neighbor-rebuild", "label": f"rebuild-{n_nodes}",
            "n_nodes": n_nodes, "width": width, "height": height,
            "epochs": epochs}


#: The scaling tier. ``neighbor-rebuild`` points time the link-table
#: layer alone -- the number for the spatial index itself, free of
#: event-loop dilution.
LARGE_POINTS: List[dict] = [
    _large_point(200, False, 1),
    _large_point(200, True, 1),
    _large_point(500, False, 1),
    _large_point(500, True, 1),
    _large_point(1000, False, 1),
    # The headline point. Best-of-3 like the gated smoke points: a
    # single sample of a 5-second run on a shared machine is too noisy
    # for a headline number.
    _large_point(1000, True, 1, repeat=3),
    # SINR scaling point: 500 static nodes under lognormal shadowing
    # with interference accounting on -- the nightly number for "what
    # does accumulated-power reception cost at scale". Crafted by hand
    # because the sinr config must land inside ``config`` (where
    # ``_large_point``'s extra kwargs land top-level).
    {**_point("large", "rmac", 1, n_nodes=500,
              width=_LARGE_FIELDS[500][0], height=_LARGE_FIELDS[500][1],
              mobile=False, sinr=sinr_preset("shadowing"),
              **_LARGE_TRAFFIC),
     "label": "sinr-500"},
    _rebuild_point(200, epochs=40),
    _rebuild_point(500, epochs=30),
    _rebuild_point(1000, epochs=20),
    # Kernel microbenchmark: the synthetic scheduling workload of
    # :func:`_run_kernel_point`, free of protocol-stack dilution -- the
    # number for the event queue itself.
    {"mode": "large", "protocol": "kernel", "seed": 1,
     "kind": "kernel-micro", "label": "kernel-heap", "n_events": 400_000},
]

#: ``repro bench --tier <name>`` choices.
TIER_NAMES = ("smoke", "full", "large")


def tier_points(tier: str) -> List[dict]:
    """The point set for one tier.

    Resolved at call time (not via a module-level dict frozen at import),
    so tests can monkeypatch the point lists.
    """
    try:
        return {"smoke": SMOKE_POINTS, "full": FULL_POINTS,
                "large": LARGE_POINTS}[tier]
    except KeyError:
        raise ValueError(f"unknown bench tier {tier!r}") from None


def git_rev(cwd: Optional[str] = None) -> str:
    """Short git revision of ``cwd`` (or the process cwd); ``unknown``
    outside a repository or without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_point(point: dict) -> dict:
    """Run one benchmark point and return its JSON-serializable record.

    A point with ``repeat > 1`` runs that many times and keeps the
    fastest repetition's timing (standard microbenchmark practice: the
    minimum is the least-noisy estimator). Every repetition must produce
    identical events and metrics -- a free determinism check; a mismatch
    raises rather than silently averaging nondeterministic runs.

    ``kind: "neighbor-rebuild"`` points bypass the full stack and time
    the link-table layer directly (see :func:`_run_rebuild_point`).
    """
    if point.get("kind") == "neighbor-rebuild":
        return _run_rebuild_point(point)
    if point.get("kind") == "kernel-micro":
        return _run_kernel_point(point)
    best = None
    for _ in range(max(1, int(point.get("repeat", 1)))):
        config = ScenarioConfig(
            protocol=point["protocol"],
            seed=point["seed"],
            collect_telemetry=True,
            **point["config"],
        )
        summary = build_network(config).run()
        telemetry = summary.telemetry or {}
        record = {
            "mode": point["mode"],
            "protocol": point["protocol"],
            "seed": point["seed"],
            "label": point.get("label"),
            "events": summary.events_processed,
            "wall_s": summary.wall_time_s,
            "eps": summary.events_per_sec,
            "metrics": {name: getattr(summary, name) for name in METRIC_FIELDS},
            "subsystem_wall_s": telemetry.get("subsystem_wall_s", {}),
        }
        neighbors = telemetry.get("neighbors")
        if neighbors is not None:
            record["neighbors"] = neighbors
        if best is None:
            best = record
        else:
            if (record["events"], record["metrics"]) != (best["events"], best["metrics"]):
                raise RuntimeError(
                    f"nondeterministic benchmark point {point['protocol']}/"
                    f"seed{point['seed']}: repeated run diverged"
                )
            if (record["wall_s"] or 0.0) < (best["wall_s"] or 0.0):
                best = record
    return best


def _run_rebuild_point(point: dict) -> dict:
    """Time whole-bucket link-table rebuilds on one mobile world.

    Places ``n_nodes`` nodes, attaches random-waypoint mobility, then
    queries every sender's links across ``epochs`` consecutive mobility
    buckets -- the dense access pattern under which the service runs
    its batched whole-bucket rebuilds (the adaptive first epoch, served
    lazily before the density upgrade kicks in, is included in the timed
    pass). Waypoint legs are materialized up front so the timed passes
    do not pay them. ``links_per_sec_grid`` is the recorded link
    evaluation throughput.
    """
    import random as _random
    from time import perf_counter

    from repro.mobility.base import MobilityProvider
    from repro.mobility.waypoint import RandomWaypointModel
    from repro.phy.neighbors import NeighborService
    from repro.phy.propagation import UnitDiskModel
    from repro.sim.rng import derive_seed
    from repro.world.placement import random_placement

    n = point["n_nodes"]
    epochs = point["epochs"]
    width, height = point["width"], point["height"]
    window = 50_000_000
    master = _random.Random(derive_seed(point["seed"], "bench-rebuild"))
    coords = random_placement(n, width, height, master,
                              require_connected=False)
    models = [
        RandomWaypointModel(
            x, y, width, height, 0.5, 8.0, 2.0,
            _random.Random(derive_seed(point["seed"], "bench-rebuild-wp", i)),
        )
        for i, (x, y) in enumerate(coords)
    ]
    provider = MobilityProvider(models)
    times = [epoch * window for epoch in range(epochs)]
    for t in times:
        provider.positions(t)
    model = UnitDiskModel(75.0)

    # Best-of-5, a fresh service each repeat (same min-wall precedent as
    # the smoke point): the minimum is the least-noisy estimator.
    wall = float("inf")
    links = 0
    for _ in range(5):
        service = NeighborService(provider, model, cache_window=window)
        count = 0
        start = perf_counter()
        for t in times:
            for sender in range(n):
                count += len(service.links_from(sender, t))
        wall = min(wall, perf_counter() - start)
        links = count
    return {
        "mode": point["mode"],
        "protocol": point["protocol"],
        "seed": point["seed"],
        "label": point["label"],
        "kind": "neighbor-rebuild",
        "n_nodes": n,
        "epochs": epochs,
        # Excluded from the report's event-loop aggregate on purpose:
        # these are link evaluations, not simulator events.
        "events": 0,
        "wall_s": 0.0,
        "eps": None,
        "links_built": links,
        "grid_wall_s": wall,
        "links_per_sec_grid": links / wall if wall > 0 else 0.0,
        "metrics": {"links_built": links},
    }


def _run_kernel_point(point: dict) -> dict:
    """Time the event kernel alone on a synthetic scheduling workload.

    The workload mirrors the simulator's real timing structure:

    * 64 self-rescheduling ticks at the 20 us slot quantum with small
      per-"node" phase skews (modelled on per-slot MAC backoff polling);
    * every 16th tick, an 8-way ``schedule_many`` fan-out at
      millisecond-scale offsets (the PHY arrival fan-out);
    * every 32nd tick, a cancellable timer, half of them cancelled
      before firing (lazy-deletion pressure on the queue).

    Pure scheduling -- the callbacks do no protocol work -- so the
    events/sec here is the kernel ceiling, free of stack dilution.
    Best-of-3, min wall.
    """
    from time import perf_counter

    from repro.sim.engine import FastEvent, Simulator

    slot = 20_000  # ns, the MAC slot quantum

    class _Noop(FastEvent):
        __slots__ = ()
        label = "kernel-fanout"

        def __call__(self) -> None:
            pass

    noop = _Noop()

    class _Tick(FastEvent):
        __slots__ = ("sim", "phase", "count")
        label = "kernel-tick"

        def __init__(self, sim: Simulator, phase: int):
            self.sim = sim
            self.phase = phase
            self.count = 0

        def __call__(self) -> None:
            sim = self.sim
            count = self.count = self.count + 1
            now = sim.now
            if not count % 16:
                base = now + 1_000_000 + self.phase * 131
                sim.schedule_many(
                    [(base + i * 37_000, noop) for i in range(8)])
            if not count % 32:
                handle = sim.after(250_000 + self.phase * 7,
                                   _cancel_target, label="kernel-timer")
                if not count % 64:
                    handle.cancel()
            sim.schedule_fast(now + slot + (self.phase & 7) * 1_500, self)

    def _cancel_target() -> None:
        pass

    n_events = point["n_events"]
    best = float("inf")
    executed = 0
    for _ in range(3):
        sim = Simulator()
        for phase in range(64):
            sim.after(phase * 311, _Tick(sim, phase), label="kernel-tick")
        start = perf_counter()
        sim.run(max_events=n_events)
        best = min(best, perf_counter() - start)
        executed = sim.events_processed
    return {
        "mode": point["mode"],
        "protocol": point["protocol"],
        "seed": point["seed"],
        "label": point["label"],
        "kind": "kernel-micro",
        "events": executed,
        "wall_s": best,
        "eps": (executed / best) if best > 0 else 0.0,
        "metrics": {"events": executed},
    }


def run_bench(points: Sequence[dict], rev: Optional[str] = None,
              progress=None) -> dict:
    """Run ``points`` and assemble the benchmark report.

    ``progress``, when given, is called with each finished point record.
    The report's top-level ``events_per_sec`` is the aggregate (total
    events over total wall time), which weights long runs more -- the
    honest number for "how fast is the kernel".
    """
    records = []
    for point in points:
        record = run_point(point)
        records.append(record)
        if progress is not None:
            progress(record)
    total_events = sum(r["events"] or 0 for r in records)
    total_wall = sum(r["wall_s"] or 0.0 for r in records)
    return {
        "rev": rev if rev is not None else git_rev(),
        "events": total_events,
        "wall_s": total_wall,
        "events_per_sec": (total_events / total_wall) if total_wall > 0 else 0.0,
        "points": records,
    }


# ----------------------------------------------------------------------
# Baseline discovery and comparison
# ----------------------------------------------------------------------
#: Name of the one-line file naming the current baseline report.
BASELINE_POINTER = "BASELINE"


def find_baseline(directory: str) -> Optional[str]:
    """Path of the committed baseline in ``directory``: the
    ``BENCH_<rev>.json`` named by its one-line ``BASELINE`` pointer
    (None if there is no pointer). File mtimes are not used: a fresh
    checkout gives every file the same one."""
    try:
        with open(os.path.join(directory, BASELINE_POINTER)) as fh:
            name = fh.read().strip()
    except OSError:
        return None
    return os.path.join(directory, name) if name else None


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(report: dict, baseline: dict,
            max_regression: float = 0.30) -> Tuple[bool, List[str]]:
    """Compare ``report`` against a committed ``baseline``.

    Returns ``(ok, lines)``. The run **fails** (ok=False) when a point
    present in both sweeps took more than ``1 + max_regression`` times
    its baseline wall time. The gate is wall time for a fixed scenario,
    not events/sec: a change that removes cheap events on purpose lowers
    events/sec while making the run faster. Event counts are reported
    alongside. Metric drift on matching points is *reported* but does
    not fail the comparison here -- it means behavior changed, which a
    benchmark threshold is the wrong tool to police (the tier-1 suite
    owns correctness); it still deserves a loud line in the output.
    """
    by_key: Dict[tuple, dict] = {
        _point_key(p): p for p in baseline.get("points", [])
    }
    ok = True
    lines: List[str] = []
    for point in report.get("points", []):
        key = _point_key(point)
        base = by_key.get(key)
        label = _point_label(point)
        if base is None:
            lines.append(f"{label}: no baseline point (new)")
            continue
        old_wall, new_wall = base.get("wall_s") or 0.0, point.get("wall_s") or 0.0
        if old_wall > 0:
            ratio = new_wall / old_wall
            line = (f"{label}: {new_wall:.3f}s wall vs baseline "
                    f"{old_wall:.3f}s ({ratio:.2f}x); "
                    f"{point.get('events')} events vs {base.get('events')}")
            if ratio > 1.0 + max_regression:
                ok = False
                line += f"  REGRESSION (> {max_regression:.0%} slower)"
            lines.append(line)
        if base.get("metrics") != point.get("metrics"):
            old_metrics = base.get("metrics", {})
            new_metrics = point.get("metrics", {})
            drifted = sorted(
                name for name in set(old_metrics) | set(new_metrics)
                if old_metrics.get(name) != new_metrics.get(name)
            )
            lines.append(f"{label}: METRIC DRIFT in {', '.join(drifted)} -- "
                         f"same seed no longer reproduces the baseline run")
    return ok, lines


def _point_key(point: dict) -> tuple:
    """Identity of a point across reports. ``label`` distinguishes the
    scaling-tier points (which share mode/protocol/seed); older baseline
    files have no labels and key as None, matching unlabeled points."""
    return (point["mode"], point["protocol"], point["seed"], point.get("label"))


def _point_label(point: dict) -> str:
    label = f"{point['mode']} {point['protocol']}/seed{point['seed']}"
    if point.get("label"):
        label += f" [{point['label']}]"
    return label


def render(report: dict) -> str:
    """A compact human-readable view of one report."""
    lines = [f"rev {report['rev']}: {report['events']} events in "
             f"{report['wall_s']:.2f}s = {report['events_per_sec']:,.0f} ev/s"]
    for point in report["points"]:
        lines.append("  " + render_point(point))
    return "\n".join(lines)


def render_point(point: dict) -> str:
    """One point's result as a single line (also the progress format)."""
    if point.get("kind") == "neighbor-rebuild":
        return (
            f"{_point_label(point)}: {point['links_built']} links x "
            f"{point['epochs']} epochs, grid "
            f"{point['links_per_sec_grid']:,.0f} links/s"
        )
    if point.get("kind") == "kernel-micro":
        return (f"{_point_label(point)}: {point['events']} synthetic ev @ "
                f"{point['eps']:,.0f}/s")
    top = sorted((point.get("subsystem_wall_s") or {}).items(),
                 key=lambda kv: -kv[1])[:4]
    subsystems = ", ".join(f"{name}={secs * 1e3:.0f}ms" for name, secs in top)
    line = (f"{_point_label(point)}: "
            f"{point['events']} ev @ {point['eps']:,.0f}/s")
    if subsystems:
        line += f"  [{subsystems}]"
    return line


def markdown_table(report: dict, baseline: Optional[dict] = None) -> str:
    """A GitHub-flavored markdown comparison table (for CI job summaries).

    One row per point: current wall seconds against the committed
    baseline's (the quantity the gate checks), with the event count as a
    plain counter. Rebuild points report link evaluations/sec instead.
    """
    by_key: Dict[tuple, dict] = {
        _point_key(p): p for p in (baseline or {}).get("points", [])
    }
    lines = ["| point | wall s | baseline | ratio | events |",
             "| --- | ---: | ---: | ---: | ---: |"]
    for point in report.get("points", []):
        base = by_key.get(_point_key(point))
        if point.get("kind") == "neighbor-rebuild":
            current = f"{point['links_per_sec_grid']:,.0f} links/s"
            base_eps = (base or {}).get("links_per_sec_grid")
            base_cell = f"{base_eps:,.0f} links/s" if base_eps else "--"
            ratio = (f"{point['links_per_sec_grid'] / base_eps:.2f}x"
                     if base_eps else "--")
            lines.append(f"| {_point_label(point)} | {current} "
                         f"| {base_cell} | {ratio} | -- |")
            continue
        wall = point.get("wall_s") or 0.0
        base_wall = (base or {}).get("wall_s") or 0.0
        ratio = f"{wall / base_wall:.2f}x" if base_wall > 0 else "--"
        base_cell = f"{base_wall:.3f}" if base_wall > 0 else "--"
        lines.append(f"| {_point_label(point)} | {wall:.3f} "
                     f"| {base_cell} | {ratio} | {point.get('events')} |")
    return "\n".join(lines)
