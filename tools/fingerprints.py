#!/usr/bin/env python
"""Behaviour fingerprint gate: full-stack runs against committed digests.

Runs each committed scenario once and compares it with its entry in
``tests/golden/fingerprints.json``. A scenario passes only if it is
*bit-identical* where it matters:

* every deterministic ``RunSummary`` metric field matches exactly;
* ``events_processed`` matches (same number of events executed);
* the **trace stream** matches -- the tracer feeds a streaming SHA-256
  over the JSONL rendering of every emitted event, so the comparison
  covers the exact sequence of protocol-level actions (state changes,
  tx/rx, tones, drops) without holding a million-event trace in memory;
* every **node's own stream** matches -- ``node_trace_sha256`` hashes
  each node's events separately and then the per-node digests in id
  order, so it ignores how same-instant events of *different* nodes
  interleave but still pins each node's sequence exactly.

Scenarios:

* ``rmac-40``   -- the committed 40-node paper-scale bench scenario;
* ``bmmm-40``   -- the same field under the BMMM baseline protocol;
* ``waypoint-40`` -- the same field with random-waypoint mobility, so
  link tables are rebuilt per position bucket at a small node count;
* ``sinr-40``   -- the same field, static, under the SINR shadowing
  profile (power-domain link tables);
* ``bmw-40``, ``lbp-40``, ``lamm-40``, ``mx-40`` -- the ``bmmm-40``
  field at 60 packets under each other 802.11-family baseline, so every
  MAC built on ``Dot11Base`` is pinned. Plain ``dot11`` cannot run the
  multicast tree (it rejects reliable multicast with ``ValueError``), so
  its unit tests cover it instead;
* ``waypoint-1000`` -- the 1000-node random-waypoint scaling point.
  Skipped under ``--quick``.

Exit status 0 iff every scenario matches; any mismatch prints the
drifted fields. A change that alters results on purpose regenerates the
file with ``--write`` (which also records the Python and numpy versions
that produced it) and explains the new digests in the same change.

Usage::

    PYTHONPATH=src python tools/fingerprints.py [--quick | --only NAME] [--write]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy

from repro.experiments.bench import METRIC_FIELDS
from repro.experiments.scenarios import sinr_preset
from repro.sim.trace import TraceBuffer, TraceEvent, Tracer
from repro.world.network import ScenarioConfig, build_network

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "golden", "fingerprints.json")

SCENARIOS = {
    "rmac-40": dict(protocol="rmac", n_nodes=40, width=360.0, height=220.0,
                    rate_pps=20.0, n_packets=120, seed=1),
    "bmmm-40": dict(protocol="bmmm", n_nodes=40, width=360.0, height=220.0,
                    rate_pps=20.0, n_packets=120, seed=3),
    "waypoint-40": dict(protocol="rmac", n_nodes=40, width=360.0,
                        height=220.0, mobile=True, rate_pps=20.0,
                        n_packets=60, seed=2),
    "sinr-40": dict(protocol="rmac", n_nodes=40, width=360.0, height=220.0,
                    rate_pps=20.0, n_packets=60, seed=4,
                    sinr=sinr_preset("shadowing")),
    "bmw-40": dict(protocol="bmw", n_nodes=40, width=360.0, height=220.0,
                   rate_pps=20.0, n_packets=60, seed=3),
    "lbp-40": dict(protocol="lbp", n_nodes=40, width=360.0, height=220.0,
                   rate_pps=20.0, n_packets=60, seed=3),
    "lamm-40": dict(protocol="lamm", n_nodes=40, width=360.0, height=220.0,
                    rate_pps=20.0, n_packets=60, seed=3),
    "mx-40": dict(protocol="mx", n_nodes=40, width=360.0, height=220.0,
                  rate_pps=20.0, n_packets=60, seed=3),
    "waypoint-1000": dict(protocol="rmac", n_nodes=1000, width=1600.0,
                          height=1000.0, mobile=True, rate_pps=2.0,
                          n_packets=6, warmup_s=2.0, drain_s=2.0, seed=1),
}

#: Fingerprint fields compared besides the metrics.
COUNTERS = ("events", "trace_events", "trace_sha256", "node_trace_sha256")


class HashBuffer(TraceBuffer):
    """Streams every trace event into a SHA-256 of the whole stream and
    one SHA-256 per node; keeps nothing."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._node_hashes: dict = {}
        self._count = 0

    def append(self, event: TraceEvent) -> None:
        line = event.to_json().encode() + b"\n"
        self._hash.update(line)
        node_hash = self._node_hashes.get(event.node)
        if node_hash is None:
            node_hash = self._node_hashes[event.node] = hashlib.sha256()
        node_hash.update(line)
        self._count += 1

    def snapshot(self):
        return []

    def __len__(self) -> int:
        return self._count

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def node_digest(self) -> str:
        """SHA-256 over ``"<node> <sha256 of its stream>"`` lines, by id."""
        outer = hashlib.sha256()
        for node in sorted(self._node_hashes):
            outer.update(f"{node} {self._node_hashes[node].hexdigest()}\n"
                         .encode())
        return outer.hexdigest()


def run_one(name: str) -> dict:
    config = ScenarioConfig(**SCENARIOS[name])
    buffer = HashBuffer()
    tracer = Tracer(enabled=True, buffer=buffer)
    network = build_network(config, tracer=tracer)
    summary = network.run()
    return {
        "metrics": {field: getattr(summary, field)
                    for field in METRIC_FIELDS},
        "events": network.sim.events_processed,
        "trace_events": len(buffer),
        "trace_sha256": buffer.digest,
        "node_trace_sha256": buffer.node_digest,
    }


def _same(a, b) -> bool:
    # JSON text equality: exact for floats (repr round-trips) and NaN-safe.
    return json.dumps(a) == json.dumps(b)


def compare(name: str, got: dict, want: dict) -> bool:
    drifted = [(key, want.get(key), got[key]) for key in COUNTERS
               if not _same(got[key], want.get(key))]
    drifted += [(f"metrics.{field}", want["metrics"].get(field),
                 got["metrics"][field]) for field in METRIC_FIELDS
                if not _same(got["metrics"][field], want["metrics"].get(field))]
    if drifted:
        print(f"FAIL {name}: drift in {', '.join(key for key, _, _ in drifted)}")
        for key, old, new in drifted:
            print(f"  {key}: committed {old!r} != now {new!r}")
        return False
    print(f"ok   {name}: {got['trace_events']} trace events, "
          f"{got['events']} sim events, sha256 {got['trace_sha256'][:16]}...")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the 1000-node waypoint scenario")
    parser.add_argument("--only", choices=sorted(SCENARIOS),
                        help="run a single scenario")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the committed fingerprints of the "
                             "selected scenarios instead of checking them")
    args = parser.parse_args(argv)
    names = [args.only] if args.only else list(SCENARIOS)
    if args.quick and not args.only:
        names.remove("waypoint-1000")
    golden = {"python": None, "numpy": None, "scenarios": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    if args.write:
        golden["python"] = platform.python_version()
        golden["numpy"] = numpy.__version__
        for name in names:
            golden["scenarios"][name] = run_one(name)
            print(f"wrote {name}")
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    missing = [name for name in names if name not in golden["scenarios"]]
    if missing:
        print(f"no committed fingerprint for {', '.join(missing)}; "
              f"run with --write")
        return 1
    failures = [name for name in names
                if not compare(name, run_one(name), golden["scenarios"][name])]
    if failures:
        print(f"fingerprints FAILED: {', '.join(failures)} (committed with "
              f"python {golden['python']}, numpy {golden['numpy']}; this run "
              f"python {platform.python_version()}, numpy {numpy.__version__})")
        return 1
    print("fingerprints: all scenarios bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
