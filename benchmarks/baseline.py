#!/usr/bin/env python
"""Regenerate the committed performance baseline.

Runs the full, smoke *and* large benchmark tiers (see
``repro.experiments.bench``), writes ``benchmarks/BENCH_<rev>.json``
next to this script and points ``benchmarks/BASELINE`` at it. Run it
from a clean checkout after a kernel or PHY change that is meant to
shift performance, and commit both files::

    PYTHONPATH=src python benchmarks/baseline.py

Pass ``--no-large`` to skip the scaling tier (minutes of 200-1000-node
runs) when only the kernel numbers changed.

CI and ``repro bench`` compare later runs against the ``BENCH_*.json``
that ``BASELINE`` names, so the baseline should come from an otherwise
idle machine (wall-clock noise becomes everyone's regression threshold).
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import bench  # noqa: E402


def main() -> int:
    rev = bench.git_rev(os.path.dirname(__file__))
    points = list(bench.FULL_POINTS) + list(bench.SMOKE_POINTS)
    if "--no-large" not in sys.argv[1:]:
        points += list(bench.LARGE_POINTS)
    report = bench.run_bench(
        points,
        rev=rev,
        progress=lambda rec: print("  " + bench.render_point(rec), flush=True),
    )
    name = f"BENCH_{rev}.json"
    out = os.path.join(os.path.dirname(__file__), name)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(os.path.dirname(__file__),
                           bench.BASELINE_POINTER), "w") as fh:
        fh.write(name + "\n")
    print(bench.render(report))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
