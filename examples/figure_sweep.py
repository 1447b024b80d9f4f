"""Regenerate a paper figure from the command line.

Usage::

    python examples/figure_sweep.py fig7 [--scale small|medium|paper]
                                         [--workers N] [--csv out.csv]

Runs the RMAC-vs-BMMM sweep behind the requested figure (fig7..fig13)
and prints the figure's rows; optionally writes CSV. ``--scale paper``
is the full Section 4.1 matrix (hours of CPU); ``small`` finishes in a
couple of minutes.
"""

import argparse
import sys

from repro.experiments.figures import FIGURES, figure_rows
from repro.experiments.report import format_table, rows_to_csv
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import PAPER_RATES, SCENARIOS, paper_scenario, scaled_scenario

SCALES = {
    # (n_nodes, n_packets, rates, seeds)
    "small": (25, 60, (10, 60, 120), (1, 2)),
    "medium": (40, 150, (5, 20, 60, 120), (1, 2, 3)),
    "paper": (75, 10_000, PAPER_RATES, tuple(range(1, 11))),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=sorted(FIGURES))
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 or 1 = run serially)")
    parser.add_argument("--csv", help="also write the rows to this CSV file")
    args = parser.parse_args(argv)

    spec = FIGURES[args.figure]
    n_nodes, n_packets, rates, seeds = SCALES[args.scale]

    def make_config(protocol, scenario, rate, seed):
        if args.scale == "paper":
            return paper_scenario(protocol, scenario, rate, seed)
        return scaled_scenario(protocol, scenario, rate, seed,
                               n_packets=n_packets, n_nodes=n_nodes)

    total = len(spec.protocols) * len(SCENARIOS) * len(rates) * len(seeds)
    print(f"{spec.figure}: {spec.title}")
    print(f"scale={args.scale}: {total} runs "
          f"({n_nodes} nodes, {n_packets} packets each)...")
    results = run_sweep(list(spec.protocols), list(SCENARIOS), list(rates),
                        list(seeds), make_config, workers=args.workers)
    rows = figure_rows(spec, results)
    print(format_table(rows, title=spec.title))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rows_to_csv(rows))
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
