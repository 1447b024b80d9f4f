"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-rmac --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the run times operations (see ``workloads.py``) for
``--seconds`` seconds, one stream of operations per CPU, and reports the
end-to-end metrics as medians over them. With ``--trace 1`` it runs a
fixed set of placements untraced, with telemetry, with the oracle and
traced, and reports the per-layer metrics.
Every run checks the simulated outputs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import multiprocessing.connection
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> (unit, which direction is better).
END_TO_END: Dict[str, tuple] = {
    "sim_s_per_wall_s": ("1/s", "higher"),
    "run_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: A timed run makes at least this many operations, however long they take.
MIN_OPS = 3
#: A timed run runs at most this many operations at once, one per CPU.
MAX_STREAMS = 2
#: Placements a traced run measures (operations 0 .. TRACE_OPS - 1).
TRACE_OPS = 2
#: Seconds one operation may take before it counts as failed.
OP_TIMEOUT_S = 150.0
#: The workload seed when ``--seed`` is not given.
DEFAULT_SEED = 1
#: How long a timed run measures when ``--seconds`` is not given.
DEFAULT_SECONDS = 60.0


class OperationFailed(Exception):
    """An operation raised, timed out, or produced wrong outputs."""


def _child(conn, fn: Callable, args: tuple, kwargs: dict,
           cpu: Optional[int]) -> None:
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        result = (True, fn(*args, **kwargs))
    except BaseException:
        result = (False, traceback.format_exc())
    conn.send(result)
    conn.close()


class Operation:
    """``fn(*args, **kwargs)`` running in a forked child, optionally pinned
    to one CPU.

    A fresh process per operation gives each one its own peak RSS and CPU
    time, and keeps memory left behind by one operation out of the next.
    The benchmark's process starts no threads, so forking it is safe.
    """

    def __init__(self, fn: Callable, args: tuple, kwargs: dict,
                 cpu: Optional[int] = None):
        ctx = multiprocessing.get_context("fork")
        self.receiver, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_child,
                                   args=(sender, fn, args, kwargs, cpu))
        self.label = f"{fn.__qualname__}{args}"
        self.started = time.perf_counter()
        self.deadline = self.started + OP_TIMEOUT_S
        self.process.start()
        sender.close()

    def result(self):
        """Wait for the child and return what ``fn`` returned; raise
        :class:`OperationFailed` if it raised, died or ran out of time."""
        try:
            if not self.receiver.poll(max(0.0, self.deadline - time.perf_counter())):
                raise OperationFailed(f"no result within {OP_TIMEOUT_S} s")
            ok, payload = self.receiver.recv()
        except EOFError:
            ok, payload = False, "the operation's process died without a result"
        finally:
            self.receiver.close()
            self.process.join(5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if not ok:
            raise OperationFailed(payload)
        return payload


def in_child(fn: Callable, *args, **kwargs):
    """Call ``fn`` in a forked child and return its result."""
    return Operation(fn, args, kwargs).result()


def host_record() -> dict:
    """The machine and toolchain a result was measured on."""
    import numpy

    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            # One revision per invocation; an A/B comparison interleaves
            # invocations of the two checkouts.
            "interleaved": False}


def check_outputs(op: dict, reference: Optional[dict]) -> None:
    """Raise if an operation's simulated outputs are implausible, or differ
    from an earlier operation on the same placement."""
    points = op["fingerprint"]
    for point in points if isinstance(points, list) else [points]:
        if point["n_generated"] != op["n_packets"]:
            raise OperationFailed(f"{point['n_generated']} packets generated, "
                                  f"{op['n_packets']} scheduled")
        ratio = point["delivery_ratio"]
        if ratio is None or not 0.0 <= ratio <= 1.0:
            raise OperationFailed(f"delivery ratio {ratio!r} out of range")
    if op["oracle_violations"]:
        raise OperationFailed(f"{op['oracle_violations']} oracle violations")
    if reference is not None:
        for key in ("fingerprint", "events"):
            if op[key] != reference[key]:
                raise OperationFailed(f"{key} differs from an earlier run "
                                      f"of the same placement")


class Tally:
    """Counts operations and failures, and prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def start(self, fn: Callable, *args, cpu: Optional[int] = None,
              **kwargs) -> Operation:
        self.attempted += 1
        return Operation(fn, args, kwargs, cpu)

    def finish(self, op: Operation, reference: Optional[dict] = None):
        """The checked outputs of a started operation, or None if it failed."""
        try:
            out = op.result()
            check_outputs(out, reference)
            return out
        except OperationFailed as exc:
            self.failed += 1
            print(f"operation failed: {op.label}: {exc}", file=sys.stderr)
            return None

    def run(self, fn: Callable, *args, reference=None, **kwargs):
        """One checked operation, or None if it failed."""
        return self.finish(self.start(fn, *args, **kwargs), reference)


def streams(workload) -> List[Optional[int]]:
    """The CPUs that run a timed run's operation streams, one stream each.

    Over seconds, each CPU of this host slows down and speeds up with the
    load of other guests largely independently of the other CPU. One
    stream per CPU samples all of them, so a run's medians follow the
    host's average speed rather than one CPU's, over more operations. A sweep already keeps ``workers`` CPUs busy, so
    it gets fewer streams; a single stream is not pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))[:MAX_STREAMS]
    count = max(1, len(cpus) // workload.processes)
    return cpus[:count] if count > 1 else [None]


def timed_run(workload, seed: int, seconds: float, tally: Tally) -> Dict[str, List[float]]:
    """Operations for ``seconds``, then one untimed check operation.

    Each stream (see :func:`streams`) runs one operation at a time and
    starts the next, with the next placement, while the run's typical
    operation still fits in ``seconds``. Returns each end-to-end metric's
    per-operation samples.
    """
    from workloads import PLACEMENTS

    cpus = streams(workload)
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    first: Dict[int, dict] = {}
    durations: List[float] = []
    running: Dict[Optional[int], tuple] = {}
    start = time.perf_counter()
    k = 0
    while True:
        typical = statistics.median(durations) if durations else 0.0
        for cpu in cpus:
            fits = time.perf_counter() - start + typical <= seconds
            if cpu not in running and (k < MIN_OPS or fits):
                running[cpu] = (tally.start(workload.operation, seed, k, cpu=cpu), k)
                k += 1
        if not running:
            break
        soonest = min(op.deadline for op, _ in running.values())
        ready = multiprocessing.connection.wait(
            [op.receiver for op, _ in running.values()],
            timeout=max(0.0, soonest - time.perf_counter()))
        for cpu, (op, j) in list(running.items()):
            if op.receiver not in ready and time.perf_counter() < op.deadline:
                continue
            del running[cpu]
            durations.append(time.perf_counter() - op.started)
            out = tally.finish(op, reference=first.get(j % PLACEMENTS))
            if out is not None:
                # Keep only what a repeat is compared on: every object the
                # benchmark process holds is copied into each forked child,
                # where the child's garbage collector walks it.
                first.setdefault(j % PLACEMENTS, {key: out[key] for key in
                                                  ("fingerprint", "events")})
                samples["sim_s_per_wall_s"].append(out["sim_s"] / out["run_wall_s"])
                for name in ("run_cpu_s", "setup_s", "peak_rss_mb"):
                    samples[name].append(out[name])
    # The check: placement 0 again, under the oracle where its rules apply.
    tally.run(workload.operation, seed, 0, reference=first.get(0),
              oracle=workload.oracle)
    return samples


def traced_run(workload, seed: int, tally: Tally) -> Optional[Dict[str, float]]:
    """Untraced, telemetry, oracle and traced operations on the first
    ``TRACE_OPS`` placements; the per-layer metrics, or None on failure."""
    from layers import layer_metrics, traced_operation

    ref, tele, oracle, traced = [], [], [], []
    for k in range(TRACE_OPS):
        base = tally.run(workload.operation, seed, k, keep_delays=True)
        if base is None:
            return None
        ref.append(base)
        runs = [(tele, workload.operation, (seed, k), dict(telemetry=True)),
                (traced, traced_operation, (workload, seed, k), {})]
        if workload.oracle:
            runs.append((oracle, workload.operation, (seed, k), dict(oracle=True)))
        for into, fn, args, options in runs:
            op = tally.run(fn, *args, reference=base, **options)
            if op is None:
                return None
            into.append(op)
    mismatch = trace_mismatch(ref, traced)
    if mismatch:
        tally.failed += 1
        print(f"traced run differs from the untraced run: {mismatch}",
              file=sys.stderr)
        return None
    return layer_metrics(ref, traced, tele, oracle)


def trace_mismatch(ref: List[dict], traced: List[dict]) -> Optional[str]:
    """Why the traced operations' exact counts differ from the untraced
    ones, or None when they agree."""
    for base, op in zip(ref, traced):
        if op["counters"] != base["counters"]:
            return f"counters {op['counters']} != {base['counters']}"
        if base.get("delays_ns") and op["trace"]["delays_ns"] != base["delays_ns"]:
            return "delivery delays differ"
        labels = op["trace"].get("label_counts")
        if labels is not None and sum(labels.values()) != op["events"]:
            return "telemetry saw a different number of events"
    return None


def summarize(samples: Dict[str, List[float]]) -> Dict[str, dict]:
    """Median and quartiles of each metric's samples."""
    out = {}
    for name, values in samples.items():
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator source at {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    print("host " + json.dumps(host_record()))
    tally = Tally()
    if args.trace:
        from layers import PER_LAYER

        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        metrics = traced_run(workload, args.seed, tally)
        for name, value in (metrics or {}).items():
            print(f"{name:<32} {value:>14.6g} {units[name]}")
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        samples = timed_run(workload, args.seed, args.seconds, tally)
        metrics = None
        if all(samples.values()):
            stats = summarize(samples)
            metrics = {name: s["median"] for name, s in stats.items()}
            for name, s in stats.items():
                print(f"{name:<20} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']} "
                      f"{units[name]}")
    print(f"failed share {tally.failed}/{tally.attempted}")
    if metrics is None:
        print("perfbench: no metrics; see the failures above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
