"""Sweep runner: executes scenario points, in parallel and fault-tolerantly.

Ownership: this module owns **execution and aggregation** — turning a
(protocols x scenarios x rates x seeds) matrix into per-point
:class:`SweepResult` averages. Persistence lives in
:mod:`repro.experiments.store` (the runner only *writes through* a store
it is handed); workflow (manifest, status) lives in
:mod:`repro.experiments.campaign`; the multi-process executor lives in
:mod:`repro.experiments.farm`.

A *point* is (protocol, scenario, rate); each point runs over several
seeds (the paper: ten random placements, identical across protocols so
the comparison is paired) and the summaries are averaged.

Execution: :func:`execute_jobs` is the one path every sweep takes —
resume, execute, merge. ``workers <= 1`` runs the jobs serially in this
process; ``workers > 1`` hands them to the campaign farm
(:func:`repro.experiments.farm.run_farm`), whose worker processes each
append to their own shard store. Runs are CPU-bound pure Python, so
processes (not threads) are the right lever.

Fault tolerance: paper-scale campaigns are hundreds of runs; one
crashing seed must not void the other 479. A failure is captured as a
:class:`PointFailure` naming the exact (protocol, scenario, rate, seed)
that died (with its traceback), optionally retried, and the surviving
seeds are still aggregated.

Checkpointing: pass ``store=ResultStore(dir)`` and every finished job is
appended to disk *as it completes* (success or captured failure), while
jobs whose exact configuration hash is already stored — in the store or
in a shard store a farm worker left under it — are served from disk
without simulating. Killing a sweep therefore costs only the in-flight
jobs; re-invoking with the same arguments resumes.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
import traceback as _traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.farm import (
    FarmCounters,
    existing_shard_dirs,
    run_farm,
    write_state,
)
from repro.experiments.store import ResultStore, config_hash, merge_stores
from repro.metrics.summary import RunSummary
from repro.world.network import ScenarioConfig, build_network


def run_point(config: ScenarioConfig) -> RunSummary:
    """Build and run one scenario; returns its summary."""
    return build_network(config).run()


#: RunSummary fields averaged across seeds (None values are skipped).
_MEAN_FIELDS = (
    "delivery_ratio",
    "avg_delay_s",
    "avg_drop_ratio",
    "avg_retx_ratio",
    "avg_txoh_ratio",
    "mrts_len_avg",
    "abort_avg",
)
#: Fields combined with max / pooled p99 semantics.
_MAX_FIELDS = ("mrts_len_max", "max_delay_s", "abort_max")
_P99_FIELDS = ("mrts_len_p99", "abort_p99")


@dataclass(frozen=True)
class PointFailure:
    """One (protocol, scenario, rate, seed) run that raised."""

    protocol: str
    scenario: str
    rate_pps: float
    seed: int
    error: str
    traceback: str
    #: How many times the job was attempted (1 + retries used).
    attempts: int

    @property
    def key(self) -> str:
        return f"{self.protocol}|{self.scenario}|{self.rate_pps}|{self.seed}"

    def __str__(self) -> str:
        return f"{self.key}: {self.error} (after {self.attempts} attempt(s))"


@dataclass(frozen=True)
class SweepResult:
    """Seed-averaged metrics for one (protocol, scenario, rate) point."""

    protocol: str
    scenario: str
    rate_pps: float
    n_seeds: int
    values: Dict[str, Optional[float]]
    per_seed: Tuple[RunSummary, ...]
    #: Seeds of this point whose runs raised (empty on a clean sweep).
    failures: Tuple[PointFailure, ...] = ()

    def __getitem__(self, key: str) -> Optional[float]:
        return self.values[key]


def aggregate(
    protocol: str,
    scenario: str,
    rate_pps: float,
    summaries: Sequence[RunSummary],
    failures: Sequence[PointFailure] = (),
) -> SweepResult:
    """Average per-seed summaries into one sweep point."""
    values: Dict[str, Optional[float]] = {}
    for name in _MEAN_FIELDS + _P99_FIELDS:
        samples = [getattr(s, name) for s in summaries if getattr(s, name) is not None]
        values[name] = sum(samples) / len(samples) if samples else None
    for name in _MAX_FIELDS:
        samples = [getattr(s, name) for s in summaries if getattr(s, name) is not None]
        values[name] = max(samples) if samples else None
    return SweepResult(
        protocol=protocol,
        scenario=scenario,
        rate_pps=rate_pps,
        n_seeds=len(summaries),
        values=values,
        per_seed=tuple(summaries),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: a single (point, seed) run."""

    protocol: str
    scenario: str
    rate_pps: float
    seed: int
    config: ScenarioConfig

    @property
    def key(self) -> str:
        return f"{self.protocol}|{self.scenario}|{self.rate_pps}|{self.seed}"


def build_jobs(
    protocols: Sequence[str],
    scenarios: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
    make_config,
) -> List[Job]:
    """The full matrix as jobs, in canonical matrix order.

    The order is load-bearing: :func:`collect_results` slices the job
    list back into (protocol, scenario, rate) points ``len(seeds)`` at a
    time, and the store/farm layers key caches by :attr:`Job.key`.
    """
    jobs: List[Job] = []
    for protocol in protocols:
        for scenario in scenarios:
            for rate in rates:
                for seed in seeds:
                    jobs.append(
                        Job(protocol, scenario, rate, seed,
                            make_config(protocol, scenario, rate, seed))
                    )
    return jobs


def collect_results(
    jobs: Sequence[Job],
    seeds: Sequence[int],
    outcomes: Dict[str, object],
) -> List[SweepResult]:
    """Fold per-job outcomes (``RunSummary`` or ``PointFailure`` keyed by
    :attr:`Job.key`) into seed-averaged points, in matrix order."""
    results: List[SweepResult] = []
    for index in range(0, len(jobs), max(len(seeds), 1)):
        chunk_jobs = jobs[index : index + len(seeds)]
        if not chunk_jobs:
            break
        chunk = [outcomes[j.key] for j in chunk_jobs]
        summaries = [o for o in chunk if isinstance(o, RunSummary)]
        failures = [o for o in chunk if isinstance(o, PointFailure)]
        first = chunk_jobs[0]
        results.append(
            aggregate(first.protocol, first.scenario, first.rate_pps,
                      summaries, failures)
        )
    return results


#: Progress callback: (done, total, job_key, error_or_None).
ProgressFn = Callable[[int, int, str, Optional[str]], None]


def _failure(job: Job, exc: BaseException, attempts: int) -> PointFailure:
    return PointFailure(
        protocol=job.protocol,
        scenario=job.scenario,
        rate_pps=job.rate_pps,
        seed=job.seed,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=attempts,
    )


def run_job(job: Job, retries: int):
    """Run one job, retrying up to ``retries`` extra times; returns its
    ``RunSummary`` or the last attempt's :class:`PointFailure`."""
    for attempt in range(1, retries + 2):
        try:
            return run_point(job.config)
        except Exception as exc:
            failure = _failure(job, exc, attempt)
    return failure


def record_outcome(store: ResultStore, job: Job, job_hash: str,
                   outcome) -> None:
    """Append one job's final outcome (summary or failure) to ``store``."""
    if isinstance(outcome, PointFailure):
        store.record_failure(job.protocol, job.scenario, job.rate_pps,
                             job.seed, job_hash, error=outcome.error,
                             attempts=outcome.attempts)
    else:
        store.record_success(job.protocol, job.scenario, job.rate_pps,
                             job.seed, job_hash, outcome)


def execute_jobs(
    jobs: Sequence[Job],
    workers: int,
    retries: int,
    progress: Optional[ProgressFn],
    store: Optional[ResultStore],
) -> Tuple[Dict[str, object], FarmCounters]:
    """Resume, execute and merge a sweep's jobs.

    Returns every job's outcome (``RunSummary`` or ``PointFailure``,
    keyed by :attr:`Job.key`) and the run's counters. With a ``store``,
    completed points are served from it and from every shard store under
    its directory (a dead farm worker's partial shard replays here); the
    rest run serially (``workers <= 1``) or on the farm (``workers > 1``,
    shards under the store's directory, or under a temporary directory
    removed on return), and the shard stores are finally merged into
    ``store``. Progress reports the cached jobs first, then one call per
    finished job.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    hashes = {job.key: config_hash(job.config) for job in jobs}
    cached: Dict[str, RunSummary] = {}
    if store is not None:
        sources = [store] + [ResultStore(d) for d in
                             existing_shard_dirs(store.directory)]
        for job in jobs:
            for source in sources:
                hit = source.get(job.protocol, job.scenario, job.rate_pps,
                                 job.seed, hashes[job.key])
                if hit is not None:
                    cached[job.key] = hit
                    break

    total = len(jobs)
    counters = FarmCounters(points_total=total, points_cached=len(cached))
    if progress is not None:
        for done, key in enumerate(cached, start=1):
            progress(done, total, key + " (cached)", None)
    outcomes: Dict[str, object] = dict(cached)
    to_run = [job for job in jobs if job.key not in cached]
    started_at = time.time()
    if store is not None:
        write_state(store.directory, "running", started_at, total, counters)

    if workers > 1 and to_run:
        root = (contextlib.nullcontext(store.directory) if store is not None
                else tempfile.TemporaryDirectory(prefix="repro-farm-"))
        with root as directory:
            run_farm(directory, to_run, hashes, min(workers, total), retries,
                     progress, total, len(cached), outcomes, counters,
                     started_at)
    else:
        for done, job in enumerate(to_run, start=len(cached) + 1):
            outcome = outcomes[job.key] = run_job(job, retries)
            if store is not None:
                record_outcome(store, job, hashes[job.key], outcome)
            error = counters.count(outcome)
            if progress is not None:
                progress(done, total, job.key, error)

    if store is not None:
        merged = merge_stores(store, [ResultStore(d) for d in
                                      existing_shard_dirs(store.directory)])
        write_state(store.directory, "done", started_at, total, counters,
                    merged=merged)
    return outcomes, counters


def run_sweep(
    protocols: Sequence[str],
    scenarios: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
    make_config,
    workers: int = 0,
    *,
    retries: int = 0,
    progress: Optional[ProgressFn] = None,
    store: Optional[ResultStore] = None,
) -> List[SweepResult]:
    """Run the full matrix and aggregate per point.

    ``make_config(protocol, scenario, rate, seed) -> ScenarioConfig`` lets
    callers choose paper-scale or bench-scale runs. ``workers > 1`` runs
    the jobs on the campaign farm's worker processes; one crashing run
    never aborts the rest of the matrix either way.

    Parameters
    ----------
    retries:
        Re-run a failed job up to this many extra times before recording
        it as a :class:`PointFailure` (must be >= 0).
    progress:
        Called after every finished job as ``progress(done, total,
        job_key, error_or_None)`` -- e.g. for live console reporting.
        Jobs served from the store count too (key suffixed " (cached)").
    store:
        A :class:`~repro.experiments.store.ResultStore` to resume from
        and write through: jobs whose exact config hash is already
        stored are not re-simulated, and every finished job (success or
        captured failure) is appended as it completes, so an
        interrupted sweep loses only its in-flight jobs.
    """
    jobs = build_jobs(protocols, scenarios, rates, seeds, make_config)
    outcomes, _counters = execute_jobs(jobs, workers, retries, progress,
                                       store)
    return collect_results(jobs, seeds, outcomes)


def sweep_failures(results: Sequence[SweepResult]) -> List[PointFailure]:
    """Every captured failure across a sweep's results, in matrix order."""
    collected: List[PointFailure] = []
    for result in results:
        collected.extend(result.failures)
    return collected


def results_from_store(
    store: ResultStore,
    protocols: Optional[Sequence[str]] = None,
) -> List[SweepResult]:
    """Aggregate whatever a store holds, without simulating anything.

    Groups every completed point by (protocol, scenario, rate) — a
    partially-populated store yields partial results, each point
    averaged over the seeds actually present. Powers ``repro figure
    --from DIR`` and ``repro validate --from DIR``.
    """
    groups: Dict[Tuple[str, str, float], List[Tuple[int, RunSummary]]] = {}
    for (protocol, scenario, rate, seed), summary in store.completed().items():
        if protocols is not None and protocol not in protocols:
            continue
        groups.setdefault((protocol, scenario, rate), []).append((seed, summary))
    results: List[SweepResult] = []
    for (protocol, scenario, rate) in sorted(groups):
        per_seed = [s for _, s in sorted(groups[(protocol, scenario, rate)],
                                         key=lambda pair: pair[0])]
        results.append(aggregate(protocol, scenario, rate, per_seed))
    return results
