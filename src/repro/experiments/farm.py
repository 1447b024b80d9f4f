"""Campaign farm: the sharded multi-process executor behind every parallel sweep.

Ownership: this module owns **multi-process execution** — spreading a
sweep's (protocol, scenario, rate, seed) jobs across worker processes,
keeping the workers fed (work-stealing) and surviving their deaths
(lease requeue + shard replay). :func:`repro.experiments.runner.run_sweep`
and :meth:`repro.experiments.campaign.Campaign.run` hand it every run
with ``workers > 1``; they own resume and the final merge of the shard
stores into the canonical store. Scenario construction stays in
:mod:`~repro.experiments.scenarios`, persistence in
:mod:`~repro.experiments.store` (the farm only composes ``ResultStore``
directories), aggregation in :mod:`~repro.experiments.runner`.

The design targets the ROADMAP's 10^5–10^6-point scale:

* **Sharded stores.** Every worker appends to its *own*
  ``ResultStore`` directory (``DIR/shards/shard-NN/``), so there is no
  cross-process write contention and a worker's completed points are
  durable the instant its ``record_success`` returns — independent of
  every other process, the coordinator included.
* **Deterministic point→shard assignment.** A point's home shard is
  ``int(config_hash, 16) % n_shards``. The assignment depends only on
  the point's configuration, so a re-invoked farm rebuilds the same
  queues and a shard store can always be traced back to the points it
  was responsible for.
* **Work-stealing.** A worker whose home queue drains steals from the
  *longest* remaining queue, so one slow shard (an unlucky mix of
  high-rate points) cannot leave the other cores idle. Stolen points
  are recorded in the thief's shard store; the merge does not care.
* **Crash detection + lease requeue.** The coordinator leases exactly
  one job to a worker at a time and watches process liveness. A killed
  worker's leased job returns to the front of its home queue and runs
  elsewhere; the dead worker's partial shard store is *replayed* on the
  next run over the same directory (its completed points are served as
  cached), never discarded.
* **Deterministic merge.** :func:`repro.experiments.store.merge_stores`
  folds the shard stores into the canonical root store
  (``DIR/results.jsonl``) — per point bit-identical (``config_hash``
  and ``RunSummary`` dict) to a serial run of the same spec, because
  every point is a deterministic function of its config and the record
  format is shared.

Liveness is observable while the farm runs: the coordinator maintains
``DIR/farm.json`` and every worker heartbeats ``DIR/workers/worker-NN
.json`` (atomic replace, one write per lease/completion), which is what
``repro campaign serve --out DIR`` reads — see :func:`farm_status` for
the exact fields. Farm counters (done/stolen/requeued, worker deaths)
thread into the :class:`~repro.sim.telemetry.Telemetry` pipeline as a
``"farm"`` section via ``Campaign.run(..., telemetry=...)``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.experiments.store import ResultStore
from repro.metrics.summary import RunSummary

#: Subdirectory of the farm root holding one ResultStore per shard.
SHARDS_DIR = "shards"
#: Subdirectory holding one heartbeat JSON file per worker.
WORKERS_DIR = "workers"
#: Run state file (started_at, totals, progress, state).
FARM_STATE = "farm.json"

#: A worker heartbeat older than this is reported dead by the serve
#: endpoint even if its pid still exists (e.g. a stopped process).
HEARTBEAT_STALE_S = 30.0

#: How long the coordinator waits on the result queue before it checks
#: worker liveness again.
POLL_S = 0.2


class FarmError(RuntimeError):
    """The farm cannot make progress (every worker died)."""


def shard_index(point_hash: str, n_shards: int) -> int:
    """Deterministic home shard for a point: hash mod shard count."""
    return int(point_hash, 16) % n_shards


def shard_name(index: int) -> str:
    return f"shard-{index:02d}"


def shard_dirs(root: str, n_shards: int) -> List[str]:
    return [os.path.join(root, SHARDS_DIR, shard_name(i))
            for i in range(n_shards)]


def existing_shard_dirs(root: str) -> List[str]:
    """Every shard store directory present under ``root``, sorted —
    including shards left by an earlier run with a different worker
    count (their points replay into the new queues all the same)."""
    base = os.path.join(root, SHARDS_DIR)
    if not os.path.isdir(base):
        return []
    return sorted(
        os.path.join(base, name) for name in os.listdir(base)
        if os.path.isdir(os.path.join(base, name))
    )


@dataclass
class FarmCounters:
    """Execution counters for one sweep run (a telemetry section).

    Every run fills total, cached, done and failed; the stolen, requeued
    and worker counts stay 0 unless the farm ran.
    """

    points_total: int = 0
    points_cached: int = 0
    points_done: int = 0
    points_failed: int = 0
    points_stolen: int = 0
    points_requeued: int = 0
    workers_spawned: int = 0
    workers_died: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "points_total": self.points_total,
            "points_cached": self.points_cached,
            "points_done": self.points_done,
            "points_failed": self.points_failed,
            "points_stolen": self.points_stolen,
            "points_requeued": self.points_requeued,
            "workers_spawned": self.workers_spawned,
            "workers_died": self.workers_died,
        }

    def count(self, outcome) -> Optional[str]:
        """Count one finished job; returns its error, or None if it ran."""
        if isinstance(outcome, RunSummary):
            self.points_done += 1
            return None
        self.points_failed += 1
        return outcome.error


def _write_json_atomic(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_heartbeat(path: str, worker_id: int, done: int, status: str,
                     last_key: Optional[str]) -> None:
    _write_json_atomic(path, {
        "worker": worker_id,
        "pid": os.getpid(),
        "time": time.time(),
        "status": status,
        "done": done,
        "last_key": last_key,
    })


def _worker_main(worker_id: int, shard_dir: str, heartbeat_path: str,
                 task_queue, result_queue, retries: int) -> None:
    """One farm worker: lease → simulate → append to own shard → ack.

    The shard-store append (fsynced) happens *before* the ack, so a
    worker killed between the two leaves a durable record; the
    coordinator requeues the lease and the re-run's identical record is
    deduplicated by the merge. The ack carries the job's outcome: its
    ``RunSummary`` or its ``PointFailure``, traceback included.
    """
    # The runner imports this module, so the worker resolves it late.
    from repro.experiments.runner import record_outcome, run_job

    store = ResultStore(shard_dir)
    done = 0
    while True:
        task = task_queue.get()
        if task is None:
            _write_heartbeat(heartbeat_path, worker_id, done, "stopped", None)
            return
        job, job_hash = task
        _write_heartbeat(heartbeat_path, worker_id, done, "leased", job.key)
        outcome = run_job(job, retries)
        record_outcome(store, job, job_hash, outcome)
        done += 1
        _write_heartbeat(heartbeat_path, worker_id, done, "idle", job.key)
        result_queue.put((worker_id, job.key, outcome))


def run_farm(root, to_run, hashes, n_workers, retries, progress, total,
             done_offset, outcomes, counters, started_at) -> None:
    """The coordinator loop: dispatch, steal, detect death, requeue.

    Runs ``to_run`` across ``n_workers`` processes, each appending to
    its own shard store under ``root``; every outcome lands in
    ``outcomes`` (keyed by job key) and in ``counters``. Raises
    :class:`FarmError` when every worker has died.
    """
    os.makedirs(os.path.join(root, WORKERS_DIR), exist_ok=True)
    dirs = shard_dirs(root, n_workers)
    pending: List[Deque[tuple]] = [deque() for _ in range(n_workers)]
    for job in to_run:
        job_hash = hashes[job.key]
        pending[shard_index(job_hash, n_workers)].append((job, job_hash))

    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()
    task_queues = [ctx.Queue() for _ in range(n_workers)]
    procs: Dict[int, object] = {}
    heartbeat = {
        i: os.path.join(root, WORKERS_DIR, f"worker-{i:02d}.json")
        for i in range(n_workers)
    }
    for i in range(n_workers):
        proc = ctx.Process(
            target=_worker_main,
            args=(i, dirs[i], heartbeat[i], task_queues[i],
                  result_queue, retries),
            daemon=True,
        )
        proc.start()
        procs[i] = proc
        counters.workers_spawned += 1

    leased: Dict[int, tuple] = {}
    idle: Set[int] = set()
    dead: Set[int] = set()
    completed_keys: Set[str] = set()
    last_state_write = time.time()

    def next_task(worker_id: int):
        """Home queue first; otherwise steal from the longest one."""
        if pending[worker_id]:
            return pending[worker_id].popleft()
        richest = max(range(n_workers), key=lambda s: len(pending[s]))
        if pending[richest]:
            counters.points_stolen += 1
            return pending[richest].pop()
        return None

    def dispatch(worker_id: int) -> None:
        task = next_task(worker_id)
        if task is None:
            idle.add(worker_id)
            return
        leased[worker_id] = task
        task_queues[worker_id].put(task)

    def cancel_duplicate(key: str) -> None:
        """Drop a still-queued requeue of an already-completed job
        (the original worker's ack raced its death detection)."""
        for shard_queue in pending:
            for task in shard_queue:
                if task[0].key == key:
                    shard_queue.remove(task)
                    return

    try:
        for i in range(n_workers):
            dispatch(i)
        while len(completed_keys) < len(to_run):
            try:
                message = result_queue.get(timeout=POLL_S)
            except queue_module.Empty:
                message = None
            if message is not None:
                worker_id, key, outcome = message
                task = leased.pop(worker_id, None)
                outcomes[key] = outcome
                if key not in completed_keys:
                    completed_keys.add(key)
                    error = counters.count(outcome)
                    cancel_duplicate(key)
                    if progress is not None:
                        progress(done_offset + len(completed_keys),
                                 total, key, error)
                if worker_id not in dead and task is not None:
                    dispatch(worker_id)
            # -- liveness: requeue the leases of dead workers -----------
            for worker_id, proc in procs.items():
                if worker_id in dead or proc.is_alive():
                    continue
                dead.add(worker_id)
                counters.workers_died += 1
                task = leased.pop(worker_id, None)
                if task is not None and task[0].key not in completed_keys:
                    counters.points_requeued += 1
                    pending[shard_index(task[1], n_workers)].appendleft(task)
                    for w in sorted(idle - dead):
                        idle.discard(w)
                        dispatch(w)
            alive = [w for w in procs if w not in dead]
            if not alive and len(completed_keys) < len(to_run):
                raise FarmError(
                    f"all {len(procs)} farm workers died with "
                    f"{len(to_run) - len(completed_keys)} point(s) "
                    f"unfinished; completed work is in the shard "
                    f"stores — re-run to resume")
            now = time.time()
            if now - last_state_write >= 1.0:
                last_state_write = now
                write_state(root, "running", started_at, total, counters)
    finally:
        for worker_id, proc in procs.items():
            if proc.is_alive():
                task_queues[worker_id].put(None)
        for proc in procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in task_queues + [result_queue]:
            q.cancel_join_thread()
            q.close()


def write_state(root: str, state: str, started_at: float, total: int,
                counters: FarmCounters, merged: Optional[dict] = None,
                ) -> None:
    """Write the coordinator state file ``root/farm.json``."""
    payload = {
        "state": state,
        "pid": os.getpid(),
        "started_at": started_at,
        "updated_at": time.time(),
        "total": total,
        "counters": counters.as_dict(),
    }
    if merged is not None:
        payload["merged"] = merged
    _write_json_atomic(os.path.join(root, FARM_STATE), payload)


# ---------------------------------------------------------------------------
# Status (what `repro campaign serve` publishes)
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (OSError, TypeError):
        return False
    return True


def farm_status(out: str, now: Optional[float] = None) -> dict:
    """One JSON-ready snapshot of a farm directory's live progress.

    Computed purely from on-disk state (shard manifests, heartbeats,
    ``farm.json``) so it works from any process at any moment — during
    the run, after a crash, or long after completion. Fields are
    documented in ``docs/campaign-farm.md`` ("The serve endpoint").
    """
    now = time.time() if now is None else now
    root = ResultStore(out, create=False)
    manifest = root.manifest() or {}
    state_path = os.path.join(out, FARM_STATE)
    state: dict = {}
    if os.path.exists(state_path):
        with open(state_path) as fh:
            state = json.load(fh)

    ok_keys: Set[tuple] = set()
    failed_keys: Set[tuple] = set()
    shards = []
    shard_stores = [("", root)]
    for directory in existing_shard_dirs(out):
        shard_stores.append((os.path.basename(directory),
                             ResultStore(directory)))
    for name, store in shard_stores:
        ok = failed = 0
        for key, record in store.records():
            if record["status"] == "ok":
                ok += 1
                ok_keys.add(key)
            else:
                failed += 1
                failed_keys.add(key)
        if name:
            shards.append({"shard": name, "ok": ok, "failed": failed})

    done = len(ok_keys)
    failed = len(failed_keys - ok_keys)
    total = None
    if all(k in manifest for k in ("protocols", "scenarios", "rates", "seeds")):
        total = (len(manifest["protocols"]) * len(manifest["scenarios"])
                 * len(manifest["rates"]) * len(manifest["seeds"]))
    missing = None if total is None else max(total - done - failed, 0)

    started_at = state.get("started_at")
    cached = (state.get("counters") or {}).get("points_cached", 0)
    points_per_sec = eta_s = None
    if started_at and now > started_at and done > cached:
        points_per_sec = (done - cached) / (now - started_at)
        if missing is not None and points_per_sec > 0:
            eta_s = missing / points_per_sec

    workers = []
    workers_dir = os.path.join(out, WORKERS_DIR)
    if os.path.isdir(workers_dir):
        for name in sorted(os.listdir(workers_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(workers_dir, name)) as fh:
                    beat = json.load(fh)
            except (OSError, ValueError):
                continue
            age = now - beat.get("time", 0.0)
            alive = (beat.get("status") not in ("stopped",)
                     and _pid_alive(beat.get("pid"))
                     and age < HEARTBEAT_STALE_S)
            workers.append({
                "worker": beat.get("worker"),
                "pid": beat.get("pid"),
                "status": beat.get("status"),
                "alive": alive,
                "age_s": round(age, 3),
                "done": beat.get("done"),
                "last_key": beat.get("last_key"),
            })

    return {
        "state": state.get("state", "unknown"),
        "total": total,
        "done": done,
        "failed": failed,
        "missing": missing,
        "cached": cached,
        "points_per_sec": points_per_sec,
        "eta_s": eta_s,
        "counters": state.get("counters"),
        "workers": workers,
        "workers_alive": sum(1 for w in workers if w["alive"]),
        "shards": shards,
        "updated_at": now,
    }


def render_farm_status(status: dict) -> str:
    """A compact human-readable form of :func:`farm_status`."""
    lines = []
    total = status["total"]
    head = (f"{status['done']}/{total}" if total is not None
            else str(status["done"]))
    lines.append(f"farm [{status['state']}]: {head} points done, "
                 f"{status['failed']} failed"
                 + (f", {status['missing']} missing"
                    if status["missing"] is not None else ""))
    if status["points_per_sec"]:
        eta = (f", eta {status['eta_s']:.0f}s"
               if status["eta_s"] is not None else "")
        lines.append(f"rate: {status['points_per_sec']:.2f} points/s{eta}")
    for worker in status["workers"]:
        flag = "alive" if worker["alive"] else "dead"
        lines.append(f"worker {worker['worker']}: {flag} "
                     f"({worker['status']}, {worker['done']} done, "
                     f"heartbeat {worker['age_s']:.1f}s ago)")
    for shard in status["shards"]:
        lines.append(f"{shard['shard']}: {shard['ok']} ok, "
                     f"{shard['failed']} failed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The serve endpoint
# ---------------------------------------------------------------------------

def make_status_server(out: str, host: str = "127.0.0.1", port: int = 8765):
    """A threading HTTP server publishing a farm directory's status.

    ``GET /status`` returns the :func:`farm_status` JSON (recomputed
    from disk per request, so long-polling it streams live progress);
    ``GET /`` returns the human-readable rendering. The caller owns the
    server lifecycle (``serve_forever`` / ``shutdown``).
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            try:
                status = farm_status(out)
            except FileNotFoundError:
                self.send_error(404, "no farm store at %r" % out)
                return
            if self.path.rstrip("/") in ("", "/"):
                body = render_farm_status(status).encode()
                content_type = "text/plain; charset=utf-8"
            elif self.path == "/status":
                body = (json.dumps(status, indent=1, sort_keys=True)
                        + "\n").encode()
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path (try / or /status)")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet; status is pull-based
            pass

    return ThreadingHTTPServer((host, port), Handler)
