"""Resilient sweep runtime: crash recovery, timeouts, cache-backed resume.

Production-scale sweeps die for reasons that have nothing to do with
the cells themselves: a worker process OOM-killed mid-batch, one cell
wedging on a pathological parameter corner, a corrupt cache entry, the
whole run preempted halfway through a 10^4-cell grid.  This module
gives :class:`~repro.eval.parallel.ParallelRunner` the machinery to
survive all four without compromising the determinism contract:

* :class:`RetryPolicy` -- bounded retries with exponential backoff and
  seeded jitter for *transient* failures (worker crashes, timeouts).
  Deterministic cell failures -- an exception raised by the task
  function itself -- are never retried: a seeded simulation that
  failed once fails identically every time.
* :class:`ResilientPool` -- the one multi-worker pool: a fork-based
  process pool that knows which worker holds which task (one duplex
  pipe per worker), so a crashed or deadline-blown worker is
  terminated, respawned, and its task either requeued (within the
  retry budget) or reported as a failed result instead of wedging the
  sweep.  Without a policy every task gets one attempt.
* Record (de)serialization and :func:`records_digest`, shared by the
  result cache -- which is also the resume store: its checksummed
  entries carry each cell's records, wall time, and event count, so
  re-running an interrupted grid against the same cache directory
  restores the finished cells row-for-row.
* :func:`set_chaos_hook` -- the deterministic fault-injection point
  the chaos tests and the CI chaos smoke job use to kill a worker at a
  chosen cell (fork inheritance carries the hook into workers).

Retry safety is machine-checked: :data:`IDEMPOTENT_TASKS` is the
justified allowlist of task functions the pool may re-run, and
replint's ``resilience-idempotent-retry`` rule flags any
:class:`ResilientPool` call site whose task function is not listed.

All timeout arithmetic uses ``time.perf_counter()`` (monotonic,
wall-clock-rule clean) and never feeds simulation state -- elapsed
time is reporting, not physics.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

import numpy as np

from repro.netsim.network import FlowRecord
from repro.netsim.sender import MonitorIntervalStats

__all__ = ["IDEMPOTENT_TASKS", "ResilientPool", "RetryPolicy",
           "record_from_json", "record_to_json", "records_digest",
           "set_chaos_hook"]

#: Justified idempotent-task allowlist: the only functions a
#: :class:`ResilientPool` may be constructed around (and therefore
#: transparently re-run after a crash or timeout).  Each entry is
#: ``(dotted_function_name, justification)``.  The replint
#: ``resilience-idempotent-retry`` rule parses this tuple straight
#: from the AST and flags pool call sites whose task function is not
#: listed, plus stale entries naming functions that no longer exist.
IDEMPOTENT_TASKS: tuple[tuple[str, str], ...] = (
    ("repro.eval.parallel._execute_batch",
     "every batch cell is a pure function of its seeded scenario: "
     "re-running after a crash or timeout reproduces bit-identical "
     "records (the golden-trace gate pins this), and results land in "
     "a fingerprint-keyed store, so a duplicate completion is a "
     "harmless overwrite"),
    ("repro.rl.parallel._worker_collect",
     "a rollout is a pure function of its job tuple (env spec, model "
     "weights, objective, step count, seed): a re-run after a crash "
     "collects the same buffers, and the collector keeps one result "
     "per job id"),
)

# --- record (de)serialization ------------------------------------------------
# Shared by the result cache and the digest helpers; lives here (not in
# repro.eval.parallel) so parallel can import the resilience layer
# without a cycle.

#: Per-monitor-interval fields persisted in cache entries.
MI_FIELDS = ("flow_id", "start", "end", "sent", "acked", "lost", "mean_rtt",
             "min_rtt", "latency_gradient", "capacity_pps", "base_rtt",
             "packet_bytes", "rate_pps")
RECORD_FIELDS = ("flow_id", "scheme", "mean_throughput_pps",
                 "mean_throughput_mbps", "mean_utilization", "mean_rtt",
                 "base_rtt", "loss_rate")


def record_to_json(record: FlowRecord) -> dict:
    payload = {name: getattr(record, name) for name in RECORD_FIELDS}
    payload["records"] = [[getattr(s, name) for name in MI_FIELDS]
                          for s in record.records]
    return payload


def record_from_json(payload: dict) -> FlowRecord:
    stats = [MonitorIntervalStats(**dict(zip(MI_FIELDS, row)))
             for row in payload["records"]]
    fields = {name: payload[name] for name in RECORD_FIELDS}
    return FlowRecord(records=stats, **fields)


def records_json(records: list[FlowRecord]) -> str:
    """Canonical JSON body of a record list (checksum input)."""
    return json.dumps([record_to_json(r) for r in records], sort_keys=True)


def records_digest(records: list[FlowRecord]) -> str:
    """Content digest of a cell's records (order- and bit-sensitive)."""
    return hashlib.sha256(records_json(records).encode("utf-8")).hexdigest()


# --- chaos hook ---------------------------------------------------------------

#: Test/CI fault-injection hook, called by every pool worker with the
#: task argument before executing it.  Set in the parent before the
#: pool forks (children inherit it through fork); ``None`` disables.
#: Mutable module state is acceptable here -- the hook never feeds
#: simulation results, only kills or delays workers.
_CHAOS_HOOK = None


def set_chaos_hook(hook) -> None:
    """Install (or with ``None`` clear) the worker chaos hook."""
    global _CHAOS_HOOK
    _CHAOS_HOOK = hook


def chaos_probe(arg) -> None:
    """Invoke the installed chaos hook, if any (worker-side)."""
    hook = _CHAOS_HOOK
    if hook is not None:
        hook(arg)


# --- retry policy -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_attempts`` counts the first attempt: ``1`` disables retries
    entirely.  The backoff before attempt ``k+1`` is ``backoff_s *
    backoff_factor**(k-1)``, jittered multiplicatively by up to
    ``±jitter_frac`` from a generator seeded with ``seed`` -- the
    delays are reproducible, and they never touch any simulation
    stream (scheduling noise, not physics).
    """

    max_attempts: int = 3
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    jitter_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")

    def delay(self, failures: int, rng: np.random.Generator) -> float:
        """Backoff before the next attempt after ``failures`` failures."""
        base = self.backoff_s * self.backoff_factor ** (failures - 1)
        if self.jitter_frac > 0.0:
            base *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return base


# --- resilient pool -----------------------------------------------------------


def _pool_worker(conn, fn, initializer) -> None:
    """Worker main: receive ``(task_id, arg)``, send ``(task_id,
    result, error)``; a ``None`` message is the shutdown sentinel.

    Task exceptions come back as strings (unpicklable exception objects
    must never wedge the pipe); anything that kills the process --
    including the chaos hook -- surfaces in the parent as a crash.
    """
    if initializer is not None:
        initializer()
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            task_id, arg = message
            chaos_probe(arg)
            try:
                result = fn(arg)
            except Exception as exc:  # noqa: BLE001 -- reported per task
                conn.send((task_id, None, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send((task_id, result, None))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _PoolTask:
    __slots__ = ("task_id", "arg", "timeout", "failures", "errors")

    def __init__(self, task_id, arg, timeout):
        self.task_id = task_id
        self.arg = arg
        self.timeout = timeout
        self.failures = 0
        self.errors: list[str] = []


class _PoolWorker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class ResilientPool:
    """A crash- and timeout-surviving process pool for idempotent tasks.

    Unlike ``multiprocessing.Pool`` -- whose ``imap_unordered`` never
    returns once a worker dies mid-task -- this pool assigns exactly
    one task per worker over a dedicated duplex pipe, so it always
    knows *which* task a dead or deadline-blown worker was holding.
    That worker is terminated and respawned, and the task is requeued
    under ``retry`` (transient failures only: an exception *returned*
    by the task function is deterministic and reported immediately,
    never retried).  ``retry=None`` means one attempt.  Tasks whose
    retry budget is exhausted come back as error results; the pool
    itself never raises for a task.

    ``fn`` must be a module-level function named in
    :data:`IDEMPOTENT_TASKS` -- re-running it must be observationally
    equivalent to running it once (replint enforces the allowlist).
    """

    #: Parent poll granularity, seconds: the latency ceiling on
    #: noticing a crash or an expired deadline (results wake the
    #: parent at once).
    POLL_SECONDS = 0.05

    def __init__(self, n_workers: int, fn, initializer=None,
                 retry: RetryPolicy | None = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.fn = fn
        self.initializer = initializer
        self.retry = (retry if retry is not None
                      else RetryPolicy(max_attempts=1))
        # Backoff jitter: scheduling noise only, never simulation
        # state; seeded so retry timing is reproducible.
        self._rng = np.random.default_rng(self.retry.seed)

    def _spawn(self, ctx) -> _PoolWorker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_pool_worker,
                           args=(child_conn, self.fn, self.initializer),
                           daemon=True)
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn)

    def _kill(self, worker: _PoolWorker) -> None:
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _next_move(self, task: _PoolTask, reason: str, delayed: list):
        """Requeue a transiently-failed task or emit its error result."""
        task.failures += 1
        task.errors.append(reason)
        if task.failures >= self.retry.max_attempts:
            return (task.task_id, None, "; ".join(task.errors))
        delayed.append((time.perf_counter()
                        + self.retry.delay(task.failures, self._rng), task))
        return None

    def execute(self, tasks):
        """Yield one ``(task_id, result, error)`` per task, unordered.

        ``tasks`` is an iterable of ``(task_id, arg, timeout_s)``
        (``timeout_s=None`` = no deadline).  The generator owns the
        worker processes: closing it early terminates in-flight workers
        at once (their tasks are idempotent, their results unwanted)
        and stops the idle ones.
        """
        ctx = mp.get_context("fork")
        queue: deque[_PoolTask] = deque(
            _PoolTask(task_id, arg, timeout)
            for task_id, arg, timeout in tasks)
        if not queue:
            return
        delayed: list = []  # (ready_at, task) backing off before requeue
        workers: list[_PoolWorker] = []  # every live worker, respawns too
        idle: list[_PoolWorker] = []
        inflight: dict = {}  # conn -> (worker, task, deadline | None)

        def assign(worker: _PoolWorker) -> None:
            """Hand ``worker`` the next queued task, or park it idle."""
            if not queue:
                idle.append(worker)
                return
            task = queue.popleft()
            worker.conn.send((task.task_id, task.arg))
            deadline = (None if task.timeout is None
                        else time.perf_counter() + task.timeout)
            inflight[worker.conn] = (worker, task, deadline)

        def replace(worker: _PoolWorker) -> _PoolWorker:
            """Reap a dead or deadline-blown worker; start its successor."""
            workers.remove(worker)
            self._kill(worker)
            fresh = self._spawn(ctx)
            workers.append(fresh)
            return fresh

        try:
            for _ in range(min(self.n_workers, len(queue))):
                workers.append(self._spawn(ctx))
                assign(workers[-1])
            while queue or delayed or inflight:
                if delayed:
                    now = time.perf_counter()
                    waiting = []
                    for ready_at, task in delayed:
                        if ready_at <= now:
                            queue.append(task)
                        else:
                            waiting.append((ready_at, task))
                    delayed = waiting
                while idle and queue:
                    assign(idle.pop())
                if not inflight:
                    # Everything is backing off; sleep to the earliest
                    # requeue (bounded by the poll granularity).
                    ready_at = min(entry[0] for entry in delayed)
                    pause = ready_at - time.perf_counter()
                    if pause > self.POLL_SECONDS:
                        pause = self.POLL_SECONDS
                    if pause > 0:
                        time.sleep(pause)
                    continue
                for conn in _connection_wait(list(inflight),
                                             timeout=self.POLL_SECONDS):
                    worker, task, _deadline = inflight.pop(conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-task (chaos kill, OOM,
                        # segfault): respawn and requeue within budget.
                        verdict = self._next_move(
                            task, "WorkerCrash: worker process died "
                                  f"while running task {task.task_id!r}",
                            delayed)
                        assign(replace(worker))
                        if verdict is not None:
                            yield verdict
                    else:
                        # Keep the worker fed: it gets its next task
                        # before the consumer spends time on this
                        # result (e.g. writing a cache entry).
                        assign(worker)
                        yield message
                now = time.perf_counter()
                for conn in list(inflight):
                    worker, task, deadline = inflight[conn]
                    expired = deadline is not None and now > deadline
                    if worker.proc.is_alive() and not expired:
                        continue
                    del inflight[conn]
                    if expired:
                        reason = (f"CellTimeout: task {task.task_id!r} "
                                  f"exceeded {task.timeout:.3f}s")
                    else:
                        reason = ("WorkerCrash: worker process died "
                                  f"while running task {task.task_id!r}")
                    verdict = self._next_move(task, reason, delayed)
                    assign(replace(worker))
                    if verdict is not None:
                        yield verdict
        finally:
            for worker in workers:
                if worker.conn in inflight:
                    worker.proc.terminate()
                else:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
            for worker in workers:
                worker.proc.join(timeout=1.0)
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join()
                try:
                    worker.conn.close()
                except OSError:
                    pass
