"""Execution backends for the chunked SQL engine.

An :class:`ExecutorPool` runs per-chunk worker tasks against a broadcast
*state* (see :mod:`repro.engine.worker`).  Two backends exist:

* :class:`SerialPool` — runs tasks in-process.  Chunking and merging are
  still exercised (the default splits into a handful of chunks), which is
  what the chunk-boundary parity tests lean on;
* :class:`MultiprocessingPool` — ships the state to a pool of worker
  processes (codes and dictionaries travel once per broadcast
  generation, via the pool initializer) and runs tasks across them under
  **supervision**.  OS pools live in a small process-wide LRU registry
  keyed by (workers, state token), so plans with different broadcast
  states can alternate without re-forking, and steady-state queries
  pay no spawn cost; a plan that re-tokenises after a mutation retires
  its stale pool explicitly.  Workloads smaller than ``min_rows`` fall
  back to in-process execution — the result is byte-identical either
  way, so the cut-over is invisible.

Supervision replaces the old blocking ``pool.map``/``imap``: every task
is dispatched asynchronously inside the
:func:`~repro.engine.worker.dispatch_supervised` envelope, bounded by a
per-task timeout (``REPRO_TASK_TIMEOUT``).  A task whose worker raised
comes back as a picklable ``TaskFailure`` and is retried on the live
pool; a timed-out, crashed (``os._exit`` / OOM-killed) or
broken-pipe round retires the pool — the next round re-forks it, which
re-broadcasts the state through the initializer — and retries the
failed tasks, up to ``REPRO_TASK_RETRIES`` rounds.  Tasks that fail
every round degrade to in-process
:func:`~repro.engine.worker.run_local_timed` (injected faults never fire
there), so results stay byte-identical to :class:`SerialPool` under any
fault schedule; ``REPRO_TASK_FALLBACK=0`` turns that last resort into a
raised :class:`~repro.errors.WorkerCrashError` /
:class:`~repro.errors.TaskTimeoutError` instead.

:func:`resolve_pool` turns :class:`~repro.relational.sql.engine.SQLEngine`'s
``engine=``/``workers=`` (and ``task_timeout=``/``task_retries=``) knobs
— with the ``REPRO_ENGINE`` /
``REPRO_WORKERS`` / ``REPRO_PARALLEL_THRESHOLD`` / ``REPRO_TASK_TIMEOUT``
/ ``REPRO_TASK_RETRIES`` environment variables, parsed and validated by
:mod:`repro.config`, as process-wide defaults — into a pool, or ``None``
for the unchunked in-process path.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
from time import monotonic
from typing import Any, Iterator

from repro import config, obs
from repro.config import ENGINE_ENV, THRESHOLD_ENV, WORKERS_ENV  # noqa: F401 (re-exported)
from repro.engine import worker
from repro.engine.worker import TaskFailure
from repro.errors import EngineError, TaskTimeoutError, WorkerCrashError

#: engine names accepted by SQLEngine, the session, the CLI and the env var.
ENGINES = ("sequential", "serial", "parallel")

#: below this many live tuples the parallel backend runs in-process.
DEFAULT_MIN_ROWS = 4096

#: per-task supervision timeout (seconds) when neither the knob nor
#: REPRO_TASK_TIMEOUT says otherwise — generous enough that healthy
#: workloads never trip it, bounded enough that a hung worker cannot
#: stall a long-running service forever.
DEFAULT_TASK_TIMEOUT = 300.0

#: supervised re-dispatch rounds for failed tasks before falling back.
DEFAULT_TASK_RETRIES = 2

#: how long one poll wait on an outstanding task result blocks (seconds);
#: result arrival wakes the wait early, so this only bounds how stale the
#: crash/timeout checks can get, not the latency of the happy path.
_POLL_SECONDS = 0.05

_token_counter = itertools.count(1)


class StateHandle:
    """A broadcastable state with an identity token.

    Chunked SQL engines cache one handle per relation version; the
    multiprocessing backend compares tokens to decide whether the worker
    processes already hold this state or a pool must be (re)started.
    When a plan re-tokenises after a relation mutation it passes the old
    token as *supersedes*, letting the backend retire the now-stale pool
    instead of waiting for LRU eviction.
    """

    __slots__ = ("token", "state", "supersedes")

    def __init__(self, state: dict[str, Any],
                 supersedes: int | None = None) -> None:
        self.token = next(_token_counter)
        self.state = state
        self.supersedes = supersedes


class ExecutorPool:
    """Abstract task runner; concrete backends decide where tasks execute."""

    name = "abstract"

    def __init__(self, chunk_size: int | None = None,
                 num_chunks: int | None = None) -> None:
        self.chunk_size = chunk_size
        self.num_chunks = num_chunks

    def chunk_plan(self, rows: int) -> dict[str, int | None]:
        """Keyword arguments for :class:`~repro.engine.chunker.Chunker`."""
        if self.chunk_size is not None:
            return {"chunk_size": self.chunk_size}
        return {"num_chunks": self.num_chunks or self.default_chunks(rows)}

    def default_chunks(self, rows: int) -> int:
        raise NotImplementedError

    def run(self, handle: StateHandle, tasks: list[tuple[str, Any]],
            rows: int = 0) -> list[Any]:
        """Run tasks against the state; results come back in task order."""
        raise NotImplementedError

    def run_stream(self, handle: StateHandle, tasks: list[tuple[str, Any]],
                   rows: int = 0) -> "Iterator[Any]":
        """Like :meth:`run` but yields results as they complete (task order).

        Lets the parent overlap merging with still-running workers.
        """
        return iter(self.run(handle, tasks, rows))


def _merge_timed(tasks: list[tuple[str, Any]],
                 timed: list[tuple[float, Any]]) -> list[Any]:
    """Unwrap ``(seconds, result)`` pairs, folding timings into the registry.

    Pairing is strict: a silent ``zip`` truncation here would drop chunk
    results (and with them violations or query rows), so a length
    mismatch raises :class:`~repro.errors.EngineError` naming the short
    side instead.
    """
    if len(timed) != len(tasks):
        short = "results" if len(timed) < len(tasks) else "tasks"
        raise EngineError(
            f"engine produced {len(timed)} result(s) for {len(tasks)} "
            f"dispatched task(s); the {short} side is short")
    if obs.enabled:
        for (name, _), (seconds, _) in zip(tasks, timed):
            obs.observe(f"engine.task.{name}.seconds", seconds)
    return [result for _, result in timed]


_EXHAUSTED = object()


def _merge_timed_stream(tasks: list[tuple[str, Any]],
                        timed: "Iterator[tuple[float, Any]]") -> "Iterator[Any]":
    """Streaming :func:`_merge_timed`: preserves the backend's laziness.

    Same strict pairing as :func:`_merge_timed` — the stream ending
    before every task has a result (or outliving the task list) raises
    :class:`~repro.errors.EngineError` rather than truncating silently.
    """
    timed = iter(timed)
    produced = 0
    for name, _payload in tasks:
        entry = next(timed, _EXHAUSTED)
        if entry is _EXHAUSTED:
            raise EngineError(
                f"engine produced {produced} result(s) for {len(tasks)} "
                f"dispatched task(s); the results side is short")
        seconds, result = entry
        produced += 1
        if obs.enabled:
            obs.observe(f"engine.task.{name}.seconds", seconds)
        yield result
    if next(timed, _EXHAUSTED) is not _EXHAUSTED:
        raise EngineError(
            f"engine produced more results than the {len(tasks)} "
            f"dispatched task(s); the tasks side is short")


class SerialPool(ExecutorPool):
    """Chunked execution on the calling thread (no processes involved)."""

    name = "serial"
    #: chunks used by default so boundary merging is exercised even serially.
    DEFAULT_CHUNKS = 4

    def default_chunks(self, rows: int) -> int:
        return self.DEFAULT_CHUNKS

    def run(self, handle: StateHandle, tasks: list[tuple[str, Any]],
            rows: int = 0) -> list[Any]:
        return _merge_timed(tasks, worker.run_local_timed(handle.state, tasks))


# Process-wide registry of live OS pools, shared by every
# MultiprocessingPool facade and keyed by (workers, state token).  Keeping
# a small LRU of pools lets plans with different broadcast states (a scan
# and a join inside one session, say) alternate without
# terminating and re-forking on every switch; stale generations are
# retired explicitly via StateHandle.supersedes or by LRU eviction.
_pools: "dict[tuple[int, int], Any]" = {}

#: most pools kept alive at once (each holds `workers` OS processes).
MAX_SHARED_POOLS = 4


def _pool_pids(pool: Any) -> frozenset[int] | None:
    """The pids of a pool's current workers, or ``None`` when unknowable.

    ``multiprocessing.Pool`` replaces a dead worker with a fresh process
    (new pid), so a changed pid set is how the supervisor notices a
    crash without waiting out the task timeout.  Reading ``_pool`` is a
    CPython implementation detail; on runtimes without it the supervisor
    simply degrades to timeout-only crash detection.
    """
    processes = getattr(pool, "_pool", None)
    if processes is None:
        return None
    try:
        return frozenset(process.pid for process in processes)
    except Exception:
        return None


def _close_pool(key: tuple[int, int]) -> None:
    pool = _pools.pop(key, None)
    if pool is not None:
        if obs.enabled:
            obs.inc("engine.pool.stop")
        try:
            pool.terminate()
            pool.join()
        except (OSError, ValueError):
            # an already-dead or broken pool (workers crashed, interpreter
            # shutting down) must not turn teardown into a crash of its own
            if obs.enabled:
                obs.inc("engine.pool.stop_error")


def shutdown_pools() -> None:
    """Terminate every shared worker pool now (also runs at exit).

    One-shot callers (a fresh ``SQLEngine(..., engine="parallel")`` per
    query, say) each broadcast a fresh state and therefore fork a fresh
    pool; steady-state users should hold on to one engine instead, but
    this releases the processes early either way.
    """
    for key in list(_pools):
        _close_pool(key)


atexit.register(shutdown_pools)


class MultiprocessingPool(ExecutorPool):
    """Multiprocess execution with broadcast-once state and supervision.

    Tasks run inside the worker-side envelope
    (:func:`~repro.engine.worker.dispatch_supervised`) under a per-task
    timeout; failed tasks are retried — on the live pool for clean
    in-worker errors, on a rebuilt pool after crashes, hangs and broken
    pipes — and finally degrade to in-process execution, so a fault
    schedule can slow a run down but never change its results.
    """

    name = "parallel"

    def __init__(self, workers: int | None = None, chunk_size: int | None = None,
                 num_chunks: int | None = None, min_rows: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        super().__init__(chunk_size=chunk_size, num_chunks=num_chunks)
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.min_rows = DEFAULT_MIN_ROWS if min_rows is None else min_rows
        if task_timeout is None:
            task_timeout = config.task_timeout_default()
        if task_timeout is None:
            task_timeout = DEFAULT_TASK_TIMEOUT
        #: seconds a dispatched task may go without a result; None = unbounded.
        self.task_timeout: float | None = task_timeout if task_timeout > 0 else None
        if task_retries is None:
            task_retries = config.task_retries_default()
        self.task_retries = (DEFAULT_TASK_RETRIES if task_retries is None
                             else max(0, task_retries))
        #: whether exhausted tasks degrade to in-process execution (default)
        #: or raise the structured engine error (strict mode).
        self.serial_fallback = config.task_fallback_default()

    def default_chunks(self, rows: int) -> int:
        return self.workers

    def run(self, handle: StateHandle, tasks: list[tuple[str, Any]],
            rows: int = 0) -> list[Any]:
        if not tasks:
            return []
        if self.workers <= 1 or len(tasks) <= 1 or rows < self.min_rows:
            if obs.enabled:
                obs.inc("engine.pool.inline")
            return _merge_timed(tasks, worker.run_local_timed(handle.state, tasks))
        return _merge_timed(tasks, self._run_supervised(handle, tasks))

    def run_stream(self, handle: StateHandle, tasks: list[tuple[str, Any]],
                   rows: int = 0) -> Any:
        if not tasks:
            return iter(())
        if self.workers <= 1 or len(tasks) <= 1 or rows < self.min_rows:
            if obs.enabled:
                obs.inc("engine.pool.inline")
            return _merge_timed_stream(
                tasks, iter(worker.run_local_timed(handle.state, tasks)))
        # supervision collects out of completion order, so the "stream"
        # materialises first; consumers still merge in task order.
        return _merge_timed_stream(tasks, iter(self._run_supervised(handle, tasks)))

    # -- supervised execution ---------------------------------------------

    def _run_supervised(self, handle: StateHandle,
                        tasks: list[tuple[str, Any]]) -> list[tuple[float, Any]]:
        """Run every task to a ``(seconds, result)`` under fault supervision.

        The state machine per round: dispatch all still-pending tasks
        asynchronously, collect envelopes until done / timed out /
        worker death detected, retire the pool if the round saw
        anything worse than a clean in-worker error, and carry the
        failed tasks into the next round (the rebuilt pool re-broadcasts
        ``handle.state`` through its initializer).  Tasks still failing
        after ``task_retries`` retry rounds run in-process — or, in
        strict mode, raise with the structured failure context.
        """
        timed: list[tuple[float, Any] | None] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempts = [0] * len(tasks)
        failures: dict[int, TaskFailure] = {}
        try:
            for round_index in range(self.task_retries + 1):
                if not pending:
                    break
                if round_index and obs.enabled:
                    obs.inc("engine.task.retry", len(pending))
                pool = self._supervised_pool(handle, rebuilding=round_index > 0)
                if pool is None:
                    break  # could not (re)fork: straight to the fallback
                ready, failed, healthy = self._dispatch_round(pool, tasks, pending)
                for index, entry in ready.items():
                    timed[index] = entry
                failures.update(failed)
                for index in failed:
                    attempts[index] += 1
                if not healthy:
                    self._retire_pool(handle)
                pending = sorted(failed)
        except BaseException:
            # Ctrl-C (or anything unexpected) must not leave worker
            # processes running a half-collected round behind.
            self._retire_pool(handle)
            raise
        if pending:
            self._resolve_exhausted(handle, tasks, pending, failures,
                                    attempts, timed)
        return timed  # type: ignore[return-value]

    def _resolve_exhausted(self, handle: StateHandle,
                           tasks: list[tuple[str, Any]], pending: list[int],
                           failures: dict[int, TaskFailure], attempts: list[int],
                           timed: list[tuple[float, Any] | None]) -> None:
        """Fall back in-process for tasks that failed every round (or raise)."""
        if not self.serial_fallback:
            index = pending[0]
            failure = failures[index]
            error_type = (TaskTimeoutError if failure.kind == "timeout"
                          else WorkerCrashError)
            raise error_type(
                f"task {failure.task!r} failed {attempts[index]} attempt(s) "
                f"({failure.kind}: {failure.message}) and the serial "
                f"fallback is disabled ({config.TASK_FALLBACK_ENV}=0) "
                f"[{worker.payload_summary(tasks[index])}]",
                task=failure.task,
                payload_summary=worker.payload_summary(tasks[index]),
                attempts=attempts[index])
        if obs.enabled:
            obs.inc("engine.fallback.serial")
            obs.inc("engine.fallback.tasks", len(pending))
        local = worker.run_local_timed(handle.state,
                                       [tasks[index] for index in pending])
        for index, entry in zip(pending, local):
            timed[index] = entry

    def _supervised_pool(self, handle: StateHandle, rebuilding: bool) -> Any:
        """The (re)built OS pool for this round, or ``None`` when forking fails."""
        try:
            key = (self.workers, handle.token)
            fresh = key not in _pools
            pool = self._ensure_pool(handle)
        except OSError:
            return None
        if rebuilding and fresh and obs.enabled:
            obs.inc("engine.pool.rebuild")
        return pool

    def _retire_pool(self, handle: StateHandle) -> None:
        """Terminate this handle's pool (kills hung/poisoned workers)."""
        _close_pool((self.workers, handle.token))

    def _dispatch_round(self, pool: Any, tasks: list[tuple[str, Any]],
                        indices: list[int]) -> tuple[
                            dict[int, tuple[float, Any]],
                            dict[int, TaskFailure], bool]:
        """One async dispatch + collection round over *indices*.

        Returns ``(ready, failed, healthy)``: per-index ``(seconds,
        result)`` entries, per-index failures, and whether the pool can
        be reused as-is (only clean in-worker errors leave it healthy —
        timeouts, crashes and dispatch breakage all demand a rebuild).
        """
        ready: dict[int, tuple[float, Any]] = {}
        failed: dict[int, TaskFailure] = {}
        healthy = True
        handles: dict[int, Any] = {}
        try:
            for index in indices:
                handles[index] = pool.apply_async(worker.dispatch_supervised,
                                                  (tasks[index],))
        except Exception as exc:
            # the pool died under us (broken pipe, terminated elsewhere)
            healthy = False
            for index in indices:
                if index not in handles:
                    self._record_failure(failed, index, TaskFailure(
                        tasks[index][0], "crash", f"dispatch failed: {exc!r}"))
        pids = _pool_pids(pool)
        deadline = (None if self.task_timeout is None
                    else monotonic() + self.task_timeout)
        deadlines = {index: deadline for index in handles}
        outstanding = set(handles)
        while outstanding:
            for index in sorted(outstanding):
                result = handles[index]
                if result.ready():
                    outstanding.discard(index)
                    self._collect_envelope(result, tasks[index], index,
                                           ready, failed)
                elif (deadlines[index] is not None
                      and monotonic() >= deadlines[index]):
                    outstanding.discard(index)
                    healthy = False  # a hung worker holds the slot until killed
                    self._record_failure(failed, index, TaskFailure(
                        tasks[index][0], "timeout",
                        f"no result within {self.task_timeout}s"))
            if not outstanding:
                break
            current = _pool_pids(pool)
            if pids is not None and current is not None and current != pids:
                # a worker died mid-round (crash/OOM): results of in-flight
                # tasks may never arrive.  Sweep what already finished,
                # fail the rest promptly instead of waiting out the timeout.
                healthy = False
                for index in sorted(outstanding):
                    result = handles[index]
                    if result.ready():
                        self._collect_envelope(result, tasks[index], index,
                                               ready, failed)
                    else:
                        self._record_failure(failed, index, TaskFailure(
                            tasks[index][0], "crash",
                            "a worker process died before the result arrived"))
                break
            # block on the oldest outstanding result; its arrival wakes the
            # wait early, so the happy path pays no polling latency
            handles[min(outstanding)].wait(_POLL_SECONDS)
        return ready, failed, healthy

    def _collect_envelope(self, result: Any, task: tuple[str, Any], index: int,
                          ready: dict[int, tuple[float, Any]],
                          failed: dict[int, TaskFailure]) -> None:
        """Unwrap one finished async result into *ready* or *failed*."""
        try:
            envelope = result.get()
        except Exception as exc:
            # unpicklable payload/result, or the pool machinery surfacing
            # a lost worker; the retry rounds decide which it was
            self._record_failure(failed, index, TaskFailure(
                task[0], "error", f"{type(exc).__name__}: {exc}"))
            return
        status, seconds, value = envelope
        if status == "ok":
            ready[index] = (seconds, value)
        else:
            self._record_failure(failed, index, value)

    @staticmethod
    def _record_failure(failed: dict[int, TaskFailure], index: int,
                        failure: TaskFailure) -> None:
        failed[index] = failure
        if obs.enabled:
            obs.inc(f"engine.task.failure.{failure.kind}")
            if failure.kind == "timeout":
                obs.inc("engine.task.timeout")

    def _ensure_pool(self, handle: StateHandle) -> Any:
        if handle.supersedes is not None:
            _close_pool((self.workers, handle.supersedes))
        key = (self.workers, handle.token)
        pool = _pools.get(key)
        if pool is not None:
            if obs.enabled:
                obs.inc("engine.pool.reuse")
            _pools[key] = _pools.pop(key)  # LRU touch
            return pool
        while len(_pools) >= MAX_SHARED_POOLS:
            _close_pool(next(iter(_pools)))  # evict the least recently used
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        if obs.enabled:
            obs.inc("engine.pool.start")
        pool = context.Pool(self.workers, initializer=worker.initialize,
                            initargs=(handle.state,))
        _pools[key] = pool
        return pool


def resolve_pool(engine: str | None = None,
                 workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> ExecutorPool | None:
    """Resolve the ``engine=``/``workers=`` knobs into an executor pool.

    ``None`` means the classic sequential path (no chunking at all) —
    the default when neither knob nor the ``REPRO_ENGINE`` environment
    variable asks for more.  Passing only ``workers`` implies
    ``"parallel"`` when more than one, ``"serial"`` for exactly one.
    ``task_timeout`` / ``task_retries`` tune the parallel backend's
    supervision (defaults: ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``,
    then 300s / 2); the serial backends ignore them — nothing there can
    crash or hang a worker.
    """
    if engine is None:
        engine = config.engine_default(ENGINES)
    if engine is None and workers is not None:
        engine = "parallel" if workers > 1 else "serial"
    if engine is None or engine == "sequential":
        return None
    if engine == "serial":
        return SerialPool()
    if engine == "parallel":
        if workers is None:
            workers = config.workers_default()
        min_rows = config.parallel_threshold_default()
        return MultiprocessingPool(workers=workers, min_rows=min_rows,
                                   task_timeout=task_timeout,
                                   task_retries=task_retries)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
