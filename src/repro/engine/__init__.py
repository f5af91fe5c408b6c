"""Chunked (optionally parallel) execution of SQL's code-native plans.

The SQL executor (:mod:`repro.relational.sql.executor`) can run its
scans, join probes and multiway and factorised folds over column
partitions: the live tid range of a relation is sliced into balanced
:class:`Chunk`\\ s, every chunk is processed independently by a worker
kernel (:mod:`repro.engine.worker`), and the parent merges the partial
results in chunk order.  Workers exchange plain code-level data only, so
the same plan executes unchanged on the in-process :class:`SerialPool`
or on the :class:`MultiprocessingPool`, whose worker processes receive
the code arrays and dictionaries once per broadcast generation.

Query results are **byte-identical** to the in-process plan for every
chunk size and worker count — chunking is an execution detail, never an
observable one.  Only SQL runs here: detection, discovery and repair
each have one in-process path.

:class:`~repro.relational.sql.engine.SQLEngine` (and the session that
owns one) accepts ``engine=`` (``"sequential"``, ``"serial"``,
``"parallel"``) and ``workers=``; the ``REPRO_ENGINE``,
``REPRO_WORKERS`` and ``REPRO_PARALLEL_THRESHOLD`` environment variables
supply process-wide defaults (that is how CI forces the SQL suites
through the pool).

The parallel backend is **supervised**: every task runs inside a
worker-side envelope that returns success or a picklable failure, a
per-task timeout (``REPRO_TASK_TIMEOUT``) bounds hung workers, failed
tasks are retried up to ``REPRO_TASK_RETRIES`` times (crashes and
timeouts rebuild the pool, re-broadcasting state), and tasks failing
every retry degrade to in-process execution — so worker death, hangs and
transient in-worker exceptions slow a query down but never change its
result or leak a raw ``multiprocessing`` exception.  ``REPRO_FAULTS``
injects seeded raise/crash/hang faults into the dispatch path for chaos
testing (see :mod:`repro.engine.worker`).
"""

from repro.engine.chunker import Chunk, Chunker
from repro.engine.join import ChunkedJoinEngine
from repro.engine.executor import (
    ENGINES,
    ExecutorPool,
    MultiprocessingPool,
    SerialPool,
    StateHandle,
    resolve_pool,
    shutdown_pools,
)
from repro.engine.worker import (
    FaultInjector,
    ScriptedFaults,
    TaskFailure,
    clear_faults,
    install_faults,
)

__all__ = [
    "Chunk",
    "Chunker",
    "ChunkedJoinEngine",
    "ENGINES",
    "ExecutorPool",
    "FaultInjector",
    "MultiprocessingPool",
    "ScriptedFaults",
    "SerialPool",
    "StateHandle",
    "TaskFailure",
    "clear_faults",
    "install_faults",
    "resolve_pool",
    "shutdown_pools",
]
