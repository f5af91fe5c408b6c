"""Chaos tests: the supervised parallel engine under injected faults.

The supervision contract of :mod:`repro.engine` is that worker faults —
clean in-worker exceptions, hard crashes (``os._exit``), hangs — slow a
run down but never change its results: failed tasks are retried (on the
live pool for clean errors, on a rebuilt pool after crashes and
timeouts) and finally degrade to in-process execution, where injected
faults never fire.  These tests drive SQL statements (scans, joins and
multiway joins, the only work the pool runs, and the statements CFD
detection generates) through real process pools with seeded and scripted
fault schedules and assert the output is byte-identical to the fault-free
path, the supervision obs counters move, and no raw ``multiprocessing``
exception escapes.
"""

import random
from time import perf_counter

import pytest

from repro import config, obs
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector
from repro.engine.executor import (
    MultiprocessingPool,
    _close_pool,
    _merge_timed,
    _merge_timed_stream,
    _pools,
    shutdown_pools,
)
from repro.engine.worker import (
    FaultInjector,
    ScriptedFaults,
    TaskFailure,
    clear_faults,
    install_faults,
)
from repro.errors import EngineError, TaskTimeoutError, WorkerCrashError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL


@pytest.fixture(autouse=True)
def chaos():
    """Fresh obs registry, no faults, no leftover pools around every test."""
    saved_enabled, saved_trace = obs.enabled, obs.trace_enabled
    obs.reset()
    clear_faults()
    shutdown_pools()
    yield
    clear_faults()
    shutdown_pools()
    obs.enabled, obs.trace_enabled = saved_enabled, saved_trace
    obs.reset()


@pytest.fixture
def forced_parallel(monkeypatch):
    """Make the parallel backend fork real pools even for tiny test data."""
    monkeypatch.setenv(config.THRESHOLD_ENV, "0")


def counters():
    return obs.metrics()["counters"]


ORDERS = RelationSchema("orders", [Attribute("city"), Attribute("zip")])
ZIPS = RelationSchema("zips", [Attribute("zip"), Attribute("region")])
REGIONS = RelationSchema("regions", [Attribute("region"), Attribute("name")])


def join_database(seed=5, orders=90, zips=40):
    rng = random.Random(seed)
    zip_pool = ["EH8", "10012", "94107", "WC1", "100080", NULL]
    region_pool = ["uk", "us", "cn", NULL]
    database = Database()
    database.add(Relation.from_rows(ORDERS, [
        (rng.choice(["edi", "nyc", "sfo", "ldn"]), rng.choice(zip_pool))
        for _ in range(orders)]))
    database.add(Relation.from_rows(ZIPS, [
        (rng.choice(zip_pool), rng.choice(region_pool)) for _ in range(zips)]))
    database.add(Relation.from_rows(REGIONS, [
        ("uk", "europe"), ("us", "america"), ("cn", "asia")]))
    return database


JOIN_QUERY = ("SELECT o.city, COUNT(*) AS n FROM orders o JOIN zips z "
              "ON o.zip = z.zip GROUP BY o.city ORDER BY city")
MULTIWAY_QUERY = ("SELECT o.city, r.name FROM orders o, zips z, regions r "
                  "WHERE o.zip = z.zip AND z.region = r.region")
# the WHERE on a non-grouping column keeps the scan off the maintained
# index, so it fans out over the pool
SCAN_QUERY = ("SELECT zip, COUNT(*) AS n FROM orders WHERE city <> 'ldn' "
              "GROUP BY zip ORDER BY zip")


def rows(result):
    return [tuple(row.values) for row in result]


def sequential_rows(query):
    return rows(SQLEngine(join_database(), engine="sequential").query(query))


class TestSeededFaultParity:
    """Seeded random fault schedules: results identical to the clean path."""

    @pytest.mark.parametrize("query", [SCAN_QUERY, JOIN_QUERY, MULTIWAY_QUERY])
    def test_sql_paths_survive_raises_and_crashes(self, forced_parallel, query):
        database = join_database()
        expected = rows(SQLEngine(database, engine="sequential").query(query))
        install_faults(FaultInjector({"raise": 0.2, "crash": 0.1}, seed=17))
        supervised = SQLEngine(join_database(), engine="parallel", workers=2,
                               task_timeout=30.0, task_retries=4)
        assert rows(supervised.query(query)) == expected

    def test_cfd_detection_survives_raises_and_crashes(self, forced_parallel,
                                                       monkeypatch):
        generator = CustomerGenerator(seed=101)
        relation = inject_noise(generator.generate(150), rate=0.08,
                                attributes=["street", "city"], seed=150).dirty
        cfds = generator.canonical_cfds()
        expected = [(v.cfd, v.pattern, v.tids)
                    for v in CFDDetector(relation, cfds).detect()]
        # detection's statements run on the default SQL engine
        monkeypatch.setenv(config.ENGINE_ENV, "parallel")
        monkeypatch.setenv(config.WORKERS_ENV, "2")
        monkeypatch.setenv(config.TASK_TIMEOUT_ENV, "30")
        monkeypatch.setenv(config.TASK_RETRIES_ENV, "4")
        obs.enable()
        install_faults(FaultInjector({"raise": 0.3, "crash": 0.2}, seed=10))
        database = Database()
        database.add(relation)
        report = SQLCFDDetector(database, cfds).detect()
        assert [(v.cfd, v.pattern, v.tids) for v in report] == expected
        assert counters()["engine.pool.start"] >= 1

    def test_env_injected_faults_reach_the_workers(self, forced_parallel,
                                                   monkeypatch):
        monkeypatch.setenv(config.FAULTS_ENV, "raise:1.0")
        monkeypatch.setenv(config.FAULTS_SEED_ENV, "23")
        obs.enable()
        expected = sequential_rows(SCAN_QUERY)
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_timeout=30.0, task_retries=1)
        assert rows(engine.query(SCAN_QUERY)) == expected
        recorded = counters()
        # every pool dispatch raised, so the run degraded to in-process
        # execution (where env faults never fire) and stayed correct
        assert recorded["engine.task.failure.error"] >= 1
        assert recorded["engine.fallback.serial"] >= 1


class TestScriptedFaults:
    """Deterministic per-worker fault scripts pin down the supervision FSM."""

    def test_clean_errors_retry_on_the_live_pool(self, forced_parallel):
        obs.enable()
        expected = sequential_rows(SCAN_QUERY)
        # each forked worker raises on its first dispatch, then runs clean
        install_faults(ScriptedFaults(["raise"]))
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_timeout=30.0, task_retries=3)
        assert rows(engine.query(SCAN_QUERY)) == expected
        recorded = counters()
        assert recorded["engine.task.failure.error"] >= 1
        assert recorded["engine.task.retry"] >= 1
        # clean in-worker errors never force a pool rebuild
        assert "engine.pool.rebuild" not in recorded

    def test_worker_crash_rebuilds_pool_and_recovers(self, forced_parallel):
        obs.enable()
        expected = sequential_rows(SCAN_QUERY)
        # each worker's second dispatch hard-exits (os._exit): a statement
        # dispatches one task per worker, and the second run of it reuses
        # the pool, so with four tasks on two workers some worker reaches it
        install_faults(ScriptedFaults([None, "crash"]))
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_timeout=30.0, task_retries=4)
        assert rows(engine.query(SCAN_QUERY)) == expected
        assert rows(engine.query(SCAN_QUERY)) == expected
        recorded = counters()
        assert recorded["engine.task.failure.crash"] >= 1
        assert recorded["engine.pool.rebuild"] >= 1
        assert recorded["engine.task.retry"] >= 1

    def test_task_timeout_bounds_a_hung_worker(self, forced_parallel,
                                               monkeypatch):
        monkeypatch.setenv(config.TASK_TIMEOUT_ENV, "1")
        obs.enable()
        expected = sequential_rows(SCAN_QUERY)
        # every worker generation hangs on its first dispatch, so only the
        # serial fallback (no injection there) can finish the run
        install_faults(ScriptedFaults(["hang"]))
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_retries=1)
        start = perf_counter()
        assert rows(engine.query(SCAN_QUERY)) == expected
        elapsed = perf_counter() - start
        assert elapsed < 30.0  # bounded by (retries + 1) x REPRO_TASK_TIMEOUT
        recorded = counters()
        assert recorded["engine.task.timeout"] >= 1
        assert recorded["engine.task.failure.timeout"] >= 1
        assert recorded["engine.pool.rebuild"] >= 1
        assert recorded["engine.fallback.serial"] >= 1


class TestStrictMode:
    """REPRO_TASK_FALLBACK=0 raises the taxonomy errors instead of degrading."""

    def test_exhausted_errors_raise_worker_crash_error(self, forced_parallel,
                                                       monkeypatch):
        monkeypatch.setenv(config.TASK_FALLBACK_ENV, "0")
        install_faults(ScriptedFaults(["raise"] * 64))
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_timeout=30.0, task_retries=1)
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.query(SCAN_QUERY)
        error = excinfo.value
        assert error.task is not None
        assert error.attempts == 2  # the first round plus one retry
        assert error.payload_summary is not None
        assert error.task in error.payload_summary

    def test_exhausted_hangs_raise_task_timeout_error(self, forced_parallel,
                                                      monkeypatch):
        monkeypatch.setenv(config.TASK_FALLBACK_ENV, "0")
        monkeypatch.setenv(config.TASK_TIMEOUT_ENV, "1")
        install_faults(ScriptedFaults(["hang"] * 64))
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_retries=0)
        with pytest.raises(TaskTimeoutError) as excinfo:
            engine.query(SCAN_QUERY)
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value, EngineError)


class TestStrictMerges:
    """Task/result pairing never truncates silently."""

    TASKS = [("sql_scan", ("spec", [0, 1])), ("sql_scan", ("spec", [2, 3]))]

    def test_short_results_raise_naming_the_results_side(self):
        with pytest.raises(EngineError, match="results side is short"):
            _merge_timed(self.TASKS, [(0.0, "only-one")])

    def test_extra_results_raise_naming_the_tasks_side(self):
        with pytest.raises(EngineError, match="tasks side is short"):
            _merge_timed(self.TASKS, [(0.0, "a"), (0.0, "b"), (0.0, "c")])

    def test_matched_lengths_unwrap_in_order(self):
        assert _merge_timed(self.TASKS, [(0.1, "a"), (0.2, "b")]) == ["a", "b"]

    def test_stream_short_results_raise(self):
        stream = _merge_timed_stream(self.TASKS, iter([(0.0, "a")]))
        assert next(stream) == "a"
        with pytest.raises(EngineError, match="results side is short"):
            next(stream)

    def test_stream_extra_results_raise(self):
        stream = _merge_timed_stream(
            self.TASKS, iter([(0.0, "a"), (0.0, "b"), (0.0, "c")]))
        assert next(stream) == "a"
        assert next(stream) == "b"
        with pytest.raises(EngineError, match="tasks side is short"):
            next(stream)


class _BrokenPool:
    def terminate(self):
        raise OSError("worker pipe already gone")

    def join(self):  # pragma: no cover - terminate raises first
        raise AssertionError("join must not run when terminate failed")


class TestTeardownHardening:
    def test_close_pool_swallows_teardown_errors(self):
        obs.enable()
        key = (99, 999_999)
        _pools[key] = _BrokenPool()
        _close_pool(key)  # must not raise
        assert key not in _pools
        assert counters()["engine.pool.stop_error"] == 1

    def test_interrupted_round_retires_the_pool(self, forced_parallel,
                                                monkeypatch):
        engine = SQLEngine(join_database(), engine="parallel", workers=2,
                           task_timeout=30.0)

        def interrupted(self, pool, tasks, indices):
            raise KeyboardInterrupt

        monkeypatch.setattr(MultiprocessingPool, "_dispatch_round", interrupted)
        with pytest.raises(KeyboardInterrupt):
            engine.query(SCAN_QUERY)
        assert not _pools  # the half-collected round's pool was terminated


class TestFailureRecords:
    def test_task_failure_is_picklable(self):
        import pickle

        failure = TaskFailure("sql_scan", "crash", "worker died")
        clone = pickle.loads(pickle.dumps(failure))
        assert (clone.task, clone.kind, clone.message) == \
            ("sql_scan", "crash", "worker died")

    def test_injector_streams_are_reproducible_per_seed(self):
        first = FaultInjector({"raise": 0.5}, seed=3)
        second = FaultInjector({"raise": 0.5}, seed=3)
        draws = [first.draw("t") for _ in range(32)]
        assert draws == [second.draw("t") for _ in range(32)]
        assert "raise" in draws and None in draws
