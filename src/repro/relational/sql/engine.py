"""The public SQL entry point: parse + execute against a database.

Each SELECT runs on a code-native plan over dictionary codes when one
compiles (single-table scans, two-table hash joins, multiway joins and
their factorised aggregates) and on the row executor otherwise; the row
path is the fallback for the shapes no code plan covers, not a second
implementation to compare against.  ``tests/oracle/definitions.select``
restates SELECT over dict rows, and the SQL parity suites hold every
plan and engine to it.
"""

from __future__ import annotations

from typing import Any

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.sql.executor import SQLExecutor
from repro.relational.sql.explain import format_explain
from repro.relational.sql.parser import parse_sql


class SQLEngine:
    """Executes SQL text against a :class:`~repro.relational.database.Database`.

    Example::

        engine = SQLEngine(database)
        result = engine.query("SELECT zip, COUNT(*) AS n FROM customer GROUP BY zip")

    ``engine=``/``workers=`` select the chunked execution engine
    (:mod:`repro.engine`) for code-native scans: single-table
    scan/filter/group/aggregate plans fan out across column-partition
    chunks, with results identical to the in-process path.  The
    ``REPRO_ENGINE`` / ``REPRO_WORKERS`` environment variables provide the
    same defaults process-wide.
    """

    def __init__(self, database: Database, engine: str | None = None,
                 workers: int | None = None, fds: Any = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        from repro.engine.executor import resolve_pool

        self._database = database
        # fds are variable-ordering hints for multiway joins; they never
        # change results, only the order join variables are bound in.
        self._executor = SQLExecutor(database,
                                     pool=resolve_pool(engine, workers,
                                                       task_timeout=task_timeout,
                                                       task_retries=task_retries),
                                     fds=fds)

    @property
    def database(self) -> Database:
        return self._database

    @property
    def last_plan(self) -> str | None:
        """The path the last SELECT took: ``"code"``, ``"join"``,
        ``"multiway"``, ``"factorised"`` or ``"row"`` (diagnostics)."""
        return self._executor.last_plan

    @property
    def last_explain(self) -> dict[str, Any] | None:
        """The EXPLAIN info dict of the last ``explain``/``query(explain=True)``."""
        return self._executor.last_explain

    def query(self, sql: str, result_name: str = "result",
              explain: bool = False) -> Relation:
        """Parse and execute *sql*, returning the result relation.

        With ``explain=True`` the executor additionally records plan
        choice, push-down pruning and join shape into ``last_explain``
        (rendered by :meth:`explain`); the result is unchanged.
        """
        statement = parse_sql(sql)
        return self._executor.execute(statement, result_name=result_name,
                                      explain=explain)

    def scalar(self, sql: str):
        """Execute *sql* and return the single value of a 1x1 result."""
        result = self.query(sql)
        rows = result.tuples()
        if not rows or result.schema.arity == 0:
            return None
        return rows[0].at(0)

    def explain(self, sql: str) -> str:
        """Execute *sql* and return the plan report: chosen path (and why
        the code-native paths were rejected when not taken), per-conjunct
        push-down pruning, and hash-join build/probe shape."""
        self.query(sql, explain=True)
        info = self._executor.last_explain
        return format_explain(info) if info is not None else "plan: unknown"
