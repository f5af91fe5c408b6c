"""The Semandaq interactive cleaning session.

A session wraps a database, a set of constraints and the detection/repair
machinery and exposes the workflow of the demo paper:

1. :meth:`SemandaqSession.register_cfds` / :meth:`register_cinds` — declare
   the data semantics (textual syntax or constraint objects);
2. :meth:`detect` — find all violations (SQL-based detection for CFDs);
3. :meth:`propose_repair` — compute a candidate repair without touching
   the data;
4. :meth:`confirm_cell` / :meth:`override_cell` — the user inspects the
   proposal, locking cells they know to be correct or supplying the right
   value themselves (locked cells receive a very high weight so subsequent
   repairs will not change them);
5. :meth:`apply_repair` — apply the (re-computed) repair to the session's
   database;
6. :meth:`report` — a human-readable summary at any point.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.cind import CIND
from repro.constraints.parse import parse_cfd, parse_cfds, parse_cind
from repro.constraints.reasoning import is_satisfiable, pairwise_conflicts
from repro.constraints.violations import ViolationReport
from repro.detection.cfd_detect import SQLCFDDetector
from repro.detection.cind_detect import CINDDetector
from repro.discovery.cfd_discovery import CFDDiscovery
from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.sql.engine import SQLEngine
from repro.repair.batch_repair import BatchRepair, Repair
from repro.repair.cost import CostModel
from repro.semandaq.report import repair_report, violation_report

#: weight given to cells the user confirmed or overrode: effectively "do not touch".
LOCKED_WEIGHT = 10_000.0


class SemandaqSession:
    """An interactive constraint-based cleaning session over a database.

    Detection, discovery and repair run in-process.  ``engine=`` /
    ``workers=`` go to the session's SQL engine only (see
    :mod:`repro.engine`): :meth:`sql` fans its code-native scans, joins
    and folds across the chunked engine, with results identical to the
    in-process plans.  Without them, and for the statements
    :meth:`detect` generates, the ``REPRO_ENGINE`` environment variable
    supplies the default.

    ``task_timeout=``/``task_retries=`` tune the parallel engine's
    supervision (per-task timeout in seconds and retry budget; see
    :mod:`repro.engine`); they default to the ``REPRO_TASK_TIMEOUT`` /
    ``REPRO_TASK_RETRIES`` environment variables and are ignored by the
    serial and sequential paths.
    """

    def __init__(self, database: Database | Relation,
                 engine: str | None = None, workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        if isinstance(database, Relation):
            wrapped = Database()
            wrapped.add(database)
            database = wrapped
        self._engine = engine
        self._workers = workers
        self._task_timeout = task_timeout
        self._task_retries = task_retries
        self._database = database
        # invalidated when CINDs are registered
        self._cind_detector: CINDDetector | None = None
        self._cfds: list[CFD] = []
        self._cinds: list[CIND] = []
        self._sql_engine: SQLEngine | None = None
        #: one cost model per relation (by lower-cased name): cell weights
        #: are keyed by (tid, attribute), which only one relation defines
        self._cost_models: dict[str, CostModel] = {}
        self._locked_cells: dict[tuple[str, int, str], Any] = {}
        self._last_report: ViolationReport | None = None
        self._last_repair: dict[str, Repair] = {}

    # -- registration -----------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._database

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    @property
    def cinds(self) -> list[CIND]:
        return list(self._cinds)

    def register_cfds(self, cfds: str | Sequence[CFD | str]) -> list[CFD]:
        """Register CFDs given as objects, single strings, or a multi-line block."""
        added: list[CFD] = []
        if isinstance(cfds, str):
            added = parse_cfds(cfds)
        else:
            for cfd in cfds:
                added.append(parse_cfd(cfd) if isinstance(cfd, str) else cfd)
        for cfd in added:
            cfd.validate_against(self._database.relation(cfd.relation_name))
        self._cfds.extend(added)
        # new CFDs may sharpen multiway-join variable ordering (FD hints);
        # rebuild the SQL engine lazily on the next query
        self._sql_engine = None
        return added

    def register_cinds(self, cinds: Sequence[CIND | str] | str) -> list[CIND]:
        """Register CINDs given as objects or textual definitions."""
        if isinstance(cinds, str):
            cinds = [cinds]
        added = [parse_cind(c) if isinstance(c, str) else c for c in cinds]
        for cind in added:
            cind.validate_against(self._database)
        self._cinds.extend(added)
        self._cind_detector = None
        return added

    def check_consistency(self) -> dict[str, Any]:
        """Static analysis of the registered CFDs before any data is touched."""
        by_relation: dict[str, list[CFD]] = {}
        for cfd in self._cfds:
            by_relation.setdefault(cfd.relation_name.lower(), []).append(cfd)
        satisfiable = all(is_satisfiable(group) for group in by_relation.values())
        conflicts = pairwise_conflicts(self._cfds)
        return {"satisfiable": satisfiable, "conflicts": conflicts}

    # -- detection ------------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """Detect all violations of the registered constraints.

        CFD detection is SQL-based (the demo paper's approach); CIND
        detection is the in-process anti-join.
        """
        if not self._cfds and not self._cinds:
            raise ReproError("register constraints before calling detect()")
        reports: list[ViolationReport] = []
        if self._cfds:
            reports.append(SQLCFDDetector(self._database, self._cfds).detect())
        if self._cinds:
            if self._cind_detector is None:
                self._cind_detector = CINDDetector(self._database, self._cinds)
            reports.append(self._cind_detector.detect())
        merged = reports[0]
        for report in reports[1:]:
            merged = merged.merge(report)
        self._last_report = merged
        return merged

    # -- ad-hoc queries --------------------------------------------------------------

    def sql(self, query: str, result_name: str = "result",
            explain: bool = False) -> Relation | tuple[Relation, str]:
        """Run a SQL query against the session's database.

        The session's ``engine=``/``workers=`` apply: code-native scans,
        joins and folds run on the chunked engine (see
        :mod:`repro.relational.sql.columnar`).  The SQL engine (and with
        it the per-relation broadcast state) is kept until CFDs are
        registered, so repeated queries over unchanged relations pay no
        re-broadcast.

        With ``explain=True`` the return value is ``(result, report)``
        where *report* is the EXPLAIN text: chosen plan (code-native
        scan / hash join / row path, and why the faster paths were
        rejected), per-conjunct push-down pruning, and join shape.
        """
        from repro.relational.sql.explain import format_explain

        if self._sql_engine is None:
            # variable CFDs hold on every tuple matching their (all-wildcard
            # RHS) patterns, so their embedded FDs are safe variable-ordering
            # hints for multiway joins — ordering never changes results
            hints = [cfd.embedded_fd for cfd in self._cfds if cfd.is_variable()]
            self._sql_engine = SQLEngine(self._database, engine=self._engine,
                                         workers=self._workers, fds=hints,
                                         task_timeout=self._task_timeout,
                                         task_retries=self._task_retries)
        result = self._sql_engine.query(query, result_name=result_name,
                                        explain=explain)
        if not explain:
            return result
        info = self._sql_engine.last_explain
        return result, (format_explain(info) if info is not None else "plan: unknown")

    # -- discovery (profiling) ----------------------------------------------------------

    def discover_cfds(self, relation_name: str | None = None, min_support: int = 3,
                      max_lhs_size: int = 2, constant_only: bool = False,
                      register: bool = False) -> list[CFD]:
        """Profile one relation for CFDs (constant plus variable by default).

        With ``register=True`` the discovered CFDs are registered on the
        session, ready for :meth:`detect` / :meth:`propose_repair`.
        """
        relation = self._resolve_relation(relation_name)
        discovery = CFDDiscovery(relation, min_support=min_support,
                                 max_lhs_size=max_lhs_size)
        discovered = (discovery.discover_constant_cfds() if constant_only
                      else discovery.discover())
        if register:
            self.register_cfds(discovered)
        return discovered

    # -- repair ------------------------------------------------------------------------

    def propose_repair(self, relation_name: str | None = None) -> Repair:
        """Compute (but do not apply) a candidate repair for one relation."""
        relation = self._resolve_relation(relation_name)
        cfds = [cfd for cfd in self._cfds
                if cfd.relation_name.lower() == relation.name.lower()]
        if not cfds:
            raise ReproError(f"no CFDs registered for relation {relation.name!r}")
        repair = BatchRepair(relation, cfds,
                             cost_model=self._cost_model(relation)).repair()
        self._last_repair[relation.name.lower()] = repair
        return repair

    def apply_repair(self, relation_name: str | None = None) -> Repair:
        """Re-compute the repair (honouring locked cells) and apply it in place."""
        relation = self._resolve_relation(relation_name)
        repair = self.propose_repair(relation.name)
        for change in repair.changes:
            key = (relation.name.lower(), change.tid, change.attribute)
            if key in self._locked_cells:
                continue  # user decision wins
            relation.update(change.tid, change.attribute, change.new_value)
        return repair

    # -- user interaction -----------------------------------------------------------------

    def confirm_cell(self, tid: int, attribute: str, relation_name: str | None = None) -> None:
        """The user asserts the current value of a cell is correct (lock it)."""
        relation = self._resolve_relation(relation_name)
        value = relation.value(tid, attribute)
        self._lock(relation, tid, attribute, value)

    def override_cell(self, tid: int, attribute: str, value: Any,
                      relation_name: str | None = None) -> None:
        """The user supplies the correct value of a cell (write it and lock it)."""
        relation = self._resolve_relation(relation_name)
        relation.update(tid, attribute, value)
        self._lock(relation, tid, attribute, value)

    def locked_cells(self) -> dict[tuple[str, int, str], Any]:
        """All cells the user has confirmed or overridden."""
        return dict(self._locked_cells)

    def _lock(self, relation: Relation, tid: int, attribute: str, value: Any) -> None:
        self._locked_cells[(relation.name.lower(), tid, attribute.lower())] = value
        self._cost_model(relation).set_weight(tid, attribute, LOCKED_WEIGHT)

    def _cost_model(self, relation: Relation) -> CostModel:
        """The cost model of *relation*'s repairs, made on first use."""
        key = relation.name.lower()
        model = self._cost_models.get(key)
        if model is None:
            model = self._cost_models[key] = CostModel()
        return model

    # -- reporting -------------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """The process-wide instrumentation snapshot (see :mod:`repro.obs`).

        Returns ``{"enabled": bool, "counters": {...}, "gauges": {...},
        "histograms": {...}, "trace": [...]}``.  Counters and histograms
        only accumulate while observability is on (``obs.enable()`` or
        ``REPRO_OBS=1``); the snapshot itself is always available.
        """
        snapshot = obs.metrics()
        snapshot["enabled"] = obs.enabled
        return snapshot

    def report(self) -> str:
        """A human-readable status report of the session."""
        lines = [f"Semandaq session over database {self._database.name!r}",
                 f"  relations: {', '.join(self._database.relation_names())}",
                 f"  constraints: {len(self._cfds)} CFD(s), {len(self._cinds)} CIND(s)",
                 f"  locked cells: {len(self._locked_cells)}"]
        if self._last_report is not None:
            lines.append(violation_report(self._last_report, self._database))
        for repair in self._last_repair.values():
            lines.append(repair_report(repair))
        return "\n".join(lines)

    # -- internals ------------------------------------------------------------------------

    def _resolve_relation(self, relation_name: str | None) -> Relation:
        if relation_name is not None:
            return self._database.relation(relation_name)
        names = self._database.relation_names()
        if len(names) != 1:
            raise ReproError(
                "the database has several relations; pass relation_name explicitly")
        return self._database.relation(names[0])
