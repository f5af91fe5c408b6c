"""The benchmark's three closed-loop workloads over the Semandaq reproduction.

Every workload is driven by one client in one process: the next op starts
when the previous one has returned.  A workload builds its state from the
seed in :meth:`setup` (data generation and load, constraint registration
and a warm-up op whose output becomes the reference), then :meth:`op` runs
one operation under a tracer and returns whether its output checked out.

* ``clean-session`` — one op is a whole Semandaq cleaning session on 800
  dirty customer tuples: load, discover, register, detect, repair with one
  confirmed cell, re-detect, two report statements and one CQA query.
  Most of its time is discovery, SQL-generated detection, repair and
  relational mutation; its relations stay below the process pool's
  4096-row threshold and its only join is the CIND anti-join.
* ``report-refresh`` — one op refreshes seven report statements (one per
  code plan kind) over 12k customers and 6k CDs plus one CQA call, with
  warm caches.  Nearly all its time is SQL planning and execution, the
  join and fold kernels, and CQA; mutation-path work should not move it.
  Set-up also checks, untimed, that the process pool returns
  byte-identical results.
* ``update-stream`` — one op is a batch on a clean 10k-tuple relation:
  10 inserts repaired by ``IncRepair`` and then fed to incremental
  detection, 5 cell updates, 10 deletes and one GROUP BY read.  Writes sit
  beside reads, so index maintenance, incremental detection and cache
  invalidation are all timed, and caching that slows writes shows here.

Spans are named ``<layer>.<call>`` after the program's modules; see
:mod:`spans`.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Callable

from repro import obs
from repro.cqa.answer import CQAEngine, SelectionQuery
from repro.datagen.customer import CUSTOMER_SCHEMA, CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.datagen.orders import BOOK_SCHEMA, CD_SCHEMA, OrdersGenerator
from repro.detection.cfd_detect import SQLCFDDetector
from repro.detection.incremental import IncrementalCFDDetector
from repro.relational.csvio import relation_from_csv, relation_to_csv
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.sql.columnar import (compile_join_plan, compile_multi_join_plan,
                                           compile_plan, factorise_plan)
from repro.relational.sql.engine import SQLEngine
from repro.relational.sql.parser import parse_sql
from repro.repair.inc_repair import IncRepair
from repro.semandaq.session import SemandaqSession

from spans import NULL_TRACER

#: certain answers under the key ``zip``: UK (zip, city) pairs no repair changes.
CQA_KEY = ["zip"]
CQA_QUERY = SelectionQuery(project=("zip", "city"), equalities={"cc": "44"})
#: the executor's plan kinds, each counted by ``repro.obs`` as ``sql.plan.<kind>``.
PLAN_KINDS = ("code", "join", "multiway", "factorised", "row")


def digest(result: Relation) -> str:
    """A byte-exact rendering of a SQL result: column names, then rows in order."""
    return repr((tuple(result.schema.attribute_names),
                 [row.values for row in result]))


def dirty_customer_csv(seed: int, tuples: int, noise: float) -> str:
    """Customer CSV text with *noise* domain errors on street and city."""
    clean = CustomerGenerator(seed=seed).generate(tuples)
    dirty = inject_noise(clean, rate=noise, attributes=["street", "city"],
                         seed=seed + 1).dirty
    return relation_to_csv(dirty)


def orders_csv(seed: int, cds: int) -> tuple[str, str]:
    """CD and book CSV texts; some audio-book CDs lack their book."""
    database, _expected = OrdersGenerator(seed=seed + 2).generate(cds)
    return (relation_to_csv(database.relation("cd")),
            relation_to_csv(database.relation("book")))


def load(text: str, schema: RelationSchema, tracer: Any = NULL_TRACER) -> Relation:
    with tracer.span("relational.load"):
        return relation_from_csv(text, schema.name, schema=schema)


def plan_kind(database: Database, statement: Any, fds: list) -> str:
    """Plan *statement* with the planner's public compile functions.

    Mirrors the executor's cascade: single-table code plan, two-table
    hash join, multiway join, each join factorised when it folds.
    """
    if compile_plan(database, statement) is not None:
        return "code"
    join = compile_join_plan(database, statement)
    if join is not None:
        return "factorised" if factorise_plan(join) is not None else "join"
    multi = compile_multi_join_plan(database, statement, None, fds)
    if multi is not None:
        return "factorised" if factorise_plan(multi) is not None else "multiway"
    return "row"


def run_sql(query: Callable[[str], Relation], database: Database, text: str,
            tracer: Any, fds: list) -> Relation:
    """Run *text* through *query*; traced, also parse and plan it on its own.

    ``sql.execute`` times the user-facing call, which parses once more
    before the executor runs; ``sql.parse`` and ``sql.plan`` time the
    parser and the planner by themselves.
    """
    if tracer.active:
        with tracer.span("sql.parse"):
            statement = parse_sql(text)
        with tracer.span("sql.plan"):
            plan_kind(database, statement, fds)
    with tracer.span("sql.execute"):
        return query(text)


def certain_answers(relation: Relation, tracer: Any) -> list[tuple]:
    with tracer.span("cqa.certain"):
        answers = CQAEngine(relation, CQA_KEY).certain_answers_rewritten(CQA_QUERY)
    return sorted(answers)


def variable_fds(cfds: list) -> list:
    """Embedded FDs of variable CFDs: the session's multiway ordering hints."""
    return [cfd.embedded_fd for cfd in cfds if cfd.is_variable()]


class Workload:
    """Base class: state built by :meth:`setup`, one op per :meth:`op` call."""

    name = ""
    #: ops between untimed consistency checks (0: none).
    check_every = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: per-op counts not kept by ``repro.obs``, summed over traced ops.
        self.counts: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, tracer: Any) -> bool:
        raise NotImplementedError

    def check(self) -> bool:
        """An untimed consistency check, run every ``check_every`` ops."""
        return True

    def verify_setup(self) -> bool:
        """An untimed check of the set-up's reference output."""
        return True


class CleanSession(Workload):
    name = "clean-session"
    TUPLES = 800
    NOISE = 0.04
    CDS = 400
    #: 5% of the tuples: profiling keeps patterns that hold on a sizeable share
    MIN_SUPPORT = 40
    REPORTS = (
        "SELECT city, COUNT(*) AS n FROM customer GROUP BY city",
        "SELECT zip, COUNT(DISTINCT street) AS streets FROM customer "
        "GROUP BY zip HAVING COUNT(DISTINCT street) > 1",
    )

    def setup(self) -> None:
        self.customer_csv = dirty_customer_csv(self.seed, self.TUPLES, self.NOISE)
        cd_csv, book_csv = orders_csv(self.seed, self.CDS)
        # the session only reads cd and book, so every op shares them
        self.cd = load(cd_csv, CD_SCHEMA)
        self.book = load(book_csv, BOOK_SCHEMA)
        self.cfds = CustomerGenerator.canonical_cfds()
        self.cind = OrdersGenerator.canonical_cind()
        self.fds = variable_fds(self.cfds)
        self.reference = self._session(NULL_TRACER)

    def op(self, tracer: Any) -> bool:
        return self._session(tracer) == self.reference

    def verify_setup(self) -> bool:
        """The reference session locked a cell and its repair kept it."""
        locked = self.reference[5]
        return locked is not None and locked[2] == locked[3]

    def _session(self, tracer: Any) -> tuple:
        customer = load(self.customer_csv, CUSTOMER_SCHEMA, tracer)
        database = Database("semandaq")
        for relation in (customer, self.cd, self.book):
            database.add(relation)
        session = SemandaqSession(database)
        with tracer.span("discovery.discover"):
            discovered = session.discover_cfds("customer", min_support=self.MIN_SUPPORT)
        with tracer.span("constraints.register"):
            session.register_cfds(self.cfds)
            session.register_cinds([self.cind])
            analysis = session.check_consistency()
        with tracer.span("detection.detect"):
            report = session.detect()
        with tracer.span("repair.propose"):
            proposal = session.propose_repair("customer")
        locked = None
        if proposal.changes:
            first = proposal.changes[0]
            session.confirm_cell(first.tid, first.attribute, "customer")
            locked = (first.tid, first.attribute,
                      str(customer.value(first.tid, first.attribute)))
        with tracer.span("repair.apply"):
            applied = session.apply_repair("customer")
        if locked is not None:
            locked += (str(customer.value(locked[0], locked[1])),)
        with tracer.span("detection.redetect"):
            remaining = session.detect()
        reports = [digest(run_sql(session.sql, database, text, tracer, self.fds))
                   for text in self.REPORTS]
        answers = certain_answers(customer, tracer)
        if tracer.active:
            statements = SQLCFDDetector(database, self.cfds).generated_queries()
            for name, value in (("discovery.cfds_found", len(discovered)),
                                ("detection.violations", len(report)),
                                ("detection.sql_statements", len(statements))):
                self.counts[name] = self.counts.get(name, 0) + value
        return (len(discovered), analysis["satisfiable"], len(analysis["conflicts"]),
                len(report), len(proposal.changes), locked, len(applied.changes),
                len(remaining), reports, answers)


class ReportRefresh(Workload):
    name = "report-refresh"
    CUSTOMERS = 12_000
    NOISE = 0.02
    CDS = 6_000
    #: name (as in the ``sql.q.*`` spans), the plan kind the executor must
    #: choose (its ``sql.plan.*`` counter) and the statement.
    STATEMENTS = (
        ("scan_group", "code",
         "SELECT city, COUNT(*) AS n FROM customer GROUP BY city"),
        ("group_having", "code",
         "SELECT zip, COUNT(DISTINCT street) AS streets FROM customer "
         "GROUP BY zip HAVING COUNT(DISTINCT street) > 1"),
        ("topk", "code",
         "SELECT phn, name, zip FROM customer WHERE cc = '44' "
         "ORDER BY zip, phn LIMIT 20"),
        ("join2", "join",
         "SELECT cd.album, book.price, book.format FROM cd "
         "JOIN book ON cd.album = book.title WHERE cd.genre = 'a-book'"),
        ("join2_fold", "factorised",
         "SELECT cd.genre, book.format, COUNT(*) AS n, MAX(book.price) AS top "
         "FROM cd JOIN book ON cd.album = book.title GROUP BY cd.genre, book.format"),
        ("join3", "multiway",
         "SELECT c1.name, c2.street, c3.city FROM customer c1 "
         "JOIN customer c2 ON c1.phn = c2.phn JOIN customer c3 ON c2.phn = c3.phn "
         "WHERE c1.ac = '908'"),
        ("join3_fold", "factorised",
         "SELECT c1.city, COUNT(*) AS n, MIN(c3.street) AS first FROM customer c1 "
         "JOIN customer c2 ON c1.phn = c2.phn JOIN customer c3 ON c2.zip = c3.zip "
         "WHERE c1.ac = '908' AND c3.cc = '01' GROUP BY c1.city"),
    )

    def setup(self) -> None:
        customer_csv = dirty_customer_csv(self.seed, self.CUSTOMERS, self.NOISE)
        cd_csv, book_csv = orders_csv(self.seed, self.CDS)
        self.database = Database("semandaq")
        self.customer = load(customer_csv, CUSTOMER_SCHEMA)
        for relation in (self.customer, load(cd_csv, CD_SCHEMA),
                         load(book_csv, BOOK_SCHEMA)):
            self.database.add(relation)
        self.session = self._session()
        self.fds = variable_fds(self.session.cfds)
        self.reference = self._refresh(self.session, NULL_TRACER)

    def _session(self, **engine: Any) -> SemandaqSession:
        session = SemandaqSession(self.database, **engine)
        # the CFDs give the multiway planner its FD hints
        session.register_cfds(CustomerGenerator.canonical_cfds())
        return session

    def op(self, tracer: Any) -> bool:
        return self._refresh(self.session, tracer) == self.reference

    def verify_setup(self) -> bool:
        """Each statement runs on its plan kind, never the row path, and the
        process pool's results are byte-identical to the serial ones."""
        for name, kind, text in self.STATEMENTS:
            obs.reset()
            obs.enable()
            try:
                self.session.sql(text)
            finally:
                obs.disable()
            executed = [k for k in PLAN_KINDS if obs.counter(f"sql.plan.{k}")]
            planned = plan_kind(self.database, parse_sql(text), self.fds)
            if executed != [kind] or planned != kind:
                print(f"{name}: expected plan {kind}, executor ran {executed}, "
                      f"public planner gave {planned}", file=sys.stderr)
                return False
        obs.reset()
        pooled = self._session(engine="parallel", workers=2)
        return self._refresh(pooled, NULL_TRACER) == self.reference

    def _refresh(self, session: SemandaqSession, tracer: Any) -> list:
        results: list = []
        for name, _kind, text in self.STATEMENTS:
            with tracer.span(f"sql.q.{name}"):
                result = run_sql(session.sql, self.database, text, tracer, self.fds)
            results.append(digest(result))
        results.append(certain_answers(self.customer, tracer))
        return results


class UpdateStream(Workload):
    name = "update-stream"
    TUPLES = 10_000
    INSERTS = 10
    WRONG_CITY = 0.3
    UPDATES = 5
    check_every = 25
    READ = "SELECT city, COUNT(*) AS n FROM customer GROUP BY city"

    def setup(self) -> None:
        generator = CustomerGenerator(seed=self.seed)
        text = relation_to_csv(generator.generate(self.TUPLES))
        self.relation = load(text, CUSTOMER_SCHEMA)
        self.database = Database("semandaq")
        self.database.add(self.relation)
        cfds = CustomerGenerator.canonical_cfds()
        self.fds = variable_fds(cfds)
        self.detector = IncrementalCFDDetector(self.relation, cfds)
        self.repair = IncRepair(self.relation, cfds)
        self.engine = SQLEngine(self.database)
        self.locations = generator.locations()
        self.cities = sorted({location.city for location in self.locations})
        self.names = sorted({self.relation.value(tid, "name")
                             for tid in self.relation.tids()})
        self.rng = random.Random(self.seed + 3)
        self.live = self.relation.tids()
        self.next_phone = 9_000_000
        if not self.op(NULL_TRACER):  # warm-up batch
            raise RuntimeError("update-stream warm-up batch failed its check")

    def _new_rows(self) -> tuple[list[dict[str, str]], list[str]]:
        rows, cities = [], []
        # a fixed share of wrong cities per batch: a batch without one
        # repairs in one pass instead of two and would run twice as fast
        wrong = set(self.rng.sample(range(self.INSERTS),
                                    round(self.INSERTS * self.WRONG_CITY)))
        for index in range(self.INSERTS):
            location = self.rng.choice(self.locations)
            city = location.city
            if index in wrong:
                city = self.rng.choice([c for c in self.cities if c != location.city])
            self.next_phone += 1
            rows.append({"cc": location.cc, "ac": location.ac,
                         "phn": str(self.next_phone),
                         "name": self.rng.choice(self.names),
                         "street": location.street, "city": city,
                         "zip": location.zip})
            cities.append(location.city)
        return rows, cities

    def op(self, tracer: Any) -> bool:
        relation, detector, rng, live = self.relation, self.detector, self.rng, self.live
        rows, clean_cities = self._new_rows()
        with tracer.span("relational.insert"):
            tids = [relation.insert_dict(row) for row in rows]
        # repair before notifying: IncRepair writes through Relation.update,
        # which the incremental detector does not see
        with tracer.span("repair.inc"):
            self.repair.repair_delta(tids)
        with tracer.span("detection.inc_insert"):
            new_violations = [v for tid in tids for v in detector.notify_inserted(tid)]
        ok = not new_violations and all(
            relation.value(tid, "city") == city for tid, city in zip(tids, clean_cities))
        with tracer.span("detection.inc_update"):
            for _ in range(self.UPDATES):
                detector.update_cell(rng.choice(live), "name", rng.choice(self.names))
        with tracer.span("detection.inc_delete"):
            for _ in range(self.INSERTS):
                position = rng.randrange(len(live))
                tid = live[position]
                live[position] = live[-1]
                live.pop()
                detector.delete_tuple(tid)
        live.extend(tids)
        with tracer.span("sql.read"):
            result = run_sql(self.engine.query, self.database, self.READ, tracer, self.fds)
        # inserts and deletes balance, so the relation size stays flat
        counted = sum(row.values[1] for row in result)
        return ok and counted == len(relation) == self.TUPLES

    def check(self) -> bool:
        """Incremental detection agrees with full re-detection."""
        incremental = sorted(map(repr, self.detector.current_report()))
        full = sorted(map(repr, self.detector.recompute_full()))
        return incremental == full


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CleanSession, ReportRefresh, UpdateStream)
}
