"""Instrumentation parity: results are byte-identical with obs on or off.

The observability layer must never feed back into computation.  These
tests run detection, SQL (serial and on a real process pool) and repair
twice — collection off, then on — and require identical outputs, while
also asserting the second run actually recorded metrics.
"""

import pytest

from repro import obs
from repro.constraints.parse import parse_cfd
from repro.detection.cfd_detect import CFDDetector
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.repair.batch_repair import BatchRepair

SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac"), Attribute("city"), Attribute("zip"),
])

ROWS = [
    {"cc": "44", "ac": "131", "city": "edi", "zip": "EH8"},
    {"cc": "44", "ac": "131", "city": "ldn", "zip": "EH8"},
    {"cc": "01", "ac": "908", "city": "mh", "zip": "07974"},
    {"cc": "01", "ac": "908", "city": "nyc", "zip": "07974"},
    {"cc": "01", "ac": "212", "city": "nyc", "zip": "10012"},
    {"cc": "44", "ac": "131", "city": "edi", "zip": "EH8"},
]

CFD = parse_cfd("customer([cc='44', zip] -> [city])")


def fresh_relation():
    return Relation.from_dicts(SCHEMA, ROWS)


def fresh_database():
    database = Database()
    database.add(fresh_relation())
    return database


def detection_outcome():
    report = CFDDetector(fresh_relation(), [CFD]).detect()
    return sorted(tuple(v.tids) for v in report.violations)


def sql_outcome(engine=None, workers=None):
    sql = SQLEngine(fresh_database(), engine=engine, workers=workers)
    result = sql.query("SELECT city, COUNT(*) AS n FROM customer "
                       "WHERE cc = '44' GROUP BY city ORDER BY city")
    return [tuple(row.values) for row in result]


def repair_outcome():
    relation = fresh_relation()
    repair = BatchRepair(relation, [CFD]).repair()
    return sorted((c.tid, c.attribute, c.new_value) for c in repair.changes)


class TestParity:
    def test_detection_identical_on_and_off(self, obs_state):
        obs.disable()
        off = detection_outcome()
        assert obs.metrics()["counters"] == {}
        obs.enable()
        on = detection_outcome()
        assert on == off
        counters = obs.metrics()["counters"]
        assert counters.get("detect.cfd.violations", 0) >= 1

    def test_sql_identical_on_and_off(self, obs_state):
        obs.disable()
        off = sql_outcome()
        obs.enable()
        assert sql_outcome() == off
        assert obs.counter("sql.plan.code") >= 1
        histograms = obs.metrics()["histograms"]
        assert "engine.task.sql_scan.seconds" in histograms

    def test_sql_identical_on_process_pool(self, obs_state, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        obs.disable()
        off = sql_outcome(engine="parallel", workers=2)
        obs.enable()
        assert sql_outcome(engine="parallel", workers=2) == off
        assert obs.counter("engine.sql.runs") >= 1

    def test_repair_identical_on_and_off(self, obs_state):
        obs.disable()
        off = repair_outcome()
        obs.enable()
        assert repair_outcome() == off
        assert obs.counter("repair.passes") >= 1

    def test_explain_does_not_change_results(self, obs_state):
        sql = SQLEngine(fresh_database())
        query = ("SELECT city, COUNT(*) AS n FROM customer "
                 "WHERE cc = '44' GROUP BY city ORDER BY city")
        plain = [tuple(row.values) for row in sql.query(query)]
        explained = [tuple(row.values) for row in sql.query(query, explain=True)]
        assert explained == plain
