"""In-memory relational engine.

This package is the storage and query substrate of the library: a small,
fully self-contained relational engine providing

* typed schemas and relations with stable tuple identifiers
  (:mod:`repro.relational.schema`, :mod:`repro.relational.relation`),
* dictionary-encoded columnar storage, the one copy of a relation's
  tuples (:mod:`repro.relational.columns`) — the substrate of the
  detection, discovery and statistics hot paths,
* hash indexes over column codes (:mod:`repro.relational.index`),
* CSV import/export (:mod:`repro.relational.csvio`), and
* a small SQL dialect — enough to run the CFD/CIND violation-detection
  queries of Fan et al. (:mod:`repro.relational.sql`).

The engine is deliberately simple (column store, hash joins, no cost-based
optimizer) but semantically faithful: NULL follows three-valued logic,
group-by/aggregation matches SQL semantics, and the SQL parity suites
check every plan against the SELECT restated in ``tests/oracle``.
"""

from repro.relational.types import (
    NULL,
    AttributeType,
    coerce_value,
    is_null,
    value_repr,
)
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.columns import Column, ColumnStore, NULL_CODE, TOMBSTONE
from repro.relational.relation import Relation, Tuple
from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.csvio import read_csv, relation_from_csv, relation_to_csv
from repro.relational.sql.engine import SQLEngine

__all__ = [
    "NULL",
    "NULL_CODE",
    "TOMBSTONE",
    "AttributeType",
    "Attribute",
    "RelationSchema",
    "Relation",
    "Tuple",
    "Column",
    "ColumnStore",
    "Database",
    "HashIndex",
    "SQLEngine",
    "coerce_value",
    "is_null",
    "value_repr",
    "read_csv",
    "relation_from_csv",
    "relation_to_csv",
]
