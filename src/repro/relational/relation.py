"""Relations: mutable tuple stores with stable tuple identifiers.

A :class:`Relation` owns a :class:`~repro.relational.schema.RelationSchema`
and a set of tuples.  Every tuple receives a *tuple id* (``tid``) that is
stable across updates and never reused after deletion — violation reports,
repairs and incremental detection all refer to cells as ``(tid, attribute)``
pairs, so stability matters.

The tuples are stored once, dictionary-encoded, in the relation's
:class:`~repro.relational.columns.ColumnStore`: per attribute a code array
indexed by tid and a dictionary of values.  The relation itself keeps
only its live tids.  Reads decode on demand: :meth:`Relation.value` reads
one cell, :meth:`Relation.tuple` one row, and iteration decodes one
column at a time.  Mutations coerce, intern, write the code and refile
the store's maintained indexes.  Writes come one row at a time
(:meth:`Relation.insert`) or one batch at a time
(:meth:`Relation.insert_many`, which every bulk constructor uses): a batch
coerces each distinct value of a column once and leaves the relation
exactly as inserting its rows one by one would.  The :class:`Tuple`
wrapper is a decoded snapshot with dict-like access by attribute name.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import RelationError, SchemaError
from repro.relational.columns import NULL_CODE, TOMBSTONE, Column, ColumnStore
from repro.relational.schema import RelationSchema
from repro.relational.types import NULL, AttributeType, coerce_value, value_repr

#: rows a bulk write codes at once: bounds what it holds beside the store
_BATCH_ROWS = 1024

#: the types whose cells a batch keys by value: no two of them hold
#: ``==`` values that coerce differently, except the numbers among
#: themselves (``1 == 1.0 == True``, yet a STRING column stores ``"1"``,
#: ``"1"`` and ``"true"``), so a column holding two number types keys its
#: cells by ``(type, value)``
_BY_VALUE = frozenset((str, int, float, bool, type(None), type(NULL)))
_NUMBERS = frozenset((int, float, bool))

#: per type, the cell types :func:`coerce_value` returns unchanged (none for
#: FLOAT: a float cell may be NaN or ``-0.0``)
_COERCED: dict[AttributeType, frozenset[type]] = {
    AttributeType.STRING: frozenset((str,)),
    AttributeType.INTEGER: frozenset((int,)),
    AttributeType.FLOAT: frozenset(),
    AttributeType.BOOLEAN: frozenset((bool,)),
}


class Tuple:
    """A decoded snapshot of one row of a relation.

    Supports access by attribute name (``t['zip']``), by position
    (``t.at(3)``) and conversion to a plain dict.  The values are read
    when the tuple is made; later updates of the relation do not show
    in it.  Equality and hashing are value-based (the tid is excluded) so
    tuples can be deduplicated.
    """

    __slots__ = ("tid", "_schema", "_values")

    def __init__(self, tid: int, schema: RelationSchema, values: Sequence[Any]) -> None:
        self.tid = tid
        self._schema = schema
        self._values = tuple(values)

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """The row values in schema order."""
        return self._values

    def __getitem__(self, attribute_name: str) -> Any:
        return self._values[self._schema.position(attribute_name)]

    def get(self, attribute_name: str, default: Any = NULL) -> Any:
        """Value of *attribute_name*, or *default* when the attribute is unknown."""
        try:
            return self[attribute_name]
        except SchemaError:
            return default

    def at(self, position: int) -> Any:
        """Value at 0-based *position*."""
        return self._values[position]

    def project(self, attribute_names: Sequence[str]) -> tuple[Any, ...]:
        """Values of *attribute_names*, in that order."""
        return tuple(self._values[self._schema.position(name)] for name in attribute_names)

    def as_dict(self) -> dict[str, Any]:
        """A plain ``{attribute: value}`` dict copy of this row."""
        return dict(zip(self._schema.attribute_names, self._values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        cells = ", ".join(
            f"{name}={value_repr(value)}"
            for name, value in zip(self._schema.attribute_names, self._values)
        )
        return f"Tuple(tid={self.tid}, {cells})"


class Relation:
    """A mutable bag of typed tuples with stable tuple ids."""

    def __init__(self, schema: RelationSchema) -> None:
        self._schema = schema
        #: live tids in insertion (= ascending) order; the values are unused
        self._live: dict[int, None] = {}
        self._next_tid = 0
        self._version = 0
        self._store = ColumnStore(self)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: RelationSchema, rows: Iterable[Mapping[str, Any]]) -> "Relation":
        """Build a relation from ``{attribute: value}`` mappings."""
        relation = cls(schema)
        relation.insert_many(map(relation._positional, rows))
        return relation

    @classmethod
    def from_rows(cls, schema: RelationSchema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from positional value sequences."""
        relation = cls(schema)
        relation.insert_many(rows)
        return relation

    @classmethod
    def from_columns(cls, schema: RelationSchema,
                     columns: Sequence[Sequence[Any]]) -> "Relation":
        """Build a relation from one value sequence per attribute.

        Row ``i`` of the columns becomes tuple ``i``, exactly as
        :meth:`from_rows` over the zipped rows would make it (and with the
        same error), but each column is coded as it is given, once per
        distinct value.
        """
        if len(columns) != schema.arity:
            raise RelationError(
                f"relation {schema.name!r} expects {schema.arity} columns, got {len(columns)}"
            )
        size = len(columns[0]) if columns else 0
        if any(len(values) != size for values in columns):
            raise RelationError(f"the columns of relation {schema.name!r} differ in length")
        relation = cls(schema)
        if not relation._append_columns(columns, size):
            for row in zip(*columns):
                relation.insert(row)
        return relation

    # -- accessors -------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (used by indexes/caches)."""
        return self._version

    @property
    def tid_bound(self) -> int:
        """Exclusive upper bound on tuple ids ever assigned (tids are never reused)."""
        return self._next_tid

    @property
    def columns(self) -> ColumnStore:
        """The dictionary-encoded column store: the storage of this relation."""
        return self._store

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Tuple]:
        # decode a column at a time, then zip the decoded columns into rows
        tids = list(self._live)
        dense = len(tids) == self._next_tid  # no tombstones: decode codes as they lie
        decoded = []
        for column in self._store._columns:
            values, codes = column.values, column.codes
            decoded.append([values[code] for code in codes] if dense
                           else [values[codes[tid]] for tid in tids])
        schema = self._schema
        for tid, row in zip(tids, zip(*decoded)):
            yield Tuple(tid, schema, row)

    def __contains__(self, tid: int) -> bool:
        return tid in self._live

    def tids(self) -> list[int]:
        """All live tuple ids (insertion order)."""
        return list(self._live)

    def _check_live(self, tid: int) -> None:
        if tid not in self._live:
            raise RelationError(f"relation {self.name!r} has no tuple with tid {tid}")

    def tuple(self, tid: int) -> Tuple:
        """The tuple with id *tid*; raises :class:`RelationError` if absent."""
        self._check_live(tid)
        return Tuple(tid, self._schema,
                     [column.values[column.codes[tid]] for column in self._store._columns])

    def value(self, tid: int, attribute_name: str) -> Any:
        """Value of cell ``(tid, attribute_name)``."""
        self._check_live(tid)
        column = self._store.column_at(self._schema.position(attribute_name))
        return column.values[column.codes[tid]]

    def tuples(self) -> list[Tuple]:
        """All tuples as a list (insertion order)."""
        return list(self)

    def column(self, attribute_name: str) -> list[Any]:
        """All values of one attribute, in tuple order."""
        column = self._store.column_at(self._schema.position(attribute_name))
        values, codes = column.values, column.codes
        return [values[codes[tid]] for tid in self._live]

    def active_domain(self, attribute_name: str) -> set[Any]:
        """Distinct non-NULL values appearing in *attribute_name*."""
        column = self._store.column_at(self._schema.position(attribute_name))
        values, counts = column.values, column.counts
        return {values[code] for code in range(NULL_CODE + 1, len(values)) if counts[code] > 0}

    # -- mutation --------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Insert a positional row; returns the new tuple id."""
        if len(row) != self._schema.arity:
            raise RelationError(
                f"relation {self.name!r} expects {self._schema.arity} values, got {len(row)}"
            )
        values = [
            coerce_value(value, attr.type)
            for value, attr in zip(row, self._schema.attributes)
        ]
        tid = self._next_tid
        self._next_tid += 1
        self._live[tid] = None
        self._version += 1
        store = self._store
        for column, value in zip(store._columns, values):
            code = column.intern(value)
            column.codes.append(code)
            column.counts[code] += 1
        for index in store._indexes.values():
            index._file(tid)
            index._built_version = self._version
        return tid

    def insert_dict(self, row: Mapping[str, Any]) -> int:
        """Insert a row given as a ``{attribute: value}`` mapping.

        Missing attributes become NULL; unknown attributes raise
        :class:`~repro.errors.SchemaError`.
        """
        return self.insert(self._positional(row))

    def _positional(self, row: Mapping[str, Any]) -> list[Any]:
        """The positional row of a ``{attribute: value}`` mapping."""
        lowered = {key.lower(): value for key, value in row.items()}
        for key in lowered:
            self._schema.position(key)  # validates the attribute exists
        return [lowered.get(attr.name.lower(), NULL) for attr in self._schema.attributes]

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Insert positional rows, a batch at a time.

        The relation ends exactly as :meth:`insert` called on each row in
        turn would leave it: the same tids, codes, dictionary order, counts,
        version and maintained-index buckets.  Each batch is coded a column
        at a time, coercing each distinct value once.  A batch that would
        fail (a row of the wrong arity, a value that does not coerce) is
        inserted row by row instead, so the same error surfaces with the
        same rows committed before it.
        """
        self._insert_batches(rows, self.insert)

    def _insert_batches(self, rows: Iterable[Sequence[Any]],
                        insert_row: Callable[[Sequence[Any]], Any],
                        blank_is_null: bool = False) -> None:
        """Code *rows* a batch at a time; *insert_row* replays a failing batch.

        With *blank_is_null* an empty string reads as NULL, as a CSV field
        does.  When reading *rows* raises, the rows read before it are
        written first, so an error in one of them still comes first.
        """
        rows = iter(rows)
        while True:
            batch: list[Sequence[Any]] = []
            failure = None
            try:
                batch.extend(islice(rows, _BATCH_ROWS))
            except Exception as error:  # keeps the rows read before it
                failure = error
            if batch and not self._insert_batch(batch, blank_is_null):
                for row in batch:
                    insert_row(row)
            if failure is not None:
                raise failure
            if len(batch) < _BATCH_ROWS:
                return

    def _insert_batch(self, batch: list[Sequence[Any]], blank_is_null: bool) -> bool:
        """Code one batch of rows; False, with nothing written, if a row would fail."""
        try:
            if set(map(len, batch)) != {self._schema.arity}:
                return False
        except TypeError:  # a row without a length
            return False
        return self._append_columns(list(zip(*batch)), len(batch), blank_is_null)

    def _append_columns(self, columns: Sequence[Sequence[Any]], size: int,
                        blank_is_null: bool = False) -> bool:
        """Append *size* tuples given as one value sequence per attribute.

        Every distinct value is coerced before anything is written; False,
        with nothing written, when one fails to.
        """
        try:
            plans = [_distinct_coerced(values, attribute.type, blank_is_null)
                     for values, attribute in zip(columns, self._schema.attributes)]
        except Exception:  # any failure: the row-by-row replay raises it again
            return False
        store = self._store
        for column, plan in zip(store._columns, plans):
            _append_codes(column, *plan)
        start = self._next_tid
        self._next_tid = start + size
        self._live.update(dict.fromkeys(range(start, start + size)))
        self._version += size
        for index in store._indexes.values():
            for tid in range(start, start + size):
                index._file(tid)
            index._built_version = self._version
        return True

    def insert_tuple(self, source: Tuple) -> int:
        """Insert a copy of a tuple (possibly coming from another relation)."""
        return self.insert(source.values)

    def delete(self, tid: int) -> None:
        """Delete the tuple with id *tid*."""
        self._check_live(tid)
        del self._live[tid]
        self._version += 1
        store = self._store
        for index in store._indexes.values():
            index._unfile(tid)  # while the tid's codes are still live
            index._built_version = self._version
        _tombstone(store, tid)

    def update(self, tid: int, attribute_name: str, value: Any) -> Any:
        """Set cell ``(tid, attribute_name)`` to *value*; returns the old value."""
        self._check_live(tid)
        position = self._schema.position(attribute_name)
        coerced = coerce_value(value, self._schema.attributes[position].type)
        self._version += 1
        store = self._store
        # an index keyed on the column refiles the tid; one that only
        # tallies it moves one count and leaves its buckets alone
        covering = []
        counting = []
        for positions, index in store._indexes.items():
            if position in positions:
                covering.append(index)
            elif position in index._tallied:
                counting.append(index)
        for index in covering:
            index._unfile(tid)
        for index in counting:
            index._uncount(tid, position)
        column = store._columns[position]
        old = column.codes[tid]
        column.counts[old] -= 1
        code = column.intern(coerced)
        column.codes[tid] = code
        column.counts[code] += 1
        for index in covering:
            index._file(tid)
        for index in counting:
            index._count(tid, position)
        for index in store._indexes.values():
            index._built_version = self._version
        return column.values[old]

    def update_dict(self, tid: int, changes: Mapping[str, Any]) -> dict[str, Any]:
        """Apply several cell updates to one tuple; returns the old values."""
        old_values = {}
        for attribute_name, value in changes.items():
            old_values[attribute_name] = self.update(tid, attribute_name, value)
        return old_values

    # -- copies and views -------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """Copy of this relation, preserving tuple ids.

        The code arrays and dictionaries are copied as they are, without
        re-encoding; the copy carries no maintained index.
        """
        clone = Relation(self._schema if name is None else self._schema.renamed_relation(name))
        clone._live = dict(self._live)
        clone._next_tid = self._next_tid
        clone._store = self._store.copy(clone)
        return clone

    def filter(self, predicate: Callable[[Tuple], bool], name: str | None = None) -> "Relation":
        """New relation with the tuples satisfying *predicate* (tids preserved)."""
        result = self.copy(name)
        for row in self:
            if not predicate(row):
                del result._live[row.tid]
                _tombstone(result._store, row.tid)
        return result

    # -- diagnostics -----------------------------------------------------

    def null_count(self, attribute_name: str) -> int:
        """Number of NULLs in *attribute_name*."""
        return self._store.column_at(self._schema.position(attribute_name)).counts[NULL_CODE]

    def to_dicts(self) -> list[dict[str, Any]]:
        """All rows as plain dictionaries (useful in tests and examples)."""
        return [t.as_dict() for t in self]

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width textual rendering of the first *limit* rows."""
        names = list(self._schema.attribute_names)
        rows = [[value_repr(v) for v in t.values] for t in list(self)[:limit]]
        widths = [
            max(len(name), *(len(row[i]) for row in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        separator = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        )
        footer = "" if len(self) <= limit else f"\n... ({len(self) - limit} more rows)"
        return f"{header}\n{separator}\n{body}{footer}"

    def __repr__(self) -> str:
        return f"Relation({self.name}, {len(self)} tuples, arity {self._schema.arity})"


def _tombstone(store: ColumnStore, tid: int) -> None:
    """Take live tuple *tid* out of the columns' codes and counts."""
    for column in store._columns:
        column.counts[column.codes[tid]] -= 1
        column.codes[tid] = TOMBSTONE


def _distinct_coerced(values: Sequence[Any], attr_type: AttributeType,
                      blank_is_null: bool) -> tuple[Sequence[Any], list[Any], list[Any]]:
    """Key the cells of one column and coerce each distinct key once.

    Returns one key per cell, the distinct keys in first-occurrence
    order and the coerced value of each; the coerced list *is* the
    distinct list when every cell is its own key and coerces to itself.
    Raises what :func:`~repro.relational.types.coerce_value` raises, or
    ``TypeError`` for an unhashable value.
    """
    kinds = set(map(type, values))
    if kinds <= _BY_VALUE and len(kinds & _NUMBERS) <= 1:
        keys: Sequence[Any] = values
        distinct = raw = list(dict.fromkeys(values))
    else:
        keys = list(zip(map(type, values), values))
        distinct = list(dict.fromkeys(keys))
        raw = [value for _, value in distinct]
    if blank_is_null and "" in raw:
        raw = [NULL if value == "" else value for value in raw]
    if kinds <= _COERCED[attr_type]:
        return keys, distinct, raw
    return keys, distinct, [coerce_value(value, attr_type) for value in raw]


def _append_codes(column: Column, keys: Sequence[Any], distinct: list[Any],
                  coerced: list[Any]) -> None:
    """Append the codes of one column's cells, as interning each in turn would.

    New values join the dictionary in first-occurrence order, in one
    step; a column with live matchers or a string cache interns each
    distinct value instead, which keeps them current.
    """
    lookup = column._code_by_value
    if column._matchers or column._strings is not None:
        for value in coerced:
            column.intern(value)
    else:
        fresh = list(filterfalse(lookup.__contains__, dict.fromkeys(coerced)))
        if fresh:
            start = len(column.values)
            lookup.update(zip(fresh, range(start, start + len(fresh))))
            column.values += fresh
            column.counts += [0] * len(fresh)
    if coerced is distinct:  # each cell is its own coerced value
        cells = list(map(lookup.__getitem__, keys))
    else:
        codes = map(lookup.__getitem__, coerced)
        cells = list(map(dict(zip(distinct, codes)).__getitem__, keys))
    counts = column.counts
    for code in cells:
        counts[code] += 1
    column.codes += cells
