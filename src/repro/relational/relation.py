"""Relations: mutable row stores with stable tuple identifiers.

A :class:`Relation` owns a :class:`~repro.relational.schema.RelationSchema`
and a set of tuples.  Every tuple receives a *tuple id* (``tid``) that is
stable across updates and never reused after deletion — violation reports,
repairs and incremental detection all refer to cells as ``(tid, attribute)``
pairs, so stability matters.

Tuples are stored as lists indexed by attribute position; the
:class:`Tuple` wrapper gives dict-like access by attribute name without
copying.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import RelationError, SchemaError
from repro.relational.columns import ColumnStore
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, coerce_value, is_null, value_repr


class Tuple:
    """A read-mostly view of one row of a relation.

    Supports access by attribute name (``t['zip']``), by position
    (``t.at(3)``) and conversion to a plain dict.  Equality and hashing
    are value-based (the tid is excluded) so tuples can be deduplicated.
    """

    __slots__ = ("tid", "_schema", "_values")

    def __init__(self, tid: int, schema: RelationSchema, values: list[Any]) -> None:
        self.tid = tid
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """The row values in schema order."""
        return tuple(self._values)

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
        return tuple(self._values) == tuple(other._values)

    def __hash__(self) -> int:
        return hash(tuple(self._values))

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
        self._rows: dict[int, list[Any]] = {}
        self._next_tid = 0
        self._version = 0
        self._column_store: ColumnStore | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: RelationSchema, rows: Iterable[Mapping[str, Any]]) -> "Relation":
        """Build a relation from ``{attribute: value}`` mappings."""
        relation = cls(schema)
        for row in rows:
            relation.insert_dict(row)
        return relation

    @classmethod
    def from_rows(cls, schema: RelationSchema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from positional value sequences."""
        relation = cls(schema)
        for row in rows:
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
        """The dictionary-encoded column store of this relation.

        Built lazily on first access, then maintained incrementally by the
        mutation methods; rebuilt transparently when a change the hooks
        could not track left it stale.
        """
        store = self._column_store
        if store is None:
            store = ColumnStore(self)
            self._column_store = store
        elif store.is_stale():
            store.rebuild()
        return store

    def rows_items(self) -> list[tuple[int, list[Any]]]:
        """``(tid, values)`` pairs in insertion order.

        The value lists are the live storage — fast-path callers (the
        column store) must not mutate them.
        """
        return list(self._rows.items())

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        for tid, values in self._rows.items():
            yield Tuple(tid, self._schema, values)

    def __contains__(self, tid: int) -> bool:
        return tid in self._rows

    def tids(self) -> list[int]:
        """All live tuple ids (insertion order)."""
        return list(self._rows.keys())

    def tuple(self, tid: int) -> Tuple:
        """The tuple with id *tid*; raises :class:`RelationError` if absent."""
        if tid not in self._rows:
            raise RelationError(f"relation {self.name!r} has no tuple with tid {tid}")
        return Tuple(tid, self._schema, self._rows[tid])

    def value(self, tid: int, attribute_name: str) -> Any:
        """Value of cell ``(tid, attribute_name)``."""
        return self.tuple(tid)[attribute_name]

    def tuples(self) -> list[Tuple]:
        """All tuples as a list (insertion order)."""
        return list(iter(self))

    def column(self, attribute_name: str) -> list[Any]:
        """All values of one attribute, in tuple order."""
        position = self._schema.position(attribute_name)
        return [values[position] for values in self._rows.values()]

    def active_domain(self, attribute_name: str) -> set[Any]:
        """Distinct non-NULL values appearing in *attribute_name*."""
        return {v for v in self.column(attribute_name) if not is_null(v)}

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
        self._rows[tid] = values
        self._version += 1
        if self._column_store is not None:
            self._column_store.on_insert(tid, values)
        return tid

    def insert_dict(self, row: Mapping[str, Any]) -> int:
        """Insert a row given as a ``{attribute: value}`` mapping.

        Missing attributes become NULL; unknown attributes raise
        :class:`~repro.errors.SchemaError`.
        """
        lowered = {key.lower(): value for key, value in row.items()}
        for key in lowered:
            self._schema.position(key)  # validates the attribute exists
        positional = [
            lowered.get(attr.name.lower(), NULL) for attr in self._schema.attributes
        ]
        return self.insert(positional)

    def insert_tuple(self, source: Tuple) -> int:
        """Insert a copy of a tuple (possibly coming from another relation)."""
        return self.insert(list(source.values))

    def delete(self, tid: int) -> None:
        """Delete the tuple with id *tid*."""
        if tid not in self._rows:
            raise RelationError(f"relation {self.name!r} has no tuple with tid {tid}")
        del self._rows[tid]
        self._version += 1
        if self._column_store is not None:
            self._column_store.on_delete(tid)

    def update(self, tid: int, attribute_name: str, value: Any) -> Any:
        """Set cell ``(tid, attribute_name)`` to *value*; returns the old value."""
        if tid not in self._rows:
            raise RelationError(f"relation {self.name!r} has no tuple with tid {tid}")
        position = self._schema.position(attribute_name)
        attr = self._schema.attributes[position]
        old = self._rows[tid][position]
        coerced = coerce_value(value, attr.type)
        self._rows[tid][position] = coerced
        self._version += 1
        if self._column_store is not None:
            self._column_store.on_update(tid, position, coerced)
        return old

    def update_dict(self, tid: int, changes: Mapping[str, Any]) -> dict[str, Any]:
        """Apply several cell updates to one tuple; returns the old values."""
        old_values = {}
        for attribute_name, value in changes.items():
            old_values[attribute_name] = self.update(tid, attribute_name, value)
        return old_values

    def clear(self) -> None:
        """Remove all tuples (tuple ids are still never reused)."""
        self._rows.clear()
        self._version += 1

    # -- copies and views -------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """Deep copy of this relation, preserving tuple ids."""
        clone = Relation(self._schema if name is None else self._schema.renamed_relation(name))
        clone._rows = {tid: list(values) for tid, values in self._rows.items()}
        clone._next_tid = self._next_tid
        return clone

    def filter(self, predicate: Callable[[Tuple], bool], name: str | None = None) -> "Relation":
        """New relation with the tuples satisfying *predicate* (tids preserved)."""
        result = Relation(self._schema if name is None else self._schema.renamed_relation(name))
        kept = {t.tid: list(t.values) for t in self if predicate(t)}
        result._rows = kept
        result._next_tid = self._next_tid
        return result

    # -- diagnostics -----------------------------------------------------

    def null_count(self, attribute_name: str) -> int:
        """Number of NULLs in *attribute_name*."""
        return sum(1 for value in self.column(attribute_name) if is_null(value))

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
