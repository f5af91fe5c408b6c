"""CSV import and export for relations.

The papers' experiments load dirty relations from flat files; this module
provides the equivalent: read a CSV into a :class:`Relation` (with either
a declared schema or type inference) and write a relation back out.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, infer_type, is_null


def read_csv(path: str | Path, relation_name: str | None = None,
             schema: RelationSchema | None = None, delimiter: str = ",") -> Relation:
    """Read *path* into a relation.

    When *schema* is omitted the header row provides attribute names and
    the narrowest type fitting each column is inferred from the data.
    Empty fields become NULL.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        return _read_csv_stream(handle, relation_name or path.stem, schema, delimiter)


def relation_from_csv(text: str, relation_name: str = "relation",
                      schema: RelationSchema | None = None, delimiter: str = ",") -> Relation:
    """Like :func:`read_csv` but reading from a string (used in tests/examples)."""
    return _read_csv_stream(_lines(text), relation_name, schema, delimiter)


def _lines(text: str) -> Iterator[str]:
    """The lines of *text*, ends kept, as ``io.StringIO(text)`` yields them.

    ``io.StringIO`` would first copy the whole text into a buffer of four
    bytes per character; slicing one line at a time keeps only the line.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        yield text[start:end]
        start = end


def _read_csv_stream(handle, relation_name: str, schema: RelationSchema | None,
                     delimiter: str) -> Relation:
    rows: Iterator[list[str]] = filter(None, csv.reader(handle, delimiter=delimiter))
    header = next(rows, None)
    if header is None:
        raise SchemaError("cannot read a relation from an empty CSV stream")
    header = [name.strip() for name in header]

    if schema is None:
        # type inference needs every value of a column before the first insert;
        # its verdict depends only on the set of values, so each is tried once
        data = list(rows)
        columns = list(zip(*data)) if data else [[] for _ in header]
        attributes = [
            Attribute(name, infer_type(list(dict.fromkeys(column))))
            for name, column in zip(header, columns)
        ]
        del columns  # the transposed copy: only the rows are coded
        schema = RelationSchema(relation_name, attributes)
        rows = iter(data)
    elif len(header) != schema.arity:
        raise SchemaError(
            f"CSV has {len(header)} columns but schema {schema.name!r} expects {schema.arity}"
        )

    relation = Relation(schema)

    def insert_row(row: list[str]) -> None:
        # a batch with a bad row replays row by row, so the first bad row
        # in file order raises, whether its fault is its arity or a value
        if len(row) != schema.arity:
            raise SchemaError(
                f"CSV row {row!r} has {len(row)} fields, expected {schema.arity}"
            )
        relation.insert([NULL if field == "" else field for field in row])

    # rows are coded as they are read, a bounded batch at a time
    relation._insert_batches(rows, insert_row, blank_is_null=True)
    return relation


def relation_to_csv(relation: Relation, path: str | Path | None = None,
                    delimiter: str = ",") -> str:
    """Write *relation* as CSV; returns the CSV text (and writes to *path* if given)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(relation.schema.attribute_names)
    # render each dictionary value once, then zip the columns into rows
    tids = relation.tids()
    columns = []
    for column in relation.columns.columns():
        rendered = ["" if is_null(value) else _render(value) for value in column.values]
        codes = column.codes
        columns.append([rendered[codes[tid]] for tid in tids])
    writer.writerows(zip(*columns))
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write arbitrary rows (e.g. benchmark results) to a CSV file."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
