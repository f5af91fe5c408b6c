"""Certain answers by query rewriting (no repair enumeration), on codes.

For a selection–projection query over one relation whose only
inconsistencies are violations of a key ``X → R``, a projected value
vector is a *certain* answer iff it is produced by a key group in **every
choice** of representative tuple — i.e. iff every tuple of the group
satisfies the selection and projects to that same vector.  A tuple whose
key holds NULL conflicts with nothing and answers on its own.  This
mirrors the first-order rewritings of the CQA literature
(quantifier-free selections under primary-key constraints).

The rewriting is a Boolean fold over key groups ("Juggling Functions
Inside a Database"), and only a group holding a selected tuple can yield
an answer, so it selects first, on the column store: each equality is
the set of non-NULL codes whose ``str`` form equals ``str(value)``
(:meth:`SelectionQuery.matches`'s test), applied with
:func:`~repro.relational.columns.passing`; the maintained key index
(``relation.columns.index(key)``) is probed once per distinct selected
key, and a group yields iff every member is selected and all share the
projection codes (codes are equal iff values are ``==``).  Only the
answers decode; they form a set, so the index's bucket order cannot leak.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.relational.columns import NULL_CODE, passing
from repro.relational.relation import Relation


def certain_answers_rewriting(relation: Relation, key: Sequence[str],
                              query) -> set[tuple[Any, ...]]:
    """Certain answers of *query* under the key constraint, via rewriting.

    *query* is a :class:`repro.cqa.answer.SelectionQuery`.  A projected
    or selected attribute the schema lacks raises
    :class:`~repro.errors.SchemaError`, also on an empty relation.
    """
    store = relation.columns
    columns = [store.column(attribute) for attribute in query.project]
    if query.predicate is not None:
        selected = [tid for tid in relation.tids()
                    if query.predicate(relation.tuple(tid))]
    else:
        tests = []
        for attribute, value in query.equalities.items():
            column = store.column(attribute)
            strings, wanted = column.strings, str(value)
            tests.append((column.codes, {code for code in range(1, len(strings))
                                         if strings[code] == wanted}))
        selected = passing(relation.tids(), tests)

    index = store.index(key)
    chosen = set(selected)
    arrays = [column.codes for column in columns]
    group_keys = set(zip(*[[codes[tid] for tid in selected]
                           for codes in (store.column(a).codes for a in key)]))
    found: set[tuple[int, ...]] = set()
    for group_key in group_keys:
        group = index.bucket_view(group_key)
        if NULL_CODE in group_key:  # no conflict: each selected tuple answers
            found.update(tuple([codes[tid] for codes in arrays])
                         for tid in group if tid in chosen)
        elif group <= chosen and all(len({codes[tid] for tid in group}) == 1
                                     for codes in arrays):
            tid = next(iter(group))
            found.add(tuple([codes[tid] for codes in arrays]))
    return {tuple([column.values[code] for column, code in zip(columns, codes)])
            for codes in found}
