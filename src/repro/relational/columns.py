"""Dictionary-encoded columns: the storage of a :class:`Relation`.

A :class:`ColumnStore` keeps, for every attribute of a relation, a
:class:`Column`: an array of small integer *codes* indexed by tuple id plus
a *dictionary* mapping codes back to values.  Equal values (under Python
``==``) share a code, NULL is always code :data:`NULL_CODE` (0) in every
column, and deleted tuple ids keep the tombstone code ``-1``.  Nothing
else holds the tuples: the relation keeps only its live tids beside the
store, and decodes values from here on demand.

The store is the substrate of the hot paths: hash indexes group tuples by
tuples of integer codes instead of raw values, CFD pattern matching becomes
integer set membership (constants are pre-encoded once per pattern via
:meth:`Column.matcher`), stripped partitions for TANE-style discovery fall
out of a single pass over a code array, and per-column statistics
(distinct count, null count, most common value) are read off the live
occurrence counts the store maintains per code.

:meth:`Relation.insert`, :meth:`~Relation.update` and
:meth:`~Relation.delete` write codes and counts here directly, in
O(arity) per change.  Dictionaries only grow and codes are never
reassigned, so code arrays, dictionaries, matcher sets and bridge
translations are long-lived: compiled detection plans and broadcast
states may hold them for the relation's lifetime.

The store also owns the relation's *maintained* hash indexes
(:meth:`ColumnStore.index`): the same mutations move one tid per
registered index per change, so an index stays exactly as current as the
columns.

The relation owns its store, and the store and its indexes refer back to
the relation only weakly, so a relation nothing else holds is freed at
once by reference counting instead of waiting for the cycle collector.
A store (or index) that outlives its relation raises
:class:`~repro.errors.RelationError` when it needs it.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from repro import obs
from repro.errors import RelationError
from repro.relational.types import NULL, is_null, sort_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.relational.index import HashIndex
    from repro.relational.relation import Relation

NULL_CODE = 0
"""The code every column assigns to NULL (dictionary slot 0)."""

TOMBSTONE = -1
"""The code marking a deleted (or filtered-out) tuple id in a code array."""

NO_PARTNER = -1
"""The bridge translation of a code whose value the target dictionary lacks."""


def passing(tids: list[int], tests: Sequence[tuple[Sequence[int], Any]]) -> list[int]:
    """The *tids* whose code passes every ``(code array, allowed set)`` test.

    Order is kept, one list comprehension per test, and with no tests
    *tids* comes back uncopied.  Every code-set selection shares this
    loop: SQL push-down filters, CFD and CIND pattern constants, CQA
    equalities, in the parent and in the chunk workers alike.
    """
    for codes, allowed in tests:
        tids = [tid for tid in tids if codes[tid] in allowed]
    return tids


class ConstantMatcher:
    """The live set of codes of one column matching one pattern constant.

    Detection pre-encodes each pattern constant into the set of dictionary
    codes it matches, turning per-tuple constant tests into integer set
    membership.  The set is *live*: when the column dictionary grows (a new
    distinct value is interned), the column re-evaluates the matcher's
    predicate and extends ``codes`` in place, so long-lived compiled plans
    (e.g. inside :class:`~repro.detection.incremental.IncrementalCFDDetector`)
    stay correct as new values arrive.
    """

    __slots__ = ("predicate", "codes")

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self.predicate = predicate
        self.codes: set[int] = set()


class ColumnOrder:
    """A dictionary-order view of one column: codes sorted by value.

    Built lazily from the dictionary (one sort per dictionary size — the
    dictionary only grows, so a size check is an exact staleness test) and
    shared by every consumer of the same version:

    * ``sorted_codes`` / ``keys`` — the codes ordered by
      :func:`~repro.relational.types.sort_key` of their value, with the
      keys alongside for bisection.  Range predicates (``<``, ``<=``,
      ``>``, ``>=`` and the desugared ``BETWEEN``) compile to code sets by
      bisecting here — the same total order the row-at-a-time comparisons
      use, so push-down is exact;
    * ``ranks`` — a code → dense-rank array (``==``-tied sort keys share a
      rank).  Ordering codes by rank is order-isomorphic to ordering
      values by ``sort_key``, which is what lets MIN/MAX and ORDER BY run
      on codes; the *dense* ranks keep stable sorts stable exactly where
      a value sort would be.

    NULL (code 0) participates in ``ranks`` (it sorts first, as
    ``sort_key`` says) but is excluded from every range result — a
    comparison against NULL is UNKNOWN.
    """

    __slots__ = ("size", "sorted_codes", "keys", "ranks")

    def __init__(self, values: Sequence[Any]) -> None:
        self.size = len(values)
        by_code = [sort_key(value) for value in values]
        self.sorted_codes: list[int] = sorted(range(len(values)),
                                              key=by_code.__getitem__)
        self.keys: list[tuple] = [by_code[code] for code in self.sorted_codes]
        ranks = [0] * len(values)
        rank = -1
        previous = None
        for position, code in enumerate(self.sorted_codes):
            key = self.keys[position]
            if key != previous:
                rank += 1
                previous = key
            ranks[code] = rank
        self.ranks: list[int] = ranks

    def codes_in_range(self, operator: str, bound: Any) -> set[int]:
        """The non-NULL codes whose value satisfies ``value <operator> bound``.

        *operator* is one of ``<``, ``<=``, ``>``, ``>=``; the comparison
        is the engine's :func:`~repro.relational.types.sort_key` total
        order, exactly as the row-at-a-time
        :class:`~repro.relational.expressions.Comparison` evaluates it.
        """
        key = sort_key(bound)
        if operator == "<":
            selected = self.sorted_codes[:bisect_left(self.keys, key)]
        elif operator == "<=":
            selected = self.sorted_codes[:bisect_right(self.keys, key)]
        elif operator == ">":
            selected = self.sorted_codes[bisect_right(self.keys, key):]
        elif operator == ">=":
            selected = self.sorted_codes[bisect_left(self.keys, key):]
        else:
            raise ValueError(f"unknown range operator {operator!r}")
        codes = set(selected)
        codes.discard(NULL_CODE)
        return codes


class DictionaryBridge:
    """A code→code translation from one column's dictionary into another's.

    The cross-relation substrate of code-native joins and CIND anti-joins:
    ``translation[source code]`` is the target-dictionary code whose value
    matches the source value, or :data:`NO_PARTNER` when the target
    dictionary holds no such value.  NULL maps to NULL
    (``translation[0] == 0``); join and anti-join consumers treat NULL
    specially anyway, so the slot never decides a match.

    Two match semantics exist, mirroring the two cross-relation equalities
    in the system:

    * ``"value"`` — SQL ``=`` via the target's value→code table, the
      equality SQL hash joins key their buckets with: Python ``==``,
      except that a BOOLEAN partners only a BOOLEAN
      (:func:`~repro.relational.expressions.sql_equal`).  Target codes are
      already canonical under this equality (interning collapses
      ``==``-equal values to one code), so the translation composes
      directly with code-keyed buckets.
    * ``"string"`` — equality of ``str`` forms, the equality CIND
      correspondence keys are compared under.  Several target codes can
      share a string, so the translation lands on the *canonical* target
      code (the smallest code with that string); a bridge from a column to
      itself under this mode is exactly the canonicalizer that makes
      target-side keys comparable with translated source keys.

    A bridge is valid for one ``(source dictionary, target dictionary)``
    state, tracked as the size of each side: dictionaries only grow, so a
    size check is an exact staleness test — and growth on *either* side
    can create partners that did not exist (an insert interning a novel
    value mid-session), so both sides participate.
    :meth:`Column.bridge_to` revalidates on every access and
    rebuilds the translation **in place** (the list identity survives), so
    broadcast states and long-lived compiled plans holding the array stay
    correct, exactly like code arrays and matcher sets.
    """

    __slots__ = ("source", "target", "mode", "translation",
                 "_source_state", "_target_state")

    #: match semantics a bridge can be built under.
    MODES = ("value", "string")

    def __init__(self, source: "Column", target: "Column", mode: str) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown bridge mode {mode!r}; expected one of {self.MODES}")
        self.source = source
        self.target = target
        self.mode = mode
        self.translation: list[int] = []
        self._source_state = -1
        self._target_state = -1
        self._rebuild()

    def is_stale(self) -> bool:
        """Whether either side's dictionary grew since the build."""
        return (self._source_state != len(self.source.values)
                or self._target_state != len(self.target.values))

    def ensure_fresh(self) -> "DictionaryBridge":
        """Rebuild the translation in place if either dictionary moved."""
        if self.is_stale():
            if obs.enabled:
                obs.inc("cache.bridge.rebuilt")
            self._rebuild()
        elif obs.enabled:
            obs.inc("cache.bridge.valid")
        return self

    def _rebuild(self) -> None:
        source, target = self.source, self.target
        translation = [NO_PARTNER] * len(source.values)
        translation[NULL_CODE] = NULL_CODE
        if self.mode == "value":
            # SQL's =: Python's ==, but a BOOLEAN equals only a BOOLEAN
            lookup = target._code_by_value
            values = source.values
            target_values = target.values
            for code in range(1, len(values)):
                value = values[code]
                partner = lookup.get(value)
                if partner is not None and \
                        isinstance(value, bool) == isinstance(target_values[partner], bool):
                    translation[code] = partner
        else:
            target_strings = target.strings
            canonical: dict[str, int] = {}
            for code in range(1, len(target.values)):
                canonical.setdefault(target_strings[code], code)
            source_strings = source.strings
            for code in range(1, len(source.values)):
                partner = canonical.get(source_strings[code])
                if partner is not None:
                    translation[code] = partner
        self.translation[:] = translation
        self._source_state = len(source.values)
        self._target_state = len(target.values)

    def __repr__(self) -> str:
        matched = sum(1 for code in self.translation[1:] if code != NO_PARTNER)
        return (f"DictionaryBridge({self.source.attribute!r} -> "
                f"{self.target.attribute!r}, {self.mode}, "
                f"{matched}/{max(0, len(self.translation) - 1)} matched)")

    def compose(self, other: "DictionaryBridge | ComposedBridge") -> "ComposedBridge":
        """The chained translation ``self ∘ other``: source codes of *self*
        translated all the way into the *target* dictionary of *other*.

        Requires ``self.target is other.source`` (the hops must chain).
        The result revalidates every hop on :meth:`ComposedBridge.ensure_fresh`.
        """
        hops = [self] + (list(other.hops) if isinstance(other, ComposedBridge)
                         else [other])
        return ComposedBridge(hops)


class ComposedBridge:
    """A chained code→code translation across two or more bridge hops.

    Multiway join variables can span columns with no direct bridge between
    them: member ``k`` of a variable bridges to member ``k-1``, which
    bridges onward until the variable's representative column is reached.
    ``translation[source code]`` is the code in the *final* hop's target
    dictionary, or :data:`NO_PARTNER` when any hop loses the value.  NULL
    maps to NULL through every hop.

    Losing a value at an intermediate hop is join-safe: a value absent from
    an intermediate member's dictionary has no live tuple in that member's
    relation either, so the multiway intersection would exclude it anyway.

    Validity is per hop: the composition caches each hop's dictionary-size
    stamps of both sides at build time, and
    :meth:`ensure_fresh` rebuilds the composed translation **in place**
    (list identity survives, like :class:`DictionaryBridge`) when any hop
    is stale *or* was rebuilt elsewhere since this composition last looked.
    """

    __slots__ = ("hops", "translation", "_states")

    def __init__(self, hops: Sequence[DictionaryBridge]) -> None:
        if len(hops) < 2:
            raise ValueError("a composed bridge needs at least two hops")
        for first, second in zip(hops, hops[1:]):
            if first.target is not second.source:
                raise ValueError(
                    f"bridge hops do not chain: {first!r} ends at a column "
                    f"different from where {second!r} starts")
        self.hops: tuple[DictionaryBridge, ...] = tuple(hops)
        self.translation: list[int] = []
        self._states: list[tuple[int, int]] = []
        self._rebuild()

    @property
    def source(self) -> "Column":
        return self.hops[0].source

    @property
    def target(self) -> "Column":
        return self.hops[-1].target

    def is_stale(self) -> bool:
        """Whether any hop's dictionaries moved (or the hop was rebuilt)."""
        for hop, (source_state, target_state) in zip(self.hops, self._states):
            if (hop.is_stale()
                    or hop._source_state != source_state
                    or hop._target_state != target_state):
                return True
        return False

    def ensure_fresh(self) -> "ComposedBridge":
        """Recompose the translation in place if any hop moved."""
        if self.is_stale():
            if obs.enabled:
                obs.inc("cache.bridge.rebuilt")
            self._rebuild()
        elif obs.enabled:
            obs.inc("cache.bridge.valid")
        return self

    def _rebuild(self) -> None:
        for hop in self.hops:
            hop.ensure_fresh()
        translation = list(self.hops[0].translation)
        for hop in self.hops[1:]:
            step = hop.translation
            # NO_PARTNER is -1: indexing with it would silently read the
            # last slot, so non-positive codes are mapped explicitly.
            translation = [step[code] if code > 0 else code
                           for code in translation]
        translation[NULL_CODE] = NULL_CODE
        self.translation[:] = translation
        self._states = [(hop._source_state, hop._target_state)
                        for hop in self.hops]

    def compose(self, other: "DictionaryBridge | ComposedBridge") -> "ComposedBridge":
        """Extend the chain with further hop(s)."""
        hops = list(self.hops) + (list(other.hops)
                                  if isinstance(other, ComposedBridge)
                                  else [other])
        return ComposedBridge(hops)

    def __repr__(self) -> str:
        matched = sum(1 for code in self.translation[1:] if code != NO_PARTNER)
        return (f"ComposedBridge({self.source.attribute!r} -> "
                f"{self.target.attribute!r}, {len(self.hops)} hops, "
                f"{matched}/{max(0, len(self.translation) - 1)} matched)")


class Column:
    """One dictionary-encoded attribute of a relation.

    * ``codes[tid]`` is the code of the value of this attribute in tuple
      ``tid`` (``TOMBSTONE`` when the tuple is deleted);
    * ``values[code]`` is the decoded value (``values[0]`` is NULL);
    * ``counts[code]`` is the number of *live* tuples carrying that code.

    The dictionary only ever grows; codes are never reassigned while the
    column object lives.  A value whose last tuple went away keeps its
    code, with a count of 0.
    """

    __slots__ = ("attribute", "codes", "values", "counts",
                 "_code_by_value", "_matchers", "_strings", "_order", "_bridges")

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self.codes: list[int] = []
        self.values: list[Any] = [NULL]
        self.counts: list[int] = [0]
        self._code_by_value: dict[Any, int] = {NULL: NULL_CODE}
        self._matchers: dict[Hashable, ConstantMatcher] = {}
        self._strings: list[str] | None = None
        self._order: ColumnOrder | None = None
        self._bridges: dict[tuple[int, str], DictionaryBridge] = {}

    def copy(self) -> "Column":
        """A column with copies of the codes and the dictionary.

        Codes keep their meaning, so nothing is re-encoded.  Matchers,
        order views and bridges are not carried over: they are rebuilt on
        demand for the copy.
        """
        clone = Column(self.attribute)
        clone.codes = list(self.codes)
        clone.values = list(self.values)
        clone.counts = list(self.counts)
        clone._code_by_value = dict(self._code_by_value)
        if self._strings is not None:
            clone._strings = list(self._strings)
        return clone

    # -- encoding ---------------------------------------------------------

    def intern(self, value: Any) -> int:
        """The code of *value*, adding it to the dictionary if unseen."""
        code = self._code_by_value.get(value)  # NULL is a key: code 0
        if code is None:
            if is_null(value):
                return NULL_CODE
            code = len(self.values)
            self.values.append(value)
            self.counts.append(0)
            self._code_by_value[value] = code
            if self._strings is not None:
                self._strings.append(str(value))
            for matcher in self._matchers.values():
                if matcher.predicate(value):
                    matcher.codes.add(code)
        return code

    def code_of(self, value: Any) -> int | None:
        """The code of *value*, or ``None`` when the value was never seen."""
        if is_null(value):
            return NULL_CODE
        return self._code_by_value.get(value)

    def value_of(self, code: int) -> Any:
        """The value a code decodes to."""
        return self.values[code]

    @property
    def strings(self) -> list[str]:
        """``str(value)`` per code (lazily built, then maintained on intern).

        Used by CIND detection, which compares correspondence keys across
        relations by string equality: computing ``str`` once per distinct
        value instead of once per tuple.
        """
        if self._strings is None:
            self._strings = [str(v) for v in self.values]
        return self._strings

    # -- dictionary order -------------------------------------------------

    def order(self) -> ColumnOrder:
        """The dictionary-order view of this column (rebuilt lazily).

        The view is valid for exactly one dictionary size; interning a new
        value invalidates it and the next access sorts afresh.  Unlike
        matcher sets, order views are *not* maintained incrementally —
        consumers (range push-down, MIN/MAX on codes, ORDER BY) hold them
        for at most one query.
        """
        order = self._order
        if order is None or order.size != len(self.values):
            if obs.enabled:
                obs.inc("cache.order.build")
            order = ColumnOrder(self.values)
            self._order = order
        elif obs.enabled:
            obs.inc("cache.order.reuse")
        return order

    # -- constant matchers ------------------------------------------------

    def matcher(self, key: Hashable, predicate: Callable[[Any], bool]) -> ConstantMatcher:
        """The live code set of the non-NULL dictionary values satisfying *predicate*.

        Matchers are deduplicated by *key* (one scan of the dictionary per
        distinct constant, then maintained incrementally as values are
        interned).  The predicate is never shown NULL.
        """
        matcher = self._matchers.get(key)
        if matcher is None:
            if obs.enabled:
                obs.inc("cache.matcher.miss")
            matcher = ConstantMatcher(predicate)
            for code, value in enumerate(self.values):
                if code != NULL_CODE and predicate(value):
                    matcher.codes.add(code)
            self._matchers[key] = matcher
        elif obs.enabled:
            obs.inc("cache.matcher.hit")
        return matcher

    # -- statistics -------------------------------------------------------

    def null_count(self) -> int:
        """Number of live NULLs."""
        return self.counts[NULL_CODE]

    def distinct_count(self) -> int:
        """Number of distinct non-NULL values among live tuples."""
        # counts never go negative: the non-zero slots past NULL's, counted in C
        counts = self.counts
        return len(counts) - counts.count(0) - (counts[NULL_CODE] != 0)

    def most_common(self) -> tuple[Any, int]:
        """The most frequent live non-NULL value and its count.

        Ties break towards the value interned earliest (the smallest
        code).  That rule is deterministic and stable under incremental
        maintenance, but after deletes it can differ from a fresh scan's
        first-*live*-occurrence order (codes remember the first time a
        value was ever seen, not the earliest live row carrying it).
        Returns ``(None, 0)`` on an all-NULL (or empty) column.
        """
        best_code, best_count = -1, 0
        for code in range(1, len(self.counts)):
            if self.counts[code] > best_count:
                best_code, best_count = code, self.counts[code]
        if best_code < 0:
            return None, 0
        return self.values[best_code], best_count

    # -- bridges ----------------------------------------------------------

    def bridge_to(self, other: "Column", mode: str = "value") -> DictionaryBridge:
        """The fresh code→code bridge from this dictionary into *other*'s.

        Bridges are cached per ``(target column, mode)`` and revalidated on
        every access: if either dictionary grew since the last build, the
        translation array is rebuilt in place before the
        bridge is returned.  The cache holds a strong reference to the
        target column — bridge consumers (join plans, CIND specs) always
        name both relations, which keep their columns alive anyway.
        """
        key = (id(other), mode)
        bridge = self._bridges.get(key)
        if bridge is None or bridge.target is not other:
            if obs.enabled:
                obs.inc("cache.bridge.build")
            bridge = DictionaryBridge(self, other, mode)
            self._bridges[key] = bridge
            return bridge
        return bridge.ensure_fresh()

    def __repr__(self) -> str:
        return (f"Column({self.attribute!r}, {len(self.values) - 1} distinct values, "
                f"{len(self.codes)} slots)")


class ColumnStore:
    """The dictionary-encoded columns of one relation and its maintained indexes.

    The owning :class:`~repro.relational.relation.Relation` writes codes
    and counts into the columns and refiles the maintained indexes on
    every mutation; everything else reads.
    """

    def __init__(self, relation: "Relation") -> None:
        # weak, so a dropped relation is freed at once rather than waiting
        # for the cycle collector (relation -> store -> index -> relation)
        self._relation = weakref.ref(relation)
        self._columns = [Column(attr.name.lower()) for attr in relation.schema.attributes]
        self._by_name = {column.attribute: column for column in self._columns}
        #: maintained indexes, by the schema positions they cover
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def copy(self, relation: "Relation") -> "ColumnStore":
        """A store for *relation* with copies of these columns and no index."""
        clone = ColumnStore(relation)
        clone._columns = [column.copy() for column in self._columns]
        clone._by_name = {column.attribute: column for column in clone._columns}
        return clone

    # -- access -----------------------------------------------------------

    @property
    def relation(self) -> "Relation":
        """The relation this store encodes; raises once it was freed."""
        relation = self._relation()
        if relation is None:
            raise RelationError("the relation of this column store no longer exists")
        return relation

    def column(self, attribute_name: str) -> Column:
        """The column of *attribute_name* (case-insensitive)."""
        column = self._by_name.get(attribute_name.lower())
        if column is None:
            # raises the canonical SchemaError for unknown attributes
            self.relation.schema.position(attribute_name)
            raise AssertionError("unreachable")  # pragma: no cover
        return column

    def column_at(self, position: int) -> Column:
        """The column at schema *position*."""
        return self._columns[position]

    def columns(self) -> list[Column]:
        """All columns in schema order."""
        return list(self._columns)

    def code_arrays(self, positions: Sequence[int]) -> list[list[int]]:
        """The code arrays of the given schema positions (shared, read-only)."""
        return [self._columns[p].codes for p in positions]

    def index(self, attribute_names: Sequence[str]) -> "HashIndex":
        """The relation's shared hash index on *attribute_names*, kept current.

        Built on the first request and registered for the relation's
        lifetime; from then on every insert, delete and update of the
        relation refiles the tid it touches.  Bucket order is insertion
        order, not a fresh scan's first-occurrence order: probe buckets,
        or order what iterating them yields by each bucket's smallest tid.
        """
        relation = self.relation
        positions = tuple(relation.schema.positions(attribute_names))
        index = self._indexes.get(positions)
        if index is None:
            from repro.relational.index import HashIndex  # index.py imports this module

            index = HashIndex(relation, attribute_names)
            self._indexes[positions] = index
        return index

    def drop_indexes(self) -> None:
        """Unregister every maintained index; a later :meth:`index` builds afresh.

        For a relation nothing will probe again, such as a finished
        repair's working copy: its mutations stop refiling tids, and the
        buckets are freed.
        """
        self._indexes.clear()

    def partition_groups(self, positions: Sequence[int]) -> dict[Any, list[int]]:
        """Live tids grouped by their code key over *positions* (one pass).

        The substrate of stripped-partition discovery: the code arrays are
        scanned directly — dead slots carry :data:`TOMBSTONE` and are
        skipped — so no tid list is materialised first.  Keys (a bare code
        for one position, a code tuple otherwise) appear in
        first-occurrence order and every tid list is ascending, matching
        the bucket order of a freshly rebuilt
        :class:`~repro.relational.index.HashIndex`.
        """
        arrays = self.code_arrays(positions)
        buckets: dict[Any, list[int]] = {}
        if len(arrays) == 1:
            for tid, code in enumerate(arrays[0]):
                if code == TOMBSTONE:
                    continue
                bucket = buckets.get(code)
                if bucket is None:
                    buckets[code] = [tid]
                else:
                    bucket.append(tid)
        else:
            first = arrays[0]
            for tid, code in enumerate(first):
                if code == TOMBSTONE:
                    continue
                key = tuple(codes[tid] for codes in arrays)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [tid]
                else:
                    bucket.append(tid)
        return buckets

    def __repr__(self) -> str:
        return (f"ColumnStore({self.relation.name}, {len(self._columns)} columns, "
                f"{len(self._indexes)} maintained indexes)")
