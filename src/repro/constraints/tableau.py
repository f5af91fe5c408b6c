"""Pattern tableaux: the conditional part of CFDs and CINDs.

A pattern tuple assigns to each attribute either a **constant** (the
attribute must carry exactly that value) or the **unnamed variable** ``_``
(any value is allowed).  The match operator ``≍`` of Fan et al. is
implemented by :meth:`PatternTuple.matches`: a data tuple matches a
pattern tuple when it agrees with every constant in it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ConstraintError
from repro.relational.types import constants_equal as _constants_equal
from repro.relational.types import is_null


class _Wildcard:
    """Singleton marker for the unnamed variable ``_`` in pattern tuples."""

    _instance: "_Wildcard | None" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Wildcard)

    def __hash__(self) -> int:
        return hash("__repro_wildcard__")


UNDERSCORE = _Wildcard()
"""The unnamed variable ``_`` used in pattern tuples."""

Pattern = Any
"""A pattern value: either a constant or :data:`UNDERSCORE`."""


def is_wildcard(pattern: Pattern) -> bool:
    """Whether *pattern* is the unnamed variable ``_``."""
    return isinstance(pattern, _Wildcard) or pattern == "_"


def normalize_pattern(pattern: Pattern) -> Pattern:
    """Map the string ``"_"`` (and None) to the wildcard marker; keep constants."""
    if pattern is None or is_wildcard(pattern):
        return UNDERSCORE
    return pattern


class PatternTuple:
    """One row of a pattern tableau: attribute → constant or ``_``.

    Attribute lookups are case-insensitive.  Attributes not mentioned are
    treated as wildcards.  Two pattern tuples are equal when they carry
    the same cells with constants of the same types: ``1``, ``1.0`` and
    ``True`` are equal in Python but ``≍`` tells them apart by string form.
    """

    __slots__ = ("_cells", "_key")

    def __init__(self, cells: Mapping[str, Pattern]) -> None:
        normalized: dict[str, Pattern] = {}
        for attribute, pattern in cells.items():
            if not attribute:
                raise ConstraintError("pattern tuples cannot have empty attribute names")
            normalized[attribute.lower()] = normalize_pattern(pattern)
        self._cells = normalized
        self._key = frozenset((a, type(p).__name__, p) for a, p in normalized.items())

    # -- accessors ---------------------------------------------------------

    def attributes(self) -> list[str]:
        """Attributes explicitly mentioned by this pattern tuple."""
        return list(self._cells.keys())

    def pattern(self, attribute: str) -> Pattern:
        """Pattern for *attribute*; unmentioned attributes are wildcards."""
        return self._cells.get(attribute.lower(), UNDERSCORE)

    def __getitem__(self, attribute: str) -> Pattern:
        return self.pattern(attribute)

    def is_constant_on(self, attribute: str) -> bool:
        """Whether this pattern pins *attribute* to a constant."""
        return not is_wildcard(self.pattern(attribute))

    def constant(self, attribute: str) -> Any:
        """The constant this pattern pins *attribute* to (raises if wildcard)."""
        pattern = self.pattern(attribute)
        if is_wildcard(pattern):
            raise ConstraintError(f"pattern has no constant on attribute {attribute!r}")
        return pattern

    def constants(self) -> dict[str, Any]:
        """All ``attribute → constant`` bindings of this pattern."""
        return {a: p for a, p in self._cells.items() if not is_wildcard(p)}

    def wildcard_attributes(self) -> list[str]:
        """Mentioned attributes carrying the unnamed variable."""
        return [a for a, p in self._cells.items() if is_wildcard(p)]

    # -- semantics -----------------------------------------------------------

    def matches(self, row, attributes: Iterable[str] | None = None) -> bool:
        """The ``≍`` operator: does data tuple *row* match this pattern?

        Only the attributes in *attributes* (default: all mentioned
        attributes) are checked.  A NULL never matches a constant.
        """
        names = list(attributes) if attributes is not None else self.attributes()
        for attribute in names:
            pattern = self.pattern(attribute)
            if is_wildcard(pattern):
                continue
            value = row[attribute]
            if is_null(value) or not _constants_equal(value, pattern):
                return False
        return True

    def matches_values(self, values: Mapping[str, Any]) -> bool:
        """Like :meth:`matches` but for a plain ``{attribute: value}`` mapping."""
        for attribute, pattern in self._cells.items():
            if is_wildcard(pattern):
                continue
            if attribute not in {k.lower() for k in values}:
                return False
            value = _lookup_ci(values, attribute)
            if is_null(value) or not _constants_equal(value, pattern):
                return False
        return True

    def is_compatible_with(self, other: "PatternTuple", attributes: Iterable[str]) -> bool:
        """Whether the two patterns can be matched by a common tuple on *attributes*."""
        for attribute in attributes:
            mine, theirs = self.pattern(attribute), other.pattern(attribute)
            if is_wildcard(mine) or is_wildcard(theirs):
                continue
            if not _constants_equal(mine, theirs):
                return False
        return True

    def more_general_than(self, other: "PatternTuple", attributes: Iterable[str]) -> bool:
        """Whether this pattern subsumes *other* on *attributes* (``_`` ⪰ constant)."""
        for attribute in attributes:
            mine, theirs = self.pattern(attribute), other.pattern(attribute)
            if is_wildcard(mine):
                continue
            if is_wildcard(theirs) or not _constants_equal(mine, theirs):
                return False
        return True

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternTuple):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __iter__(self) -> Iterator[tuple[str, Pattern]]:
        return iter(self._cells.items())

    def __repr__(self) -> str:
        cells = ", ".join(
            f"{attribute}={'_' if is_wildcard(pattern) else pattern!r}"
            for attribute, pattern in self._cells.items()
        )
        return f"PatternTuple({cells})"


constants_equal = _constants_equal
"""Public alias: the ``≍`` equality used between data values and constants.

The implementation lives in :mod:`repro.relational.types` (it is a
value-level primitive shared with the dictionary-code predicate
compilers); this module keeps the historical import path.
"""


def _lookup_ci(values: Mapping[str, Any], attribute: str) -> Any:
    for key, value in values.items():
        if key.lower() == attribute:
            return value
    return None
