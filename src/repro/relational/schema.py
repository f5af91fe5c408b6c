"""Relation schemas: named, typed attribute lists.

A :class:`RelationSchema` is an ordered list of :class:`Attribute`
definitions with unique, case-insensitive names.  Schemas are immutable;
"modifying" operations (:meth:`RelationSchema.project`,
:meth:`RelationSchema.rename`, :meth:`RelationSchema.extend`) return new
schema objects so that relations can safely share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.types import AttributeType


@dataclass(frozen=True)
class Attribute:
    """A single attribute (column) of a relation."""

    name: str
    type: AttributeType = AttributeType.STRING

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.type, AttributeType):
            raise SchemaError(f"attribute type must be an AttributeType, got {self.type!r}")


class RelationSchema:
    """An immutable, ordered collection of uniquely named attributes."""

    __slots__ = ("name", "_attributes", "_positions")

    def __init__(self, name: str, attributes: Sequence[Attribute | tuple[str, AttributeType] | str]) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        normalized: list[Attribute] = []
        for attr in attributes:
            if isinstance(attr, Attribute):
                normalized.append(attr)
            elif isinstance(attr, tuple):
                normalized.append(Attribute(attr[0], attr[1]))
            elif isinstance(attr, str):
                normalized.append(Attribute(attr, AttributeType.STRING))
            else:
                raise SchemaError(f"cannot interpret {attr!r} as an attribute")
        if not normalized:
            raise SchemaError(f"relation {name!r} must have at least one attribute")

        positions: dict[str, int] = {}
        for index, attr in enumerate(normalized):
            key = attr.name.lower()
            if key in positions:
                raise SchemaError(f"duplicate attribute {attr.name!r} in relation {name!r}")
            positions[key] = index

        self.name = name
        self._attributes = tuple(normalized)
        self._positions = positions

    # -- basic accessors -------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes, in declaration order."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The attribute names, in declaration order."""
        return tuple(attr.name for attr in self._attributes)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, attribute_name: str) -> bool:
        return attribute_name.lower() in self._positions

    def has_attribute(self, attribute_name: str) -> bool:
        """Whether the schema declares *attribute_name* (case-insensitive)."""
        return attribute_name.lower() in self._positions

    def position(self, attribute_name: str) -> int:
        """Return the 0-based position of *attribute_name*.

        Raises :class:`~repro.errors.SchemaError` for unknown attributes.
        """
        key = attribute_name.lower()
        if key not in self._positions:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute_name!r}; "
                f"known attributes: {', '.join(self.attribute_names)}"
            )
        return self._positions[key]

    def attribute(self, attribute_name: str) -> Attribute:
        """Return the :class:`Attribute` named *attribute_name*."""
        return self._attributes[self.position(attribute_name)]

    def canonical_name(self, attribute_name: str) -> str:
        """Return the declared spelling of a (case-insensitively named) attribute."""
        return self._attributes[self.position(attribute_name)].name

    def positions(self, attribute_names: Iterable[str]) -> list[int]:
        """Positions of several attributes, in the order given."""
        return [self.position(name) for name in attribute_names]

    # -- derived schemas -------------------------------------------------

    def renamed_relation(self, new_name: str) -> "RelationSchema":
        """Schema identical to this one but belonging to relation *new_name*."""
        return RelationSchema(new_name, self._attributes)

    def equivalent(self, other: "RelationSchema") -> bool:
        """Attribute-wise equality ignoring the relation name."""
        return self._attributes == other._attributes

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self.name, self._attributes))

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.type.value}" for a in self._attributes)
        return f"RelationSchema({self.name}({cols}))"


def schema(name: str, **columns: AttributeType | str) -> RelationSchema:
    """Convenience constructor: ``schema('r', a=AttributeType.STRING, n='integer')``."""
    attrs = []
    for col_name, col_type in columns.items():
        if isinstance(col_type, str):
            col_type = AttributeType(col_type)
        attrs.append(Attribute(col_name, col_type))
    return RelationSchema(name, attrs)
