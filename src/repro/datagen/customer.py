"""Synthetic customer data, matching the running example of the CFD papers.

The generator builds a *world*: a set of UK and US locations, each with a
fixed (zip, street, city, area-code) combination, consistent with the
canonical CFD set below.  Tuples are drawn by picking a location and a
fresh phone number, so the clean relation satisfies every canonical CFD by
construction; noise is added separately by :mod:`repro.datagen.noise`.

Canonical CFDs (also returned by :meth:`CustomerGenerator.canonical_cfds`):

* ``customer([cc='44', zip] -> [street])`` — in the UK, zip determines street;
* ``customer([cc='44', zip] -> [city])``
* ``customer([cc='01', zip] -> [street])``
* ``customer([cc='01', ac] -> [city])`` — in the US, area code determines city;
* ``customer([cc='01', ac='908'] -> [city='mh'])`` — the constant pattern of
  the tutorial's second example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.constraints.cfd import CFD
from repro.constraints.parse import parse_cfd
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType

CUSTOMER_SCHEMA = RelationSchema("customer", [
    Attribute("cc", AttributeType.STRING),
    Attribute("ac", AttributeType.STRING),
    Attribute("phn", AttributeType.STRING),
    Attribute("name", AttributeType.STRING),
    Attribute("street", AttributeType.STRING),
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
])

_UK_CITIES = ["edi", "ldn", "gla", "abd", "dun"]
_US_CITIES = ["mh", "nyc", "chi", "sfo", "bos"]
_STREET_WORDS = ["main", "high", "mayfield", "crichton", "mountain", "oak", "elm",
                 "church", "mill", "park", "station", "bridge", "north", "south"]
_FIRST_NAMES = ["mike", "rick", "joe", "mary", "anna", "bob", "sue", "tom", "jane", "li"]
_LAST_NAMES = ["smith", "brady", "luth", "doe", "jones", "brown", "davis", "clark",
               "lewis", "walker"]


@dataclass(frozen=True)
class _Location:
    """One consistent (cc, ac, city, zip, street) combination of the world."""

    cc: str
    ac: str
    city: str
    zip: str
    street: str


class CustomerGenerator:
    """Generates clean customer relations of a requested size."""

    def __init__(self, seed: int = 7, locations: int = 60) -> None:
        self._random = random.Random(seed)
        self._locations = self._build_world(max(locations, 4))

    # -- world construction --------------------------------------------------

    def _build_world(self, count: int) -> list[_Location]:
        locations: list[_Location] = []
        # the tutorial's US example: area code 908 is Murray Hill ('mh')
        locations.append(_Location("01", "908", "mh", "07974",
                                   "mountain ave"))
        locations.append(_Location("44", "131", "edi", "EH8 9AB", "mayfield road"))
        while len(locations) < count:
            index = len(locations)
            if index % 2 == 0:
                city = _US_CITIES[index % len(_US_CITIES)]
                ac = str(200 + index)
                zip_code = f"{10000 + index * 7}"
                cc = "01"
            else:
                city = _UK_CITIES[index % len(_UK_CITIES)]
                ac = str(100 + index)
                zip_code = f"EH{index} {index % 9}XY"
                cc = "44"
            street = (f"{self._random.choice(_STREET_WORDS)} "
                      f"{self._random.choice(['st', 'ave', 'road', 'lane'])} {index}")
            locations.append(_Location(cc, ac, city, zip_code, street))
        return locations

    # -- generation --------------------------------------------------------------

    def generate(self, tuple_count: int, name: str = "customer") -> Relation:
        """A clean customer relation with *tuple_count* tuples."""
        return Relation.from_rows(CUSTOMER_SCHEMA.renamed_relation(name),
                                  self._rows(tuple_count))

    def _rows(self, tuple_count: int) -> Iterator[tuple[str, ...]]:
        """The tuples, in :data:`CUSTOMER_SCHEMA` order, drawn as they are read."""
        choice = self._random.choice
        for index in range(tuple_count):
            location = choice(self._locations)
            person = f"{choice(_FIRST_NAMES)} {choice(_LAST_NAMES)}"
            yield (location.cc, location.ac, f"{5550000 + index}", person,
                   location.street, location.city, location.zip)

    # -- constraints ------------------------------------------------------------------

    @staticmethod
    def canonical_cfds() -> list[CFD]:
        """The CFD set the clean data satisfies by construction."""
        return [
            parse_cfd("customer([cc='44', zip] -> [street])", name="uk_zip_street"),
            parse_cfd("customer([cc='44', zip] -> [city])", name="uk_zip_city"),
            parse_cfd("customer([cc='01', zip] -> [street])", name="us_zip_street"),
            parse_cfd("customer([cc='01', ac] -> [city])", name="us_ac_city"),
            parse_cfd("customer([cc='01', ac='908'] -> [city='mh'])", name="us_908_mh"),
        ]

    @staticmethod
    def extended_cfds(extra_patterns: int, seed: int = 11) -> list[CFD]:
        """A larger CFD set: the embedded FD ``(cc, zip) → street`` with many
        constant zip patterns — the workload of the tableau-size experiment E2."""
        generator = CustomerGenerator(seed=seed)
        cfds = []
        for index, location in enumerate(generator._locations[:extra_patterns]):
            cfds.append(CFD.single(
                "customer", ["cc", "zip"], ["street"],
                {"cc": location.cc, "zip": location.zip},
                name=f"zip_pattern_{index}"))
        return cfds

    def locations(self) -> list[_Location]:
        """The world's locations (used by tests and the noise injector)."""
        return list(self._locations)
