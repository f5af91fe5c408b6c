"""Synthetic book / CD order data for the CIND experiments.

The tutorial's CIND example relates CD orders to book orders: every CD
whose genre is ``a-book`` (an audio book) must have a matching ``book``
tuple with the same title and price and format ``audio``.  The generator
builds a catalog of titles, emits a ``book`` relation covering the audio
books, and a ``cd`` relation referencing them; a ``violation_rate``
fraction of the audio-book CDs is left *without* a proper book partner so
that detection workloads of a known size can be produced.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from repro.constraints.cind import CIND
from repro.constraints.parse import parse_cind
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType

CD_SCHEMA = RelationSchema("cd", [
    Attribute("album", AttributeType.STRING),
    Attribute("price", AttributeType.STRING),
    Attribute("genre", AttributeType.STRING),
])

BOOK_SCHEMA = RelationSchema("book", [
    Attribute("title", AttributeType.STRING),
    Attribute("price", AttributeType.STRING),
    Attribute("format", AttributeType.STRING),
])

_GENRES = ["rock", "jazz", "classical", "pop", "folk"]
_WORDS = ["winter", "river", "shadow", "light", "garden", "stone", "echo", "silver",
          "journey", "harbor", "meadow", "ember", "willow", "summit", "quiet"]
#: CDs drawn before their rows are coded: bounds the rows held at once
_CHUNK = 1024


class OrdersGenerator:
    """Generates (cd, book) databases with a controllable CIND violation rate."""

    def __init__(self, seed: int = 23, catalog_size: int = 200) -> None:
        self._random = random.Random(seed)
        self._catalog = [
            f"{self._random.choice(_WORDS)} {self._random.choice(_WORDS)} {index}"
            for index in range(catalog_size)
        ]

    def generate(self, cd_count: int, violation_rate: float = 0.05,
                 audio_fraction: float = 0.4) -> tuple[Database, int]:
        """Build a database with *cd_count* CD tuples.

        Returns ``(database, expected_violations)`` where the second
        component is the number of audio-book CDs intentionally left
        without a matching book tuple.
        """
        database = Database("orders")
        books = Relation(BOOK_SCHEMA)
        cds = Relation(CD_SCHEMA)

        expected_violations = 0
        orders = self._orders(cd_count, violation_rate, audio_fraction)
        while chunk := list(islice(orders, _CHUNK)):
            cds.insert_many(cd for cd, _book, _violated in chunk)
            books.insert_many(book for _cd, book, _violated in chunk if book is not None)
            expected_violations += sum(violated for _cd, _book, violated in chunk)

        # add unrelated print books as background noise
        books.insert_many(self._print_books(cd_count // 4))

        database.add(cds)
        database.add(books)
        return database, expected_violations

    def _orders(self, cd_count: int, violation_rate: float, audio_fraction: float,
                ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...] | None, bool]]:
        """Per CD: its row, its book's row (or None) and whether it breaks the CIND."""
        rng = self._random
        covered_titles: set[str] = set()
        for index in range(cd_count):
            # titles are made unique per CD so the expected violation count is exact
            title = f"{rng.choice(self._catalog)} #{index}"
            price = str(rng.randrange(5, 40))
            is_audio_book = rng.random() < audio_fraction
            if not is_audio_book:
                yield (title, price, rng.choice(_GENRES)), None, False
                continue
            cd = (title, price, "a-book")
            violate = rng.random() < violation_rate
            if violate:
                # either omit the book entirely or give it the wrong format
                if rng.random() < 0.5 and title not in covered_titles:
                    yield cd, (title, price, "hardcover"), True
                else:
                    yield cd, None, True
                continue
            covered_titles.add(title)
            yield cd, (title, price, "audio"), False

    def _print_books(self, count: int) -> Iterator[tuple[str, ...]]:
        """Book rows unrelated to any CD, drawn as they are read."""
        rng = self._random
        for _ in range(count):
            yield (rng.choice(self._catalog), str(rng.randrange(5, 40)),
                   rng.choice(["paperback", "hardcover"]))

    @staticmethod
    def canonical_cind() -> CIND:
        """The tutorial's CIND over the generated schema."""
        return parse_cind(
            "cd(album, price; genre='a-book') SUBSET book(title, price; format='audio')",
            name="audio_books")
