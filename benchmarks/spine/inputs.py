"""Inputs of the spine benchmark: the document, the query mix ``Q20``
and the update operation ``U``.

The document is always ``generate_xmark(scale, seed=42)``; the
benchmark's ``--seed`` drives only what the load generator does with it
(query order, Zipf draws, update targets).  The program under test sees
nothing but the generated query strings and fragments.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

from repro.workload import generate_xmark
from repro.workload.queries import (
    LINEAR_PATHS,
    TWIG_QUERIES,
    XMARK_QUERY_SET,
)
from repro.workload.xmark import REGIONS
from repro.xml.serializer import serialize

XMARK_SEED = 42
DOC_URI = "xmark.xml"

#: The read mix every read path uses: 7 linear paths + 6 twigs + 7
#: XMark-class queries.  The list order is the Zipf rank order of
#: ``mixed.inproc`` (rank 1 first) and never depends on the seed, so two
#: seeds draw from the same popularity distribution.
Q20: tuple[str, ...] = (tuple(LINEAR_PATHS.values())
                        + tuple(TWIG_QUERIES.values())
                        + tuple(XMARK_QUERY_SET.values()))

#: ``U`` never targets europe and its ``<item>`` carries attributes
#: only (no ``name``/``payment``/text), so every ``Q20`` answer —
#: values included — is the same before, between and after updates and
#: can be re-checked against the reference at any point of a run.
UPDATE_REGIONS = tuple(r for r in REGIONS if r != "europe")
FRAGMENT_BYTES = 90
SPINE_ITEMS_QUERY = "/site/regions/*/item/spine/@seq"


def xmark_xml(scale: int) -> str:
    return serialize(generate_xmark(scale=scale, seed=XMARK_SEED))


def shuffled_queries(seed: int) -> list[str]:
    """``Q20`` in the seeded order the round-robin loops use."""
    order = list(Q20)
    random.Random(seed).shuffle(order)
    return order


class ZipfQueries:
    """Seeded Zipf(``exponent``) draws over ``Q20`` in rank order."""

    def __init__(self, seed: int, exponent: float = 1.1):
        self._rng = random.Random(seed)
        weights = [1.0 / (rank ** exponent)
                   for rank in range(1, len(Q20) + 1)]
        self._cumulative = list(accumulate(weights))

    def draw(self) -> str:
        point = self._rng.random() * self._cumulative[-1]
        return Q20[bisect_left(self._cumulative, point)]


def fragment(sequence: int) -> str:
    """The ``FRAGMENT_BYTES``-byte ``<item>`` that ``U`` inserts."""
    head = (f'<item id="spine-{sequence:06d}" featured="no">'
            f'<spine seq="{sequence:06d}" pad="')
    tail = '"/></item>'
    return head + "x" * (FRAGMENT_BYTES - len(head) - len(tail)) + tail


class UpdateStream:
    """The update operation ``U`` as a stream of single operations.

    Operation 0 (the *sentinel*, applied during set-up) inserts item 0;
    after it the stream alternates ``insert item k`` and ``delete item
    k-1``, so one or two spine items are live at any time and the
    document stays level.  After an even number of timed operations
    exactly the newest item survives, which is what the durability
    check looks for.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._regions: list[str] = []
        self._next = 0
        self._live: list[tuple[int, str]] = []   # oldest first
        self.inserted_bytes = 0

    def _insert(self) -> tuple:
        sequence = self._next
        self._next += 1
        if not self._regions:
            # Seeded order, but every region once per five inserts: an
            # insert's splice cost depends on how far into the document
            # it lands, and a 6-insert tail must not be all-africa under
            # one seed and all-samerica under the next.
            self._regions = list(UPDATE_REGIONS)
            self._rng.shuffle(self._regions)
        region = self._regions.pop()
        self._live.append((sequence, region))
        text = fragment(sequence)
        self.inserted_bytes += len(text)
        return ("insert", f"/site/regions/{region}", text)

    def sentinel(self) -> tuple:
        return self._insert()

    def next_op(self) -> tuple:
        if len(self._live) < 2:
            return self._insert()
        sequence, region = self._live.pop(0)
        return ("delete", f"/site/regions/{region}"
                          f"/item[@id='spine-{sequence:06d}']")

    def live_sequences(self) -> list[str]:
        """What ``SPINE_ITEMS_QUERY`` must return once every operation
        handed out so far has been applied."""
        return [f"{sequence:06d}"
                for sequence, _ in sorted(self._live,
                                          key=lambda item: item[0])]


def apply_update(database, op: tuple) -> None:
    if op[0] == "insert":
        database.insert(op[1], op[2])
    else:
        database.delete(op[1])
