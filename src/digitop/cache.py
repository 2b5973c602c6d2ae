"""Bounded memo tables keyed by isomorphism class.

Contractibility and sphere recognition both recurse through rims and
punctured spaces, and the same small spaces appear over and over, so
results are memoized per isomorphism class of the space.

A canonical form is the exact key, but it is also the expensive part of
a lookup, and most spaces a search meets (every level of a deletion
chain, say) are never met again.  So entries are bucketed by a cheap
invariant, the sorted degree sequence (which also fixes the point
count).  A lookup whose bucket is empty is a miss with no canonization.
An entry is stored as its space's rows, under its encoding when the
space was already canonized, and is canonized lazily the first time a
lookup lands in its bucket.  A lookup canonizes its own space once and
reuses that encoding for an entry with equal rows, so asking about the
same space twice costs one search.  Entries keep rows, not spaces: a
stored space would keep its index and caches alive.  Equal encodings
mean isomorphic spaces, so hits and misses are exactly those of a table
keyed by encoding.

Tables are capped; on overflow the whole table is dropped, which keeps
the code free of eviction bookkeeping while bounding memory.
"""

from __future__ import annotations

from .canon import canonical_encoding_rows, canonical_form

MISSING = object()

# entries per table before it is dropped
CAPACITY = 200_000

_REGISTRY: list["FormCache"] = []


def _invariant(space) -> tuple[int, ...]:
    invariant = space._cache.get("degrees")
    if invariant is None:
        invariant = space._cache["degrees"] = tuple(
            sorted(map(int.bit_count, space._rows))
        )
    return invariant


class FormCache:
    def __init__(self):
        # invariant -> (rows of entries not yet canonized, {encoding: value})
        self._buckets: dict = {}
        self._size = 0
        _REGISTRY.append(self)

    def get(self, space):
        bucket = self._buckets.get(_invariant(space))
        if bucket is None:
            return MISSING
        pending, known = bucket
        encoding = canonical_form(space).encoding
        for rows, value in pending:
            known[encoding if rows == space._rows else canonical_encoding_rows(rows)] = value
        pending.clear()
        return known.get(encoding, MISSING)

    def put(self, space, value) -> None:
        if self._size >= CAPACITY:
            self.clear()
        pending, known = self._buckets.setdefault(_invariant(space), ([], {}))
        form = space._cache.get("canonical_form")
        if form is None:
            pending.append((space._rows, value))
        else:
            known[form.encoding] = value
        self._size += 1

    def clear(self) -> None:
        self._buckets.clear()
        self._size = 0

    def __len__(self) -> int:
        return self._size


def clear_all() -> None:
    """Drop every memo table (mainly for tests and benchmarks)."""
    for cache in _REGISTRY:
        cache.clear()
