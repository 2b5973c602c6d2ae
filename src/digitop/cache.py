"""Bounded memo tables keyed by isomorphism class.

Contractibility and sphere recognition both recurse through rims and
punctured spaces, and the same small spaces appear over and over, so
results are memoized per isomorphism class of the space.

A lookup first tries the exact tier: a dict from a space's rows to its
value.  Equal rows are the same graph on the same positions, so this
answers a space the table has already seen, under the same labels,
with one tuple hash and no canonization.  Recognition meets the same
labeled rims again and again (every rim of a rebuilt manifold, say),
so most hits land here.

A canonical form is the exact key across relabelings, but it is also
the expensive part of a lookup, and most spaces a search meets (every
level of a deletion chain, say) are never met again.  So entries are
also bucketed by a cheap invariant, the sorted degree sequence (which
fixes the point count).  A lookup that misses the exact tier and whose
bucket is empty is a miss with no canonization.  An entry goes into
its bucket under its encoding when its space was already canonized,
and otherwise as rows, canonized lazily the first time a lookup lands
in the bucket.  A bucket hit also records the looked-up rows in the
exact tier.  Entries keep rows, not spaces: a stored space would keep
its point ids and caches alive.  Equal rows and equal encodings both mean
isomorphic spaces, so hits and misses are exactly those of a table
keyed by encoding.

get_exact and put_exact use the exact tier alone.  They are for values
that are cheap to recompute without a canonical search: recognition
keeps there every verdict its rims decide (not a closed manifold, or a
cycle).  Such an entry sits in no bucket, so it never makes a later
lookup canonize, and it is found again only under the same rows.

Tables are capped at CAPACITY rows in the exact tier, which holds every
entry; on overflow the whole table is dropped, which keeps the code
free of eviction bookkeeping while bounding memory.
"""

from __future__ import annotations

from .canon import canonical_encoding_rows, canonical_form

MISSING = object()

# rows per table before it is dropped
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
        # rows -> value, for every entry and every bucket hit
        self._exact: dict = {}
        # invariant -> (rows of entries not yet canonized, {encoding: value})
        self._buckets: dict = {}
        _REGISTRY.append(self)

    def get(self, space):
        value = self._exact.get(space._rows, MISSING)
        if value is not MISSING:
            return value
        bucket = self._buckets.get(_invariant(space))
        if bucket is None:
            return MISSING
        pending, known = bucket
        for rows in pending:
            known[canonical_encoding_rows(rows)] = self._exact[rows]
        pending.clear()
        value = known.get(canonical_form(space).encoding, MISSING)
        if value is not MISSING:
            self._record(space._rows, value)
        return value

    def get_exact(self, space):
        """The exact tier alone: never canonizes."""
        return self._exact.get(space._rows, MISSING)

    def put_exact(self, space, value) -> None:
        """Record under these rows only, in no bucket, so the entry never
        makes a later lookup canonize."""
        self._record(space._rows, value)

    def put(self, space, value) -> None:
        self._record(space._rows, value)
        pending, known = self._buckets.setdefault(_invariant(space), ([], {}))
        form = space._cache.get("canonical_form")
        if form is None:
            pending.append(space._rows)
        else:
            known[form.encoding] = value

    def _record(self, rows, value) -> None:
        if len(self._exact) >= CAPACITY:
            self.clear()
        self._exact[rows] = value

    def clear(self) -> None:
        self._exact.clear()
        self._buckets.clear()

    def __len__(self) -> int:
        return len(self._exact)


def clear_all() -> None:
    """Drop every memo table (mainly for tests and benchmarks)."""
    for cache in _REGISTRY:
        cache.clear()
