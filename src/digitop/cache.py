"""Bounded memo tables keyed by a space's rows.

Contractibility and sphere recognition both recurse through rims and
punctured spaces, and the same small spaces appear over and over, so
results are memoized.  A table is a dict from a space's rows to its
value, and callers pass that rows tuple: the contractibility and
recognition searches hold nothing else (their subspaces are rows, not
spaces).  Equal rows are the same graph on the same
positions, so a lookup costs one tuple hash and runs no canonical
search.  The repeats come under the same labels: recognition meets
every rim of a rebuilt manifold again, and contractibility meets the
same rims and the same deletions (G - u - v is G - v - u) down
different branches.  A relabeled copy of a space the table holds has
other rows, so it misses and is decided again.  Entries keep rows, not
spaces: a stored space would keep its point ids and caches alive.

Tables are capped at CAPACITY rows; on overflow the whole table is
dropped, which keeps the code free of eviction bookkeeping while
bounding memory.
"""

from __future__ import annotations

MISSING = object()

# rows per table before it is dropped
CAPACITY = 200_000

_REGISTRY: list["FormCache"] = []


class FormCache:
    def __init__(self):
        self._table: dict = {}
        _REGISTRY.append(self)

    def get(self, rows: tuple[int, ...]):
        return self._table.get(rows, MISSING)

    def put(self, rows: tuple[int, ...], value) -> None:
        if len(self._table) >= CAPACITY:
            self.clear()
        self._table[rows] = value

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


def clear_all() -> None:
    """Drop every memo table (mainly for tests and benchmarks)."""
    for cache in _REGISTRY:
        cache.clear()
