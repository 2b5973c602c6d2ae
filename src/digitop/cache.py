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

One table of homotopy is keyed otherwise (the rule and its proof are in
homotopy.py).  _LEVELS maps the rows of a top, a space whose chain was
searched (a space is_contractible was asked about, a sphere whose
punctures were tested, a witness's input), to a plain dict from the
mask of a long level's surviving points, over the top's rows, to its
verdict.  A top has a dict once its chain decides such a level, and a
space with equal rows shares it.  clear_all drops it with the rest.

Tables are capped at CAPACITY keys; on overflow the whole table is
dropped, which keeps the code free of eviction bookkeeping while
bounding memory.  A top's dict in _LEVELS is capped at CAPACITY masks
the same way, so _LEVELS holds at most CAPACITY tops of at most
CAPACITY masks each.
"""

from __future__ import annotations

MISSING = object()

# keys per table, or masks per top's dict, before it is dropped
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
