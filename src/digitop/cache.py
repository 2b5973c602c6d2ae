"""Bounded memo tables keyed by canonical encodings.

Contractibility and sphere recognition both recurse through rims and
punctured spaces, and the same small spaces appear over and over, so
results are memoized under the canonical encoding of the space.  Tables
are capped; on overflow the whole table is dropped, which keeps the
code free of eviction bookkeeping while bounding memory.
"""

from __future__ import annotations

MISSING = object()

# entries per table before it is dropped
CAPACITY = 200_000

_REGISTRY: list["FormCache"] = []


class FormCache:
    def __init__(self):
        self._data: dict = {}
        _REGISTRY.append(self)

    def get(self, key):
        return self._data.get(key, MISSING)

    def put(self, key, value) -> None:
        if len(self._data) >= CAPACITY:
            self._data.clear()
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


def clear_all() -> None:
    """Drop every memo table (mainly for tests and benchmarks)."""
    for cache in _REGISTRY:
        cache.clear()
