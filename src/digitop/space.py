"""Finite simple graphs with the vocabulary of digital topology.

A digital space is a finite simple undirected graph whose vertices are
called points.  The induced subgraph on the neighbours of a point v is
its rim O(v); the rim together with v is the ball U(v).  All topology in
this package (contractibility, spheres, manifolds) is defined in terms
of rims, balls and the join construction, so those are first-class
operations here.

DigitalSpace is immutable: every operation returns a new space.  It
holds only its sorted point ids (matching [A-Za-z0-9_]+, found by
bisection), one integer bitmask row per point and a cache.  The row
kernel shared by canon, homotopy, recognition, transform and classify
lives here too: _drop, _gap, _bits, _edges, _reach, _reindex, _induced,
_apex, _clique_counts and _euler, and _run, which runs the canonical and
contractibility searches on an explicit stack.
_induced is the one subspace builder: the searches below the public
API take (rows, mask) and call it only for the subspaces the mask
alone does not decide, and every subspace a DigitalSpace method
returns, a deletion included, is built by it.  The contractibility
search builds none for the levels of a space's chain, its punctures
included, that have more points than its largest degree: they stay
masks over its rows, and chi counts their cliques there (the rule is
in homotopy.py).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .budget import BudgetExceeded

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_FLAGS = bytes.maketrans(b"01", b"\0\1")

# Safety valve for clique enumeration; see _clique_counts.
DEFAULT_CLIQUE_LIMIT = 10_000_000


def _drop(mask: int, i: int) -> int:
    """mask over a space's points, re-indexed for the space without point i."""
    return mask & ((1 << i) - 1) | mask >> (i + 1) << i


def _gap(mask: int, i: int) -> int:
    """Inverse of _drop: mask re-indexed around a new point i, left out."""
    return mask & ((1 << i) - 1) | mask >> i << (i + 1)


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first (point order)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(rows: Sequence[int], start: int, within: int) -> int:
    """Points of within that a path inside within joins to start, a
    subset of within."""
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        reach &= within
        frontier = reach & ~seen
        seen |= reach
    return seen


def _edges(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(i, j), i < j, for each edge of rows, in edge order."""
    for i, row in enumerate(rows):
        for j in _bits(row >> i + 1 << i + 1):
            yield i, j


def _connected(rows: Sequence[int]) -> bool:
    """True for the empty and one-point spaces and for connected graphs."""
    full = (1 << len(rows)) - 1
    return full <= 1 or _reach(rows, 1, full) == full


def _reindex(rows: Sequence[int], order: Sequence[int], within: int) -> list[int]:
    """Rows of order[0], order[1], ... renamed 0, 1, ...; within is the
    mask of order's points."""
    position = {v: p for p, v in enumerate(order)}
    out = []
    for v in order:
        row = rows[v] & within
        new_row = 0
        while row:
            low = row & -row
            new_row |= 1 << position[low.bit_length() - 1]
            row ^= low
        out.append(new_row)
    return out


def _induced(rows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Rows of the subspace induced by mask, its points in order: rows
    itself for the full mask, and rows with one row sliced out, the
    others shifted past it, when one point i is missing."""
    if mask.bit_count() < len(rows) - 1:
        return tuple(_reindex(rows, list(_bits(mask)), mask))
    missing = (1 << len(rows)) - 1 ^ mask
    if not missing:
        return rows
    i = missing.bit_length() - 1
    low = (1 << i) - 1
    return tuple([row & low | row >> (i + 1) << i for row in rows[:i] + rows[i + 1 :]])


def _apex(rows: Sequence[int], within: int, over: int) -> tuple[int, ...]:
    """Rows of the subspace induced by within plus a new first point, an
    apex adjacent to the points of over (a subset of within)."""
    out = [0]
    for p, (v, row) in enumerate(zip(_bits(within), _induced(rows, within))):
        touch = over >> v & 1
        out[0] |= touch << (p + 1)
        out.append(row << 1 | touch)
    return tuple(out)


def _clique_counts(rows: Sequence[int], within: int) -> tuple[int, ...]:
    """Clique counts of the subspace of rows induced by within: entry k
    is the number of (k+1)-cliques.

    Enumerates cliques as increasing index sequences on a stack, so each
    clique is visited once and none needs recursion.  Counting more than
    DEFAULT_CLIQUE_LIMIT cliques raises BudgetExceeded; the cap exists
    because clique counts can grow exponentially.
    """
    counts: list[int] = []
    seen = 0
    stack = [(0, within)] if within else []
    while stack:
        size, cand = stack.pop()
        if size == len(counts):
            counts.append(0)
        found = cand.bit_count()
        counts[size] += found
        seen += found
        if seen > DEFAULT_CLIQUE_LIMIT:
            raise BudgetExceeded(f"clique limit of {DEFAULT_CLIQUE_LIMIT} cliques exceeded")
        while cand:
            low = cand & -cand
            cand ^= low
            grown = cand & rows[low.bit_length() - 1]
            if grown:
                stack.append((size + 1, grown))
    return tuple(counts)


def _euler(rows: Sequence[int], within: int) -> int:
    """Euler characteristic of the clique complex of the subspace of rows
    induced by within."""
    return CliqueVector(_clique_counts(rows, within)).euler_characteristic()


def _run(root):
    """Return value of the root generator, computed on an explicit stack,
    not by recursion: each generator yields the generator of a subproblem,
    is resumed with that subproblem's value, and returns its own."""
    stack = [root]
    value = None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


def is_valid_point_id(point_id: object) -> bool:
    """True if point_id is a nonempty string over [A-Za-z0-9_]."""
    return isinstance(point_id, str) and bool(_ID_RE.match(point_id))


@dataclass(frozen=True)
class CliqueVector:
    """Clique counts of a space: counts[k] is the number of (k+1)-cliques."""

    counts: tuple[int, ...]

    def euler_characteristic(self) -> int:
        # Alternating sum over the clique complex: f0 - f1 + f2 - ...
        return sum(self.counts[::2]) - sum(self.counts[1::2])


class DigitalSpace:
    """An immutable finite simple graph with named points."""

    __slots__ = ("_ids", "_rows", "_cache")

    def __init__(
        self,
        points: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        ids: list[str] = []
        seen: set[str] = set()
        for pid in points:
            if not is_valid_point_id(pid):
                raise ValueError(f"invalid point id: {pid!r}")
            if pid in seen:
                raise ValueError(f"duplicate point id: {pid!r}")
            seen.add(pid)
            ids.append(pid)
        ids.sort()
        index = {pid: i for i, pid in enumerate(ids)}
        rows = [0] * len(ids)
        for p, q in edges:
            if p not in index:
                raise ValueError(f"edge endpoint is not a point: {p!r}")
            if q not in index:
                raise ValueError(f"edge endpoint is not a point: {q!r}")
            if p == q:
                raise ValueError(f"self-loop at {p!r}")
            i, j = index[p], index[q]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        self._ids = tuple(ids)
        self._rows = tuple(rows)
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_rows(cls, ids: Sequence[str], rows: Sequence[int]) -> "DigitalSpace":
        """Internal: build from presorted ids and bitmask rows, unchecked."""
        space = cls.__new__(cls)
        space._ids = tuple(ids)
        space._rows = tuple(rows)
        space._cache = {}
        return space

    # -- basic queries -------------------------------------------------------

    @property
    def points(self) -> tuple[str, ...]:
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __contains__(self, point_id: object) -> bool:
        return self._find(point_id) >= 0

    def adjacent(self, p: str, q: str) -> bool:
        i = self._require(p)
        j = self._require(q)
        return bool(self._rows[i] >> j & 1)

    def neighbors(self, p: str) -> tuple[str, ...]:
        row = self._rows[self._require(p)]
        return self._ids_of(row)

    def degree(self, p: str) -> int:
        return self._rows[self._require(p)].bit_count()

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((self._ids[i], self._ids[j]) for i, j in _edges(self._rows))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigitalSpace):
            return NotImplemented
        return self._ids == other._ids and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._ids, self._rows))

    def __repr__(self) -> str:
        return (
            f"DigitalSpace(points={len(self._ids)}, edges={self.edge_count})"
        )

    # -- internal bit plumbing ----------------------------------------------

    def _find(self, point_id: object) -> int:
        """Index of point_id, or -1 when it is not a point."""
        i = bisect_left(self._ids, point_id) if isinstance(point_id, str) else 0
        return i if i < len(self._ids) and self._ids[i] == point_id else -1

    def _require(self, point_id: str) -> int:
        i = self._find(point_id)
        if i < 0:
            raise ValueError(f"no such point: {point_id!r}")
        return i

    def _ids_of(self, mask: int) -> tuple[str, ...]:
        # character i of bin(mask)[:1:-1] is bit i of mask; _FLAGS makes it
        # a 0 or 1 byte for compress, which picks the ids in C, so a dense
        # mask costs about as little as a sparse one
        return tuple(compress(self._ids, bin(mask)[:1:-1].encode().translate(_FLAGS)))

    def _mask_of(self, point_ids: Iterable[str]) -> int:
        mask = 0
        for pid in point_ids:
            mask |= 1 << self._require(pid)
        return mask

    def _induced_by_mask(self, mask: int) -> "DigitalSpace":
        return DigitalSpace._from_rows(self._ids_of(mask), _induced(self._rows, mask))

    # -- subspaces and digital neighbourhoods ---------------------------------

    def induced_subspace(self, point_ids: Iterable[str]) -> "DigitalSpace":
        """Subspace induced by the given points (each must exist)."""
        return self._induced_by_mask(self._mask_of(point_ids))

    def delete_points(self, point_ids: Iterable[str]) -> "DigitalSpace":
        """Space with the given points (and incident edges) removed."""
        full = (1 << len(self._ids)) - 1
        return self._induced_by_mask(full & ~self._mask_of(point_ids))

    def rim(self, p: str) -> "DigitalSpace":
        """O(p): the subspace induced by the neighbours of p."""
        return self._induced_by_mask(self._rows[self._require(p)])

    def ball(self, p: str) -> "DigitalSpace":
        """U(p): the subspace induced by p together with its neighbours."""
        i = self._require(p)
        return self._induced_by_mask(self._rows[i] | (1 << i))

    def joint_rim(self, p: str, q: str) -> "DigitalSpace":
        """O(pq): the subspace induced by the common neighbours of p and q."""
        i = self._require(p)
        j = self._require(q)
        if i == j:
            raise ValueError(f"joint rim needs two distinct points: {p!r}")
        return self._induced_by_mask(self._rows[i] & self._rows[j])

    # -- edits (all return new spaces) ----------------------------------------

    def add_point(self, point_id: str, neighbors: Iterable[str] = ()) -> "DigitalSpace":
        if not is_valid_point_id(point_id):
            raise ValueError(f"invalid point id: {point_id!r}")
        if point_id in self:
            raise ValueError(f"point already present: {point_id!r}")
        nbr_mask = self._mask_of(neighbors)
        pos = bisect_left(self._ids, point_id)
        rows = [
            _gap(row, pos) | (nbr_mask >> i & 1) << pos
            for i, row in enumerate(self._rows)
        ]
        rows.insert(pos, _gap(nbr_mask, pos))
        ids = self._ids[:pos] + (point_id,) + self._ids[pos:]
        return DigitalSpace._from_rows(ids, rows)

    def add_edge(self, p: str, q: str) -> "DigitalSpace":
        i = self._require(p)
        j = self._require(q)
        if i == j:
            raise ValueError(f"self-loop at {p!r}")
        if self._rows[i] >> j & 1:
            raise ValueError(f"edge already present: {p!r} -- {q!r}")
        rows = list(self._rows)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        return DigitalSpace._from_rows(self._ids, rows)

    def remove_edge(self, p: str, q: str) -> "DigitalSpace":
        i = self._require(p)
        j = self._require(q)
        if not (self._rows[i] >> j & 1):
            raise ValueError(f"no such edge: {p!r} -- {q!r}")
        rows = list(self._rows)
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
        return DigitalSpace._from_rows(self._ids, rows)

    def relabeled(self, mapping: dict[str, str]) -> "DigitalSpace":
        """Space with ids renamed by a total injective mapping."""
        new_ids = {}
        for pid in self._ids:
            if pid not in mapping:
                raise ValueError(f"mapping misses point {pid!r}")
            new_ids[pid] = mapping[pid]
        if len(set(new_ids.values())) != len(new_ids):
            raise ValueError("mapping is not injective")
        points = list(new_ids.values())
        edges = [(new_ids[p], new_ids[q]) for p, q in self.edges]
        return DigitalSpace(points, edges)

    def prefixed(self, prefix: str) -> "DigitalSpace":
        """Space with every id prefixed; handy before joins and sums."""
        return self.relabeled({pid: prefix + pid for pid in self._ids})

    def fresh_id(self, stem: str = "z") -> str:
        """Smallest stem<k> id not already used by this space; the stem
        must match [A-Za-z0-9_]*, so the id is a valid point id."""
        if stem and not is_valid_point_id(stem):
            raise ValueError(f"invalid id stem: {stem!r}")
        k = 0
        while f"{stem}{k}" in self:
            k += 1
        return f"{stem}{k}"

    # -- global structure ------------------------------------------------------

    def is_connected(self) -> bool:
        """True for the empty and one-point spaces and for connected graphs."""
        return _connected(self._rows)

    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        unvisited = full = (1 << len(self._ids)) - 1
        comps = []
        while unvisited:
            seen = _reach(self._rows, unvisited & -unvisited, full)
            comps.append(self._ids_of(seen))
            unvisited &= ~seen
        return tuple(comps)

    def dominating_point(self) -> str | None:
        """A point adjacent to every other point, if one exists."""
        n = len(self._ids)
        full = (1 << n) - 1
        for i, row in enumerate(self._rows):
            if row | (1 << i) == full:
                return self._ids[i]
        return None

    # -- clique complex ----------------------------------------------------------

    def clique_vector(self) -> CliqueVector:
        """Count cliques of every size (see _clique_counts), once per space."""
        if "cliques" not in self._cache:
            full = (1 << len(self._rows)) - 1
            self._cache["cliques"] = CliqueVector(_clique_counts(self._rows, full))
        return self._cache["cliques"]

    def euler_characteristic(self) -> int:
        """Euler characteristic of the clique complex of this space."""
        return self.clique_vector().euler_characteristic()


def join(left: DigitalSpace, right: DigitalSpace) -> DigitalSpace:
    """Join of two spaces: disjoint points, every cross pair adjacent.

    Point ids must not collide; use prefixed() to separate them first.
    """
    overlap = set(left.points) & set(right.points)
    if overlap:
        raise ValueError(f"join requires disjoint ids; shared: {sorted(overlap)}")
    points = list(left.points) + list(right.points)
    edges = list(left.edges) + list(right.edges)
    edges.extend((p, q) for p in left.points for q in right.points)
    return DigitalSpace(points, edges)
