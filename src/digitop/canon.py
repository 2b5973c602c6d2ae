"""Canonical labeling, isomorphism tests and point orbits.

The algorithm is the usual individualization-refinement search: refine
an ordered partition of the points until it is equitable, individualize
one point of the first smallest non-singleton cell, and search each such
child depth first, each node a generator that space._run drives on an
explicit stack; the canonical form is the lexicographically smallest
adjacency encoding over all discrete partitions reached.

Refinement works from a queue of splitter cells, in the style of
nauty/Traces (McKay & Piperno, "Practical graph isomorphism, II",
J. Symb. Comput. 60, 2014).  A cell is named by its start position,
which splitting never moves.  Taking a splitter S off the queue splits
every cell by the number of neighbours its points have in S, fragments
ordered by that number.  A split cell that was queued queues all its
fragments; one that was not leaves off its largest fragment (the first
on a tie), whose counts follow from the others.  The root queues every
cell; a child only the point just individualized, because its parent
partition was already equitable.  Every decision reads positions and
counts, never point labels, so the result is a canonical form.

Two standard prunes keep the highly symmetric spaces in this library
(minimal spheres, toroidal grids) tractable:

* automorphisms discovered at equal-encoding leaves merge candidate
  points into orbits, and only one candidate per orbit is expanded; each
  search node keeps one union-find and folds in only the automorphisms
  found since it last looked, and only the points they move;
* when a new automorphism is found, the search backjumps to the deepest
  node shared by the two leaf paths, because the rest of the current
  subtree is an automorphic image of an already explored one.

Encodings are plain bytes (point count plus adjacency rows under the
canonical order), so equal encodings mean isomorphic spaces and can be
used directly as memoization keys.

The generators collected during one search need not generate the full
automorphism group; orbits computed from them (_orbits) are sound
(points in one orbit really are interchangeable) which is all the
callers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .space import DigitalSpace, _reindex, _run


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical encoding plus the relabeling that produced it.

    relabeling[p] is the original point id placed at canonical position
    p; equal encodings therefore yield an explicit isomorphism.
    """

    encoding: bytes
    relabeling: tuple[str, ...]


# -- partition refinement -----------------------------------------------------


def _refine(rows: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Refine an ordered partition in place until it is equitable.

    cells[s] is the bitmask of the cell starting at position s, and 0 at
    every other position.  queue holds the starts of the splitter cells;
    every cell must already see each cell not on it equally.
    """
    n = len(cells)
    # built at the first splitter that reaches any point: a splitter with
    # no neighbours splits nothing, so a search that individualizes points
    # of an edgeless cell never pays for the index
    cell_of: list[int] | None = None
    count = 0
    queued = set(queue)
    queue = list(queue)
    head = 0
    while head < len(queue) and count < n:
        s = queue[head]
        head += 1
        queued.discard(s)
        splitter = cells[s]
        reach = 0
        m = splitter
        while m:
            low = m & -m
            reach |= rows[low.bit_length() - 1]
            m ^= low
        if not reach:
            continue
        if cell_of is None:
            cell_of = [0] * n
            for start, mask in enumerate(cells):
                if mask:
                    count += 1
                    while mask:
                        low = mask & -mask
                        cell_of[low.bit_length() - 1] = start
                        mask ^= low
            if count == n:
                break
        # neighbours of the splitter by cell, then by their count in it
        hits: dict[int, dict[int, int]] = {}
        m = reach
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = cell_of[u]
            if cells[c] == low:
                continue
            k = (rows[u] & splitter).bit_count()
            by_count = hits.get(c)
            if by_count is None:
                hits[c] = {k: low}
            else:
                by_count[k] = by_count.get(k, 0) | low
        for c in sorted(hits):
            by_count = hits[c]
            rest = cells[c] & ~reach
            if not rest and len(by_count) == 1:
                continue
            fragments = [rest] if rest else []
            fragments.extend(by_count[k] for k in sorted(by_count))
            sizes = [f.bit_count() for f in fragments]
            largest = sizes.index(max(sizes))
            was_queued = c in queued
            pos = c
            for i, fragment in enumerate(fragments):
                cells[pos] = fragment
                if i:
                    while fragment:
                        low = fragment & -fragment
                        cell_of[low.bit_length() - 1] = pos
                        fragment ^= low
                if (was_queued or i != largest) and pos not in queued:
                    queued.add(pos)
                    queue.append(pos)
                pos += sizes[i]
            count += len(fragments) - 1
    return cells


class _Orbits:
    """Union-find over the points, merged along automorphisms."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(self, pairs) -> None:
        """Merge v with w for each (v, w), as enumerate(generator) gives."""
        for v, w in pairs:
            a, b = self.find(v), self.find(w)
            if a != b:
                self.parent[a] = b


# -- the search ---------------------------------------------------------------


class _Search:
    def __init__(self, rows: Sequence[int]):
        self.rows = tuple(rows)
        self.n = len(rows)
        self.best_encoding: list[int] | None = None
        self.best_order: tuple[int, ...] | None = None
        self.best_path: tuple[int, ...] = ()
        self.generators: list[tuple[int, ...]] = []
        # per generator: the bitmask of the points it moves, and its moves
        self.moves: list[tuple[int, list[tuple[int, int]]]] = []

    def run(self) -> None:
        if self.n:
            cells = [0] * self.n
            cells[0] = (1 << self.n) - 1
            _run(self._node(_refine(self.rows, cells, [0]), (), 0))

    def _target(self, cells: list[int], start: int) -> tuple[int, int]:
        """Starts of the first smallest and of the first non-singleton cell,
        or -1 twice; every position before start holds a singleton."""
        target = first = -1
        target_size = 0
        s = start
        while s < self.n:
            size = cells[s].bit_count()
            if size > 1:
                if first < 0:
                    first = s
                if target < 0 or size < target_size:
                    target = s
                    target_size = size
            s += size
        return target, first

    def _node(self, cells: list[int], path: tuple[int, ...], start: int):
        """Search one node and return a backjump depth or None.  A leaf
        decides at once; an inner node yields each child's _node and
        receives its result.

        Children refine this partition, so the singletons before its
        first non-singleton cell stay singletons in every child.
        """
        target, start = self._target(cells, start)
        if target < 0:
            return self._leaf(cells, path)
        cell = cells[target]
        orbits = None
        folded = 0
        tried: list[int] = []
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if tried:
                if orbits is None:
                    orbits = _Orbits(self.n)
                    on_path = sum(1 << p for p in path)
                for moved, pairs in self.moves[folded:]:
                    if not moved & on_path:
                        orbits.merge(pairs)
                folded = len(self.moves)
                root = orbits.find(v)
                if any(orbits.find(u) == root for u in tried):
                    continue
            child = cells.copy()
            child[target] = low
            child[target + 1] = cell ^ low
            _refine(self.rows, child, [target])
            result = yield self._node(child, path + (v,), start)
            tried.append(v)
            if result is not None:
                if result < len(path):
                    return result
                # backjump landed here: drop the rest of v's subtree, go on
        return None

    def _leaf(self, cells: list[int], path: tuple[int, ...]) -> int | None:
        order = tuple(cell.bit_length() - 1 for cell in cells)
        encoding = _reindex(self.rows, order, (1 << self.n) - 1)
        if self.best_encoding is None or encoding < self.best_encoding:
            self.best_encoding = encoding
            self.best_order = order
            self.best_path = path
            return None
        if encoding == self.best_encoding:
            assert self.best_order is not None
            perm = [0] * self.n
            for p in range(self.n):
                perm[self.best_order[p]] = order[p]
            self.generators.append(tuple(perm))
            pairs = [(v, w) for v, w in enumerate(perm) if v != w]
            self.moves.append((sum(1 << v for v, _ in pairs), pairs))
            # deepest position where this path agrees with the best leaf's
            depth = 0
            limit = min(len(path), len(self.best_path))
            while depth < limit and path[depth] == self.best_path[depth]:
                depth += 1
            return depth
        return None


def _canonical(
    rows: Sequence[int],
) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The one canonical search: (encoding, canonical order, automorphisms).

    order[p] is the row placed at canonical position p; the automorphisms
    are permutations of row indices found along the way.
    """
    search = _Search(rows)
    search.run()
    n = search.n
    width = (n + 7) // 8
    parts = [n.to_bytes(2, "big")]
    parts.extend(row.to_bytes(width, "big") for row in search.best_encoding or ())
    return b"".join(parts), search.best_order or (), tuple(search.generators)


def canonical_encoding_rows(rows: Sequence[int]) -> bytes:
    """Canonical encoding of a graph given as bitmask adjacency rows."""
    return _canonical(rows)[0]


# -- public API on spaces -------------------------------------------------------


def canonical_form(space: DigitalSpace) -> CanonicalForm:
    """Canonical form of a space; equal encodings mean isomorphic spaces."""
    cached = space._cache.get("canonical_form")
    if cached is not None:
        return cached
    encoding, order, _ = _canonical(space._rows)
    form = CanonicalForm(encoding, tuple(space.points[v] for v in order))
    space._cache["canonical_form"] = form
    return form


def _orbits(n: int, generators) -> tuple[tuple[int, ...], ...]:
    """Orbits of the points 0..n-1 under the group the generators (point
    permutations) generate, each in point order, ordered by first point."""
    orbits = _Orbits(n)
    for gen in generators:
        orbits.merge(enumerate(gen))
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(orbits.find(v), []).append(v)
    return tuple(sorted(tuple(members) for members in groups.values()))


def point_orbits(space: DigitalSpace) -> tuple[tuple[str, ...], ...]:
    """Groups of points interchangeable under discovered automorphisms.

    Orbits come from the generators found during the canonical search,
    which may generate a proper subgroup; the grouping is always sound,
    possibly finer than the true orbit partition.  Each call runs that
    search: nothing is kept with the space.
    """
    generators = _canonical(space._rows)[2]
    return tuple(
        tuple(space.points[v] for v in orbit) for orbit in _orbits(len(space), generators)
    )


def are_isomorphic(left: DigitalSpace, right: DigitalSpace) -> bool:
    return canonical_form(left).encoding == canonical_form(right).encoding


def isomorphism(left: DigitalSpace, right: DigitalSpace) -> dict[str, str] | None:
    """An explicit isomorphism (point map) if the spaces are isomorphic."""
    a = canonical_form(left)
    b = canonical_form(right)
    if a.encoding != b.encoding:
        return None
    return {a.relabeling[p]: b.relabeling[p] for p in range(len(a.relabeling))}
