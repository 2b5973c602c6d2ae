"""Slow, independent oracles and small graph builders shared by the suites.

Everything here recomputes results from first principles (brute force
over combinations, literal recursion over the definition) so the fast
library implementations have something honest to disagree with.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import digitop
from digitop import canon
from digitop import (
    DigitalSpace,
    NotSimpleError,
    delete_simple_edge,
    delete_simple_point,
    is_contractible,
)
from digitop.budget import Budget, ensure_budget
from digitop.cache import MISSING
from digitop.canon import (
    _Orbits,
    _refine,
    _Search,
    canonical_encoding_rows,
    canonical_form,
    point_orbits,
)
from digitop.recognition import (
    DiskDecomposition,
    RecognitionResult,
    SpaceKind,
    recognize_disk,
    recognize_sphere,
    require_closed_manifold,
)
from digitop.space import (
    DEFAULT_CLIQUE_LIMIT,
    CliqueVector,
    _bits,
    _reach,
    is_valid_point_id,
)
from digitop.transform import CompressionCheck, CompressionVerdict

# -- builders ----------------------------------------------------------------------


def cycle(k: int, prefix: str = "c") -> DigitalSpace:
    assert k >= 3
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, [(ids[i], ids[(i + 1) % k]) for i in range(k)])


def path(k: int, prefix: str = "p") -> DigitalSpace:
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, [(ids[i], ids[i + 1]) for i in range(k - 1)])


def complete(k: int, prefix: str = "k") -> DigitalSpace:
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, itertools.combinations(ids, 2))


def wheel(k: int) -> DigitalSpace:
    """A point joined to a k-cycle."""
    rim = cycle(k)
    return rim.add_point("hub", rim.points)


def bipyramid(k: int) -> DigitalSpace:
    """Two apexes over a k-cycle: a 2-sphere whose apex rims are k-cycles."""
    rim = cycle(k)
    return rim.add_point("north", rim.points).add_point("south", rim.points)


def random_tree(rng, size: int) -> DigitalSpace:
    """Each point after the first hangs from a random earlier point."""
    ids = [f"t{i}" for i in range(size)]
    return DigitalSpace(ids, [(ids[rng.randrange(i)], ids[i]) for i in range(1, size)])


def random_space(rng, size: int, edge_chance: float = 0.5) -> DigitalSpace:
    ids = [f"v{i}" for i in range(size)]
    edges = [
        pair for pair in itertools.combinations(ids, 2) if rng.random() < edge_chance
    ]
    return DigitalSpace(ids, edges)


def space_from_rows(rows) -> DigitalSpace:
    ids = [f"v{i:02d}" for i in range(len(rows))]
    edges = [
        (ids[i], ids[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if rows[i] >> j & 1
    ]
    return DigitalSpace(ids, edges)


def shuffled(space: DigitalSpace, rng) -> DigitalSpace:
    """Random relabeling of a space (fresh names, random assignment)."""
    names = [f"r{i}" for i in range(len(space))]
    rng.shuffle(names)
    return space.relabeled(dict(zip(space.points, names)))


# -- brute-force clique counting ---------------------------------------------------


def naive_clique_counts(space: DigitalSpace) -> tuple[int, ...]:
    counts = []
    for size in range(1, len(space) + 1):
        found = 0
        for combo in itertools.combinations(space.points, size):
            if all(space.adjacent(p, q) for p, q in itertools.combinations(combo, 2)):
                found += 1
        if not found:
            break
        counts.append(found)
    return tuple(counts)


def naive_euler(space: DigitalSpace) -> int:
    return sum(
        count if size % 2 else -count
        for size, count in enumerate(naive_clique_counts(space), start=1)
    )


# -- exhaustive connected-graph generation ------------------------------------------


def all_connected_rows(max_points: int):
    """One bitmask adjacency-row tuple per isomorphism class.

    Grows each tier by attaching a new point to every nonempty subset of
    an existing graph and deduplicating on canonical encodings, so the
    enumeration is exhaustive over connected graphs.
    """
    tier = {canonical_encoding_rows((0,)): (0,)}
    yield (0,)
    for _ in range(2, max_points + 1):
        next_tier = {}
        for rows in tier.values():
            n = len(rows)
            for mask in range(1, 1 << n):
                grown = [row | ((mask >> i & 1) << n) for i, row in enumerate(rows)]
                grown.append(mask)
                key = canonical_encoding_rows(grown)
                if key not in next_tier:
                    next_tier[key] = tuple(grown)
        tier = next_tier
        yield from tier.values()


# -- catalog growth over every mask -------------------------------------------------


def reference_grown_connected_graphs(n: int, max_points: int, budget: Budget):
    """The catalog generator before the neighbourhood search: every mask
    of every parent becomes a candidate, checked by the whole-graph prune.

    Connected graphs up to isomorphism, grown one point at a time.

    Each new point gets a nonempty neighbourhood, which reaches every
    connected graph (delete a spanning-tree leaf to find the parent).
    Candidates violating necessary conditions for extension into a
    closed n-manifold with at most max_points points are pruned.
    """
    tier: dict[bytes, list[int]] = {canonical_encoding_rows([0]): [0]}
    yield [0]
    for size in range(2, max_points + 1):
        remaining = max_points - size
        next_tier: dict[bytes, list[int]] = {}
        for enc in sorted(tier):
            rows = tier[enc]
            s = len(rows)
            for mask in range(1, 1 << s):
                budget.charge()
                candidate = [
                    row | (1 << s) if mask >> i & 1 else row
                    for i, row in enumerate(rows)
                ]
                candidate.append(mask)
                if _reference_prune(candidate, n, remaining):
                    continue
                key = canonical_encoding_rows(candidate)
                if key not in next_tier:
                    next_tier[key] = candidate
        for enc in sorted(next_tier):
            yield next_tier[enc]
        tier = next_tier


def _has_clique(rows: list[int], mask: int, k: int) -> bool:
    """Does the induced subgraph on mask contain a k-clique?"""
    if k == 0:
        return True
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if _has_clique(rows, mask & rows[v], k - 1):
            return True
    return False


def _reference_prune(rows: list[int], n: int, remaining: int) -> bool:
    """True when rows cannot extend to a closed n-manifold in time."""
    size = len(rows)
    # every point of the final manifold has degree >= 2n, and each of
    # the points still to come adds at most one neighbour
    for row in rows:
        if row.bit_count() < 2 * n - remaining:
            return True
    if n == 1:
        return any(row.bit_count() > 2 for row in rows)
    # rims of an n-manifold contain no (n+1)-clique, so the whole graph
    # has no (n+2)-clique; check around the newest point
    newest = size - 1
    if _has_clique(rows, rows[newest], n + 1):
        return True
    if n == 2:
        for v in range(size):
            if not reference_rim_extends_to_cycle(rows, v):
                return True
        for v in range(size):
            row = rows[v]
            rest = row
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if u > v and (row & rows[u]).bit_count() > 2:
                    return True
    return False


def reference_link_rule(rows: Sequence[int], n: int) -> bool:
    """Does every (n-1)-clique's link (common neighbourhood), found by
    brute force over point combinations, induce disjoint paths or one
    cycle of >= 4 points, as inside a closed flag n-manifold?  The link
    is handed to reference_rim_extends_to_cycle as the rim of an extra
    point."""
    points = range(len(rows))
    for clique in itertools.combinations(points, n - 1) if n >= 1 else ():
        if all(rows[u] >> w & 1 for u, w in itertools.combinations(clique, 2)):
            link = sum(1 << w for w in points if all(rows[u] >> w & 1 for u in clique))
            if not reference_rim_extends_to_cycle([*rows, link], len(rows)):
                return False
    return True


# -- catalog growth before rims were decided in the search ----------------------

# classify's augmentation step, its new-point filter and its leaf rim test
# as they were when every changed rim was re-walked at each complete mask
# and every top-degree deletable point was tested, copied verbatim.


def reference_designated(rows: list[int]) -> int:
    """The points of a connected graph that it may be grown from last.

    A point is designated when deleting it leaves the graph connected and
    no other such point has a larger key (degree, sorted neighbour
    degrees).  The key reads no labels, so an isomorphism maps the
    designated points onto the designated points, and they are never
    none: a spanning tree's leaves can all be deleted.  So every class
    is reached from the class of its graph minus a designated point, and
    candidates whose new point is not designated are duplicates.
    """
    degrees = [row.bit_count() for row in rows]
    full = (1 << len(rows)) - 1
    for degree in sorted(set(degrees), reverse=True):
        # the neighbour degrees of each deletable point of this degree
        keys = {}
        for v, row in enumerate(rows):
            rest = full ^ 1 << v
            if degrees[v] == degree and _reach(rows, rest & -rest, rest) == rest:
                keys[v] = sorted(degrees[u] for u in _bits(row))
        if keys:
            best = max(keys.values())
            return sum(1 << v for v, key in keys.items() if key == best)
    return 0


def reference_augmentations(
    rows: list[int],
    n: int,
    remaining: int,
    budget: Budget,
    generators: tuple | None = None,
) -> list[list[int]]:
    """rows plus one new point, for each neighbourhood mask that may still
    extend to a closed n-manifold with remaining more points.

    rows must have passed this test with remaining + 1, so only what the
    new point changes is checked.  A depth-first search on an explicit
    stack decides bits from the highest down, excluding a point before
    including it, so masks come out in ascending order; it charges one
    node per partial mask.  A partial mask is cut when every mask
    containing it must fail:

    * each point's degree reaches 2n - remaining, as every point still to
      come adds at most one neighbour: a point below that floor must join,
      and the new point needs that many neighbours;
    * n = 1: no degree exceeds 2;
    * otherwise the mask (the new point's rim) holds no (n+1)-clique;
    * n = 2: in each changed rim, the mask's and those of its points, no
      degree exceeds 2, as on a cycle.

    For n = 2 a complete mask must also leave each changed rim able to
    close into an induced cycle of length >= 4.  A surviving mask that an
    automorphism of rows maps to a smaller one is dropped: that graph is
    isomorphic and comes first, so each class keeps its first mask.  The
    automorphisms are generators, those a canonical search of rows found;
    when they are not given, rows is searched for them.
    """
    s = len(rows)
    floor = 2 * n - remaining
    forced = 0
    allowed = (1 << s) - 1
    for v, row in enumerate(rows):
        degree = row.bit_count()
        if degree + 1 < floor or (n == 1 and degree > 2):
            return []
        if degree < floor:
            forced |= 1 << v
        if n == 1 and degree == 2:
            allowed ^= 1 << v
    if s < floor:
        return []
    kept: list[tuple[int, list[int]]] = []
    new = 1 << s
    # (undecided low bits, mask so far); count + undecided >= floor holds
    stack = [(s, 0)]
    while stack:
        k, mask = stack.pop()
        budget.charge()
        if k:
            k -= 1
            bit = 1 << k
            if allowed & bit and _reference_may_join(rows, n, k, mask):
                stack.append((k, mask | bit))
            if not forced & bit and mask.bit_count() + k >= floor:
                stack.append((k, mask))
            continue
        if not mask:
            continue
        candidate = [row | new if mask >> i & 1 else row for i, row in enumerate(rows)]
        candidate.append(mask)
        if n == 2 and not all(
            reference_leaf_rim_check(candidate, v) for v in _bits(mask | new)
        ):
            continue
        kept.append((mask, candidate))
    if len(kept) > 1:
        if generators is None:
            generators = canon._canonical(rows)[2]
        if generators:
            kept = [
                (mask, candidate)
                for mask, candidate in kept
                if all(
                    sum(1 << g[v] for v in _bits(mask)) >= mask for g in generators
                )
            ]
    return [candidate for _, candidate in kept]


def _reference_may_join(rows: list[int], n: int, v: int, mask: int) -> bool:
    """Can point v join the partial mask without failing a cut above?"""
    if n == 1:
        return mask.bit_count() < 2
    common = rows[v] & mask
    if n == 2:
        if common.bit_count() > 2:
            return False
        grown = mask | 1 << v
        for u in _bits(common):
            if (rows[u] & grown).bit_count() > 2 or (rows[u] & rows[v]).bit_count() > 1:
                return False
    return not _has_clique(rows, common, n)


def reference_leaf_rim_check(rows: list[int], v: int) -> bool:
    """Can the rim of v still become an induced cycle of length >= 4?

    Inside a closed 2-manifold every rim is such a cycle; any induced
    subgraph of it is a disjoint union of paths or the full cycle.
    """
    rim = rows[v]
    ends = 0  # points of rim degree < 2: every path component has one
    for u in _bits(rim):
        degree = (rows[u] & rim).bit_count()
        if degree > 2:
            return False
        if degree < 2:
            ends |= 1 << u
    if _reach(rows, ends, rim) == rim:
        return True  # disjoint union of paths, can still grow
    # some component closed into a cycle, which is only legal when the
    # cycle is the entire rim and has length >= 4
    return not ends and rim.bit_count() >= 4 and _reach(rows, rim & -rim, rim) == rim


# -- row code before the shared kernel ---------------------------------------------

# The row-level code as it was before space.py held one kernel for it,
# copied verbatim.  The methods take the space as self; add_point asks
# the space, not its removed id index, for a duplicate, and
# clique_vector skips the space's cache.


def reference_rim_extends_to_cycle(rows: list[int], v: int) -> bool:
    """Can the rim of v still become an induced cycle of length >= 4?

    Inside a closed 2-manifold every rim is such a cycle; any induced
    subgraph of it is a disjoint union of paths or the full cycle.
    """
    members = []
    mask = rows[v]
    m = mask
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        members.append(u)
    degrees = {u: (rows[u] & mask).bit_count() for u in members}
    if any(d > 2 for d in degrees.values()):
        return False
    edge_count = sum(degrees.values()) // 2
    components = 0
    seen: set[int] = set()
    for start in members:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            u = frontier.pop()
            nbrs = rows[u] & mask
            while nbrs:
                w = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    if edge_count == len(members) - components:
        return True  # disjoint union of paths, can still grow
    # some component closed into a cycle, which is only legal when the
    # cycle is the entire rim and has length >= 4
    return components == 1 and edge_count == len(members) >= 4


def reference_encode_order(rows: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows after relabeling point order[p] to p."""
    position = {v: p for p, v in enumerate(order)}
    encoded = []
    for v in order:
        row = rows[v]
        new_row = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new_row |= 1 << position[u]
        encoded.append(new_row)
    return tuple(encoded)


def reference_induced_by_mask(self, mask: int) -> "DigitalSpace":
    kept = []
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        kept.append(i)
    ids = [self._ids[i] for i in kept]
    position = {i: k for k, i in enumerate(kept)}
    rows = []
    for i in kept:
        sub = self._rows[i] & mask
        new_row = 0
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            new_row |= 1 << position[j]
        rows.append(new_row)
    return DigitalSpace._from_rows(ids, rows)


def reference_add_point(self, point_id: str, neighbors: Iterable[str] = ()) -> "DigitalSpace":
    if not is_valid_point_id(point_id):
        raise ValueError(f"invalid point id: {point_id!r}")
    if point_id in self:
        raise ValueError(f"point already present: {point_id!r}")
    nbr_mask = self._mask_of(neighbors)
    ids = sorted(self._ids + (point_id,))
    pos = ids.index(point_id)
    # remap old indices around the insertion position
    rows = []
    for i, row in enumerate(self._rows):
        low = row & ((1 << pos) - 1) if pos else 0
        high = (row >> pos) << (pos + 1)
        new_row = low | high
        if nbr_mask >> i & 1:
            new_row |= 1 << pos
        rows.append(new_row)
    new_row = 0
    m = nbr_mask
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        shifted = i if i < pos else i + 1
        new_row |= 1 << shifted
    rows.insert(pos, new_row)
    return DigitalSpace._from_rows(ids, rows)


def reference_clique_vector(self) -> CliqueVector:
    """Count cliques of every size.

    Enumerates cliques as increasing index sequences, so each clique
    is visited exactly once.  Exceeding DEFAULT_CLIQUE_LIMIT cliques
    raises via the budget machinery; the cap exists because clique
    counts can grow exponentially in pathological inputs.
    """
    rows = self._rows
    n = len(self._ids)
    counts: list[int] = []
    budget = Budget(DEFAULT_CLIQUE_LIMIT)

    def bump(size: int) -> None:
        while len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1

    def extend(size: int, candidates: int) -> None:
        cand = candidates
        while cand:
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            budget.charge()
            bump(size + 1)
            extend(size + 1, cand & rows[i])

    if n:
        extend(0, (1 << n) - 1)
    return CliqueVector(tuple(counts))


# -- round-based partition refinement -----------------------------------------------


def reference_refine(rows, cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition until it is equitable, one round at a time.

    Every round keys each point by its neighbour count in every cell and
    splits cells by key; this was the library's refinement before the
    splitter queue, and stays here as its reference.
    """
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = [sum(1 << v for v in c) for c in cells]
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            by_key: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                by_key.setdefault(key, []).append(v)
            if len(by_key) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(by_key):
                    out.append(by_key[key])
        cells = out
    return cells


# -- a memo keyed by canonical encoding alone ---------------------------------------


class EncodingTable:
    """A memo table keyed only by canonical encoding: one canonical search
    per lookup, no tiers.  Swapped in for the library's tables, it gives
    the verdicts and charges that every lookup tier must reproduce."""

    def __init__(self):
        self._table: dict[bytes, object] = {}

    def get(self, space):
        return self._table.get(canonical_form(space).encoding, MISSING)

    def put(self, space, value) -> None:
        self._table[canonical_form(space).encoding] = value

    get_exact, put_exact = get, put

    def clear(self) -> None:
        self._table.clear()


# -- recursive canonical search ----------------------------------------------------


class ReferenceSearch(_Search):
    """The canonical search as it was before the explicit stack: one Python
    call per search node.  Kept as the reference for visit order, backjumps
    and orbit pruning; it needs a recursion depth above the point count."""

    def run(self) -> None:
        if self.n == 0:
            return
        cells = [0] * self.n
        cells[0] = (1 << self.n) - 1
        self._descend(_refine(self.rows, cells, [0]), ())

    def _descend(self, cells: list[int], path: tuple[int, ...]) -> int | None:
        """Explore one node; return a backjump depth or None."""
        target = -1
        target_size = 0
        s = 0
        while s < self.n:
            size = cells[s].bit_count()
            if size > 1 and (target < 0 or size < target_size):
                target = s
                target_size = size
            s += size
        if target < 0:
            return self._leaf(cells, path)

        cell = cells[target]
        orbits = _Orbits(self.n)
        folded = 0
        tried: list[int] = []
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if tried:
                for gen in self.generators[folded:]:
                    if all(gen[p] == p for p in path):
                        orbits.merge(enumerate(gen))
                folded = len(self.generators)
                root = orbits.find(v)
                if any(orbits.find(u) == root for u in tried):
                    continue
            child = cells.copy()
            child[target] = low
            child[target + 1] = cell ^ low
            result = self._descend(_refine(self.rows, child, [target]), path + (v,))
            tried.append(v)
            if result is not None:
                if result < len(path):
                    return result
        return None


# -- recognition, one rim loop per kind ----------------------------------------------
#
# The library's recognizers before each definition became one test: four
# rim loops, and a disk test with contractibility and boundary-sphere
# prefilters ahead of the cone test.  Kept with their own sphere memo as
# the reference the rewrite must agree with.

_REFERENCE_SPHERE: dict[bytes, int | None] = {}


def reference_sphere(G: DigitalSpace, budget: Budget | None = None) -> int | None:
    """Dimension n if G is a digital n-sphere, else None."""
    return _reference_sphere(G, ensure_budget(budget))


def _reference_sphere(G: DigitalSpace, budget: Budget) -> int | None:
    count = len(G)
    if count == 2 and G.edge_count == 0:
        return 0
    if count < 4:
        # no sphere besides S0 has fewer than four points
        return None
    key = canonical_form(G).encoding
    if key in _REFERENCE_SPHERE:
        return _REFERENCE_SPHERE[key]
    budget.charge()
    result = None
    if G.is_connected():
        # dimension is fixed by the first point's rim, then verified globally
        first_dim = _reference_sphere(G.rim(G.points[0]), budget)
        if first_dim is not None and all(
            _reference_sphere(G.rim(v), budget) == first_dim for v in G.points[1:]
        ):
            representatives = [orbit[0] for orbit in point_orbits(G)]
            if all(
                is_contractible(G.delete_points([v]), budget)
                for v in representatives
            ):
                result = first_dim + 1
    _REFERENCE_SPHERE[key] = result
    return result


def reference_disk(
    G: DigitalSpace, budget: Budget | None = None
) -> DiskDecomposition | None:
    """(n, boundary, interior) if G is a digital n-disk, else None.

    Candidate interior points are those whose rim is a sphere; the final
    authority is the cone test: attaching a fresh apex adjacent to
    exactly the candidate boundary must produce an n-sphere, which is
    literally the definition of a disk read backwards.
    """
    budget = ensure_budget(budget)
    if len(G) == 1:
        return DiskDecomposition(0, (), (G.points[0],))
    if len(G) == 0:
        return None
    if not is_contractible(G, budget):
        return None
    boundary: list[str] = []
    interior: list[str] = []
    rim_dims = set()
    for v in G.points:
        dim = _reference_sphere(G.rim(v), budget)
        if dim is None:
            boundary.append(v)
        else:
            interior.append(v)
            rim_dims.add(dim)
    if not interior or not boundary or len(rim_dims) != 1:
        return None
    n = rim_dims.pop() + 1
    boundary_space = G.induced_subspace(boundary)
    if _reference_sphere(boundary_space, budget) != n - 1:
        return None
    apex = G.fresh_id("apex")
    if _reference_sphere(G.add_point(apex, boundary), budget) != n:
        return None
    return DiskDecomposition(n, tuple(boundary), tuple(interior))


def reference_closed_manifold(
    G: DigitalSpace, budget: Budget | None = None
) -> int | None:
    """Dimension n if every rim of connected G is an (n-1)-sphere.

    Covers the low-dimensional conventions: S0 is the closed 0-manifold
    and cycles of length >= 4 are the closed 1-manifolds.
    """
    budget = ensure_budget(budget)
    count = len(G)
    if count == 2 and G.edge_count == 0:
        return 0
    if count == 0 or not G.is_connected():
        return None
    dims = set()
    for v in G.points:
        dim = _reference_sphere(G.rim(v), budget)
        if dim is None:
            return None
        dims.add(dim)
        if len(dims) > 1:
            return None
    return dims.pop() + 1


def reference_manifold_with_boundary(
    G: DigitalSpace, budget: Budget | None = None
) -> DiskDecomposition | None:
    """(n, boundary, interior) for a manifold with spherical boundary.

    Interior rims must be (n-1)-spheres, boundary rims (n-1)-disks, the
    boundary must be nonempty and induce an (n-1)-sphere.
    """
    budget = ensure_budget(budget)
    if len(G) < 2 or not G.is_connected():
        return None
    boundary: list[str] = []
    interior: list[str] = []
    dims = set()
    for v in G.points:
        rim = G.rim(v)
        sphere_dim = _reference_sphere(rim, budget)
        if sphere_dim is not None:
            interior.append(v)
            dims.add(sphere_dim + 1)
            continue
        disk = reference_disk(rim, budget)
        if disk is not None:
            boundary.append(v)
            dims.add(disk.dimension + 1)
            continue
        return None
    if len(dims) != 1 or not boundary or not interior:
        return None
    n = dims.pop()
    if _reference_sphere(G.induced_subspace(boundary), budget) != n - 1:
        return None
    return DiskDecomposition(n, tuple(boundary), tuple(interior))


def reference_recognize(
    G: DigitalSpace, budget: Budget | None = None
) -> RecognitionResult:
    """Most specific recognition: sphere, then disk, then the manifolds."""
    budget = ensure_budget(budget)
    dim = reference_sphere(G, budget)
    if dim is not None:
        return RecognitionResult(SpaceKind.SPHERE, dim)
    disk = reference_disk(G, budget)
    if disk is not None:
        return RecognitionResult(
            SpaceKind.DISK, disk.dimension, disk.boundary, disk.interior
        )
    dim = reference_closed_manifold(G, budget)
    if dim is not None:
        return RecognitionResult(SpaceKind.CLOSED_MANIFOLD, dim)
    bounded = reference_manifold_with_boundary(G, budget)
    if bounded is not None:
        return RecognitionResult(
            SpaceKind.MANIFOLD_WITH_BOUNDARY,
            bounded.dimension,
            bounded.boundary,
            bounded.interior,
        )
    return RecognitionResult(SpaceKind.NONE)


# -- disk search over connected subsets -------------------------------------------
#
# The library's is_compressed before one disk search served compress and
# the compressedness checks: a breadth-first search over every connected
# point subset, each tested as a disk.  Kept as the reference the
# interior search must agree with.


def reference_is_compressed(
    M: DigitalSpace, interior_bound: int = 2, budget: Budget | None = None
) -> CompressionCheck:
    """Search for a contractible embedded disk with interior size 2..bound.

    Grows connected point subsets from every edge and tests each as a
    disk.  NOT_COMPRESSED comes with a witness subset.  With the bound
    at 2 a clean result is reported as EDGE_COMPRESSED, since only the
    smallest disks were ruled out; larger bounds report
    COMPRESSED_UP_TO_BOUND.
    """
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    if interior_bound < 2:
        raise ValueError("interior_bound must be at least 2")
    # a disk with k interior points has at least k + 2(dim-1) + 2 points,
    # but boundary size bounds only help as a skip condition below
    max_points = len(M)
    seen: set[frozenset[str]] = set()
    queue: list[frozenset[str]] = []
    for v, u in M.edges:
        subset = frozenset((v, u))
        if subset not in seen:
            seen.add(subset)
            queue.append(subset)
    index = 0
    while index < len(queue):
        subset = queue[index]
        index += 1
        budget.charge()
        if len(subset) >= 4:
            disk = recognize_disk(M.induced_subspace(subset), budget)
            if (
                disk is not None
                and disk.dimension == dim
                and 2 <= len(disk.interior) <= interior_bound
                and all(
                    all(nbr in subset for nbr in M.neighbors(y))
                    for y in disk.interior
                )
            ):
                return CompressionCheck(
                    CompressionVerdict.NOT_COMPRESSED, tuple(sorted(subset))
                )
        if len(subset) >= max_points:
            continue
        frontier = set()
        for p in subset:
            frontier.update(M.neighbors(p))
        for p in sorted(frontier - subset):
            grown = subset | {p}
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
    verdict = (
        CompressionVerdict.EDGE_COMPRESSED
        if interior_bound == 2
        else CompressionVerdict.COMPRESSED_UP_TO_BOUND
    )
    return CompressionCheck(verdict)


# The disk search as it was before it decided each candidate by its cone
# alone: id tuples and sets, and a full recognize_disk (rim split, then
# the cone test) for every candidate whose ring is a sphere.  Copied
# verbatim; transform._disks must yield the same disks in the same order
# and charge the same nodes.


def reference_disks(
    M: DigitalSpace, dim: int, bound: int, budget: Budget
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(interior, boundary) for each embedded dim-disk of the dim-manifold M
    whose interior is a connected set of 2..bound points, both sorted.

    Interiors grow breadth-first from the edges, in edge order, one
    neighbour at a time; each candidate interior I costs one budget node.
    The candidate disk is I plus its neighbours N(I).  A cheap necessary
    filter runs first: N(I) must induce a (dim-1)-sphere, the boundary
    the disk would have.  The disk is accepted when it is a dim-disk
    whose interior is exactly I.
    """
    queue = list(M.edges)
    seen = set(queue)
    for interior in queue:
        budget.charge()
        inside = set(interior)
        ring = tuple(sorted({q for p in interior for q in M.neighbors(p)} - inside))
        if recognize_sphere(M.induced_subspace(ring), budget) == dim - 1:
            disk = recognize_disk(M.induced_subspace(ring + interior), budget)
            if (
                disk is not None
                and disk.dimension == dim
                and set(disk.interior) == inside
            ):
                yield interior, ring
        if len(interior) < bound:
            for p in ring:
                grown = tuple(sorted(interior + (p,)))
                if grown not in seen:
                    seen.add(grown)
                    queue.append(grown)


# -- contractibility search that rebuilds every level --------------------------------

# The search as it was before simple-point flags were carried down the
# deletion chain, copied verbatim except for its own memo: a dict keyed
# by canonical encoding, filled and read exactly where the library's
# memo was.
_REFERENCE_CONTRACTIBLE: dict[bytes, bool] = {}


def reference_contractible(G: DigitalSpace, budget: Budget | None = None) -> bool:
    """Decide whether G reduces to a point by simple-point deletions."""
    return _reference_contractible(G, ensure_budget(budget))


def _reference_contractible(G: DigitalSpace, budget: Budget) -> bool:
    stack = [_reference_contractible_steps(G, budget)]
    verdict = None
    while stack:
        try:
            sub = stack[-1].send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = done.value
        else:
            stack.append(_reference_contractible_steps(sub, budget))
            verdict = None
    return verdict


def _reference_contractible_steps(G: DigitalSpace, budget: Budget):
    n = len(G)
    if n == 0:
        return False
    if n == 1:
        return True
    if not G.is_connected():
        return False
    key = canonical_form(G).encoding
    if key in _REFERENCE_CONTRACTIBLE:
        return _REFERENCE_CONTRACTIBLE[key]
    budget.charge()
    if G.euler_characteristic() != 1:
        result = False
    elif G.dominating_point() is not None:
        result = True
    else:
        simple = []
        for v in G.points:
            if (yield G.rim(v)):
                simple.append(v)
        result = False
        if len(simple) >= 2:
            for v in simple:
                if (yield G.delete_points([v])):
                    result = True
                    break
    _REFERENCE_CONTRACTIBLE[key] = result
    return result


# -- reduction that rescans every point after each move ---------------------------


def reference_delete_steps(G: DigitalSpace, budget: Budget | None = None) -> list:
    """Steps of the DELETE_ONLY reduction as it was before points found
    not simple were skipped: every sweep restarts at the first point."""
    budget = ensure_budget(budget)
    steps = []
    while True:
        progressed = False
        while len(G) > 1 and (
            done := _first_move(G, delete_simple_point, zip(G.points), budget)
        ):
            G = done[0]
            steps.append(done[1])
            progressed = True
        while done := _first_move(G, delete_simple_edge, G.edges, budget):
            G = done[0]
            steps.append(done[1])
            progressed = True
        if not progressed:
            return steps


def _first_move(G: DigitalSpace, move, candidates, budget: Budget):
    for args in candidates:
        try:
            return move(G, *args, budget)
        except NotSimpleError:
            pass
    return None


# -- literal-definition contractibility --------------------------------------------

_NAIVE_MEMO: dict[tuple[int, ...], bool] = {}


def _sub_rows(rows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    keep = [i for i in range(len(rows)) if mask >> i & 1]
    remap = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        row = 0
        sub = rows[old] & mask
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            row |= 1 << remap[j]
        out.append(row)
    return tuple(out)


def naive_contractible_rows(rows: tuple[int, ...]) -> bool:
    """Is some point's rim contractible and its removal contractible?

    The recursion is the definition verbatim: no Euler pruning, no cone
    shortcut, no canonical-form memo, just a cache on labeled rows.
    """
    n = len(rows)
    if n == 0:
        return False
    if n == 1:
        return True
    cached = _NAIVE_MEMO.get(rows)
    if cached is not None:
        return cached
    full = (1 << n) - 1
    result = False
    for v in range(n):
        if not rows[v]:
            continue
        if naive_contractible_rows(_sub_rows(rows, rows[v])) and naive_contractible_rows(
            _sub_rows(rows, full & ~(1 << v))
        ):
            result = True
            break
    _NAIVE_MEMO[rows] = result
    return result


_EXHAUSTIVE_RESULTS: dict[int, tuple[int, int, int]] = {}


def exhaustive_oracle_agreement(max_points: int = 7) -> tuple[int, int, int]:
    """(graphs checked, contractible count, mismatches) for all connected
    graphs with at most max_points points; computed once per process."""
    if max_points not in _EXHAUSTIVE_RESULTS:
        checked = contractible = mismatches = 0
        for rows in all_connected_rows(max_points):
            verdict = is_contractible(space_from_rows(rows))
            checked += 1
            contractible += verdict
            if verdict != naive_contractible_rows(rows):
                mismatches += 1
        _EXHAUSTIVE_RESULTS[max_points] = (checked, contractible, mismatches)
    return _EXHAUSTIVE_RESULTS[max_points]


# -- subprocesses -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """os.environ with PYTHONPATH led by the directory this process imported
    digitop from, so a `python -m digitop` child finds the same package,
    installed or not."""
    package_root = str(Path(digitop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
