"""Slow, independent oracles and small graph builders shared by the suites.

Every oracle here recomputes a result from a definition: brute force
over point combinations and neighbourhood masks, or the literal rim
recursion that defines contractibility, spheres, disks and manifolds.
None is a copy of the library's code, and none imports a private name
of the library (test_support_uses_only_public_names checks that), so
the fast implementations have something honest to disagree with.
Where an oracle needs a lower layer (a canonical encoding to deduplicate,
contractibility above 9 points) it calls that layer's public function,
which an oracle of its own checks.
"""

from __future__ import annotations

import itertools
import os
from functools import cache, reduce
from operator import or_
from pathlib import Path
from typing import Sequence

import digitop
from digitop import (
    DigitalSpace,
    DiskDecomposition,
    RecognitionResult,
    SpaceKind,
    TransformStep,
    is_contractible,
)
from digitop.cache import MISSING
from digitop.canon import canonical_encoding_rows

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
    pairs = itertools.combinations(range(len(rows)), 2)
    return DigitalSpace(ids, [(ids[i], ids[j]) for i, j in pairs if rows[i] >> j & 1])


def rows_of(space: DigitalSpace) -> tuple[int, ...]:
    """Bitmask adjacency rows in point order, read through neighbors()."""
    index = {p: i for i, p in enumerate(space.points)}
    return tuple(sum(1 << index[q] for q in space.neighbors(p)) for p in space.points)


def shuffled(space: DigitalSpace, rng) -> DigitalSpace:
    """Random relabeling of a space (fresh names, random assignment)."""
    names = [f"r{i}" for i in range(len(space))]
    rng.shuffle(names)
    return space.relabeled(dict(zip(space.points, names)))


# -- brute force over point combinations ----------------------------------------


def naive_clique_counts(space: DigitalSpace) -> tuple[int, ...]:
    rows = rows_of(space)
    counts = []
    for size in range(1, len(space) + 1):
        found = 0
        for combo in itertools.combinations(range(len(rows)), size):
            if all(rows[p] >> q & 1 for p, q in itertools.combinations(combo, 2)):
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


def _clique_links(rows: Sequence[int], size: int, within: int = -1, common: int = -1):
    """The link (common-neighbour mask) of each size-clique inside within."""
    if size == 0:
        yield common & (1 << len(rows)) - 1
        return
    rest = within & common & (1 << len(rows)) - 1
    while rest:
        low = rest & -rest
        rest ^= low
        yield from _clique_links(rows, size - 1, rest, common & rows[low.bit_length() - 1])


def connected(rows: Sequence[int], mask: int) -> bool:
    """Are the points of mask joined by paths inside mask?  Walks the
    points of mask alone, one at a time."""
    seen = frontier = mask & -mask
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def sub_rows(rows: Sequence[int], mask: int) -> tuple[int, ...]:
    """Rows of the subgraph induced on mask, its points renumbered in order."""
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


# -- exhaustive connected-graph generation ------------------------------------------


def all_connected_rows(max_points: int, n: int | None = None):
    """One bitmask adjacency-row tuple per isomorphism class of connected
    graphs with at most max_points points.  With n given, only the graphs
    that may still be induced subgraphs of a closed flag n-manifold with
    max_points points: every degree reaches 2n - (max_points - size), as
    each point of such a manifold has at least 2n neighbours and each
    point still to come adds at most one, and links_hold, checked on the
    cliques inside the new point and its neighbours, the only links that
    the new point changes.

    Grows each tier by attaching a new point to every nonempty subset of
    a graph of the tier before and deduplicating on canonical encodings.
    A connected graph minus a leaf of a spanning tree is connected, and
    the conditions hold for induced subgraphs, so no class is missed.
    """
    tier = {canonical_encoding_rows((0,)): (0,)}
    yield (0,)
    for size in range(2, max_points + 1):
        floor = 2 * (n or 0) - (max_points - size)
        next_tier = {}
        for rows in tier.values():
            for mask in range(1, 1 << size - 1):
                grown = tuple(row | (mask >> i & 1) << size - 1 for i, row in enumerate(rows))
                grown += (mask,)
                if n is None or min(map(int.bit_count, grown)) >= floor and links_hold(
                    grown, n, mask | 1 << size - 1
                ):
                    next_tier.setdefault(canonical_encoding_rows(grown), grown)
        tier = next_tier
        yield from tier.values()


# -- catalog growth: the necessary conditions, brute force --------------------------


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


def reference_link_rule(rows: Sequence[int], n: int, within: int = -1) -> bool:
    """Does every (n-1)-clique's link (common neighbourhood), found by
    brute force over point sets, induce disjoint paths or one cycle of
    >= 4 points, as inside a closed flag n-manifold?  The link is handed
    to reference_rim_extends_to_cycle as the rim of an extra point, unless
    it has fewer than 3 points.  Only cliques inside within are checked."""
    return n < 1 or all(
        link.bit_count() < 3 or reference_rim_extends_to_cycle([*rows, link], len(rows))
        for link in _clique_links(rows, n - 1, within)
    )


def links_hold(rows: Sequence[int], n: int, within: int = -1) -> bool:
    """The link conditions of a closed flag n-manifold that every induced
    subgraph keeps: each n-clique has at most 2 common neighbours (n >= 1),
    and reference_link_rule; only cliques inside within are checked."""
    if n >= 1 and any(link.bit_count() > 2 for link in _clique_links(rows, n, within)):
        return False
    return reference_link_rule(rows, n, within)


def closing_bound_holds(rows: Sequence[int], n: int, remaining: int) -> bool:
    """Can the link of every (n-1)-clique, found by brute force over point
    sets, still close into one induced cycle of >= 4 points with
    remaining more points?  A closed link (connected, 2-regular, >= 4
    points) needs none.  Any other is taken as k components, which need
    a point per gap and 4 points in all: max(k, 4 - its size) more."""
    return _largest_closing_need(tuple(rows), n) <= remaining


@cache
def _largest_closing_need(rows: tuple[int, ...], n: int) -> int:
    if n < 1:
        return 0
    nbrs = [{w for w in range(len(rows)) if row >> w & 1} for row in rows]
    largest = 0
    for clique in itertools.combinations(range(len(rows)), n - 1):
        if not all(q in nbrs[p] for p, q in itertools.combinations(clique, 2)):
            continue
        link = set(range(len(rows))).difference(clique).intersection(
            *(nbrs[p] for p in clique)
        )
        components = 0
        unseen = set(link)
        while unseen:
            components += 1
            frontier = [unseen.pop()]
            while frontier:
                found = unseen & nbrs[frontier.pop()]
                unseen -= found
                frontier.extend(found)
        closed = (
            components == 1
            and len(link) >= 4
            and all(len(nbrs[u] & link) == 2 for u in link)
        )
        if not closed:
            largest = max(largest, components, 4 - len(link))
    return largest


_EXTENSIONS: dict[tuple, list] = {}


def extensions_by_masks(rows, n: int, remaining: int, generators) -> list[list[int]]:
    """rows plus a new point over each nonempty mask, in ascending mask
    order, that no automorphism in generators maps to a smaller mask and
    that all_connected_rows(·, n) would keep with remaining points to
    come (rows must pass links_hold).  Links are checked once per rows,
    n and generators."""
    s = len(rows)
    key = (tuple(rows), n, tuple(generators))
    if key not in _EXTENSIONS:
        _EXTENSIONS[key] = []
        for mask in range(1, 1 << s):
            if all(sum(1 << g[v] for v in range(s) if mask >> v & 1) >= mask for g in generators):
                grown = [row | (mask >> i & 1) << s for i, row in enumerate(rows)] + [mask]
                if links_hold(grown, n, mask | 1 << s):
                    _EXTENSIONS[key].append(grown)
    floor = 2 * n - remaining
    return [grown for grown in _EXTENSIONS[key] if min(map(int.bit_count, grown)) >= floor]


def designated(rows: Sequence[int]) -> int:
    """The mask of the points that growth may add last: among the points
    whose deletion leaves rows connected, those with the largest key
    (degree, sorted neighbour degrees)."""
    n = len(rows)
    degree = [row.bit_count() for row in rows]
    full = (1 << n) - 1
    keys = {
        v: (degree[v], sorted(degree[u] for u in range(n) if rows[v] >> u & 1))
        for v in range(n)
        if connected(rows, full & ~(1 << v))
    }
    best = max(keys.values())
    return sum(1 << v for v, key in keys.items() if key == best)


# -- round-based partition refinement -----------------------------------------------


def reference_refine(rows, cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition until it is equitable, one round at a time.

    Every round keys each point by its neighbour count in every cell and
    splits cells by key: the textbook refinement, against which the
    library's splitter queue is checked.
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
    per lookup.  Swapped in for the library's tables, it gives the
    verdicts that a memo keyed any other way must reproduce."""

    def __init__(self):
        self._table: dict[bytes, object] = {}

    def get(self, rows):
        return self._table.get(canonical_encoding_rows(rows), MISSING)

    def put(self, rows, value) -> None:
        self._table[canonical_encoding_rows(rows)] = value

    def clear(self) -> None:
        self._table.clear()


# -- literal-definition contractibility --------------------------------------------

_NAIVE_MEMO: dict[tuple[int, ...], bool] = {}


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
        if naive_contractible_rows(sub_rows(rows, rows[v])) and naive_contractible_rows(
            sub_rows(rows, full & ~(1 << v))
        ):
            result = True
            break
    _NAIVE_MEMO[rows] = result
    return result


def contractible(rows: tuple[int, ...]) -> bool:
    """The literal definition up to 9 points; the public is_contractible,
    which exhaustive_oracle_agreement checks against it, above."""
    if len(rows) <= 9:
        return naive_contractible_rows(rows)
    return is_contractible(space_from_rows(rows))


def _rows_euler(rows: Sequence[int]) -> int:
    """Euler characteristic of the clique complex of rows."""
    chi, size = 0, 1
    while count := sum(1 for _ in _clique_links(rows, size)):
        chi += count if size % 2 else -count
        size += 1
    return chi


def reference_contractible(rows: tuple[int, ...]) -> tuple[bool, int]:
    """(verdict, nodes) of a search that keys every space it meets by its
    rows, in a dict of its own, and runs the prunes in the order the
    library documents: a subspace of at most one point, or a disconnected
    one, is decided from its mask at no charge; any other space the dict
    does not hold costs a node, and then a cone is contractible, a space
    with chi != 1 is not, one with fewer than two simple points is not,
    and otherwise it is contractible when deleting one of its simple
    points, tried in point order, leaves a contractible space.  Every rim
    is asked again at every level, and nodes counts what a cold search
    with that memo charges.  One call frame per level, so a chain of 400
    deletions stays inside the default recursion limit."""
    memo: dict[tuple[int, ...], bool] = {}
    nodes = 0

    def decide(rows: tuple[int, ...], mask: int) -> bool:
        if mask.bit_count() <= 1:
            return mask != 0
        return connected(rows, mask) and search(sub_rows(rows, mask))

    def search(rows: tuple[int, ...]) -> bool:
        nonlocal nodes
        if rows in memo:
            return memo[rows]
        nodes += 1
        n = len(rows)
        full = (1 << n) - 1
        result = False
        if any(row.bit_count() == n - 1 for row in rows):
            result = True
        elif _rows_euler(rows) == 1:
            simple = [v for v in range(n) if decide(rows, rows[v])]
            if len(simple) >= 2:
                for v in simple:
                    if search(sub_rows(rows, full ^ 1 << v)):
                        result = True
                        break
        memo[rows] = result
        return result

    verdict = decide(rows, (1 << len(rows)) - 1)
    return verdict, nodes


@cache
def exhaustive_oracle_agreement(max_points: int = 7) -> tuple[int, int, int]:
    """(graphs checked, contractible count, mismatches) for all connected
    graphs with at most max_points points; computed once per process."""
    verdicts = [
        (is_contractible(space_from_rows(rows)), naive_contractible_rows(rows))
        for rows in all_connected_rows(max_points)
    ]
    return len(verdicts), sum(v for v, _ in verdicts), sum(v != w for v, w in verdicts)


# -- literal-definition recognition on rows ------------------------------------------
#
# A 0-sphere is two points and no edge; an n-sphere has (n-1)-sphere rims
# and contractible punctures G - v, every point tested.  A closed
# n-manifold is connected with (n-1)-sphere rims, or the 0-sphere.  An
# n-disk is an n-sphere minus a point.  A manifold with boundary is
# connected, its rims (n-1)-spheres (interior) or (n-1)-disks (boundary),
# and its boundary a nonempty (n-1)-sphere.

_SPHERES: dict[tuple[int, ...], int | None] = {}


def _rim_spheres(rows: tuple[int, ...]) -> list[int | None]:
    return [literal_sphere(sub_rows(rows, row)) for row in rows]


def literal_sphere(rows: tuple[int, ...]) -> int | None:
    """n if rows is a digital n-sphere, else None."""
    if rows == (0, 0):
        return 0
    if rows not in _SPHERES:
        full = (1 << len(rows)) - 1
        dims = set(_rim_spheres(rows))
        sphere = len(dims) == 1 and None not in dims and all(
            contractible(sub_rows(rows, full & ~(1 << v))) for v in range(len(rows)))
        _SPHERES[rows] = dims.pop() + 1 if sphere else None
    return _SPHERES[rows]


def literal_closed(rows: tuple[int, ...]) -> int | None:
    """n if rows is a closed n-manifold, else None."""
    if rows == (0, 0):
        return 0
    dims = set(_rim_spheres(rows))
    if len(dims) != 1 or None in dims or not connected(rows, (1 << len(rows)) - 1):
        return None
    return dims.pop() + 1


def literal_disk(rows: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(n, boundary mask, interior mask) if rows is an n-disk, else None.

    If rows is S - a for an n-sphere S, the rim of a in S is exactly the
    set B of points whose rims in rows are no spheres: their rims are
    punctured spheres, contractible, and a contractible space is no
    sphere.  So S is rows plus an apex over B, the one sphere to test.
    """
    if len(rows) <= 1:
        return (0, 0, 1) if rows else None
    boundary = sum(1 << v for v, dim in enumerate(_rim_spheres(rows)) if dim is None)
    cone = tuple(row | (boundary >> v & 1) << len(rows) for v, row in enumerate(rows))
    n = literal_sphere(cone + (boundary,))
    return None if n is None else (n, boundary, (1 << len(rows)) - 1 & ~boundary)


def literal_bounded(rows: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(n, boundary mask, interior mask) if rows is a manifold with
    boundary, else None."""
    full = (1 << len(rows)) - 1
    if len(rows) < 2 or not connected(rows, full):
        return None
    dims, boundary = set(), 0
    for v, sphere in enumerate(_rim_spheres(rows)):
        if sphere is None:
            disk = literal_disk(sub_rows(rows, rows[v]))
            if disk is None:
                return None
            sphere = disk[0]
            boundary |= 1 << v
        dims.add(sphere + 1)
    if len(dims) != 1 or not boundary:
        return None
    n = dims.pop()
    if literal_sphere(sub_rows(rows, boundary)) != n - 1:
        return None
    return n, boundary, full & ~boundary


def on_space(literal, space: DigitalSpace):
    """A literal_* test of a space's rows, a split as DiskDecomposition."""
    found = literal(rows_of(space))
    if not isinstance(found, tuple):
        return found
    n, boundary, interior = found
    ids = space.points
    return DiskDecomposition(
        n,
        tuple(p for i, p in enumerate(ids) if boundary >> i & 1),
        tuple(p for i, p in enumerate(ids) if interior >> i & 1),
    )


def reference_sphere(space: DigitalSpace) -> int | None:
    """literal_sphere of a space: punctures at every point, no chi."""
    return literal_sphere(rows_of(space))


def literal_recognize(space: DigitalSpace) -> RecognitionResult:
    """The most specific kind: sphere, closed manifold, disk, then
    manifold with boundary."""
    for kind, literal in (
        (SpaceKind.SPHERE, literal_sphere),
        (SpaceKind.CLOSED_MANIFOLD, literal_closed),
        (SpaceKind.DISK, literal_disk),
        (SpaceKind.MANIFOLD_WITH_BOUNDARY, literal_bounded),
    ):
        found = on_space(literal, space)
        if found is not None:
            return RecognitionResult(kind, *(found if isinstance(found, tuple) else (found,)))
    return RecognitionResult(SpaceKind.NONE)


# -- embedded disks and reductions, decided by the definitions ----------------------


def literal_disks(M: DigitalSpace, dim: int, bound: int) -> tuple[list, int]:
    """(disks, interiors tried).  The disks are (interior, boundary) id
    tuples, one for each connected interior I of 2..bound points of the
    dim-manifold M whose I + N(I) is a dim-disk with interior exactly I.
    Interiors come breadth-first from the edges in edge order, each grown
    by one point of N(I) at a time in point order, each set once."""
    rows = rows_of(M)
    queue = [1 << i | 1 << j for i, row in enumerate(rows) for j in range(i + 1, len(rows))
             if row >> j & 1]
    seen = set(queue)
    disks = []
    for inside in queue:
        ring = reduce(or_, (row for i, row in enumerate(rows) if inside >> i & 1)) & ~inside
        positions = [i for i in range(len(rows)) if (inside | ring) >> i & 1]
        ball = sub_rows(rows, inside | ring)
        # a disk's interior is its points with sphere rims, so only a ball
        # whose sphere-rim points are I can be a disk with interior I
        if [d is not None for d in _rim_spheres(ball)] == [
            inside >> i & 1 == 1 for i in positions
        ] and (literal_disk(ball) or (None,))[0] == dim:
            disks.append((
                tuple(M.points[i] for i in positions if inside >> i & 1),
                tuple(M.points[i] for i in positions if ring >> i & 1),
            ))
        if inside.bit_count() < bound:
            for p in range(len(rows)):
                if ring >> p & 1 and inside | 1 << p not in seen:
                    seen.add(inside | 1 << p)
                    queue.append(inside | 1 << p)
    return disks, len(queue)


def _first_simple(G: DigitalSpace, candidates):
    """The first candidate (point or edge ids) with a contractible rim."""
    rows = rows_of(G)
    index = {p: i for i, p in enumerate(G.points)}
    for candidate in candidates:
        common = -1
        for p in candidate:
            common &= rows[index[p]]
        if contractible(sub_rows(rows, common)):
            return candidate
    return None


def literal_delete_steps(G: DigitalSpace) -> list[TransformStep]:
    """reduce_space's DELETE_ONLY steps as its docstring states them:
    delete the first simple point in id order until none is left, then
    the first simple edge in edge order until none is left, and repeat
    while either sweep moved.  Simplicity is the literal contractibility
    of the rim or joint rim."""
    steps = []
    while True:
        before = len(steps)
        while len(G) > 1 and (point := _first_simple(G, zip(G.points))):
            steps.append(TransformStep("delete-point", point, G.neighbors(*point)))
            G = G.delete_points(point)
        while edge := _first_simple(G, G.edges):
            steps.append(TransformStep("delete-edge", edge))
            G = G.remove_edge(*edge)
        if len(steps) == before:
            return steps


# -- subprocesses -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """os.environ with PYTHONPATH led by the directory this process imported
    digitop from, so a `python -m digitop` child finds the same package,
    installed or not."""
    package_root = str(Path(digitop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
