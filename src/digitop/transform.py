"""Manifold-preserving transformations and compression.

An R-transformation replaces an edge (v, u) of a closed n-manifold by a
new point adjacent to v, u and their common neighbours; it preserves
both the manifold structure and the Euler characteristic.  Disk
contraction is the size-reducing inverse idea: the interior of an
embedded n-disk is replaced by a single point adjacent to the disk
boundary.  Compressing a manifold means contracting disks until no
contraction applies.  One search finds the disks: it grows connected
interiors I breadth-first from the edges and keeps I when I + N(I) plus
an apex over N(I) is an n-sphere, the cone test.  It needs no rim split:
the rims of I are spheres, those of N(I) in the disk punctured spheres.
Like recognition, the search works on M's bitmask rows and builds no
DigitalSpace per candidate: recognition's row-level sphere test gets
the ring N(I) as a mask over M's rows and the cone as rows of its own
with their full mask; the search yields masks.
contract_disk runs the same cone on a given set D, with I the points of
D whose neighbours all lie in D.  In a closed manifold that decides "D
is a disk whose interior has no neighbour outside D": the rims of I are
M's, spheres; a ring point's cone rim is a sphere, so its rim in D is a
punctured one; a point with no neighbour in I gets a cone as cone rim.
It runs no ring test, which would refuse S0's 0-disk {a} (empty ring).
compress contracts edge-disks (interior exactly {v, u}) in deterministic
edge order, and is_compressed looks for disks whose interior has at most
a given number of points.
compress and contract_disk turn a disk into a point by one step,
_contract, which re-checks only the rims the edit changed, those of the
ring, and raises NotAManifoldError if the result were no closed manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Iterator

from .budget import Budget, ensure_budget
from .canon import isomorphism
from .recognition import NotAManifoldError, _sphere, require_closed_manifold
from .space import DigitalSpace, _apex, _bits, _edges


@dataclass(frozen=True)
class ContractionStep:
    """One disk contraction: interior points replaced by new_point."""

    interior_removed: tuple[str, ...]
    boundary: tuple[str, ...]
    new_point: str


@dataclass(frozen=True)
class CompressionResult:
    space: DigitalSpace
    steps: tuple[ContractionStep, ...]


class CompressionVerdict(Enum):
    EDGE_COMPRESSED = "edge-compressed"
    COMPRESSED_UP_TO_BOUND = "compressed-up-to-bound"
    NOT_COMPRESSED = "not-compressed"


@dataclass(frozen=True)
class CompressionCheck:
    verdict: CompressionVerdict
    witness: tuple[str, ...] | None = None


def r_transform(
    M: DigitalSpace,
    v: str,
    u: str,
    fresh: str | None = None,
    budget: Budget | None = None,
) -> DigitalSpace:
    """Replace edge (v, u) by a point adjacent to v, u and O(vu).

    The edge is checked before M is recognized, so a non-edge raises
    ValueError and charges nothing, whatever M is.
    """
    if not M.adjacent(v, u):
        raise ValueError(f"no such edge: {v!r} -- {u!r}")
    budget = ensure_budget(budget)
    require_closed_manifold(M, budget)
    if fresh is None:
        fresh = M.fresh_id()
    common = M._ids_of(M._rows[M._require(v)] & M._rows[M._require(u)])
    return M.add_point(fresh, (v, u) + common).remove_edge(v, u)


def contract_disk(
    M: DigitalSpace,
    disk_points: tuple[str, ...] | list[str] | set[str],
    fresh: str | None = None,
    budget: Budget | None = None,
) -> DigitalSpace:
    """Replace the interior of an embedded n-disk by one fresh point.

    The disk search's cone test decides the given points D: the
    interior I is the points of D whose neighbours are all in D, and D
    plus an apex over D - I must be an n-sphere.  In the closed
    n-manifold M this holds exactly when D induces an n-disk with
    interior I: I's rims are M's, (n-1)-spheres; a ring point's cone rim
    is a sphere, so its rim in D is a punctured one, contractible and no
    sphere; a point of D with no neighbour in I gets a cone as cone rim.
    S0's 0-disk {a} passes (its cone is S0), though its empty ring would
    fail the search's ring test, which is why none is run here.
    Unknown point ids raise ValueError before M is recognized.  The
    contraction is compress's step (_contract): it raises
    NotAManifoldError if its result were no closed n-manifold.
    """
    disk = M._mask_of(disk_points)
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    inside = sum(1 << p for p in _bits(disk) if not M._rows[p] & ~disk)
    cone = _apex(M._rows, disk, disk & ~inside)
    if _sphere(cone, (1 << len(cone)) - 1, budget) != dim:
        raise ValueError(f"the points induce no {dim}-disk whose interior stays inside them")
    return _contract(M, inside, disk & ~inside, dim, budget, fresh)[0]


def _contract(
    M: DigitalSpace,
    inside: int,
    ring: int,
    dim: int,
    budget: Budget,
    fresh: str | None = None,
) -> tuple[DigitalSpace, ContractionStep]:
    """M with the interior mask replaced by a fresh point over the ring
    mask, and the step; NotAManifoldError unless every ring point's rim
    in the new space is a (dim-1)-sphere.

    The caller's cone test passed on I + ring plus an apex over the
    ring, a dim-sphere, so the ring is the apex's rim there, a sphere.
    Checking the ring's rims then decides that the result is a closed
    dim-manifold.  The fresh point's rim is the ring.  A point off the
    ring is adjacent neither to the interior nor to the fresh point, so
    its rim is as it was in M.  A path through the interior can go
    through the fresh point instead, so the space stays connected.
    """
    interior, boundary = M._ids_of(inside), M._ids_of(ring)
    if fresh is None:
        fresh = M.fresh_id()
    out = M.delete_points(interior).add_point(fresh, boundary)
    rows = out._rows
    if any(_sphere(rows, rows[i], budget) != dim - 1 for i in _bits(out._mask_of(boundary))):
        raise NotAManifoldError(f"contracting {interior} left no closed {dim}-manifold")
    return out, ContractionStep(interior, boundary, fresh)


def find_edge_disks(
    M: DigitalSpace, budget: Budget | None = None
) -> list[tuple[str, str]]:
    """Edges (v, u) whose joint ball is an n-disk with interior {v, u}.

    These are exactly the contraction opportunities compress uses.
    """
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    return [M._ids_of(inside) for inside, _ in _disks(M._rows, dim, 2, budget)]


def _disks(
    rows: tuple[int, ...], dim: int, bound: int, budget: Budget
) -> Iterator[tuple[int, int]]:
    """Masks (I, N(I)) of each embedded dim-disk I + N(I) of the rows'
    dim-manifold with I a connected set of 2..bound points.

    Interiors I grow breadth-first from the edges, in edge order, one
    neighbour at a time, as masks over the rows; each costs one budget
    node.  I passes when its neighbours N(I) induce a (dim-1)-sphere and
    the cone, I + N(I) plus an apex over N(I) (space._apex), is a
    dim-sphere; recognition's _sphere gets the ring as a mask over the
    rows, and the cone as its own rows with their full mask.  That is
    recognize_disk's cone test, whose rim split adds nothing: a point of
    N(I) has a punctured sphere as its rim in I + N(I), no sphere.

    The edges stream from _edges, so a caller that stops at a disk has
    built no mask for the edges after it; the grown interiors follow in
    the order they were grown.  Those have >= 3 points, so seen never
    needs the edges.
    """
    grown_queue: list[int] = []
    seen: set[int] = set()
    for inside in chain((1 << i | 1 << j for i, j in _edges(rows)), grown_queue):
        budget.charge()
        ring = 0
        for p in _bits(inside):
            ring |= rows[p]
        ring &= ~inside
        if _sphere(rows, ring, budget) == dim - 1:
            cone = _apex(rows, inside | ring, ring)
            if _sphere(cone, (1 << len(cone)) - 1, budget) == dim:
                yield inside, ring
        if inside.bit_count() < bound:
            for p in _bits(ring):
                grown = inside | 1 << p
                if grown not in seen:
                    seen.add(grown)
                    grown_queue.append(grown)


def compress(M: DigitalSpace, budget: Budget | None = None) -> CompressionResult:
    """Contract the first available edge-disk until none remains.

    M is recognized once, at entry; each contraction (_contract)
    re-checks only the rims it changed, so every space along the way is
    a closed manifold of the entry dimension.  The result depends on M
    alone, so it is kept with M, as canonical forms are: compressing M
    again charges nothing.
    """
    cached = M._cache.get("compression")
    if cached is not None:
        return cached
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    current = M
    steps: list[ContractionStep] = []
    while (disk := next(_disks(current._rows, dim, 2, budget), None)) is not None:
        current, step = _contract(current, *disk, dim, budget)
        steps.append(step)
    result = M._cache["compression"] = CompressionResult(current, tuple(steps))
    return result


def is_compressed(
    M: DigitalSpace, interior_bound: int = 2, budget: Budget | None = None
) -> CompressionCheck:
    """Search for an embedded disk whose interior has 2..bound points.

    The bound is the interior size.  The disk tried for a connected
    interior I is I plus its neighbours N(I); NOT_COMPRESSED comes with
    the first one found as the witness.  With the bound at 2 a clean
    result is EDGE_COMPRESSED, meaning M has no edge-disk; larger bounds
    report COMPRESSED_UP_TO_BOUND.
    """
    if interior_bound < 2:
        raise ValueError("interior_bound must be at least 2")
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    disk = next(_disks(M._rows, dim, interior_bound, budget), None)
    if disk is not None:
        return CompressionCheck(CompressionVerdict.NOT_COMPRESSED, M._ids_of(disk[0] | disk[1]))
    verdict = (
        CompressionVerdict.EDGE_COMPRESSED
        if interior_bound == 2
        else CompressionVerdict.COMPRESSED_UP_TO_BOUND
    )
    return CompressionCheck(verdict)


def connected_sum(
    M: DigitalSpace,
    v: str,
    N: DigitalSpace,
    u: str,
    matching: dict[str, str] | None = None,
) -> DigitalSpace:
    """(M - v) # (N - u): delete both points, identify the two rims.

    matching maps rim(M, v) points onto rim(N, u) points and must be a
    graph isomorphism between the rims; when omitted, the deterministic
    one from the canonical forms is used.  Points of N outside the rim
    keep their ids, so they must not collide with ids of M - v.
    """
    rim_m = M.rim(v)
    rim_n = N.rim(u)
    if matching is None:
        matching = isomorphism(rim_m, rim_n)
        if matching is None:
            raise ValueError("the two rims are not isomorphic")
    else:
        _check_matching(rim_m, rim_n, matching)
    into_m = {nu: mv for mv, nu in matching.items()}
    m_points = set(M.points) - {v}
    n_rest = set(N.points) - {u} - set(matching.values())
    collisions = m_points & n_rest
    if collisions:
        raise ValueError(f"id collisions between summands: {sorted(collisions)}")
    points = sorted(m_points | n_rest)
    edges = [edge for edge in M.edges if v not in edge]
    edges += [
        (into_m.get(p, p), into_m.get(q, q)) for p, q in N.edges if u not in (p, q)
    ]
    return DigitalSpace(points, edges)


def _check_matching(
    rim_m: DigitalSpace, rim_n: DigitalSpace, matching: dict[str, str]
) -> None:
    if sorted(matching.keys()) != list(rim_m.points):
        raise ValueError("matching does not cover the first rim exactly")
    if sorted(matching.values()) != list(rim_n.points):
        raise ValueError("matching does not map onto the second rim exactly")
    for p, q in combinations(rim_m.points, 2):
        if rim_m.adjacent(p, q) != rim_n.adjacent(matching[p], matching[q]):
            raise ValueError(f"matching is not an isomorphism at {p!r}, {q!r}")
