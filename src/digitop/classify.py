"""Complexity, classification reports and compressed-manifold catalogs.

The complexity of a closed n-manifold is the point count of its
compression.  A classification report gathers the three comparison
elements used throughout this library: the complexity, the canonical
form of the compression, and the reduced punctured space (canonical
form plus Euler characteristic).

catalog(n, N) enumerates the compressed closed n-manifolds with at most
N points.  Connected graphs are grown one point at a time: a search over
the new point's neighbourhood builds only the graphs that may still sit
inside an n-manifold of size <= N, one per orbit of the parent's
discovered automorphisms.  One link rule, the same in every dimension,
decides that (see _augmentations): every n-clique has at most 2 common
neighbours, and the link of every (n-1)-clique is disjoint paths or one
whole cycle of >= 4 points.  For n >= 3 growth checks the second half
only in part, and recognition drops what it lets through.  A closing
bound adds what the points left allow: a link of k paths needs at least
max(k, 4 - its size) more points to close, and a graph with a link that
needs more than the points still to come is dropped.
As in McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), a grown graph is kept only when
its new point is designated, a label-invariant choice of the points it
may have been grown from last, so most duplicates are dropped before any
canonical search.  Each size is deduplicated by canonical form, and each
class keeps its first designated copy; the graphs are finally filtered
by the recognizer and edge-compressedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import canon
from .budget import Budget, BudgetExceeded, ensure_budget
from .canon import CanonicalForm, canonical_encoding_rows, canonical_form
from .homotopy import _delete_moves
from .recognition import recognize_closed_manifold, require_closed_manifold
from .space import DigitalSpace, _bits, _reach
from .transform import _disks, compress


@dataclass(frozen=True)
class ClassificationReport:
    point_count: int
    dimension: int
    euler: int
    complexity: int
    compression: CanonicalForm
    punctured_reduced: CanonicalForm
    punctured_reduced_euler: int


@dataclass(frozen=True)
class CatalogEntry:
    form: CanonicalForm
    points: int
    euler: int


@dataclass(frozen=True)
class Catalog:
    dimension: int
    max_points: int
    entries: tuple[CatalogEntry, ...]
    exhaustive: bool


class MatchKind(Enum):
    MEMBER = "member"
    COMPRESSES_TO = "compresses-to"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class CatalogMatch:
    kind: MatchKind
    entry: CatalogEntry | None = None


def complexity(M: DigitalSpace, budget: Budget | None = None) -> int:
    """Point count of the compression of M."""
    return len(compress(M, budget).space)


def classification_report(
    M: DigitalSpace, budget: Budget | None = None
) -> ClassificationReport:
    """The comparison elements of the closed manifold M: its complexity,
    the canonical form of its compression, and M minus its first point
    reduced by reduce_space's DELETE_ONLY moves, as a canonical form and
    an Euler characteristic.

    BudgetExceeded propagates from every part, the punctured reduction
    included, so a report is complete or not returned at all.
    """
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    compressed = compress(M, budget).space
    # the moves, not reduce_space: a budget that runs out mid-reduction
    # must raise, where reduce_space would return a partial space
    reduced = M.delete_points([M.points[0]])
    for reduced, _ in _delete_moves(reduced, budget):
        pass
    return ClassificationReport(
        point_count=len(M),
        dimension=dim,
        euler=M.euler_characteristic(),
        complexity=len(compressed),
        compression=canonical_form(compressed),
        punctured_reduced=canonical_form(reduced),
        punctured_reduced_euler=reduced.euler_characteristic(),
    )


# -- catalog generation ----------------------------------------------------------

# catalog(2, 10) is exhaustive after about 56k nodes of this budget,
# catalog(2, 11) after 643k and catalog(3, 11) after 87k
DEFAULT_CATALOG_BUDGET = 4_000_000


def catalog(n: int, max_points: int, budget: Budget | None = None) -> Catalog:
    """All compressed closed n-manifolds with 2n+2 .. max_points points.

    The budget is charged one node per partial neighbourhood mask that
    the growth search visits, plus what recognizing each grown graph and
    scanning it for edge-disks charge.  Budget exhaustion never raises
    here; it clears the exhaustive flag and whatever was found so far is
    returned.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if max_points < 2 * n + 2:
        raise ValueError("max_points below the minimal sphere size 2n+2")
    if budget is None:
        budget = Budget(DEFAULT_CATALOG_BUDGET)
    if n == 0:
        # the only closed 0-manifold is the two-point sphere, which the
        # connected-growth generator cannot reach; emitted directly
        sphere0 = DigitalSpace(("a", "b"))
        entry = CatalogEntry(canonical_form(sphere0), 2, 2)
        return Catalog(0, max_points, (entry,), True)
    entries: list[CatalogEntry] = []
    exhaustive = True
    try:
        for rows in _grown_connected_graphs(n, max_points, budget):
            if len(rows) < 2 * n + 2:
                continue
            # zero-padded ids sort in index order, as _from_rows requires
            width = max(2, len(str(len(rows) - 1)))
            space = DigitalSpace._from_rows(
                [f"v{k:0{width}d}" for k in range(len(rows))], rows
            )
            # public, not _closed_dim: a traced run then records a recognition span
            if recognize_closed_manifold(space, budget) != n:
                continue
            if next(_disks(space._rows, n, 2, budget), None) is not None:
                continue
            entries.append(
                CatalogEntry(
                    canonical_form(space), len(space), space.euler_characteristic()
                )
            )
    except BudgetExceeded:
        exhaustive = False
    entries.sort(key=lambda e: (e.points, e.form.encoding))
    return Catalog(n, max_points, tuple(entries), exhaustive)


def _grown_connected_graphs(n: int, max_points: int, budget: Budget):
    """Connected graphs up to isomorphism, grown one point at a time.

    Each new point gets a nonempty neighbourhood, which reaches every
    connected graph (delete a designated point, see _new_point_designated,
    to find the parent).  Only the neighbourhoods that _augmentations finds
    extendable into a closed n-manifold with at most max_points points,
    and whose new point is designated, are canonized.  Each tier is
    yielded in encoding order, and each class keeps its first designated
    copy in parent order, then ascending mask order, together with the
    automorphisms its canonical search found.
    """
    # encoding -> (rows, the automorphisms its canonical search found)
    tier = {canonical_encoding_rows([0]): ([0], ())}
    yield [0]
    for size in range(2, max_points + 1):
        remaining = max_points - size
        next_tier = {}
        for enc in sorted(tier):
            rows, generators = tier[enc]
            for candidate in _augmentations(rows, n, remaining, budget, generators):
                if not _new_point_designated(candidate):
                    continue
                key, _, found = canon._canonical(candidate)
                if key not in next_tier:
                    next_tier[key] = (candidate, found)
        for enc in sorted(next_tier):
            yield next_tier[enc][0]
        tier = next_tier


def _new_point_designated(rows: list[int]) -> bool:
    """Is the last point of a connected graph, whose deletion leaves it
    connected, one that it may be grown from last?

    A point is designated when deleting it leaves the graph connected and
    no other such point has a larger key (degree, sorted neighbour
    degrees).  The key reads no labels, so an isomorphism maps the
    designated points onto the designated points, and they are never
    none: a spanning tree's leaves can all be deleted.  So every class
    is reached from the class of its graph minus a designated point, and
    candidates whose new point is not designated are duplicates.  Only
    the points whose key beats the last point's are tested for deletion.
    """
    degrees = [row.bit_count() for row in rows]
    last = len(rows) - 1
    def key(v: int) -> tuple[int, list[int]]:
        return degrees[v], sorted(degrees[u] for u in _bits(rows[v]))
    own = key(last)
    full = (1 << last + 1) - 1
    for v in range(last):
        if degrees[v] > own[0] or degrees[v] == own[0] and key(v) > own:
            rest = full ^ 1 << v
            if _reach(rows, rest & -rest, rest) == rest:
                return False
    return True


def _augmentations(
    rows: list[int], n: int, remaining: int, budget: Budget, generators: tuple
) -> list[list[int]]:
    """rows plus one new point p, for each neighbourhood mask that may
    still extend to a closed n-manifold with remaining more points.

    A depth-first search on an explicit stack decides bits from the
    highest down, excluding a point before including it, so masks come
    out in ascending order; it charges one node per partial mask.  Each
    point's degree must reach 2n - remaining, as every point still to
    come adds at most one neighbour: a point below that floor must join,
    and p needs that many neighbours.  Growth never joins two old points,
    so a grown graph is an induced subgraph of every manifold it becomes,
    and one link rule cuts a partial mask: in a closed flag n-manifold
    every n-clique has exactly 2 common neighbours and the link (common
    neighbourhood) of every (n-1)-clique is one cycle of >= 4 points.  So
    no n-clique may gain a third common neighbour, and a point whose
    n-cliques all have 2 common neighbours never joins.  rows must have
    passed this test with remaining + 1, so only what p changes is
    checked, as each point v joins (see _may_join): each old link that p
    or v enters must stay disjoint paths or close into one such cycle,
    whole.  For n = 2 that is every link p changes, p's own included.
    For n >= 3 the link of a new (n-1)-clique through both p and v, such
    as the edge pv when n = 3, is only held to at most 2 neighbours per
    point: it may be a cycle with other points beside it.  Such a graph
    extends to no manifold, and recognition drops it later.

    A closing bound counts the points a link still needs (_needs).  The
    rim of a point of a closed n-manifold is an (n-1)-sphere, and a rim
    of a rim is a sphere one dimension lower, so the link of an
    (n-1)-clique F, its points' rims taken one inside the next, is a
    digital 1-sphere: an induced cycle of >= 4 points.  The link of F in
    the grown graph, an induced subgraph, is that cycle or an induced
    proper part of it: k paths, with k gaps that each take a point, and
    at least 4 - |link(F)| points missing.  A leaf is dropped when one
    of its links needs more than remaining points.  p adds at most one
    point to a link, filling at most one gap, so a child needs at most
    one point fewer than its parent, and a graph that fails the bound
    has no descendant that passes it.  So a link of rows that needs more
    than remaining points must gain p: every point of its clique is
    forced.  The leaf then checks only the cliques inside p and its
    neighbours, as p leaves every other link as rows had it.

    A surviving mask that one of the generators, automorphisms of rows,
    maps to a smaller one is dropped: that graph is isomorphic and comes
    first, so each class keeps its first mask.
    """
    s = len(rows)
    floor = 2 * n - remaining
    forced = allowed = 0
    for v, row in enumerate(rows):
        degree = row.bit_count()
        if degree + 1 < floor:
            return []
        if degree < floor:
            forced |= 1 << v
        links = _links(rows, row, n - 1, row)
        if min((link.bit_count() for _, link in links), default=0) < 2:
            allowed |= 1 << v
    for clique, need in _needs(rows, n, (1 << s) - 1):
        if need > remaining:
            forced |= clique
    if s < floor or forced & ~allowed:
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
            join = _may_join(rows, n, k, mask) if allowed & bit else 0
            if join == 2:
                # p's own link closed into a cycle: every lower bit stays out
                if not forced & bit - 1:
                    stack.append((0, mask | bit))
            elif join:
                stack.append((k, mask | bit))
            if not forced & bit and mask.bit_count() + k >= floor:
                stack.append((k, mask))
            continue
        if mask:
            grown = [row | new if mask >> i & 1 else row for i, row in enumerate(rows)]
            grown.append(mask)
            if all(need <= remaining for _, need in _needs(grown, n, mask | new)):
                kept.append((mask, grown))
    if len(kept) > 1 and generators:
        kept = [
            (mask, candidate)
            for mask, candidate in kept
            if all(sum(1 << g[v] for v in _bits(mask)) >= mask for g in generators)
        ]
    return [candidate for _, candidate in kept]


def _may_join(rows: list[int], n: int, v: int, mask: int) -> int:
    """Can point v join the partial mask, giving the new point p the
    neighbour v, under the link rule of _augmentations?  0 if not, 2 if
    it closes p's own link, the mask, into a cycle (n = 2), else 1.

    With common the points of the mask adjacent to v, it checks:
    - per (n-1)-clique F in common, the n-clique F + v had at most one
      common neighbour, and p enters link(F) next to at most 2 points,
      which lie on different paths of link(F) or close all of it, >= 3
      points, into a cycle (_link);
    - per (n-2)-clique G in common, p enters link(v + G) and v enters
      link(p + G), each next to the points of link(G) in common: at most
      2, closing in both links as above.
    For n = 2, G is the empty clique, so the second check holds the edge
    pv to at most 2 common neighbours, and its closure of the mask is the
    2 returned.  For n >= 3 the link of a new (n-1)-clique through p and
    v (common itself when n = 3) is held only to at most 2 neighbours
    per point by the second check; nothing asks a cycle in it to be all
    of it.
    """
    common = rows[v] & mask
    grown = mask | 1 << v
    full = (1 << len(rows)) - 1
    for _, link in _links(rows, common, n - 1, full):
        # per (n-1)-clique F in common: F + v gains p as a common
        # neighbour, and p gains the neighbour v in link(F)
        ends = link & grown
        if (link & rows[v]).bit_count() > 1 or ends.bit_count() > 2:
            return 0
        if ends.bit_count() == 2 and not _link(rows, ends, link):
            return 0
    closed = 1
    for _, link in _links(rows, common, n - 2, full):
        # per (n-2)-clique G in common: p joins link(v + G) and v joins
        # link(p + G), each next to ends
        ends = link & common
        if ends.bit_count() > 2:
            return 0
        if ends.bit_count() == 2:
            closed = _link(rows, ends, link & mask)
            if not closed or not _link(rows, ends, link & rows[v]):
                return 0
    # for n = 2 the only G is the empty clique, and link(p + G) is the mask
    return closed if n == 2 else 1


def _links(rows: list[int], within: int, k: int, common: int, clique: int = 0):
    """(clique mask, link) for each k-clique inside within, the link being
    the points of common adjacent to all of it: common itself for k = 0,
    with the empty clique, nothing for k < 0."""
    if k == 0:
        yield clique, common
    while k > 0 and within:
        v = (within & -within).bit_length() - 1
        within &= within - 1
        if k == 1:
            yield clique | 1 << v, common & rows[v]
        else:
            yield from _links(
                rows, within & rows[v], k - 1, common & rows[v], clique | 1 << v
            )


def _needs(rows: list[int], n: int, within: int):
    """(clique mask, need) for each (n-1)-clique F inside within: the
    points that link(F) still needs to close into one induced cycle of
    >= 4 points.  0 when it is one: connected, 2-regular, >= 4 points.
    Else max(k, 4 - |link(F)|) for its k components, as each of its k
    paths leaves a gap that takes a point to fill."""
    full = (1 << len(rows)) - 1
    for clique, link in _links(rows, within, n - 1, full):
        paths, rest = 0, link
        while rest:
            rest &= ~_reach(rows, rest & -rest, link)
            paths += 1
        size = link.bit_count()
        closed = paths == 1 and size >= 4 and all(
            (rows[v] & link).bit_count() == 2 for v in _bits(link)
        )
        yield clique, 0 if closed else max(paths, 4 - size)


def _link(rows: list[int], ends: int, rim: int) -> int:
    """The new point links the two path ends in ends: 1 when they lie on
    different paths of rim, 2 when their path is all of rim, >= 3 points,
    closing a cycle of length >= 4, else 0 (a shorter or partial cycle)."""
    low = ends & -ends
    path = _reach(rows, low, rim)
    if not path & ends ^ low:
        return 1
    return 2 if path == rim and rim.bit_count() >= 3 else 0


def classify_against_catalog(
    M: DigitalSpace, cat: Catalog, budget: Budget | None = None
) -> CatalogMatch:
    """MEMBER if M itself is listed, COMPRESSES_TO if its compression is."""
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    if dim != cat.dimension:
        raise ValueError(
            f"dimension mismatch: space is {dim}, catalog is {cat.dimension}"
        )
    by_encoding = {entry.form.encoding: entry for entry in cat.entries}
    own = canonical_form(M).encoding
    if own in by_encoding:
        return CatalogMatch(MatchKind.MEMBER, by_encoding[own])
    compressed = compress(M, budget).space
    comp_enc = canonical_form(compressed).encoding
    if comp_enc in by_encoding:
        return CatalogMatch(MatchKind.COMPRESSES_TO, by_encoding[comp_enc])
    return CatalogMatch(MatchKind.UNMATCHED)
