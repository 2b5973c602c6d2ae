"""Complexity, classification reports and compressed-manifold catalogs.

The complexity of a closed n-manifold is the point count of its
compression.  A classification report gathers the three comparison
elements used throughout this library: the complexity, the canonical
form of the compression, and the reduced punctured space (canonical
form plus Euler characteristic).

catalog(n, N) enumerates the compressed closed n-manifolds with at most
N points: connected graphs are grown one point at a time, deduplicated
by canonical form at every size, pruned by necessary conditions for
sitting inside an n-manifold of size <= N, and finally filtered by the
recognizer and edge-compressedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .budget import Budget, BudgetExceeded, ensure_budget
from .canon import CanonicalForm, canonical_encoding_rows, canonical_form
from .homotopy import ReductionStrategy, reduce_space
from .recognition import recognize_closed_manifold, require_closed_manifold
from .space import DigitalSpace
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
    budget = ensure_budget(budget)
    dim = require_closed_manifold(M, budget)
    compressed = compress(M, budget).space
    punctured = M.delete_points([M.points[0]])
    reduced = reduce_space(punctured, ReductionStrategy.DELETE_ONLY, budget).space
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

# sized so that the 2-manifold search is exhaustive through 10 points
DEFAULT_CATALOG_BUDGET = 4_000_000


def catalog(n: int, max_points: int, budget: Budget | None = None) -> Catalog:
    """All compressed closed n-manifolds with 2n+2 .. max_points points.

    Budget exhaustion never raises here; it clears the exhaustive flag
    and whatever was found so far is returned.
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
            if recognize_closed_manifold(space, budget) != n:
                continue
            if next(_disks(space, n, 2, budget), None) is not None:
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
                if _prune(candidate, n, remaining):
                    continue
                key = canonical_encoding_rows(candidate)
                if key not in next_tier:
                    next_tier[key] = candidate
        for enc in sorted(next_tier):
            yield next_tier[enc]
        tier = next_tier


def _prune(rows: list[int], n: int, remaining: int) -> bool:
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
            if not _rim_extends_to_cycle(rows, v):
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


def _rim_extends_to_cycle(rows: list[int], v: int) -> bool:
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
