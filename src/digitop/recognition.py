"""Recognition of digital spheres, disks and manifolds.

Each kind is one test over rims, as the definitions read.  A digital
n-sphere is two isolated points when n = 0; for n > 0 it is a connected
space in which every rim is an (n-1)-sphere (_closed_dim) and every
punctured space G - v is contractible.  A closed n-manifold is the
first half of that: _closed_dim alone.  An n-disk is a sphere minus a
point, so G is a disk exactly when an apex over the points whose rims
are not spheres makes an n-sphere (the cone test).  A manifold
with (spherical) boundary splits the same way into interior points with
sphere rims and boundary points with disk rims, and is decided by the
same cone (_cone): it must be a closed n-manifold.

Sphere recognition walks the rims first: a space that is not a closed
manifold, a cycle, or a closed surface (a 2-sphere exactly when its
Euler characteristic is 2) is decided there with no canonical search,
and only a closed manifold of dimension >= 3 goes on to the puncture
test.
Verdicts are memoized under the space's rows (cache.py), with the
closed-manifold dimension stored next to the sphere dimension, so a
repeated recognize of a closed manifold under the same labels walks no
rims.
Punctured-space checks only need one representative per automorphism
orbit, which is what makes the highly symmetric minimal spheres cheap
to certify.

Below the public recognize* functions a subspace is asked for as
(rows, mask), as in the contractibility search: _sphere and
_sphere_walk take a space's rows and the mask of the whole space, a rim
or a ring, decide S0 and subspaces of fewer than four points from the
mask, and build the others' rows (space._induced) as the memo key.  A
puncture goes to homotopy._level as the full mask less one point, a
level of the space's chain, so the punctures of one space share one
table of levels.  A cone is rows of its own, the apex at row 0
(space._apex), asked for with its full mask.  No DigitalSpace is
built; the public functions turn masks back into point ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .budget import Budget, ensure_budget
from .cache import MISSING, FormCache
from . import canon
from .homotopy import _Chain, _level
from .space import DigitalSpace, _apex, _connected, _euler, _induced

_SPHERE = FormCache()


class SpaceKind(Enum):
    SPHERE = "sphere"
    DISK = "disk"
    CLOSED_MANIFOLD = "closed-manifold"
    MANIFOLD_WITH_BOUNDARY = "manifold-with-boundary"
    NONE = "none"


class DiskDecomposition(NamedTuple):
    dimension: int
    boundary: tuple[str, ...]
    interior: tuple[str, ...]


@dataclass(frozen=True)
class RecognitionResult:
    kind: SpaceKind
    dimension: int | None = None
    boundary: tuple[str, ...] | None = None
    interior: tuple[str, ...] | None = None


class NotAManifoldError(ValueError):
    """An operation that requires a closed manifold got something else."""


def recognize_sphere(G: DigitalSpace, budget: Budget | None = None) -> int | None:
    """Dimension n if G is a digital n-sphere, else None."""
    return _sphere(G._rows, (1 << len(G)) - 1, ensure_budget(budget))


def _sphere(rows: tuple[int, ...], mask: int, budget: Budget) -> int | None:
    return _sphere_walk(rows, mask, budget)[0]


def _sphere_walk(
    rows: tuple[int, ...], mask: int, budget: Budget
) -> tuple[int | None, int | None]:
    """The sphere dimension and _closed_dim of the subspace of rows
    induced by mask, memoized together, so a closed manifold's rims are
    walked once, and never on a memo hit.  S0 and subspaces of fewer
    than four points are decided from the mask; only the others have
    their rows built, as the memo key.

    Being a closed manifold is local, so the rims decide it before any
    canonization.  A space that is not one is no sphere; a closed
    1-manifold is a cycle of length >= 4, whose punctures are paths, so
    it is a 1-sphere; a closed 2-manifold is a 2-sphere exactly when its
    Euler characteristic is 2.  These answers charge no node.  Only a
    closed manifold of dimension >= 3 charges one node and tests one
    puncture per automorphism orbit.  One memo lookup under the rows
    comes first, and every verdict is stored there.

    Why chi decides dimension 2.  A closed 2-manifold G is connected,
    and each rim is a cycle of length >= 4, the link of its point in the
    clique complex, so that complex is a flag triangulated closed surface.
    (=>) If chi = 2, G is S^2 by the classification of surfaces, and
    each puncture G - v is a flag disk.  A flag disk is contractible, by
    induction on its points: a boundary point's rim is a path, so the
    point is simple.  If the disk has a chord xy, take one whose side D1
    holds no other chord; D1's boundary has a point other than x and y,
    touched by no chord, and deleting it leaves a flag disk.  With no
    chord, any boundary point will do.
    (<=) A 2-sphere has chi(G) = chi(G - v) + 1 - chi(rim v) = 1 + 1 - 0
    = 2, since G - v is contractible and rim v is a cycle.
    """
    count = mask.bit_count()
    if count == 2 and not rows[(mask & -mask).bit_length() - 1] & mask:
        return 0, 0
    if count < 4:
        # no sphere besides S0, and no closed manifold, has fewer than four points
        return None, None
    rows = _induced(rows, mask)
    hit = _SPHERE.get(rows)
    if hit is not MISSING:
        return hit
    closed = _closed_dim(rows, budget)
    full = (1 << count) - 1
    if closed is None or closed < 3:
        n = None if closed == 2 and _euler(rows, full) != 2 else closed
    else:
        budget.charge()
        chain = _Chain(rows)
        punctures_contractible = all(
            _level(chain, full ^ 1 << orbit[0], budget)
            for orbit in canon._orbits(count, canon._canonical(rows)[2])
        )
        n = closed if punctures_contractible else None
    _SPHERE.put(rows, (n, closed))
    return n, closed


def _closed_dim(rows: tuple[int, ...], budget: Budget) -> int | None:
    """n if the space with these rows is connected and every rim is an
    (n-1)-sphere, else None.

    The first point's rim fixes the dimension; the scan stops at the
    first rim that disagrees.
    """
    if not _connected(rows):
        return None
    rim_dim = _sphere(rows, rows[0], budget)
    if rim_dim is None or any(_sphere(rows, row, budget) != rim_dim for row in rows[1:]):
        return None
    return rim_dim + 1


def _cone(
    G: DigitalSpace, budget: Budget
) -> tuple[tuple[int, ...], DiskDecomposition | None]:
    """The cone rows and the split (n, boundary, interior) of G, or
    ((), None) when G has no split.

    The interior is the points whose rims are spheres, all of one
    dimension n - 1, the boundary the others; both must be nonempty.
    The cone is G's rows plus an apex over the boundary (space._apex).
    """
    rows = G._rows
    rim_dims = [_sphere(rows, row, budget) for row in rows]
    interior = sum(1 << i for i, dim in enumerate(rim_dims) if dim is not None)
    full = (1 << len(rows)) - 1
    boundary = full & ~interior
    dims = set(rim_dims) - {None}
    if not interior or not boundary or len(dims) != 1:
        return (), None
    split = DiskDecomposition(dims.pop() + 1, G._ids_of(boundary), G._ids_of(interior))
    return _apex(rows, full, boundary), split


def recognize_disk(
    G: DigitalSpace, budget: Budget | None = None
) -> DiskDecomposition | None:
    """(n, boundary, interior) if G is a digital n-disk, else None.

    Points whose rims are spheres are the candidate interior.  The cone
    test decides: an apex adjacent to exactly the other points must make
    an n-sphere, which is the definition of a disk read backwards.  It
    implies that G (the cone minus its apex) is contractible and that
    the boundary (the apex's rim) is an (n-1)-sphere.
    """
    budget = ensure_budget(budget)
    if len(G) == 1:
        return DiskDecomposition(0, (), (G.points[0],))
    cone, split = _cone(G, budget)
    full = (1 << len(cone)) - 1
    return split if split and _sphere(cone, full, budget) == split.dimension else None


def recognize_closed_manifold(
    G: DigitalSpace, budget: Budget | None = None
) -> int | None:
    """Dimension n if every rim of connected G is an (n-1)-sphere.

    Covers the low-dimensional conventions: S0 is the closed 0-manifold
    and cycles of length >= 4 are the closed 1-manifolds.
    """
    if len(G) == 2 and G.edge_count == 0:
        return 0
    return _closed_dim(G._rows, ensure_budget(budget)) if len(G) else None


def recognize_manifold_with_boundary(
    G: DigitalSpace, budget: Budget | None = None
) -> DiskDecomposition | None:
    """(n, boundary, interior) for a manifold with spherical boundary.

    Interior rims must be (n-1)-spheres, boundary rims (n-1)-disks, the
    boundary must be nonempty and induce an (n-1)-sphere: exactly when
    G plus an apex over the boundary B is a closed n-manifold.
    (<=) The apex's rim is B, and a boundary rim is a cone rim minus the
    apex, a punctured sphere.  (=>) A point of the boundary of rim(b)
    with a sphere rim would make its joint rim with b a sphere, so that
    (n-2)-sphere lies in rim(b) & B, an (n-2)-sphere too, and equals it
    (Evako); b's cone rim is then the disk rim(b)'s own cone.
    """
    budget = ensure_budget(budget)
    if len(G) < 2 or not G.is_connected():
        return None
    cone, split = _cone(G, budget)
    return split if split and _closed_dim(cone, budget) == split.dimension else None


def recognize(G: DigitalSpace, budget: Budget | None = None) -> RecognitionResult:
    """Most specific recognition: sphere, closed manifold, disk, then
    manifold with boundary.  No closed manifold is a disk, so trying
    closed manifolds first changes no verdict and spares them a disk pass.
    """
    budget = ensure_budget(budget)
    dim, closed = _sphere_walk(G._rows, (1 << len(G)) - 1, budget)
    if dim is not None:
        return RecognitionResult(SpaceKind.SPHERE, dim)
    if closed is not None:
        return RecognitionResult(SpaceKind.CLOSED_MANIFOLD, closed)
    split = recognize_disk(G, budget)
    if split is not None:
        return RecognitionResult(SpaceKind.DISK, *split)
    split = recognize_manifold_with_boundary(G, budget)
    if split is not None:
        return RecognitionResult(SpaceKind.MANIFOLD_WITH_BOUNDARY, *split)
    return RecognitionResult(SpaceKind.NONE)


def require_closed_manifold(G: DigitalSpace, budget: Budget | None = None) -> int:
    """Dimension of G as a closed manifold, or NotAManifoldError."""
    dim = recognize_closed_manifold(G, budget)
    if dim is None:
        raise NotAManifoldError("space is not a closed manifold")
    return dim
