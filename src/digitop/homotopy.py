"""Contractibility and contractible transformations.

A point v of a space G is simple when its rim O(v) is contractible; an
edge (v, u) is simple when the joint rim O(vu) is contractible.  The
four contractible transformations (deleting and attaching simple points
and edges) preserve the Euler characteristic, and a space is
contractible when simple-point deletions alone can shrink it to a
single point.

is_contractible decides that by backtracking over simple-point
deletions, memoized under each space's rows, or a long deletion level's
mask (cache.py), with sound prunes evaluated in a fixed order:

  (a) one point: contractible
  (b) disconnected: not contractible
  (c) a point adjacent to all others: contractible (the space is a cone)
  (d) Euler characteristic != 1: not contractible
  (e) fewer than two simple points: not contractible
  (f) otherwise recurse on G - v for each simple point v

The cone test comes before chi because it costs one pass over the rows,
while chi enumerates every clique: a complete graph is answered at once.
A cone has chi = 1, so the order changes no verdict.

Prunes (a), (b) and (d) run only at a root: a top-level call or a rim.
Down a deletion chain they can never fire.  A level that deletes is no
cone, so it has three or more points and G - v has two or more.  A
simple point's rim is contractible, so it is nonempty and connected,
and every path through v can detour through it: G - v stays connected.
A contractible rim has chi = 1, and chi(G - v) = chi(G) - 1 +
chi(O(v)), so chi stays 1.

Each level is a generator, _contractible_steps, which yields those of
its rims and deletions; space._run drives them on an explicit stack.
No DigitalSpace is built below the public entry points.  A root is
asked for as (rows, mask), a space's rows and the mask of the subspace:
the whole space for is_contractible, a rim or joint rim for the
transformations, a puncture for recognition.  contractible_witness
searches a puncture on its _without rows, those of the step's space.
_contractible, and a level for each of its rims, decides (a) and (b)
from the mask on those rows, and builds the root's rows
(space._induced) only for a subspace they leave open, one that is
connected and has two or more points.  (a) and (b) come before a
root's memo lookup, so deciding them first skips no lookup and no
charge.  Every root, a top-level call included, counts its cliques for
chi on its rows.

A root's memo key is its tuple of bitmask rows, and so is every
level's but those of one kind.  Let B be the largest degree of the top,
the space is_contractible was asked about.  Every rim the search meets
is top[v] & alive, a subset of top[v], so it has at most B points, and
the levels and rims of a rim have fewer still.  So a deletion level of
the top with more than B points never has a rim's rows, and keying it
by its alive mask over the top's rows loses no share with a rim.  It
loses one with another level of the top whose rows are equal under
another mask: with two equal tails hung from one point of a projective
plane, either tail gone leaves the same rows.  The search meets such a
pair only among levels it finds False, as a True level ends it, and
pays a node for each, where a search keyed by rows pays one.
is_contractible runs those levels as masks: no rows are rebuilt, a rim
is top[v] & alive, and the cone test runs only at B + 1 points, as a
larger level has no point with enough neighbours.  The first level
with B points has its rows built once (space._induced) and its masks
re-indexed onto them; it and every level below it are keyed by rows,
as is every search other than a top's chain (rims, joint rims,
attachments, punctures and the witness's steps).  Such a level may
equal a rim, and sharing that entry keeps a class charged once.  A top
whose chain finds a level False keeps that mask in its own table,
_LEVELS, under the top's rows.  A True level ends its search, so each
size has at most one: _TRUE_LEVELS keeps the last (top, mask) of each
size, and a level keyed by rows that misses compares its rows with the
entry of its size (_true_level).  So a puncture asked on its rows after
its space's chain, as by contractible_witness, finds the level that
chain found contractible, as when every level was keyed by rows.  A
cold path of 3,200 points leaves one root entry and 3,197 masks, about
1.7 MiB, where rows keys held about 861 MiB.

Deleting v changes only the rims of v's neighbours, so a level inherits
its parent's simple points and re-checks those rims alone, in point
order.  Every other rim was decided at an ancestor, and asking again
would only meet a memo hit or a prune, charging no node; only a table
dropped on overflow in between would have charged again.

The transformations test simplicity the same way: the simplicity
predicates, the four moves, contractible_witness and both reduce_space
strategies pass _contractible a space's rows and the mask of a rim
O(v) or joint rim O(vu), so the only DigitalSpace an applied step
builds is the edited space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .budget import Budget, BudgetExceeded, ensure_budget
from . import cache
from .cache import MISSING, FormCache
from .canon import canonical_form
from .space import (
    DigitalSpace,
    _bits,
    _drop,
    _edges,
    _euler,
    _induced,
    _reach,
    _run,
    _without,
)

_CONTRACTIBLE = FormCache()
# a top's rows -> {alive mask: False}, its levels above B found not
# contractible; made when the first one is found
_LEVELS = FormCache()
# a number of points -> (top rows, alive mask): the last level of that
# size above its top's B found contractible
_TRUE_LEVELS = FormCache()


class NotSimpleError(ValueError):
    """A transformation was asked to use a non-simple point or edge."""


class TraceError(ValueError):
    """A trace failed verification during replay."""


# -- contractibility ------------------------------------------------------------


def is_contractible(G: DigitalSpace, budget: Budget | None = None) -> bool:
    """Decide whether G reduces to a point by simple-point deletions."""
    rows = G._rows
    verdict = _pruned(rows, (1 << len(rows)) - 1)
    if verdict is None:
        verdict = _run(_contractible_steps(rows, None, ensure_budget(budget), _Chain(rows)))
    return verdict


class _Chain:
    """The deletion chain of a top, the space is_contractible was asked
    about: its rows, B (its largest degree), and the masks of its levels
    above B.  The top's table in _LEVELS is looked up at the first such
    level, after the top's own rows missed."""

    __slots__ = ("top", "bound", "levels")

    def __init__(self, top: tuple[int, ...]):
        self.top, self.bound, self.levels = top, max(map(int.bit_count, top)), None

    def get(self, alive: int):
        if self.levels is None:
            self.levels = _LEVELS.get(self.top)
        return MISSING if self.levels is MISSING else self.levels.get(alive, MISSING)

    def put(self, alive: int, result: bool) -> None:
        if result:
            _TRUE_LEVELS.put(alive.bit_count(), (self.top, alive))
            return
        if self.levels is MISSING:
            self.levels = {}
            _LEVELS.put(self.top, self.levels)
        elif len(self.levels) >= cache.CAPACITY:
            self.levels.clear()
        self.levels[alive] = False


def _true_level(rows: tuple[int, ...]):
    """True when rows are those of the level of their size in
    _TRUE_LEVELS, else MISSING."""
    entry = _TRUE_LEVELS.get(len(rows))
    return True if entry is not MISSING and _induced(*entry) == rows else MISSING


def _contractible(rows: tuple[int, ...], mask: int, budget: Budget) -> bool:
    """is_contractible on the subspace of rows induced by mask.  Prunes
    (a) and (b) decide from the mask; only a subspace they leave open
    has its rows built, as the search's root and memo key."""
    verdict = _pruned(rows, mask)
    if verdict is None:
        verdict = _run(_contractible_steps(_induced(rows, mask), None, budget))
    return verdict


def _pruned(rows, mask: int) -> bool | None:
    """The verdict of prunes (a) and (b) on the subspace of rows induced
    by mask, or None when it is connected and has two or more points."""
    if not mask & (mask - 1):
        return mask != 0
    if _reach(rows, mask & -mask, mask) != mask:
        return False
    return None


def _contractible_steps(
    rows: tuple[int, ...], inherited, budget: Budget, chain=None, alive=None
):
    """One search level: the subspace of rows induced by alive, or all
    of rows when alive is None, connected and of two or more points.
    inherited is None at a root (a top-level call or a rim); on a
    deletion chain it is (simple, stale): masks over rows of the points
    known simple and of those whose rims changed.  A root's chi is
    counted on its rows.  chain is None except on an is_contractible
    top's chain, where it is the top's _Chain: a deletion with more than
    B points stays alive over the top's rows, and one with B points gets
    its rows built.  The level yields the search of each rim and
    deletion it needs a verdict on, except a rim that prunes (a) or (b)
    decide from the rows and the rim's mask."""
    whole = alive is None
    if whole:
        hit = _CONTRACTIBLE.get(rows)
        if hit is MISSING:
            hit = _true_level(rows)
    else:
        hit = chain.get(alive)
    if hit is not MISSING:
        return hit
    budget.charge()
    full = (1 << len(rows)) - 1
    # no row holds its own point, so a cone point's row has n - 1 bits;
    # no point has more than B, so a level above B + 1 points is no cone
    if whole:
        alive, n = full, len(rows)
        cone = n - 1 in map(int.bit_count, rows)
    else:
        n = alive.bit_count()
        cone = n - 1 <= chain.bound and any(
            (rows[i] & alive).bit_count() == n - 1 for i in _bits(alive)
        )
    if cone:
        result = True
    elif inherited is None and _euler(rows) != 1:
        result = False
    else:
        simple, stale = inherited or (0, full)
        for i in _bits(stale):
            mask = rows[i] & alive
            verdict = _pruned(rows, mask)
            if verdict is None:
                verdict = yield _contractible_steps(_induced(rows, mask), None, budget)
            if verdict:
                simple |= 1 << i
        result = False
        if simple.bit_count() >= 2:
            for i in _bits(simple):
                # the child's simple and stale points, over these rows
                row = rows[i] & alive
                kept, rest = simple & ~row ^ 1 << i, alive ^ 1 << i
                if chain is not None and n - 1 > chain.bound:
                    level = _contractible_steps(rows, (kept, row), budget, chain, rest)
                else:  # one row off whole rows, or the top's first level with B points
                    child = (_packed(kept, rest), _packed(row, rest))
                    level = _contractible_steps(_induced(rows, rest), child, budget)
                if (yield level):
                    result = True
                    break
    if whole:
        _CONTRACTIBLE.put(rows, result)
    else:
        chain.put(alive, result)
    return result


def _packed(mask: int, within: int) -> int:
    """mask, a subset of within, re-indexed onto the points of within in
    order: each point goes to the number of points of within below it."""
    out = 0
    for i in _bits(mask):
        out |= 1 << (within & (1 << i) - 1).bit_count()
    return out


def is_simple_point(G: DigitalSpace, v: str, budget: Budget | None = None) -> bool:
    """True when the rim of v is contractible."""
    return _contractible(G._rows, G._rows[G._require(v)], ensure_budget(budget))


def is_simple_edge(G: DigitalSpace, v: str, u: str, budget: Budget | None = None) -> bool:
    """True when (v, u) is an edge and the joint rim is contractible."""
    if not G.adjacent(v, u):
        raise ValueError(f"no such edge: {v!r} -- {u!r}")
    joint = G._rows[G._require(v)] & G._rows[G._require(u)]
    return _contractible(G._rows, joint, ensure_budget(budget))


def simple_points(G: DigitalSpace, budget: Budget | None = None) -> tuple[str, ...]:
    budget = ensure_budget(budget)
    return tuple(v for v in G.points if is_simple_point(G, v, budget))


def simple_edges(G: DigitalSpace, budget: Budget | None = None) -> tuple[tuple[str, str], ...]:
    budget = ensure_budget(budget)
    return tuple(e for e in G.edges if is_simple_edge(G, e[0], e[1], budget))


# -- recorded transformation steps ------------------------------------------------


@dataclass(frozen=True)
class TransformStep:
    """One contractible transformation.

    kind is one of delete-point, attach-point, delete-edge, attach-edge.
    For point steps, rim holds the attachment rim (for a deletion, the
    rim observed at deletion time), which makes every step invertible.
    """

    kind: str
    points: tuple[str, ...]
    rim: tuple[str, ...] | None = None

    def inverted(self) -> "TransformStep":
        opposite = {
            "delete-point": "attach-point",
            "attach-point": "delete-point",
            "delete-edge": "attach-edge",
            "attach-edge": "delete-edge",
        }[self.kind]
        return TransformStep(opposite, self.points, self.rim)


@dataclass(frozen=True)
class TransformTrace:
    """A verified sequence of steps between two spaces.

    start and end are canonical encodings, so a trace can be checked
    against any relabeling of the spaces it was recorded on.
    """

    start: bytes
    steps: tuple[TransformStep, ...]
    end: bytes

    def inverted(self) -> "TransformTrace":
        return TransformTrace(
            self.end,
            tuple(step.inverted() for step in reversed(self.steps)),
            self.start,
        )


def delete_simple_point(
    G: DigitalSpace, v: str, budget: Budget | None = None
) -> tuple[DigitalSpace, TransformStep]:
    if not is_simple_point(G, v, budget):
        raise NotSimpleError(f"point {v!r} is not simple")
    return G.delete_points([v]), TransformStep("delete-point", (v,), G.neighbors(v))


def attach_simple_point(
    G: DigitalSpace,
    v: str,
    rim_points: tuple[str, ...] | list[str],
    budget: Budget | None = None,
) -> tuple[DigitalSpace, TransformStep]:
    rim_points = tuple(sorted(rim_points))
    if not _contractible(G._rows, G._mask_of(rim_points), ensure_budget(budget)):
        raise NotSimpleError(f"attachment rim for {v!r} is not contractible")
    return G.add_point(v, rim_points), TransformStep("attach-point", (v,), rim_points)


def delete_simple_edge(
    G: DigitalSpace, v: str, u: str, budget: Budget | None = None
) -> tuple[DigitalSpace, TransformStep]:
    if not is_simple_edge(G, v, u, budget):
        raise NotSimpleError(f"edge {v!r} -- {u!r} is not simple")
    return G.remove_edge(v, u), TransformStep("delete-edge", tuple(sorted((v, u))))


def attach_simple_edge(
    G: DigitalSpace, v: str, u: str, budget: Budget | None = None
) -> tuple[DigitalSpace, TransformStep]:
    if v == u or G.adjacent(v, u):
        raise ValueError(f"attach_simple_edge needs a non-adjacent pair: {v!r}, {u!r}")
    joint = G._rows[G._require(v)] & G._rows[G._require(u)]
    if not _contractible(G._rows, joint, ensure_budget(budget)):
        raise NotSimpleError(f"common rim of {v!r}, {u!r} is not contractible")
    return G.add_edge(v, u), TransformStep("attach-edge", tuple(sorted((v, u))))


def apply_step(
    G: DigitalSpace, step: TransformStep, budget: Budget | None = None
) -> DigitalSpace:
    """Apply a recorded step, re-verifying that it is simple right now."""
    if step.kind == "delete-point":
        (v,) = step.points
        if step.rim is not None and tuple(sorted(G.neighbors(v))) != tuple(
            sorted(step.rim)
        ):
            raise TraceError(f"recorded rim of {v!r} does not match the space")
        return delete_simple_point(G, v, budget)[0]
    if step.kind == "attach-point":
        (v,) = step.points
        return attach_simple_point(G, v, step.rim or (), budget)[0]
    if step.kind == "delete-edge":
        v, u = step.points
        return delete_simple_edge(G, v, u, budget)[0]
    if step.kind == "attach-edge":
        v, u = step.points
        return attach_simple_edge(G, v, u, budget)[0]
    raise TraceError(f"unknown step kind: {step.kind!r}")


def replay(
    trace: TransformTrace, start: DigitalSpace, budget: Budget | None = None
) -> DigitalSpace:
    """Re-run a trace from a start space, verifying every step."""
    budget = ensure_budget(budget)
    if canonical_form(start).encoding != trace.start:
        raise TraceError("start space does not match the trace")
    current = start
    for step in trace.steps:
        try:
            current = apply_step(current, step, budget)
        except ValueError as exc:
            raise TraceError(f"step {step} failed: {exc}") from exc
    if canonical_form(current).encoding != trace.end:
        raise TraceError("end space does not match the trace")
    return current


def contractible_witness(
    G: DigitalSpace, budget: Budget | None = None
) -> TransformTrace:
    """A verified deletion sequence reducing G to one point.

    Raises ValueError when G is not contractible.  Each step deletes the
    first simple point whose puncture is contractible, so G stays
    contractible, hence connected, and a simple point's puncture is
    connected too (module docstring): prunes (b) never fires on it, and
    (a) only on a one-point puncture, contractible at no charge.  The
    puncture's rows (_without) go to the search as they are and become
    the step's space.  Each step follows the first check's choice, so
    its puncture is mostly the level of its size that check found
    contractible: the step keeps the puncture's mask over G and finds
    it in _TRUE_LEVELS by that mask, which the search would find by
    comparing rows (_true_level) at the same (nil) charge.
    """
    budget = ensure_budget(budget)
    if not is_contractible(G, budget):
        raise ValueError("space is not contractible")
    start = canonical_form(G).encoding
    top, alive = G._rows, (1 << len(G)) - 1
    steps = []
    while len(G) > 1:
        rows = G._rows
        for i, (row, v) in enumerate(zip(rows, _bits(alive))):
            if _contractible(rows, row, budget):
                rest, left = _without(rows, i), alive ^ 1 << v
                if (
                    len(rest) == 1
                    or _TRUE_LEVELS.get(len(rest)) == (top, left)
                    or _run(_contractible_steps(rest, None, budget))
                ):
                    break
        else:  # pragma: no cover - contradicts contractibility
            raise AssertionError("no usable simple point in a contractible space")
        steps.append(TransformStep("delete-point", (G._ids[i],), G._ids_of(row)))
        G = DigitalSpace._from_rows(G._ids[:i] + G._ids[i + 1 :], rest)
        alive = left
    return TransformTrace(start, tuple(steps), canonical_form(G).encoding)


# -- reduction -------------------------------------------------------------------


class ReductionStrategy(Enum):
    """How reduce_space searches for a smaller homotopy-equivalent space."""

    DELETE_ONLY = "delete-only"
    ATTACH_EDGES = "attach-edges"


@dataclass(frozen=True)
class ReduceResult:
    space: DigitalSpace
    trace: TransformTrace
    exhausted: bool = False


def reduce_space(
    G: DigitalSpace,
    strategy: ReductionStrategy = ReductionStrategy.DELETE_ONLY,
    budget: Budget | None = None,
) -> ReduceResult:
    """Shrink G by contractible transformations; greedy and deterministic.

    DELETE_ONLY alternates exhaustive simple-point and simple-edge
    deletion sweeps (points and edges are scanned in id order).
    ATTACH_EDGES first attaches every simple edge it can (which may
    create new simple points), then deletes points, and repeats.
    Budget exhaustion stops the reduction and flags the result instead
    of raising, so the best space found so far is still returned.
    exhausted is also set when counting a rim's cliques for the chi
    prune passes space.DEFAULT_CLIQUE_LIMIT, which raises BudgetExceeded
    too, however few nodes were charged: a dense space can end a
    reduction that way early in its node budget.
    """
    budget = ensure_budget(budget)
    if strategy is ReductionStrategy.DELETE_ONLY:
        moves = _delete_moves(G, budget)
    elif strategy is ReductionStrategy.ATTACH_EDGES:
        moves = _attach_moves(G, budget)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    # current and steps stay consistent when the budget runs out
    # mid-sweep: a space is only yielded once its move has succeeded
    current, steps, exhausted = G, [], False
    try:
        for current, step in moves:
            steps.append(step)
    except BudgetExceeded:
        exhausted = True
    trace = TransformTrace(
        canonical_form(G).encoding, tuple(steps), canonical_form(current).encoding
    )
    return ReduceResult(current, trace, exhausted)


def _delete_moves(G: DigitalSpace, budget: Budget):
    """Delete simple points, then simple edges, until neither applies;
    yields each (space, step) and returns the final space.

    Each sweep walks G's rows in index order, tests point i by
    _contractible on the mask rows[i] and edge ij on rows[i] & rows[j],
    deletes the first that passes and re-reads the rows.  Simplicity
    depends on the rim alone, so not_simple, an index mask of points
    found not simple, skips them until a deletion changes their rims:
    deleting point i changes its neighbours' (not_simple is re-indexed
    with _drop), deleting edge ij those of i, j and their common
    neighbours.
    """
    not_simple = 0
    size = None
    while size != (len(G), G.edge_count):
        size = (len(G), G.edge_count)
        while len(G) > 1:
            rows = G._rows
            for i in _bits((1 << len(rows)) - 1 & ~not_simple):
                if _contractible(rows, rows[i], budget):
                    break
                not_simple |= 1 << i
            else:
                break
            step = TransformStep("delete-point", (G._ids[i],), G._ids_of(rows[i]))
            not_simple = _drop(not_simple & ~rows[i], i)
            G = G.delete_points(step.points)
            yield G, step
        while True:
            rows = G._rows
            for i, j in _edges(rows):
                if _contractible(rows, rows[i] & rows[j], budget):
                    break
            else:
                break
            step = TransformStep("delete-edge", (G._ids[i], G._ids[j]))
            not_simple &= ~(1 << i | 1 << j | rows[i] & rows[j])
            G = G.remove_edge(*step.points)
            yield G, step
    return G


def _attach_moves(G: DigitalSpace, budget: Budget):
    """Attach every simple edge, in pair order, until a pass attaches
    none, then delete; repeat until a round leaves the point and edge
    counts unchanged.  A pair ij is tested by _contractible on the mask
    rows[i] & rows[j], re-read after every attachment."""
    size = None
    while size != (len(G), G.edge_count):
        size = (len(G), G.edge_count)
        edges = None
        while edges != G.edge_count:
            edges = G.edge_count
            for i in range(len(G)):
                # the pairs ij, j > i, that are not edges when the scan reaches i
                for j in _bits((1 << len(G)) - 1 & ~(G._rows[i] | (2 << i) - 1)):
                    rows = G._rows
                    if _contractible(rows, rows[i] & rows[j], budget):
                        step = TransformStep("attach-edge", (G._ids[i], G._ids[j]))
                        G = G.add_edge(*step.points)
                        yield G, step
        G = yield from _delete_moves(G, budget)
    return G


# -- homotopy comparison -----------------------------------------------------------


class DistinguishVerdict(Enum):
    DISTINCT = "distinct"
    NOT_DISTINGUISHED = "not-distinguished"


def homotopy_distinguish(G: DigitalSpace, H: DigitalSpace) -> DistinguishVerdict:
    """Separate two spaces by the Euler characteristic if possible.

    DISTINCT is definitive (the spaces cannot be homotopy equivalent);
    NOT_DISTINGUISHED is inconclusive, never a claim of equivalence.
    """
    if G.euler_characteristic() != H.euler_characteristic():
        return DistinguishVerdict.DISTINCT
    return DistinguishVerdict.NOT_DISTINGUISHED
