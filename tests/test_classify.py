"""Complexity invariant, classification reports, and catalogs."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import support
from digitop import (
    Budget,
    BudgetExceeded,
    DigitalSpace,
    MatchKind,
    NotAManifoldError,
    canonical_form,
    catalog,
    classification_report,
    classify_against_catalog,
    complexity,
    compress,
    minimal_sphere,
    projective_plane11,
    r_transform,
    recognize_closed_manifold,
    recognize_sphere,
    torus16,
)
from digitop import cache, canon
from digitop.canon import canonical_encoding_rows
from digitop.classify import (
    _augmentations,
    _grown_connected_graphs,
    _new_point_designated,
)
from digitop.space import _reach


def _connected(rows, points) -> bool:
    """Are the given points of rows joined inside themselves? (plain DFS)"""
    points = set(points)
    if not points:
        return True
    seen, todo = set(), [min(points)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(u for u in points if rows[v] >> u & 1)
    return seen == points


def test_complexity_values():
    assert complexity(minimal_sphere(2)) == 6
    assert complexity(projective_plane11()) == 11
    assert complexity(torus16()) == 16
    for k in range(4, 13):
        assert complexity(support.cycle(k)) == 4


def test_complexity_is_invariant_under_growth():
    octa = minimal_sphere(2)
    grown = r_transform(octa, *octa.edges[0])
    grown = r_transform(grown, *grown.edges[3])
    assert complexity(grown) == 6


def test_classification_report_torus():
    rep = classification_report(torus16())
    assert rep.point_count == 16
    assert rep.dimension == 2
    assert rep.euler == 0
    assert rep.complexity == 16
    assert rep.punctured_reduced_euler == -1
    assert rep.compression == canonical_form(torus16())


def test_classification_report_projective_plane():
    rep = classification_report(projective_plane11())
    assert rep.point_count == 11
    assert rep.dimension == 2
    assert rep.euler == 1
    assert rep.complexity == 11
    assert rep.punctured_reduced_euler == 0


def _torus16_grown_by_four():
    rng = random.Random(4)
    M = torus16()
    for _ in range(4):
        M = r_transform(M, *rng.choice(M.edges))
    return M


@pytest.mark.parametrize("make", [torus16, _torus16_grown_by_four])
def test_classification_report_is_whole_or_raises_at_every_budget(make):
    """With a cold memo, Budget(L) for every L up to the unbounded spend
    either raises or gives the unbounded report: a budget that runs out
    in the punctured reduction raises too, and returns no partial form."""
    M = make()
    cache.clear_all()
    unbounded = Budget(None)
    report = classification_report(M, unbounded)
    for limit in range(unbounded.spent + 1):
        cache.clear_all()
        try:
            assert classification_report(M, Budget(limit)) == report, limit
        except BudgetExceeded:
            assert limit < unbounded.spent
    cache.clear_all()


def test_classification_report_rejects_non_manifolds():
    with pytest.raises(NotAManifoldError):
        classification_report(support.wheel(4))


def test_punctured_euler_is_independent_of_the_puncture():
    for M in (torus16(), projective_plane11()):
        values = set()
        for v in M.points:
            from digitop import reduce_space

            reduced = reduce_space(M.delete_points([v])).space
            values.add(reduced.euler_characteristic())
        assert len(values) == 1


def test_catalog_dimension_0():
    cat = catalog(0, 4)
    assert cat.exhaustive
    assert len(cat.entries) == 1
    assert cat.entries[0].points == 2
    assert cat.entries[0].euler == 2


def test_catalog_dimension_1():
    cat = catalog(1, 8)
    assert cat.exhaustive
    assert len(cat.entries) == 1
    entry = cat.entries[0]
    assert entry.points == 4 and entry.euler == 0
    assert entry.form.encoding == canonical_form(support.cycle(4)).encoding


def test_catalog_dimension_2():
    cat = catalog(2, 7)
    assert cat.exhaustive
    assert len(cat.entries) == 1
    entry = cat.entries[0]
    assert entry.points == 6 and entry.euler == 2
    assert entry.form.encoding == canonical_form(minimal_sphere(2)).encoding


def test_catalog_3_11_is_exhaustive_within_the_default_budget():
    """Dropping graphs whose (n-1)-clique links cannot close in the points
    left brings catalog(3, 11) under the default budget (it needs about
    87k nodes; without the bound, 4.7M).  The only compressed closed
    3-manifold through 11 points is the 8-point 3-sphere."""
    cat = catalog(3, 11)
    assert cat.exhaustive
    assert [entry.form.encoding for entry in cat.entries] == [
        canonical_form(minimal_sphere(3)).encoding
    ]


def test_catalog_budget_exhaustion_is_flagged_not_raised():
    cat = catalog(2, 9, Budget(500))
    assert not cat.exhaustive


def _is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(item in rest for item in part)


@pytest.mark.parametrize(
    "n, max_points", [(1, 12), (2, 8), (2, 9), (3, 9), (4, 11)]
)
def test_catalog_growth_matches_the_full_mask_loop(n, max_points):
    """The neighbourhood search against the loop over all 2^s masks of
    every graph one point smaller, filtered by brute force (the degree
    floor, at most 2 common neighbours per n-clique, reference_link_rule)
    and then by closing_bound_holds with max_points - size points to
    come: the same classes per tier, in canonical encoding order, each
    grown graph connected.  Which labelled copy stands for a class may
    differ."""
    grown = list(_grown_connected_graphs(n, max_points, Budget(None)))
    keys = [(len(rows), canonical_encoding_rows(rows)) for rows in grown]
    assert keys == sorted(
        (len(rows), canonical_encoding_rows(rows))
        for rows in support.all_connected_rows(max_points, n)
        if support.closing_bound_holds(rows, n, max_points - len(rows))
    )
    for rows in grown:
        assert _connected(rows, range(len(rows))), rows


def test_connected_graph_census():
    """With n = 0 the link rule cuts nothing, so growth lists every
    connected graph once: 1, 1, 2, 6, 21, 112 and 853 of them with 1..7
    points (OEIS A001349).  This counts designation, the orbit prune and
    the canonical dedup against a source outside this library."""
    sizes = [len(rows) for rows in _grown_connected_graphs(0, 7, Budget(None))]
    assert [sizes.count(k) for k in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_catalog_growth_reuses_the_tier_generators(monkeypatch):
    """Each parent's automorphisms come from the search that keyed it, so
    the augmentation step never runs a canonical search of its own."""
    searched = canon._canonical
    from_augmentations = []

    def counted(rows):
        if sys._getframe(1).f_code.co_name == "_augmentations":
            from_augmentations.append(rows)
        return searched(rows)

    monkeypatch.setattr(canon, "_canonical", counted)
    assert catalog(2, 9).exhaustive
    assert from_augmentations == []


def test_designated_points_are_label_invariant():
    """The designated mask is nonempty, holds only points whose deletion
    leaves the graph connected, and follows every relabeling."""
    rng = random.Random(10)
    for rows in support.all_connected_rows(7):
        mask = support.designated(rows)
        assert mask, rows
        for v in range(len(rows)):
            if mask >> v & 1:
                rest = [u for u in range(len(rows)) if u != v]
                assert _connected(rows, rest), (rows, v)
        for _ in range(3):
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            relabeled = [0] * len(rows)
            for v, row in enumerate(rows):
                relabeled[perm[v]] = sum(
                    1 << perm[u] for u in range(len(rows)) if row >> u & 1
                )
            image = sum(1 << perm[v] for v in range(len(rows)) if mask >> v & 1)
            assert support.designated(relabeled) == image, (rows, perm)


def test_new_point_designation_matches_the_reference():
    """With each point whose deletion leaves the graph connected moved to
    the end, as growth leaves its new point, the last point is designated
    exactly when it lies in support.designated's mask, the definition."""
    checked = 0
    for rows in support.all_connected_rows(7):
        size = len(rows)
        for v in range(size):
            order = [u for u in range(size) if u != v] + [v]
            at = {u: k for k, u in enumerate(order)}
            moved = [sum(1 << at[w] for w in range(size) if rows[u] >> w & 1)
                     for u in order]
            rest = (1 << size - 1) - 1
            if size > 1 and _reach(moved, 1, rest) != rest:
                continue  # v is a cut point: no parent grows it last
            checked += 1
            expected = support.designated(moved) >> size - 1 & 1
            assert _new_point_designated(moved) == bool(expected), (rows, v)
    assert checked > 1000


def test_augmentation_search_needs_no_recursion():
    """For n = 1 only a path's two ends may join the new point; the search
    still walks one level per point, so with the recursion limit below the
    point count a recursive search would raise RecursionError."""
    size = 1500
    rows = [(1 << v - 1 if v else 0) | (1 << v + 1 if v < size - 1 else 0)
            for v in range(size)]
    reflection = tuple(range(size - 1, -1, -1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(size // 2)
    try:
        grown = _augmentations(rows, 1, 10, Budget(None), (reflection,))
    finally:
        sys.setrecursionlimit(limit)
    # attaching to the last end mirrors attaching to the first
    assert [candidate[-1] for candidate in grown] == [1, 1 | 1 << size - 1]


def _fits_on_a_cycle(rows, v) -> bool:
    """By brute force over cyclic orders: can the rim of v sit inside a
    cycle of >= 4 points as an induced subgraph?  Its edges must join
    points next to each other in the order; new points can fill each gap
    between two points that are not adjacent, so only a rim that is a
    whole cycle needs 4 points of its own."""
    rim = [u for u in range(len(rows)) if rows[v] >> u & 1]
    edges = {frozenset(e) for e in itertools.combinations(rim, 2) if rows[e[0]] >> e[1] & 1}
    if len(rim) <= 2:
        return True
    if any(sum(u in e for e in edges) > 2 for u in rim):
        return False  # a point on a cycle has two neighbours
    for order in itertools.permutations(rim[1:]):
        ring = [rim[0], *order]
        steps = {frozenset(step) for step in zip(ring, ring[1:] + ring[:1])}
        if edges <= steps and (edges != steps or len(rim) >= 4):
            return True
    return False


def test_rim_check_matches_the_reference():
    """reference_rim_extends_to_cycle, on which reference_link_rule and so
    the growth oracles rest, against placing the rim on a cycle."""
    for rows in support.all_connected_rows(7):
        rows = list(rows)
        for v in range(len(rows)):
            expected = _fits_on_a_cycle(rows, v)
            assert support.reference_rim_extends_to_cycle(rows, v) == expected, (rows, v)


def test_augmentations_match_the_brute_force_mask_filter():
    """Against every mask filtered by brute force, with the tier's
    generators, and then by closing_bound_holds with remaining points to
    come: for n = 1 and n = 2 the same candidates in the same order.  For n = 3 the brute force is an ordered subsequence: the
    search checks each link as a point joins, and lets through a link
    that an old point's rim closes into a cycle with another point
    beside it.  The search relies on rows having passed the rule one
    point earlier, as every grown parent has, so only graphs whose links
    all hold (support.links_hold) are compared."""
    compared = 0
    for rows in support.all_connected_rows(7):
        rows = list(rows)
        generators = canon._canonical(rows)[2]
        for n in (1, 2, 3):
            if not support.links_hold(rows, n):
                continue
            for remaining in range(5):
                expected = [
                    grown
                    for grown in support.extensions_by_masks(rows, n, remaining, generators)
                    if support.closing_bound_holds(grown, n, remaining)
                ]
                grown = _augmentations(rows, n, remaining, Budget(None), generators)
                if n < 3:
                    assert grown == expected, (rows, remaining)
                else:
                    assert _is_subsequence(expected, grown), (rows, n, remaining)
                compared += bool(grown)
    assert compared > 1000


def _grow(M, steps: int, seed: int):
    rng = random.Random(seed)
    for _ in range(steps):
        M = r_transform(M, *rng.choice(M.edges))
    return M


def test_augmentations_keep_every_prefix_of_known_manifolds():
    """Soundness against manifolds that growth did not produce: for random
    point orders whose prefixes are connected, each prefix's next point,
    as the new point of the prefix, has its neighbourhood among the
    prefix's augmentations towards the manifold's size (no orbit prune).
    The 12-point 3-sphere is decoded from its canonical encoding in the
    README's Results."""
    stranded = bytes.fromhex("000c0fc00e3801f80db6076e0ade0bb50d6d06dd0d730b9b06eb")
    manifolds = [(1, support.cycle(k)) for k in range(4, 9)] + [
        (2, minimal_sphere(2)),
        (2, torus16()),
        (2, projective_plane11()),
        (2, _grow(minimal_sphere(2), 4, 1)),
        (2, _grow(torus16(), 2, 2)),
        (3, minimal_sphere(3)),
        (3, _grow(minimal_sphere(3), 3, 3)),
        (3, support.space_from_rows(
            [int.from_bytes(stranded[k : k + 2], "big") for k in range(2, 26, 2)]
        )),
        (4, minimal_sphere(4)),
    ]
    rng = random.Random(13)
    steps = 0
    for n, M in manifolds:
        assert recognize_closed_manifold(M) == n
        size = len(M)
        index = {p: k for k, p in enumerate(M.points)}
        full = [sum(1 << index[q] for q in M.neighbors(p)) for p in M.points]
        for _ in range(20):
            order = [rng.randrange(size)]
            while len(order) < size:
                placed = sum(1 << v for v in order)
                order.append(rng.choice(
                    [v for v in range(size) if v not in order and full[v] & placed]
                ))
            at = {v: k for k, v in enumerate(order)}
            rows = [0]
            for k in range(1, size):
                v = order[k]
                mask = sum(1 << at[u] for u in order[:k] if full[v] >> u & 1)
                candidates = _augmentations(rows, n, size - k - 1, Budget(None), ())
                assert mask in [c[-1] for c in candidates], (n, size, order[: k + 1])
                rows = [row | (mask >> j & 1) << k for j, row in enumerate(rows)]
                rows.append(mask)
                steps += 1
    assert steps == 20 * sum(len(M) - 1 for _, M in manifolds)


def test_flag_sphere_census_two_ways():
    """The closed 2-manifolds with 6..10 points, found two independent
    ways: by n = 2 growth filtered by the recognizer alone (no
    compressedness filter), and as the R-transform closure of the
    octahedron, deduplicated by canonical form.  Both give 1, 1, 2, 4
    and 10 spheres, the counts of triangulated 2-spheres without
    separating triangles (minimum degree 4) tabulated by Brinkmann and
    McKay ("Fast generation of planar graphs", MATCH Commun. Math.
    Comput. Chem. 58, 2007), and every member of the closure compresses
    back to the octahedron.  Each grown closed 2-manifold, all of which
    have chi = 2, is also a 2-sphere by the puncture search of
    support.reference_sphere, so through 10 points chi decides 2-spheres
    among closed 2-manifolds, as recognize_sphere assumes."""
    sizes = range(6, 11)
    grown = {size: set() for size in sizes}
    for rows in _grown_connected_graphs(2, sizes[-1], Budget(None)):
        if len(rows) in grown:
            space = DigitalSpace._from_rows([f"v{k:02d}" for k in range(len(rows))], rows)
            if recognize_closed_manifold(space, Budget(None)) == 2:
                assert space.euler_characteristic() == 2
                assert recognize_sphere(space, Budget(None)) == 2
                assert support.reference_sphere(space) == 2
                grown[len(rows)].add(canonical_form(space).encoding)
    octahedron = minimal_sphere(2)
    target = canonical_form(octahedron).encoding
    layer = {target: octahedron}
    closure = {6: {target}}
    for size in sizes[1:]:
        layer = {
            canonical_form(G).encoding: G
            for M in layer.values()
            for G in (r_transform(M, v, u) for v, u in M.edges)
        }
        closure[size] = set(layer)
        for G in layer.values():
            assert canonical_form(compress(G).space).encoding == target
    assert [len(grown[size]) for size in sizes] == [1, 1, 2, 4, 10]
    assert grown == closure


def test_catalog_validation():
    with pytest.raises(ValueError):
        catalog(-1, 4)
    with pytest.raises(ValueError):
        catalog(1, 3)


def test_classify_member():
    cat = catalog(2, 7)
    match = classify_against_catalog(minimal_sphere(2), cat)
    assert match.kind is MatchKind.MEMBER
    assert match.entry is cat.entries[0]


def test_classify_compresses_to():
    cat = catalog(2, 7)
    octa = minimal_sphere(2)
    grown = r_transform(octa, *octa.edges[0])
    match = classify_against_catalog(grown, cat)
    assert match.kind is MatchKind.COMPRESSES_TO
    assert match.entry is cat.entries[0]

    ring = catalog(1, 8)
    match = classify_against_catalog(support.cycle(7), ring)
    assert match.kind is MatchKind.COMPRESSES_TO


def test_classify_unmatched():
    cat = catalog(2, 7)
    match = classify_against_catalog(torus16(), cat)
    assert match.kind is MatchKind.UNMATCHED
    assert match.entry is None


def test_classify_dimension_mismatch():
    cat = catalog(2, 7)
    with pytest.raises(ValueError):
        classify_against_catalog(support.cycle(4), cat)


def test_compression_of_catalog_members_is_stable():
    # every catalog entry is already compressed: recompressing moves nothing
    cat = catalog(2, 7)
    for entry in cat.entries:
        assert entry.euler == 2
    result = compress(minimal_sphere(2))
    assert result.steps == ()
