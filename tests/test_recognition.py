"""Sphere, disk, and manifold recognizers."""

from __future__ import annotations

import random

import pytest

import support
from digitop import (
    Budget,
    DigitalSpace,
    NotAManifoldError,
    RecognitionResult,
    SpaceKind,
    are_isomorphic,
    compress,
    join,
    minimal_disk,
    minimal_sphere,
    projective_plane11,
    r_transform,
    recognize,
    recognize_closed_manifold,
    recognize_disk,
    recognize_manifold_with_boundary,
    recognize_sphere,
    require_closed_manifold,
    torus16,
)
from digitop import cache, canon, homotopy, recognition
from digitop.canon import point_orbits
from digitop.space import _induced


def test_minimal_spheres_recognized():
    for n in range(5):
        S = minimal_sphere(n)
        assert len(S) == 2 * n + 2
        assert recognize_sphere(S) == n


def test_sphere_examples():
    assert recognize_sphere(DigitalSpace(["a", "b"])) == 0
    assert recognize_sphere(DigitalSpace(["a", "b"], [("a", "b")])) is None
    assert recognize_sphere(support.cycle(4)) == 1
    assert recognize_sphere(support.cycle(6)) == 1
    assert recognize_sphere(support.complete(3)) is None
    assert recognize_sphere(support.path(4)) is None
    assert recognize_sphere(DigitalSpace()) is None


def test_all_long_cycles_are_1_spheres():
    for k in range(4, 12):
        assert recognize_sphere(support.cycle(k)) == 1


def test_join_of_spheres_is_a_sphere():
    # S^0 join S^1 gives a 2-sphere, and four S^0 factors give the minimal S^3
    s0 = DigitalSpace(["a", "b"])
    s1 = support.cycle(4)
    assert recognize_sphere(join(s0, s1)) == 2
    quad = join(
        join(DigitalSpace(["a1", "a2"]), DigitalSpace(["b1", "b2"])),
        join(DigitalSpace(["c1", "c2"]), DigitalSpace(["d1", "d2"])),
    )
    assert are_isomorphic(quad, minimal_sphere(3))
    assert recognize_sphere(quad) == 3


def test_disk_examples():
    decomposition = recognize_disk(support.path(3))
    assert decomposition is not None
    assert decomposition.dimension == 1
    assert decomposition.boundary == ("p0", "p2")
    assert decomposition.interior == ("p1",)

    W = support.wheel(4)
    d = recognize_disk(W)
    assert d is not None and d.dimension == 2
    assert d.interior == ("hub",)
    assert set(d.boundary) == {"c0", "c1", "c2", "c3"}

    assert recognize_disk(support.cycle(4)) is None
    assert recognize_disk(support.complete(3)) is None
    assert recognize_disk(DigitalSpace(["a", "b"], [("a", "b")])) is None


def test_single_point_is_a_0_disk():
    d = recognize_disk(DigitalSpace(["a"]))
    assert d == (0, (), ("a",))


def test_minimal_disks():
    for n in range(4):
        D = minimal_disk(n)
        assert len(D) == 2 * n + 1
        d = recognize_disk(D)
        assert d is not None and d.dimension == n


def test_punctured_sphere_is_a_disk():
    for n in (1, 2, 3):
        S = minimal_sphere(n)
        D = S.delete_points([S.points[0]])
        d = recognize_disk(D)
        assert d is not None and d.dimension == n


def test_sphere_checks_a_puncture_in_every_orbit(monkeypatch):
    """A sphere whose puncture fails at a later orbit only is rejected.
    Punctures run only in dimension >= 3, so G is a 3-sphere, the
    suspension of a 2-sphere with two orbits."""
    G = join(support.bipyramid(5), DigitalSpace(["s0", "s1"]))
    orbits = point_orbits(G)
    assert len(orbits) >= 2
    later = orbits[-1][0]
    punctured = G.delete_points([later])._rows
    real = recognition._level

    def contractible(chain, mask, budget):
        if _induced(chain.top, mask) == punctured:
            return False
        return real(chain, mask, budget)

    monkeypatch.setattr(recognition, "_level", contractible)
    cache.clear_all()
    try:
        assert recognize_sphere(G) is None
    finally:
        cache.clear_all()


def test_closed_manifold_examples():
    assert recognize_closed_manifold(DigitalSpace(["a", "b"])) == 0
    assert recognize_closed_manifold(support.cycle(4)) == 1
    assert recognize_closed_manifold(support.cycle(9)) == 1
    assert recognize_closed_manifold(minimal_sphere(2)) == 2
    assert recognize_closed_manifold(torus16()) == 2
    assert recognize_closed_manifold(projective_plane11()) == 2
    assert recognize_closed_manifold(support.complete(3)) is None
    assert recognize_closed_manifold(support.path(4)) is None
    assert recognize_closed_manifold(support.wheel(4)) is None
    assert recognize_closed_manifold(DigitalSpace()) is None


def test_torus_is_not_a_sphere():
    assert recognize_sphere(torus16()) is None
    assert recognize_sphere(projective_plane11()) is None


def test_manifold_with_boundary_examples():
    d = recognize_manifold_with_boundary(support.wheel(4))
    assert d is not None and d.dimension == 2
    assert d.interior == ("hub",)

    assert recognize_manifold_with_boundary(support.cycle(4)) is None
    assert recognize_manifold_with_boundary(support.complete(3)) is None

    T = torus16()
    v = T.points[0]
    rim = set(T.neighbors(v))
    d = recognize_manifold_with_boundary(T.delete_points([v]))
    assert d is not None and d.dimension == 2
    assert set(d.boundary) == rim


def test_recognize_priority():
    assert recognize(minimal_sphere(2)).kind is SpaceKind.SPHERE
    assert recognize(support.wheel(5)).kind is SpaceKind.DISK
    assert recognize(torus16()).kind is SpaceKind.CLOSED_MANIFOLD
    T = torus16()
    punctured = T.delete_points([T.points[0]])
    assert recognize(punctured).kind is SpaceKind.MANIFOLD_WITH_BOUNDARY
    assert recognize(support.complete(3)).kind is SpaceKind.NONE
    assert recognize(support.complete(3)).dimension is None


def test_recognition_is_label_independent():
    rng = random.Random(19)
    for G, expected in (
        (minimal_sphere(2), 2),
        (support.cycle(6), 1),
        (torus16(), None),
    ):
        for _ in range(5):
            assert recognize_sphere(support.shuffled(G, rng)) == expected


def test_require_closed_manifold():
    assert require_closed_manifold(torus16()) == 2
    with pytest.raises(NotAManifoldError):
        require_closed_manifold(support.wheel(4))


def test_disconnected_spaces_are_rejected():
    two_cycles = DigitalSpace(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [
            ("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
            ("e", "f"), ("f", "g"), ("g", "h"), ("e", "h"),
        ],
    )
    assert recognize_sphere(two_cycles) is None
    assert recognize_closed_manifold(two_cycles) is None


def _assert_matches_the_definitions(G):
    assert recognize(G) == support.literal_recognize(G), G.points
    assert recognize_sphere(G) == support.reference_sphere(G)
    for recognizer, literal in (
        (recognize_disk, support.literal_disk),
        (recognize_closed_manifold, support.literal_closed),
        (recognize_manifold_with_boundary, support.literal_bounded),
    ):
        assert recognizer(G) == support.on_space(literal, G), (recognizer, G.points)


def test_recognizers_match_reference_on_corpus():
    """Every recognizer against the literal rim recursion of its definition,
    with a puncture test at every point, on all 996 connected graphs with
    at most 7 points."""
    for rows in support.all_connected_rows(7):
        _assert_matches_the_definitions(support.space_from_rows(rows))


def _sampled_graphs(rng, count: int):
    """Random connected graphs with 8 or 9 points: alternately with
    uniform random edges, and induced on a breadth-first ball of a grown
    S2, S3, torus or projective plane, where disks and manifolds with
    boundary live."""
    bases = [minimal_sphere(2), minimal_sphere(3), torus16(), projective_plane11()]
    while count:
        size = rng.choice((8, 9))
        if count % 2:
            G = support.random_space(rng, size, rng.uniform(0.2, 0.7))
        else:
            M = rng.choice(bases)
            while len(M) < 14:
                M = r_transform(M, *rng.choice(M.edges))
            order = [rng.choice(M.points)]
            for v in order:
                fresh = [u for u in M.neighbors(v) if u not in order]
                rng.shuffle(fresh)
                order += fresh
            G = M.induced_subspace(order[:size])
        if G.is_connected():
            count -= 1
            yield G


def test_recognizers_match_the_definitions_on_sampled_graphs():
    """The sampled part of the sweep over connected graphs with 8 and 9
    points; the full sweep over all 273,193 graphs with at most 9 points
    runs outside the suite (CHANGES.md has its counts)."""
    kinds = set()
    for G in _sampled_graphs(random.Random(89), 300):
        _assert_matches_the_definitions(G)
        kinds.add(recognize(G).kind)
    assert {SpaceKind.NONE, SpaceKind.DISK} <= kinds


def _grown_pieces(rng):
    """Grown S2, S3, T and P, with punctures, rims, edge balls and rings."""
    for M in (minimal_sphere(2), minimal_sphere(3), torus16(), projective_plane11()):
        for _ in range(2):
            M = r_transform(M, *rng.choice(M.edges))
        yield M
        for v in rng.sample(M.points, 4):
            yield M.delete_points([v])
            yield M.rim(v)
        for v, u in rng.sample(M.edges, 4):
            ball = set(M.neighbors(v)) | set(M.neighbors(u))
            yield M.induced_subspace(ball)
            yield M.induced_subspace(ball - {v, u})


def test_recognizers_match_reference_on_grown_pieces():
    kinds = set()
    for seed in range(3):
        for G in _grown_pieces(random.Random(seed)):
            _assert_matches_the_definitions(G)
            kinds.add(recognize(G).kind)
    assert kinds == set(SpaceKind)


def _derived_pieces(rng):
    """Punctures, balls, ball complements and breadth-first chunks of
    grown S2, S3, S4, T and P."""
    starts = (minimal_sphere(2), minimal_sphere(3), minimal_sphere(4), torus16(),
              projective_plane11())
    for M in starts:
        for _ in range(3):
            M = r_transform(M, *rng.choice(M.edges))
        for v in rng.sample(M.points, 3):
            yield M.delete_points([v])
            yield M.delete_points([v, *M.neighbors(v)])
            yield M.ball(v)
            order = [v]
            for u in order:
                order += [w for w in M.neighbors(u) if w not in order]
            for k in (len(M) // 3, len(M) // 2, 2 * len(M) // 3):
                yield M.induced_subspace(order[:k])


def test_manifold_with_boundary_cone_matches_reference():
    """The one cone test against the rim-by-rim definition: boundary rims
    are disks and the boundary is a sphere, each decided literally."""
    bounded = 0
    for seed in range(2):
        for G in _derived_pieces(random.Random(seed)):
            split = recognize_manifold_with_boundary(G)
            assert split == support.on_space(support.literal_bounded, G), G.points
            bounded += split is not None
    assert bounded >= 60


# -- the sphere memo ------------------------------------------------------------------


@pytest.fixture
def cold_memo():
    cache.clear_all()
    yield
    cache.clear_all()


def test_warm_recognize_of_a_closed_manifold_walks_no_rims(cold_memo, monkeypatch):
    """The memo stores the closed dimension, and finds the rebuilt torus
    by its rows, so a repeat canonizes nothing."""
    assert recognize(torus16()) == RecognitionResult(SpaceKind.CLOSED_MANIFOLD, 2)
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    budget = Budget()
    assert recognize(torus16(), budget) == RecognitionResult(SpaceKind.CLOSED_MANIFOLD, 2)
    assert budget.spent == 0
    assert len(calls) == 0


def test_warm_require_closed_manifold_canonizes_no_rims(cold_memo, monkeypatch):
    """Each rim of a rebuilt torus hits the sphere memo by its rows."""
    assert require_closed_manifold(torus16()) == 2
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    budget = Budget()
    assert require_closed_manifold(torus16(), budget) == 2
    assert budget.spent == 0
    assert len(calls) == 0


def _count_searches(monkeypatch) -> list:
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    return calls


def test_sphere_memo_tells_equal_invariants_apart(cold_memo, monkeypatch):
    """C8 and two disjoint C4s have the same degrees; only C8 is a sphere.
    The rims decide both, so neither charges a node or canonizes."""
    assert recognize_sphere(support.cycle(8)) == 1
    left, right = support.cycle(4, "a"), support.cycle(4, "b")
    two_squares = DigitalSpace(left.points + right.points, left.edges + right.edges)
    budget = Budget()
    calls = _count_searches(monkeypatch)
    assert recognize_sphere(two_squares, budget) is None
    assert budget.spent == 0
    assert len(calls) == 0
    budget = Budget()
    assert recognize_sphere(support.shuffled(support.cycle(8), random.Random(2)), budget) == 1
    assert budget.spent == 0


def test_cycles_are_decided_by_their_rims(cold_memo, monkeypatch):
    """A cycle's rims are all S0, and its punctures are paths: plain or
    shuffled, it is a 1-sphere with no node charged and no search run."""
    rng = random.Random(12)
    cycles = [support.cycle(k) for k in range(4, 13)]
    cycles += [support.shuffled(C, rng) for C in cycles]
    expected = [support.literal_recognize(C) for C in cycles]
    calls = _count_searches(monkeypatch)
    for C, reference in zip(cycles, expected):
        budget = Budget()
        assert recognize(C, budget) == reference == RecognitionResult(SpaceKind.SPHERE, 1)
        assert recognize_sphere(C, budget) == 1
        assert budget.spent == 0
    assert len(calls) == 0


def test_require_closed_manifold_of_a_relabeled_torus_canonizes_nothing(
    cold_memo, monkeypatch
):
    """Every rim of torus16 is a cycle, so a cold check under shuffled
    labels runs no canonical search."""
    torus = support.shuffled(torus16(), random.Random(16))
    calls = _count_searches(monkeypatch)
    budget = Budget()
    assert require_closed_manifold(torus, budget) == 2
    assert budget.spent == 0
    assert len(calls) == 0


def test_closed_surfaces_are_decided_by_euler_characteristic(cold_memo, monkeypatch):
    """Every rim of a closed surface is a cycle and chi decides whether
    it is a 2-sphere, so recognizing one, plain, grown or shuffled,
    charges no node and runs no canonical search; nor does compressing
    a grown torus."""
    rng = random.Random(16)
    surfaces, expected = [], []
    for base, sphere in ((minimal_sphere(2), 2), (torus16(), None),
                         (projective_plane11(), None)):
        grown = base
        for _ in range(8):
            grown = r_transform(grown, *rng.choice(grown.edges))
        surfaces += [base, grown]
        expected += [sphere, sphere]
    surfaces += [support.shuffled(M, rng) for M in surfaces]
    expected += expected
    calls = _count_searches(monkeypatch)
    for M, sphere in zip(surfaces, expected):
        budget = Budget()
        assert recognize_sphere(M, budget) == sphere
        assert recognize(M, budget).kind is (
            SpaceKind.SPHERE if sphere else SpaceKind.CLOSED_MANIFOLD
        )
        assert budget.spent == 0
    grown_torus = surfaces[3]
    assert compress(grown_torus).steps
    assert len(calls) == 0


def _corpus_passes(corpus):
    """The corpus as fresh spaces: for a first pass from empty tables, two
    warm passes under the same labels and one under shuffled labels."""
    rng = random.Random(8)
    passes = [[support.space_from_rows(rows) for rows in corpus] for _ in range(3)]
    passes.append([support.shuffled(support.space_from_rows(rows), rng) for rows in corpus])
    return passes


def _verdicts(passes, tables):
    """(recognize, is_contractible) verdicts with their charges; the tables
    are cleared before the first pass, and then never."""
    for table in tables:
        table.clear()
    out = []
    for spaces in passes:
        for G in spaces:
            kind, contractible = Budget(), Budget()
            out.append((
                recognize(G, kind), kind.spent,
                homotopy.is_contractible(G, contractible), contractible.spent,
            ))
    return out


def test_memo_verdicts_match_a_table_keyed_by_encoding(cold_memo, monkeypatch):
    """The rows-keyed memo gives the verdicts of the literal definitions
    and of a table keyed by canonical encoding alone on all four passes.
    The two warm passes under the first pass's labels find every space by
    its rows, so they charge nothing."""
    corpus = list(support.all_connected_rows(7))
    passes = _corpus_passes(corpus)
    # the first three passes share labels, so they share the verdicts
    cold, shuffled = (
        [
            (support.literal_recognize(G), support.naive_contractible_rows(support.rows_of(G)))
            for G in spaces
        ]
        for spaces in (passes[0], passes[3])
    )
    expected = cold * 3 + shuffled
    memo = _verdicts(_corpus_passes(corpus), [recognition._SPHERE, homotopy._CONTRACTIBLE])
    assert [(kind, contractible) for kind, _, contractible, _ in memo] == expected
    warm = memo[len(corpus):3 * len(corpus)]
    assert [(row[1], row[3]) for row in warm] == [(0, 0)] * len(warm)
    sphere, contractible = support.EncodingTable(), support.EncodingTable()
    monkeypatch.setattr(recognition, "_SPHERE", sphere)
    monkeypatch.setattr(homotopy, "_CONTRACTIBLE", contractible)
    table = _verdicts(_corpus_passes(corpus), [sphere, contractible])
    assert [(kind, contractible) for kind, _, contractible, _ in table] == expected
