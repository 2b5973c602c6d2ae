"""Contractibility, simple points and edges, traces, reduction."""

from __future__ import annotations

import dataclasses
import random
import sys
import tracemalloc

import pytest

import support
from digitop import (
    DigitalSpace,
    DistinguishVerdict,
    NotSimpleError,
    ReductionStrategy,
    TraceError,
    TransformStep,
    attach_simple_edge,
    attach_simple_point,
    contractible_witness,
    delete_simple_edge,
    delete_simple_point,
    homotopy_distinguish,
    is_contractible,
    is_simple_edge,
    is_simple_point,
    join,
    minimal_disk,
    minimal_sphere,
    projective_plane11,
    r_transform,
    reduce_space,
    replay,
    simple_edges,
    simple_points,
    torus16,
)
from digitop import (
    Budget,
    CompressionVerdict,
    SpaceKind,
    cache,
    canon,
    contract_disk,
    homotopy,
    is_compressed,
    recognition,
    recognize,
    recognize_closed_manifold,
    recognize_sphere,
)
from digitop.canon import canonical_encoding_rows, canonical_form


def test_contractible_examples():
    assert is_contractible(DigitalSpace(["a"]))
    assert is_contractible(support.path(5))
    assert is_contractible(support.complete(4))
    assert is_contractible(support.wheel(5))
    assert not is_contractible(DigitalSpace())
    assert not is_contractible(support.cycle(4))
    assert not is_contractible(support.cycle(7))
    assert not is_contractible(minimal_sphere(2))
    # disconnected spaces can never contract to one point
    assert not is_contractible(DigitalSpace(["a", "b"]))


def test_agrees_with_literal_definition_exhaustively():
    """Library vs the unpruned recursion on every connected graph <= 7 points."""
    checked, contractible, mismatches = support.exhaustive_oracle_agreement(7)
    assert checked == 996
    assert mismatches == 0
    assert 0 < contractible < checked


def test_deep_deletion_chain_needs_no_recursion():
    """A path needs ~120 nested deletions, and a 1,000-point path or tree
    ~1,000; the search must not recurse on them."""
    tree = support.random_tree(random.Random(1000), 1000)
    spaces = [support.path(120), support.path(1000), tree]
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        for G in spaces:
            cache.clear_all()
            assert is_contractible(G)
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def built_spaces(monkeypatch):
    """Point counts of the DigitalSpaces built during the test, counted
    at DigitalSpace._from_rows."""
    built = []
    original = DigitalSpace._from_rows
    monkeypatch.setattr(
        DigitalSpace,
        "_from_rows",
        classmethod(lambda cls, ids, rows: built.append(len(rows)) or original(ids, rows)),
    )
    return built


def _grown_torus():
    """torus16 grown by four seeded R-transforms, and that space with its
    first point deleted."""
    rng = random.Random(4)
    torus = torus16()
    for _ in range(4):
        torus = r_transform(torus, *rng.choice(torus.edges))
    return torus, torus.delete_points([torus.points[0]])


def test_search_builds_no_space_below_the_entry_point(cold_memo, built_spaces):
    """Search levels are rows: once a public entry point is entered, a
    cold search builds no DigitalSpace for a rim, a deletion, a puncture
    or a cone, in contractibility, recognition, the disk search or a
    rejected disk contraction."""
    rng = random.Random(24004)
    sphere = minimal_sphere(3)
    while len(sphere) < 24:
        sphere = r_transform(sphere, *rng.choice(sphere.edges))
    torus, punctured = _grown_torus()
    rim = torus.neighbors(torus.points[0])
    queries = [
        (is_contractible, support.path(60), True, True),
        (is_contractible, support.random_tree(random.Random(60), 60), True, True),
        # a 3-sphere: puncture tests, one per orbit
        (recognize_sphere, sphere, 3, True),
        (
            lambda G, budget: recognize(G, budget).kind,
            torus,
            SpaceKind.CLOSED_MANIFOLD,
            False,
        ),
        # both cone tests: the disk's fails, the bounded manifold's passes
        (
            lambda G, budget: recognize(G, budget).kind,
            punctured,
            SpaceKind.MANIFOLD_WITH_BOUNDARY,
            False,
        ),
        (
            lambda G, budget: is_compressed(G, 2, budget).verdict,
            torus,
            CompressionVerdict.NOT_COMPRESSED,
            False,
        ),
    ]
    built_spaces.clear()
    for query, G, expected, deep in queries:
        cache.clear_all()
        budget = Budget()
        assert query(G, budget) == expected
        # a deletion chain or puncture tests, not an answer at the root
        assert budget.spent > 50 or not deep
    cache.clear_all()
    with pytest.raises(ValueError, match="disk"):
        contract_disk(torus, rim)
    assert built_spaces == []


def test_subspaces_the_mask_decides_build_no_rows(monkeypatch):
    """Prunes (a) and (b), S0 and fewer than four points are decided on
    the parent's rows and the subspace's mask: an empty or disconnected
    joint rim, an interior point's rim in a path and the rims of a path
    get no rows of their own."""
    built = []
    for module in (homotopy, recognition):

        def counted(rows, mask, induced=module._induced):
            built.append(mask)
            return induced(rows, mask)

        monkeypatch.setattr(module, "_induced", counted)
    octa = minimal_sphere(2)
    path = support.path(5)
    queries = [
        (lambda: is_simple_edge(path, "p1", "p2"), False),  # empty joint rim
        (lambda: is_simple_edge(octa, *octa.edges[0]), False),  # two opposite points
        (lambda: is_simple_point(path, "p2"), False),
        (lambda: recognize_closed_manifold(support.path(6)), None),
    ]
    for query, expected in queries:
        assert query() is expected
        assert built == []


def test_each_applied_step_builds_one_space(cold_memo, built_spaces):
    """Transformations test simplicity on rows: reduce_space and
    contractible_witness build one DigitalSpace per recorded step, the
    edited space, an R-transform two, with the new point and without
    the old edge, and a disk contraction two, without the interior and
    with the new point."""
    torus, punctured = _grown_torus()
    disk = minimal_disk(3)
    witness = is_compressed(torus).witness
    for strategy in ReductionStrategy:
        cache.clear_all()
        built_spaces.clear()
        steps = reduce_space(punctured, strategy).trace.steps
        assert len(built_spaces) == len(steps) > 0, strategy
    cache.clear_all()
    built_spaces.clear()
    steps = contractible_witness(disk).steps
    assert len(built_spaces) == len(steps) > 0
    built_spaces.clear()
    r_transform(torus, *torus.edges[0])
    assert len(built_spaces) == 2
    cache.clear_all()
    built_spaces.clear()
    contract_disk(torus, witness)
    assert len(built_spaces) == 2


def test_simple_point_examples():
    C = support.cycle(4)
    assert simple_points(C) == ()
    W = support.wheel(4)
    # every rim point of the wheel has a path rim; the hub rim is the 4-cycle
    assert set(simple_points(W)) == {"c0", "c1", "c2", "c3"}
    assert not is_simple_point(W, "hub")
    cone_over_path = support.path(3).add_point("apex", ("p0", "p1", "p2"))
    assert is_simple_point(cone_over_path, "apex")


def test_simple_edge_examples():
    C = support.cycle(4)
    assert simple_edges(C) == ()
    tri = support.complete(3)
    assert is_simple_edge(tri, "k0", "k1")
    octa = minimal_sphere(2)
    # joint rims in the octahedron are 0-spheres, which are not contractible
    assert simple_edges(octa) == ()
    with pytest.raises(ValueError):
        is_simple_edge(C, "c0", "c2")


def test_delete_requires_simple():
    with pytest.raises(NotSimpleError):
        delete_simple_point(support.cycle(4), "c0")
    with pytest.raises(NotSimpleError):
        delete_simple_edge(support.cycle(4), "c0", "c1")
    with pytest.raises(NotSimpleError):
        attach_simple_point(support.cycle(4), "x", ("c0", "c2"))


def test_attach_then_delete_is_identity():
    rng = random.Random(3)
    for _ in range(25):
        G = support.random_space(rng, rng.randint(2, 7), 0.6)
        points = list(G.points)
        anchor = rng.choice(points)
        # a single-point rim is always contractible
        H, step = attach_simple_point(G, "fresh", (anchor,))
        back = H.delete_points(["fresh"])
        assert back == G
        restored, inverse = delete_simple_point(H, "fresh")
        assert restored == G
        assert inverse.inverted() == step


def test_witness_reduces_to_one_point():
    for G in (support.wheel(4), support.complete(5), support.path(6)):
        trace = contractible_witness(G)
        assert len(trace.steps) == len(G) - 1
        end = replay(trace, G)
        assert len(end) == 1


def _reference_witness(G, budget):
    """The witness's steps by the definition: delete the first simple
    point whose puncture, asked for as a mask, is contractible."""
    steps = []
    while len(G) > 1:
        rows = G._rows
        full = (1 << len(rows)) - 1
        i = next(
            i
            for i, row in enumerate(rows)
            if homotopy._contractible(rows, row, budget)
            and homotopy._contractible(rows, full ^ 1 << i, budget)
        )
        steps.append((G.points[i], G.neighbors(G.points[i])))
        G = G.delete_points([G.points[i]])
    return steps


def test_witness_steps_and_charges_match_the_definition():
    """The witness searches each puncture on its rows, skipping prunes
    (a) and (b) but for a one-point puncture: that changes no step and no
    charge against a loop that asks for every puncture as a mask."""
    rng = random.Random(3)
    inputs = [
        support.path(2),
        support.path(40),
        support.random_tree(random.Random(40), 40),
        minimal_disk(2),
        minimal_disk(3),
    ]
    for sphere in (minimal_sphere(2), minimal_sphere(3)):
        for _ in range(6):
            sphere = r_transform(sphere, *rng.choice(sphere.edges))
        inputs.append(sphere.delete_points([sphere.points[0]]))
    for G in inputs:
        cache.clear_all()
        budget = Budget(None)
        trace = contractible_witness(G, budget)
        cache.clear_all()
        reference = Budget(None)
        assert is_contractible(G, reference)
        steps = _reference_witness(G, reference)
        assert [(step.points[0], step.rim) for step in trace.steps] == steps
        assert budget.spent == reference.spent


def test_witness_rejects_non_contractible():
    with pytest.raises(ValueError):
        contractible_witness(support.cycle(5))


def test_triangle_with_pendant_needs_three_deletions():
    G = support.complete(3).add_point("tail", ("k0",))
    trace = contractible_witness(G)
    assert len(trace.steps) == 3


def test_replay_detects_tampering():
    G = support.wheel(4)
    trace = contractible_witness(G)
    with pytest.raises(TraceError):
        replay(trace, support.cycle(4))
    # a trace replayed on a different labeling of the same space also fails
    with pytest.raises(TraceError):
        replay(trace, support.cycle(5))


def test_replay_names_the_step_or_end_that_fails():
    G = support.wheel(4)
    trace = contractible_witness(G)
    first, *rest = trace.steps
    tampered = [
        (dataclasses.replace(first, rim=first.rim[:-1]), "recorded rim"),
        (TransformStep("rename-point", first.points), "unknown step kind"),
        # with no recorded rim the rim check passes and simplicity decides
        (TransformStep("delete-point", ("hub",)), "'hub' is not simple"),
    ]
    for step, message in tampered:
        forged = dataclasses.replace(trace, steps=(step, *rest))
        with pytest.raises(TraceError, match=f"step .* failed: .*{message}"):
            replay(forged, G)
    forged = dataclasses.replace(trace, end=canonical_form(G).encoding)
    with pytest.raises(TraceError, match="end space does not match"):
        replay(forged, G)


def test_attach_simple_edge_refusals():
    C = support.cycle(4)
    with pytest.raises(ValueError, match="non-adjacent pair") as refused:
        attach_simple_edge(C, "c0", "c1")
    assert not isinstance(refused.value, NotSimpleError)
    # the common rim of opposite corners is two points apart
    with pytest.raises(NotSimpleError, match="not contractible"):
        attach_simple_edge(C, "c0", "c2")


def test_trace_inversion_round_trip():
    G = support.wheel(5)
    trace = contractible_witness(G)
    end = replay(trace, G)
    back = replay(trace.inverted(), end)
    assert back == G


def test_chi_conservation_random_walk():
    """Random legal transformation steps never change the Euler characteristic."""
    rng = random.Random(17)
    total_steps = 0
    for seed in range(8):
        rng.seed(seed)
        G = support.wheel(5) if seed % 2 else support.complete(4)
        chi = G.euler_characteristic()
        fresh = 0
        for _ in range(150):
            moves = []
            pts = simple_points(G)
            if pts and len(G) > 2:
                moves.append(("dp", rng.choice(pts)))
            eds = simple_edges(G)
            if eds:
                moves.append(("de", rng.choice(eds)))
            nonadjacent = [
                (p, q)
                for i, p in enumerate(G.points)
                for q in G.points[i + 1 :]
                if not G.adjacent(p, q)
                and is_contractible(G.joint_rim(p, q))
            ]
            if nonadjacent:
                moves.append(("ae", rng.choice(nonadjacent)))
            if len(G) < 12:
                anchor = rng.choice(G.points)
                clique = [anchor]
                for q in G.neighbors(anchor):
                    if all(G.adjacent(q, m) for m in clique if m != anchor):
                        if rng.random() < 0.5:
                            clique.append(q)
                moves.append(("ap", tuple(clique)))
            if not moves:
                continue
            kind, arg = rng.choice(moves)
            if kind == "dp":
                G, _ = delete_simple_point(G, arg)
            elif kind == "de":
                G, _ = delete_simple_edge(G, *arg)
            elif kind == "ae":
                G, _ = attach_simple_edge(G, *arg)
            else:
                fresh += 1
                G, _ = attach_simple_point(G, f"n{fresh}", arg)
            total_steps += 1
            assert G.euler_characteristic() == chi
    assert total_steps >= 1000


def test_every_contractible_space_has_two_simple_points():
    # found empirically over the exhaustive corpus; singletons excepted
    for rows in support.all_connected_rows(6):
        G = support.space_from_rows(rows)
        if len(G) > 1 and is_contractible(G):
            assert len(simple_points(G)) >= 2, rows


def test_cones_and_joins_are_contractible():
    rng = random.Random(23)
    for _ in range(20):
        G = support.random_space(rng, rng.randint(1, 6), rng.random()).prefixed("g_")
        cone = join(DigitalSpace(["apex"]), G)
        assert is_contractible(cone)
        clique = support.complete(rng.randint(1, 3)).prefixed("q_")
        assert is_contractible(join(clique, G))
    for _ in range(10):
        size = rng.randint(1, 6)
        G = support.random_space(rng, size, rng.random()).prefixed("g_")
        if is_contractible(G):
            sphere = DigitalSpace(["s1", "s2"])
            assert is_contractible(join(sphere, G))


@pytest.mark.parametrize("n", [60, 200])
def test_complete_graph_is_answered_as_a_cone(cold_memo, n):
    # complete(n) has 2^n - 1 cliques: the cone prune must answer before chi
    K = support.complete(n)
    budget = Budget()
    assert is_contractible(K, budget)
    assert budget.spent == 1
    assert "cliques" not in K._cache


def test_sphere_minus_contractible_subspace():
    """Removing a contractible induced subspace from a minimal sphere leaves
    a contractible space with the punctured Euler characteristic."""
    rng = random.Random(41)
    for n in (1, 2):
        M = minimal_sphere(n)
        punctured_chi = M.delete_points([M.points[0]]).euler_characteristic()
        found = 0
        while found < 20:
            seed_point = rng.choice(M.points)
            chosen = [seed_point]
            while rng.random() < 0.7 and len(chosen) < len(M) - 1:
                candidates = [p for p in M.points if p not in chosen]
                rng.shuffle(candidates)
                for p in candidates:
                    if is_contractible(M.induced_subspace(chosen + [p])):
                        chosen.append(p)
                        break
                else:
                    break
            remainder = M.delete_points(chosen)
            assert is_contractible(remainder), (n, chosen)
            assert remainder.euler_characteristic() == punctured_chi
            found += 1


def test_reduce_punctured_spheres_to_a_point():
    for n in range(1, 4):
        S = minimal_sphere(n)
        punctured = S.delete_points([S.points[0]])
        for strategy in ReductionStrategy:
            result = reduce_space(punctured, strategy)
            assert len(result.space) == 1
            assert not result.exhausted
            assert replay(result.trace, punctured) == result.space


def test_reduce_flags_a_spent_budget_and_keeps_a_replayable_trace(cold_memo):
    T = torus16()
    punctured = T.delete_points([T.points[0]])
    result = reduce_space(punctured, ReductionStrategy.DELETE_ONLY, Budget(3))
    assert result.exhausted
    assert len(result.space) < len(punctured)
    assert replay(result.trace, punctured) == result.space


def test_reduce_refuses_a_strategy_it_does_not_know():
    with pytest.raises(ValueError, match="^unknown strategy: 'delete-only'$"):
        reduce_space(support.path(3), "delete-only")


def test_reduce_torus_and_plane():
    T = torus16()
    reduced_t = reduce_space(T.delete_points([T.points[0]]))
    assert reduced_t.space.euler_characteristic() == -1
    P = projective_plane11()
    reduced_p = reduce_space(P.delete_points([P.points[0]]))
    assert reduced_p.space.euler_characteristic() == 0
    assert (
        homotopy_distinguish(reduced_t.space, reduced_p.space)
        is DistinguishVerdict.DISTINCT
    )


def test_reduce_leaves_compressed_spheres_alone():
    # minimal spheres have no simple points at all
    S = minimal_sphere(2)
    result = reduce_space(S)
    assert result.space == S
    assert result.trace.steps == ()


def test_attach_edges_strategy_on_disk():
    D = minimal_disk(2)
    result = reduce_space(D, ReductionStrategy.ATTACH_EDGES)
    assert len(result.space) == 1


def test_homotopy_distinguish_not_distinguished():
    # same Euler characteristic: the chi invariant cannot separate these
    assert (
        homotopy_distinguish(support.cycle(4), support.cycle(7))
        is DistinguishVerdict.NOT_DISTINGUISHED
    )


def test_homotopy_distinguish_contractible_spaces():
    # both reduce to a point, yet the verdict is only ever inconclusive
    assert (
        homotopy_distinguish(support.path(3), support.complete(4))
        is DistinguishVerdict.NOT_DISTINGUISHED
    )


# Step lists of reduce_space and contractible_witness as recorded before
# both tried each move directly instead of testing simplicity first: the
# greedy scan order must not change.  dp/de/ae abbreviate delete-point,
# delete-edge and attach-edge.
_ABBREVIATIONS = {"delete-point": "dp", "delete-edge": "de", "attach-edge": "ae"}
_PINNED_REDUCTIONS = {
    ("torus16", ReductionStrategy.DELETE_ONLY): (
        "dp:t01 dp:t02 dp:t10 dp:t11 dp:t12 dp:t20 dp:t21 dp:t22"
        " de:t03,t32 de:t23,t30"
    ),
    ("torus16", ReductionStrategy.ATTACH_EDGES): (
        "ae:t01,t03 ae:t01,t13 ae:t01,t22 ae:t02,t10 ae:t02,t23 ae:t03,t12"
        " ae:t03,t20 ae:t10,t22 ae:t10,t30 ae:t11,t20 ae:t11,t32 ae:t11,t33"
        " ae:t12,t21 ae:t13,t32 ae:t21,t30"
        " dp:t01 dp:t02 dp:t03 dp:t10 dp:t11 dp:t12 dp:t20 dp:t21 dp:t22"
        " de:t23,t30 ae:t13,t31 ae:t23,t30 de:t13,t31 de:t23,t30"
    ),
    ("projective_plane11", ReductionStrategy.DELETE_ONLY): (
        "dp:h dp:d dp:c dp:e dp:b dp:g"
    ),
    ("projective_plane11", ReductionStrategy.ATTACH_EDGES): (
        "dp:h dp:d dp:c dp:e dp:b dp:g"
    ),
}


def _compact(steps) -> str:
    return " ".join(
        f"{_ABBREVIATIONS[step.kind]}:{','.join(step.points)}" for step in steps
    )


@pytest.mark.parametrize("name, strategy", sorted(_PINNED_REDUCTIONS, key=str))
def test_reduce_space_steps_are_pinned(name, strategy):
    M = {"torus16": torus16, "projective_plane11": projective_plane11}[name]()
    punctured = M.delete_points([M.points[0]])
    result = reduce_space(punctured, strategy)
    assert _compact(result.trace.steps) == _PINNED_REDUCTIONS[name, strategy]
    assert not result.exhausted
    assert replay(result.trace, punctured) == result.space


def test_contractible_witness_steps_are_pinned():
    trace = contractible_witness(minimal_disk(2))
    assert [(step.points, step.rim) for step in trace.steps] == [
        (("p1a",), ("p0b", "p2a", "p2b")),
        (("p0b",), ("p1b", "p2a", "p2b")),
        (("p2a",), ("p1b",)),
        (("p1b",), ("p2b",)),
    ]


# -- the search against the definition and the documented prune order ----------------


@pytest.fixture
def cold_memo():
    cache.clear_all()
    yield
    cache.clear_all()


def _definition(G) -> bool:
    """Contractible by the literal definition; chi != 1 rules a space out
    first, as no contractible space has another chi."""
    return support.naive_euler(G) == 1 and support.naive_contractible_rows(support.rows_of(G))


_ENCODINGS: dict[tuple[int, ...], bytes] = {}


def _subset_classes(G) -> int:
    """Isomorphism classes of G's connected induced subspaces with two or
    more points.  Every space the search meets (the root, a rim, a rim of
    a deletion, a deletion) is one, and the memo charges a class once."""
    rows = support.rows_of(G)
    classes = set()
    for mask in range(1, 1 << len(rows)):
        if mask.bit_count() > 1 and support.connected(rows, mask):
            sub = support.sub_rows(rows, mask)
            if sub not in _ENCODINGS:
                _ENCODINGS[sub] = canonical_encoding_rows(sub)
            classes.add(_ENCODINGS[sub])
    return len(classes)


def _assert_cold_search(G) -> int:
    """A cold search gives the definition's verdict and charges as the
    prune order (a)-(f) in homotopy.py says: nothing for one point or a
    disconnected space, one node for a cone or a space with chi != 1,
    and otherwise one node for the space and at most one per class it
    meets.  Returns the charge."""
    cache.clear_all()
    budget = Budget()
    assert is_contractible(G, budget) == _definition(G), G.points
    if len(G) <= 1 or not G.is_connected():
        assert budget.spent == 0, G.points
    elif G.dominating_point() is not None or support.naive_euler(G) != 1:
        assert budget.spent == 1, G.points
    else:
        assert 1 < budget.spent <= _subset_classes(G), G.points
    return budget.spent


def test_search_matches_reference_on_corpus(cold_memo):
    corpus = list(support.all_connected_rows(7))
    cold = [_assert_cold_search(support.space_from_rows(rows)) for rows in corpus]
    cache.clear_all()
    # fresh spaces under the same labels, so every lookup finds its rows; a
    # warm search meets only what a cold one met
    for rows, charged in zip(corpus, cold):
        G = support.space_from_rows(rows)
        budget = Budget()
        assert is_contractible(G, budget) == _definition(G)
        assert budget.spent <= charged, G.points


def _punctured_grown(seed: int) -> list[DigitalSpace]:
    """Grown S2, S3, T and P with up to four points deleted, one at a time.

    Growing recognizes, so call this before clearing the memo."""
    rng = random.Random(seed)
    out = []
    for M in (minimal_sphere(2), minimal_sphere(3), torus16(), projective_plane11()):
        for _ in range(3):
            M = r_transform(M, *rng.choice(M.edges))
        for v in rng.sample(M.points, 4):
            M = M.delete_points([v])
            out.append(M)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_search_matches_reference_on_punctured_grown_manifolds(cold_memo, seed):
    """Cold searches follow the definition and the prune order; warm, a
    relabeled copy of the space just decided charges nothing."""
    spaces = _punctured_grown(seed)
    for G in spaces:
        _assert_cold_search(G)
    cache.clear_all()
    for G in spaces:
        assert is_contractible(G) == _definition(G)
        budget = Budget()
        copy = G.relabeled({v: "x" + v for v in G.points})
        assert is_contractible(copy, budget) == _definition(G)
        assert budget.spent == 0, G.points


def test_reduction_matches_rescanning_reference():
    """Skipping points whose rims did not change keeps every step list of
    the greedy sweeps as reduce_space states them, each rim decided by the
    literal definition."""
    spaces = [support.space_from_rows(rows) for rows in support.all_connected_rows(7)]
    for seed in range(3):
        spaces += _punctured_grown(seed)
    for G in spaces:
        steps = reduce_space(G).trace.steps
        assert list(steps) == support.literal_delete_steps(G), G.points


def test_search_survives_memo_overflow(cold_memo, monkeypatch):
    """Tables dropped mid-search may change the charges, never a verdict."""
    spaces = _punctured_grown(0)
    cache.clear_all()
    monkeypatch.setattr(cache, "CAPACITY", 3)
    for G in spaces:
        assert is_contractible(G) == _definition(G)
    for (name, strategy), steps in _PINNED_REDUCTIONS.items():
        M = {"torus16": torus16, "projective_plane11": projective_plane11}[name]()
        result = reduce_space(M.delete_points([M.points[0]]), strategy)
        assert _compact(result.trace.steps) == steps


def _tailed_plane(*lengths) -> DigitalSpace:
    """projective_plane11 with a path of each length hanging from its first
    point.  Its chi is 1 and the tails' ends are simple, but the plane
    never shrinks: every deletion level is found not contractible, and
    the search meets most of them again down another order of deletions."""
    G = projective_plane11()
    for tail, length in enumerate(lengths):
        last = G.points[0]
        for k in range(length):
            G = G.add_point(f"t{tail}x{k}", [last])
            last = f"t{tail}x{k}"
    return G


def test_cold_charges_match_a_search_keyed_by_rows(cold_memo):
    """is_contractible keys the deletion levels of a top with more points
    than its largest degree by their masks over the top.  No rim can
    equal such a level, and on these inputs no two levels of one top with
    different masks have equal rows, so a cold ask gives the verdict and
    the charge of a search that keys every space by its rows."""
    spaces = [support.space_from_rows(rows) for rows in support.all_connected_rows(7)]
    for n in (50, 100, 200, 400):
        spaces += [support.path(n), support.random_tree(random.Random(n), n)]
    for seed in range(3):
        spaces += _punctured_grown(seed)
    for G in spaces:
        cache.clear_all()
        budget = Budget()
        verdict = is_contractible(G, budget)
        assert (verdict, budget.spent) == support.reference_contractible(support.rows_of(G)), (
            G.points
        )


def test_levels_found_false_stay_in_the_top_table(cold_memo, monkeypatch):
    """A top's deletion levels found not contractible stay in its table of
    masks: asked again after the rows table is dropped, the top charges
    its root and rims again but none of those levels.  A table capped at
    CAPACITY masks is dropped whole and the verdict stays."""
    G = _tailed_plane(4, 4)
    cold = Budget()
    assert not is_contractible(G, cold)
    table = homotopy._LEVELS.get(G._rows)
    assert table and set(table.values()) == {False}
    homotopy._CONTRACTIBLE.clear()
    warm = Budget()
    assert not is_contractible(G, warm)
    assert 0 < warm.spent <= cold.spent - len(table)
    monkeypatch.setattr(cache, "CAPACITY", 3)
    cache.clear_all()
    assert not is_contractible(G)
    assert 0 < len(homotopy._LEVELS.get(G._rows)) <= 3


def test_no_table_for_a_top_without_levels_found_false(cold_memo):
    """A contractible top, or one answered from the rows table, leaves no
    table of masks."""
    G = support.path(40)
    assert is_contractible(G)
    assert is_contractible(G)
    assert homotopy._LEVELS.get(G._rows) is cache.MISSING


@pytest.mark.xfail(
    strict=True,
    reason="mask keys do not share two levels of one top with equal rows "
    "(the FOUND line on mask keys in CHANGES.md)",
)
def test_cold_charges_of_equal_levels_match_a_search_keyed_by_rows(cold_memo):
    """The levels with k points left on one tail and none on the other
    have equal rows for either tail, under different masks: a search
    keyed by rows charges each k once."""
    G = _tailed_plane(4, 4)
    budget = Budget()
    verdict = is_contractible(G, budget)
    assert (verdict, budget.spent) == support.reference_contractible(support.rows_of(G))


@pytest.mark.parametrize("ask_first", [False, True])
def test_witness_finds_the_levels_its_check_found_contractible(cold_memo, ask_first):
    """A cold witness of a path charges one node per level of its first
    check, down to the 3-point cone, and one for the 2-point puncture:
    each step's puncture has the rows of a level the check found
    contractible.  Asking is_contractible first on the same budget, as
    the CLI does, adds nothing."""
    for n in (4, 50, 400):
        cache.clear_all()
        G = support.path(n)
        budget = Budget()
        if ask_first:
            assert is_contractible(G, budget)
        assert len(contractible_witness(G, budget).steps) == n - 1
        assert budget.spent == n - 1


@pytest.mark.parametrize("shape", ["path", "tree"])
def test_long_deletion_chain_holds_little_memory(cold_memo, shape):
    """A cold ask about a 3,200-point path or tree charges one node per
    level from 3,200 points down to the 3-point cone, and what it leaves
    in the memo stays small: the levels above the top's largest degree
    are masks, not rebuilt rows, and a True one is not kept."""
    n = 3200
    G = support.path(n) if shape == "path" else support.random_tree(random.Random(n), n)
    budget = Budget()
    tracemalloc.start()
    try:
        assert is_contractible(G, budget)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert budget.spent == n - 2
    assert held < 32 << 20


# -- the memo is keyed by rows and runs no canonical search -------------------------


def test_deletion_chain_of_a_path_canonizes_nothing(cold_memo, monkeypatch):
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    budget = Budget()
    assert is_contractible(support.path(300), budget)
    assert budget.spent == 298
    assert calls == []


def test_equal_invariants_of_different_spaces_miss(cold_memo):
    # both have degrees 3, 3, 2, 2, 1, 1; only the triangle one is contractible
    triangle = DigitalSpace(
        "abcdef", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("b", "e"), ("d", "f")]
    )
    square = DigitalSpace(
        "abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "e"), ("b", "f")]
    )
    assert is_contractible(triangle)
    budget = Budget()
    assert not is_contractible(square, budget)
    assert budget.spent == 1
    assert is_contractible(support.shuffled(triangle, random.Random(1)))


def test_repeat_query_canonizes_nothing(cold_memo, monkeypatch):
    """The memo answers a space with rows the table already holds, so
    asking about the same space again runs no canonical search."""
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    cycle = support.cycle(8)
    assert not is_contractible(cycle)
    assert not is_contractible(cycle)
    assert len(calls) == 0


def test_relabeled_copy_is_searched_again_then_hits_the_memo(cold_memo):
    """The memo is keyed by rows, so a relabeled copy of a known space
    misses and is decided again; its own rows are then recorded, so asking
    about the copy again costs nothing."""
    rng = random.Random(5)
    for G in (support.random_tree(rng, 40), support.wheel(7).delete_points(["c0"])):
        assert is_contractible(G)
        copy = support.shuffled(G, rng)
        assert copy._rows != G._rows
        budget = Budget()
        assert is_contractible(copy, budget)
        assert budget.spent > 0
        budget = Budget()
        assert is_contractible(copy, budget)
        assert budget.spent == 0


def test_shuffled_repeat_canonizes_nothing(cold_memo, monkeypatch):
    """No lookup runs a canonical search: not the miss of a relabeled
    copy, and not its warm repeat."""
    cycle = support.cycle(8)
    assert not is_contractible(cycle)
    calls = []
    original = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda rows: calls.append(1) or original(rows))
    copy = support.shuffled(cycle, random.Random(3))
    assert copy._rows != cycle._rows
    for _ in range(2):
        assert not is_contractible(copy)
    assert calls == []


def test_small_capacity_keeps_verdicts_and_empties_both_tiers(cold_memo, monkeypatch):
    """Every rows key counts toward CAPACITY, and an overflow drops the
    whole table; verdicts stay right throughout."""
    monkeypatch.setattr(cache, "CAPACITY", 5)
    table = homotopy._CONTRACTIBLE
    rng = random.Random(9)
    spaces = [support.random_space(rng, 7) for _ in range(40)]
    spaces += [support.shuffled(G, rng) for G in spaces]
    for G in spaces + spaces:
        assert is_contractible(G) == _definition(G)
        assert len(table) <= cache.CAPACITY
    table.clear()
    paths = [support.path(k) for k in range(2, 8)]
    for G in paths[:5]:
        table.put(G._rows, True)
    assert len(table) == 5
    table.put(paths[5]._rows, True)
    assert len(table) == 1
    assert table.get(paths[0]._rows) is cache.MISSING
    assert table.get(support.shuffled(paths[0], rng)._rows) is cache.MISSING
    assert table.get(paths[5]._rows) is True
