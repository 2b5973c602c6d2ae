"""Core graph type: construction, rims, joins, cliques, Euler."""

from __future__ import annotations

import math
import random
import re

import pytest

import support
from digitop import (
    BudgetExceeded,
    CliqueVector,
    DigitalSpace,
    join,
    minimal_sphere,
    projective_plane11,
    r_transform,
    space,
    torus16,
)


def test_points_are_sorted_and_validated():
    G = DigitalSpace(["b", "a", "c"], [("c", "a")])
    assert G.points == ("a", "b", "c")
    assert G.adjacent("a", "c")
    assert not G.adjacent("a", "b")
    with pytest.raises(ValueError):
        DigitalSpace(["a b"])
    with pytest.raises(ValueError):
        DigitalSpace(["a", "a"])
    with pytest.raises(ValueError):
        DigitalSpace(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        DigitalSpace(["a"], [("a", "a")])


def test_basic_queries():
    G = support.cycle(4)
    assert len(G) == 4
    assert G.edge_count == 4
    assert set(G.neighbors("c0")) == {"c1", "c3"}
    assert G.degree("c2") == 2
    assert "c0" in G and "nope" not in G
    with pytest.raises(ValueError):
        G.neighbors("nope")
    # ids are found by bisection: before the first, between, after the last
    for missing in ("a", "c", "c00", "c10", "c4", "d"):
        assert missing not in G
        with pytest.raises(ValueError):
            G.degree(missing)
    assert all(G.degree(p) == 2 for p in G.points)
    # prefix pairs sort next to each other
    P = DigitalSpace(["p1", "p10", "p2"], [("p1", "p10")])
    assert "p1" in P and "p10" in P and "p" not in P and "p11" not in P
    assert P.neighbors("p10") == ("p1",) and P.neighbors("p2") == ()
    assert P.adjacent("p1", "p10") and not P.adjacent("p10", "p2")
    # the empty space has no points
    E = DigitalSpace()
    assert "a" not in E and "" not in E and 5 not in E
    with pytest.raises(ValueError):
        E.rim("a")
    # non-str ids are never points, and looking one up is a ValueError
    for bad in (5, None, ("c0",), b"c0"):
        assert bad not in G
    with pytest.raises(ValueError, match="no such point: 5"):
        G.rim(5)
    with pytest.raises(ValueError, match="no such point: None"):
        G.neighbors(None)


def test_equality_ignores_caches():
    G = support.cycle(5)
    H = support.cycle(5)
    G.euler_characteristic()
    assert G == H
    assert hash(G) == hash(H)
    assert G != H.delete_points(["c0"])


def test_refusals_and_dunders_are_pinned():
    """The exact message of each refusal, and what ==, iteration and repr
    give."""
    G = DigitalSpace(["a", "b"], [("a", "b")])
    for call, message in (
        (lambda: DigitalSpace(["a"], [("b", "a")]), "edge endpoint is not a point: 'b'"),
        (lambda: G.joint_rim("a", "a"), "joint rim needs two distinct points: 'a'"),
        (lambda: G.add_point("c-d"), "invalid point id: 'c-d'"),
        (lambda: G.add_edge("a", "a"), "self-loop at 'a'"),
        (lambda: G.relabeled({"a": "x"}), "mapping misses point 'b'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert G.__eq__(3) is NotImplemented and G != 3 and not G == 3
    assert list(G) == ["a", "b"]
    assert repr(G) == "DigitalSpace(points=2, edges=1)"


def test_induced_subspace_of_cycle_is_path():
    # 4-cycle restricted to three consecutive points
    G = support.cycle(4)
    sub = G.induced_subspace(["c0", "c1", "c2"])
    assert sub.edges == (("c0", "c1"), ("c1", "c2"))


def test_deleting_one_point_matches_the_induced_rest():
    rng = random.Random(3)
    for G in (torus16(), support.wheel(6), support.path(70), support.random_tree(rng, 90)):
        for v in G.points:
            assert G.delete_points([v]) == G.induced_subspace(set(G.points) - {v})


def test_rim_and_ball():
    C = support.cycle(4)
    rim = C.rim("c0")
    assert rim.points == ("c1", "c3") and rim.edge_count == 0
    ball = C.ball("c0")
    assert set(ball.points) == {"c0", "c1", "c3"} and ball.edge_count == 2

    octa = minimal_sphere(2)
    v = octa.points[0]
    assert octa.rim(v).edge_count == 4  # a 4-cycle
    assert octa.ball(v).edge_count == 8  # wheel over it


def test_joint_rim():
    C = support.cycle(4)
    assert len(C.joint_rim("c0", "c1")) == 0
    octa = minimal_sphere(2)
    jr = octa.joint_rim("p0a", "p1a")
    assert len(jr) == 2 and jr.edge_count == 0


def test_join_builds_cross_edges():
    two = DigitalSpace(["a", "b"])
    other = DigitalSpace(["c", "d"])
    square = join(two, other)
    assert square.edge_count == 4
    assert square.degree("a") == 2
    # S0 join S0 is the 4-cycle
    from digitop import are_isomorphic

    assert are_isomorphic(square, support.cycle(4))
    with pytest.raises(ValueError):
        join(two, DigitalSpace(["a"]))


def test_add_and_remove():
    G = DigitalSpace(["a", "b"], [("a", "b")])
    H = G.add_point("c", ["a"])
    assert H.adjacent("a", "c") and not H.adjacent("b", "c")
    assert len(G) == 2  # immutable
    with pytest.raises(ValueError):
        G.add_point("a")
    with pytest.raises(ValueError, match="point already present: 'b'"):
        H.add_point("b", ["c"])
    with pytest.raises(ValueError, match="no such point"):
        G.add_point("c", ["zz"])
    # a new point lands before, between or after the sorted ids
    for pid, position in (("A", 0), ("aa", 1), ("bb", 2)):
        K = G.add_point(pid, ["b"])
        assert K.points.index(pid) == position
        assert K.neighbors(pid) == ("b",) and K.adjacent("a", "b")
        assert set(K.neighbors("b")) == {"a", pid}
    assert DigitalSpace().add_point("x").points == ("x",)
    with pytest.raises(ValueError):
        G.add_edge("a", "b")
    with pytest.raises(ValueError):
        G.remove_edge("a", "a")
    assert G.remove_edge("a", "b").edge_count == 0
    assert G.delete_points(["b"]).points == ("a",)
    with pytest.raises(ValueError):
        G.delete_points(["zz"])


def test_relabeled_and_prefixed():
    G = support.path(3)
    H = G.relabeled({"p0": "x", "p1": "y", "p2": "z"})
    assert H.points == ("x", "y", "z")
    assert H.adjacent("x", "y") and not H.adjacent("x", "z")
    with pytest.raises(ValueError):
        G.relabeled({"p0": "p1", "p1": "p1", "p2": "z"})
    assert G.prefixed("L_").points == ("L_p0", "L_p1", "L_p2")


def test_fresh_id_avoids_collisions():
    G = DigitalSpace(["z0", "z1"])
    assert G.fresh_id() == "z2"
    assert G.fresh_id("z1") not in G
    assert DigitalSpace().fresh_id() == "z0"
    assert DigitalSpace(["z0", "z2"]).fresh_id() == "z1"
    # z1 and z10 are a prefix pair; z10 is taken, so stem z1 goes on to z11
    assert DigitalSpace(["z1", "z10"]).fresh_id("z1") == "z11"
    assert DigitalSpace(["a", "y", "zz"]).fresh_id() == "z0"
    # every id it returns is a valid point id; the empty stem gives "0"
    assert DigitalSpace(["a"]).fresh_id("") == "0"
    for stem in ("x-", "a b", "é"):
        with pytest.raises(ValueError):
            DigitalSpace(["a"]).fresh_id(stem)


def test_connectivity():
    G = DigitalSpace(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not G.is_connected()
    assert G.connected_components() == (("a", "b"), ("c", "d"))
    assert support.cycle(5).is_connected()
    # vacuous conventions
    assert DigitalSpace().is_connected()
    assert DigitalSpace().connected_components() == ()


def test_dominating_point():
    W = support.wheel(4)
    assert W.dominating_point() == "hub"
    assert support.cycle(4).dominating_point() is None
    assert DigitalSpace(["a"]).dominating_point() == "a"


def test_clique_vector_examples():
    assert support.cycle(4).clique_vector().counts == (4, 4)
    octa = minimal_sphere(2)
    assert octa.clique_vector().counts == (6, 12, 8)
    assert torus16().clique_vector().counts == (16, 48, 32)


def test_clique_vector_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        G = support.random_space(rng, rng.randint(0, 8), rng.random())
        assert G.clique_vector().counts == support.naive_clique_counts(G)
        assert G.euler_characteristic() == support.naive_euler(G)


def test_clique_budget_cap(monkeypatch):
    monkeypatch.setattr(space, "DEFAULT_CLIQUE_LIMIT", 1000)
    big = support.complete(12)
    with pytest.raises(BudgetExceeded, match="clique"):
        big.clique_vector()


def test_deep_clique_walk_runs_out_of_budget_not_stack(monkeypatch):
    # a 1,100-point clique is deeper than the default recursion limit
    monkeypatch.setattr(space, "DEFAULT_CLIQUE_LIMIT", 5_000)
    n = 1_100
    full = (1 << n) - 1
    big = DigitalSpace._from_rows(
        [f"k{i:04d}" for i in range(n)], [full ^ 1 << i for i in range(n)]
    )
    with pytest.raises(BudgetExceeded):
        big.clique_vector()


def test_euler_examples():
    assert DigitalSpace(["a"]).euler_characteristic() == 1
    assert support.cycle(4).euler_characteristic() == 0
    assert minimal_sphere(2).euler_characteristic() == 2
    assert torus16().euler_characteristic() == 0


def test_join_euler_identity():
    # chi(G join H) = chi(G) + chi(H) - chi(G) chi(H)
    rng = random.Random(11)
    for _ in range(200):
        G = support.random_space(rng, rng.randint(1, 7), rng.random())
        H = support.random_space(rng, rng.randint(1, 7), rng.random())
        joined = join(G.prefixed("g_"), H.prefixed("h_"))
        a, b = G.euler_characteristic(), H.euler_characteristic()
        assert joined.euler_characteristic() == a + b - a * b


def test_minimal_sphere_euler():
    # chi(S^n) alternates: 2 for even n, 0 for odd n
    for n in range(6):
        assert minimal_sphere(n).euler_characteristic() == (2 if n % 2 == 0 else 0)


# -- the row kernel against the checked constructor and brute force ---------------


def _grown_manifolds():
    rng = random.Random(9)
    for M in (torus16(), minimal_sphere(2), minimal_sphere(3), projective_plane11()):
        for _ in range(6):
            M = r_transform(M, *rng.choice(M.edges))
        yield M


def test_reindex_matches_the_encode_order_reference():
    """_reindex against the checked constructor: naming point order[p]
    so that it sorts to position p gives the same rows."""
    rng = random.Random(5)
    for rows in support.all_connected_rows(7):
        order = list(range(len(rows)))
        for _ in range(3):
            rng.shuffle(order)
            names = {v: f"q{p:02d}" for p, v in enumerate(order)}
            renamed = DigitalSpace(names.values(), [
                (names[v], names[u]) for v in order for u in order if rows[v] >> u & 1
            ])
            full = (1 << len(rows)) - 1
            assert tuple(space._reindex(rows, order, full)) == support.rows_of(renamed)


def test_induced_matches_the_reference_on_full_one_missing_and_random_masks():
    """_induced against support.sub_rows on the full mask, on every mask
    with one point missing (the row-slicing branch) and on seeded random
    masks, over the connected graphs of at most 6 points and a grown
    torus."""
    rng = random.Random(23)
    torus = torus16()
    for _ in range(4):
        torus = r_transform(torus, *rng.choice(torus.edges))
    graphs = list(support.all_connected_rows(6))
    assert len(graphs) == 143
    for rows in graphs + [torus._rows]:
        n = len(rows)
        full = (1 << n) - 1
        one_missing = [full ^ 1 << i for i in range(n)]
        for mask in [full, *one_missing, *(rng.getrandbits(n) for _ in range(8))]:
            assert space._induced(rows, mask) == support.sub_rows(rows, mask), (rows, mask)


def test_induced_subspace_and_add_point_match_the_references():
    """Subspaces and added points against the same spaces built by the
    checked constructor from point and edge lists."""
    rng = random.Random(6)
    for M in _grown_manifolds():
        n = len(M)
        for _ in range(40):
            mask = rng.getrandbits(n)
            chosen = [p for i, p in enumerate(M.points) if mask >> i & 1]
            sub = M.induced_subspace(chosen)
            assert sub == DigitalSpace(chosen, [e for e in M.edges if set(e) <= set(chosen)])
        for pid in ("a0", "p0b", "v05x", "z", "zz9", M.fresh_id(), M.fresh_id("p")):
            if pid in M:
                continue
            nbrs = rng.sample(M.points, rng.randint(0, n))
            grown = M.add_point(pid, nbrs)
            edges = M.edges + tuple((pid, q) for q in nbrs)
            assert grown == DigitalSpace(M.points + (pid,), edges)


def test_clique_vector_matches_brute_force_counts():
    """Clique counts against combinations of points, and for the minimal
    n-sphere, the join of n + 1 two-point spaces, against C(n+1, k) 2^k."""
    for rows in support.all_connected_rows(7):
        G = support.space_from_rows(rows)
        assert G.clique_vector() == CliqueVector(support.naive_clique_counts(G))
    for n in range(8):
        expected = tuple(math.comb(n + 1, k) * 2**k for k in range(1, n + 2))
        assert minimal_sphere(n).clique_vector() == CliqueVector(expected)
