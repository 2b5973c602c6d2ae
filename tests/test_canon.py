"""Canonical forms, isomorphism, and point orbits."""

from __future__ import annotations

import itertools
import random
import sys

import support
from digitop import (
    DigitalSpace,
    are_isomorphic,
    canonical_form,
    isomorphism,
    minimal_sphere,
    point_orbits,
    projective_plane11,
    r_transform,
    torus16,
)
from digitop import canon


def test_relabeling_invariance():
    """100 random relabelings leave the canonical encoding unchanged."""
    rng = random.Random(2024)
    targets = [
        support.cycle(4),
        support.wheel(5),
        minimal_sphere(2),
        torus16(),
        projective_plane11(),
    ]
    for G in targets:
        base = canonical_form(G).encoding
        for _ in range(100):
            assert canonical_form(support.shuffled(G, rng)).encoding == base


def test_relabeling_field_is_a_valid_permutation():
    G = support.wheel(4)
    form = canonical_form(G)
    assert sorted(form.relabeling) == sorted(G.points)


def test_canonical_examples():
    # relabeled 4-cycle matches, 4-point path differs
    C = support.cycle(4)
    relabeled = C.relabeled({"c0": "w", "c1": "x", "c2": "y", "c3": "z"})
    assert canonical_form(C).encoding == canonical_form(relabeled).encoding
    assert canonical_form(C).encoding != canonical_form(support.path(4)).encoding


def test_isomorphism_mapping_preserves_adjacency():
    rng = random.Random(5)
    for _ in range(30):
        G = support.random_space(rng, rng.randint(1, 9), rng.random())
        H = support.shuffled(G, rng)
        mapping = isomorphism(G, H)
        assert mapping is not None
        assert sorted(mapping.values()) == sorted(H.points)
        for p, q in itertools.combinations(G.points, 2):
            assert G.adjacent(p, q) == H.adjacent(mapping[p], mapping[q])


def test_non_isomorphic_same_degree_sequence():
    hexagon = support.cycle(6)
    two_triangles = DigitalSpace(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
    )
    assert not are_isomorphic(hexagon, two_triangles)
    assert isomorphism(hexagon, two_triangles) is None


def test_size_mismatch():
    assert not are_isomorphic(support.cycle(4), support.cycle(5))


def test_exhaustive_classes_are_distinct():
    """The dedup generator never conflates: brute-force check on <= 5 points."""
    by_size: dict[int, list] = {}
    for rows in support.all_connected_rows(5):
        by_size.setdefault(len(rows), []).append(rows)
    for size, graphs in by_size.items():
        for left, right in itertools.combinations(graphs, 2):
            same = any(
                all(
                    (left[i] >> j & 1) == (right[perm[i]] >> perm[j] & 1)
                    for i in range(size)
                    for j in range(size)
                )
                for perm in itertools.permutations(range(size))
            )
            assert not same, (left, right)


def test_canonical_encoding_identifies_relabelings_exhaustively():
    rng = random.Random(13)
    for rows in support.all_connected_rows(6):
        G = support.space_from_rows(rows)
        base = canonical_form(G).encoding
        for _ in range(3):
            assert canonical_form(support.shuffled(G, rng)).encoding == base


def test_point_orbits():
    octa = minimal_sphere(2)
    orbits = point_orbits(octa)
    assert len(orbits) == 1 and len(orbits[0]) == 6

    P = support.path(3)
    orbits = point_orbits(P)
    assert {frozenset(o) for o in orbits} == {
        frozenset({"p0", "p2"}),
        frozenset({"p1"}),
    }


def test_orbits_partition_the_points():
    rng = random.Random(31)
    for _ in range(20):
        G = support.random_space(rng, rng.randint(1, 8), rng.random())
        orbits = point_orbits(G)
        flat = [p for orbit in orbits for p in orbit]
        assert sorted(flat) == list(G.points)


def test_highly_symmetric_space():
    # join of eight point pairs: automorphism group of size 2^8 * 8!
    S = minimal_sphere(7)
    assert len(canonical_form(S).relabeling) == 16
    assert len(point_orbits(S)) == 1


# -- splitter-queue refinement against the round-based reference ------------------


def _by_start(cells: list[list[int]], n: int) -> list[int]:
    """Ordered partition as refine takes it: cell bitmasks at their starts."""
    out = [0] * n
    start = 0
    for cell in cells:
        out[start] = sum(1 << v for v in cell)
        start += len(cell)
    return out


def _starts(by_start: list[int]) -> list[int]:
    return [s for s, mask in enumerate(by_start) if mask]


def _cell_sets(by_start: list[int]) -> set[frozenset[int]]:
    return {
        frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)
        for mask in by_start
        if mask
    }


def _is_equitable(rows, by_start: list[int]) -> bool:
    masks = [mask for mask in by_start if mask]
    for cell in masks:
        members = [v for v in range(cell.bit_length()) if cell >> v & 1]
        for other in masks:
            if len({(rows[v] & other).bit_count() for v in members}) > 1:
                return False
    return True


def _check_refinement(rows, cells: list[list[int]]) -> list[int]:
    """Refine cells both ways and check the result; return the refinement."""
    n = len(rows)
    start = _by_start(cells, n)
    refined = canon._refine(rows, list(start), _starts(start))
    assert _cell_sets(refined) == _cell_sets(
        _by_start(support.reference_refine(rows, cells), n)
    )
    assert _is_equitable(rows, refined)
    # every input cell is split in place: its fragments fill its positions
    for s in _starts(start):
        end = s + start[s].bit_count()
        assert sum(refined[s:end]) == start[s] and refined[s] != 0
    return refined


def _check_individualized(rows, refined: list[int], rng) -> None:
    """Refining a child from its new singleton equals refining it fully."""
    for s in _starts(refined):
        cell = refined[s]
        if cell.bit_count() < 2:
            continue
        members = [v for v in range(cell.bit_length()) if cell >> v & 1]
        v = rng.choice(members)
        child = list(refined)
        child[s] = 1 << v
        child[s + 1] = cell ^ (1 << v)
        from_singleton = canon._refine(rows, list(child), [s])
        assert _is_equitable(rows, from_singleton)
        assert _cell_sets(from_singleton) == _cell_sets(
            canon._refine(rows, list(child), _starts(child))
        )


def test_refine_matches_reference_on_corpus():
    rng = random.Random(7)
    graphs = 0
    for rows in support.all_connected_rows(7):
        graphs += 1
        refined = _check_refinement(rows, [list(range(len(rows)))])
        _check_individualized(rows, refined, rng)
    assert graphs == 996


def test_refine_matches_reference_on_random_partitions():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 40)
        density = rng.random()
        rows = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        labels = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
        cells = [
            [v for v in range(n) if labels[v] == label] for label in set(labels)
        ]
        rng.shuffle(cells)
        refined = _check_refinement(rows, cells)
        _check_individualized(rows, refined, rng)


# -- invariance on large and symmetric spaces ------------------------------------------


def _random_tree(rng, size: int) -> DigitalSpace:
    ids = [f"t{i}" for i in range(size)]
    return DigitalSpace(ids, [(ids[i], ids[rng.randrange(i)]) for i in range(1, size)])


def _torus_grid(k: int) -> DigitalSpace:
    """Triangulated k x k toroidal grid, as torus16 is for k = 4."""
    ids = {(i, j): f"g{i}_{j}" for i in range(k) for j in range(k)}
    edges = [
        (ids[i, j], ids[(i + di) % k, (j + dj) % k])
        for i in range(k)
        for j in range(k)
        for di, dj in ((1, 0), (0, 1), (1, 1))
    ]
    return DigitalSpace(ids.values(), edges)


def test_relabeling_invariance_on_large_spaces():
    rng = random.Random(2026)
    grown_torus = torus16()
    while len(grown_torus) < 40:
        grown_torus = r_transform(grown_torus, *rng.choice(grown_torus.edges))
    targets = [
        support.path(150),
        _random_tree(rng, 100),
        _random_tree(rng, 103),
        support.cycle(120),
        _torus_grid(8),
        grown_torus,
    ]
    for G in targets:
        base = canonical_form(G).encoding
        for _ in range(3):
            assert canonical_form(support.shuffled(G, rng)).encoding == base


def test_cycle_differs_from_two_disjoint_cycles():
    twelve = support.cycle(12)
    two_sixes = DigitalSpace(
        support.cycle(6, "a").points + support.cycle(6, "b").points,
        support.cycle(6, "a").edges + support.cycle(6, "b").edges,
    )
    assert canonical_form(twelve).encoding != canonical_form(two_sixes).encoding
    assert not are_isomorphic(twelve, two_sixes)


# -- the search against the properties of a canonical form ------------------------


def _reindexed(rows, order) -> bytes:
    """The encoding of rows under order, as the module docstring defines
    it: the point count, then each row renamed by canonical position."""
    position = {v: p for p, v in enumerate(order)}
    width = (len(rows) + 7) // 8
    renamed = [
        sum(1 << position[u] for u in range(len(rows)) if rows[v] >> u & 1).to_bytes(width, "big")
        for v in order
    ]
    return len(rows).to_bytes(2, "big") + b"".join(renamed)


def _assert_canonical(rows, rng) -> None:
    encoding, order, generators = canon._canonical(rows)
    n = len(rows)
    assert sorted(order) == list(range(n))
    assert encoding == _reindexed(rows, order)
    for g in generators:
        assert sorted(g) == list(range(n))
        assert all(rows[g[v]] == sum(1 << g[u] for u in range(n) if rows[v] >> u & 1)
                   for v in range(n)), (rows, g)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for v in range(n):
        moved[perm[v]] = sum(1 << perm[u] for u in range(n) if rows[v] >> u & 1)
    assert canon._canonical(moved)[0] == encoding, (rows, perm)


def test_canonical_search_is_a_canonical_form():
    """On the corpus and on symmetric spaces where orbit pruning and
    backjumps do the work: the encoding is the rows under the order the
    search returns, a random relabeling gives the same encoding, and
    every automorphism found maps each row onto the row of its image."""
    rng = random.Random(4)
    graphs = 0
    for rows in support.all_connected_rows(7):
        graphs += 1
        _assert_canonical(rows, rng)
    assert graphs == 996
    for G in (
        minimal_sphere(3),
        torus16(),
        _torus_grid(5),
        support.complete(9),
        DigitalSpace([f"x{i}" for i in range(40)], []),
        _random_tree(rng, 30),
        support.random_space(rng, 25, 0.3),
    ):
        _assert_canonical(support.rows_of(G), rng)


def test_golden_encodings():
    """The encodings `digitop catalog` and `report` print, which README
    ("Canonical encodings") says are stable within a release, plain and
    under shuffled labels."""
    rng = random.Random(17)
    for G, golden in (
        (minimal_sphere(2), "00063c3c33330f0f"),
        (minimal_sphere(3), "0008fcfcf3f3cfcf3f3f"),
        (torus16(), "0010fc0050cc495290b2892c33182a86864a46"
                    "3425e0c381a055602b1a6115070c99"),
        (projective_plane11(), "000b07800570036804e402e2061e019e0659064701b501ab"),
        (support.path(6), "0006201018240609"),
        (support.cycle(7), "000760140a24420911"),
        (support.complete(5), "00051e1d1b170f"),
    ):
        for H in (G, support.shuffled(G, rng)):
            assert canonical_form(H).encoding.hex() == golden, golden


def test_deep_search_needs_no_recursion():
    """Refinement never splits an edgeless space, so the search goes one
    level deeper per point; with the recursion limit below the point
    count, a recursive search would raise RecursionError."""
    n = 400
    G = DigitalSpace([f"x{i:03d}" for i in range(n)], [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n // 2)
    try:
        form = canonical_form(G)
    finally:
        sys.setrecursionlimit(limit)
    assert form.encoding == n.to_bytes(2, "big") + bytes(n * ((n + 7) // 8))
    assert point_orbits(G) == (G.points,)
