"""R-transformations, disk contraction, compression, connected sums."""

from __future__ import annotations

import random
import re
from functools import reduce
from operator import or_

import pytest

import support
from digitop import (
    Budget,
    BudgetExceeded,
    CompressionVerdict,
    DigitalSpace,
    NotAManifoldError,
    are_isomorphic,
    complexity,
    compress,
    connected_sum,
    contract_disk,
    find_edge_disks,
    is_compressed,
    minimal_sphere,
    projective_plane11,
    r_transform,
    recognize_closed_manifold,
    recognize_sphere,
    torus16,
)
from digitop import cache, recognition, transform


def test_r_transform_cycle_grows_it():
    C = support.cycle(4)
    out = r_transform(C, "c0", "c1")
    assert len(out) == 5
    assert recognize_sphere(out) == 1
    assert are_isomorphic(out, support.cycle(5))


def test_r_transform_octahedron():
    octa = minimal_sphere(2)
    v, u = octa.edges[0]
    out = r_transform(octa, v, u, fresh="w")
    assert len(out) == 7
    assert recognize_sphere(out) == 2
    assert not out.adjacent(v, u)
    assert out.adjacent("w", v) and out.adjacent("w", u)


def test_r_transform_validation():
    octa = minimal_sphere(2)
    with pytest.raises(ValueError):
        r_transform(octa, "p0a", "p0b")  # antipodes are not adjacent
    with pytest.raises(ValueError):
        r_transform(support.wheel(4), "hub", "c0")  # not a closed manifold
    with pytest.raises(ValueError):
        r_transform(octa, "p0a", "p1a", fresh="p2b")  # id collision


def test_bad_arguments_are_refused_before_the_manifold_test():
    """A non-edge, or an unknown point id, is a ValueError of its own
    even on a non-manifold, and costs no budget."""
    wheel = support.wheel(4)
    for call, message in (
        (lambda b: r_transform(wheel, "c0", "c2", budget=b), "no such edge"),
        (lambda b: contract_disk(wheel, ("hub", "zz"), budget=b), "no such point"),
    ):
        budget = Budget(None)
        with pytest.raises(ValueError, match=message) as refused:
            call(budget)
        assert not isinstance(refused.value, NotAManifoldError)
        assert budget.spent == 0


def test_find_edge_disks_on_compressed_spaces():
    assert find_edge_disks(minimal_sphere(2)) == []
    assert find_edge_disks(support.cycle(4)) == []
    assert find_edge_disks(torus16()) == []
    assert find_edge_disks(projective_plane11()) == []


def test_find_edge_disks_after_r_transform():
    octa = minimal_sphere(2)
    v, u = octa.edges[0]
    grown = r_transform(octa, v, u, fresh="w")
    disks = find_edge_disks(grown)
    assert disks, "the grown sphere must expose a contractible edge"


def test_compress_octahedron_round_trip():
    octa = minimal_sphere(2)
    v, u = octa.edges[0]
    grown = r_transform(octa, v, u)
    result = compress(grown)
    assert len(result.steps) == 1
    assert are_isomorphic(result.space, octa)


def _reference_compress(M):
    """The find-then-contract_disk loop compress is checked against."""
    current = M
    steps = []
    while disks := find_edge_disks(current):
        v, u = disks[0]
        ball = sorted(
            set(current.neighbors(v)) | set(current.neighbors(u)) | {v, u}
        )
        fresh = current.fresh_id()
        steps.append(((v, u), tuple(p for p in ball if p not in (v, u)), fresh))
        current = contract_disk(current, ball, fresh)
    return current, steps


def test_compress_matches_reference_loop_on_grown_manifolds():
    bases = [minimal_sphere(2), minimal_sphere(3), torus16(), projective_plane11()]
    for index, base in enumerate(bases):
        dim = recognize_closed_manifold(base)
        chi = support.naive_euler(base)
        for seed in range(2):
            rng = random.Random(100 * index + seed)
            grown = base
            for _ in range(3):
                grown = r_transform(grown, *rng.choice(grown.edges))
            expected_space, expected_steps = _reference_compress(grown)
            result = compress(grown)
            assert result.space == expected_space
            assert [
                (s.interior_removed, s.boundary, s.new_point) for s in result.steps
            ] == expected_steps
            assert recognize_closed_manifold(result.space) == dim
            assert support.naive_euler(result.space) == chi
            assert find_edge_disks(result.space) == []


def test_compress_is_kept_with_the_space():
    """A space is compressed once: compressing it again, or asking its
    complexity, charges nothing and answers as a fresh copy does.  A run
    stopped by its budget keeps nothing."""
    rng = random.Random(7)
    M = torus16()
    for _ in range(6):
        M = r_transform(M, *rng.choice(M.edges))
    cache.clear_all()
    with pytest.raises(BudgetExceeded):
        compress(M, Budget(1))
    assert "compression" not in M._cache
    first = compress(M)
    budget = Budget()
    assert compress(M, budget) is first
    assert complexity(M, budget) == len(first.space)
    assert budget.spent == 0
    copy = DigitalSpace(M.points, M.edges)
    cache.clear_all()
    fresh = Budget()
    assert compress(copy, fresh) == first
    assert complexity(copy) == len(first.space)
    assert fresh.spent > 0


def test_a_contraction_that_breaks_a_ring_rim_is_refused(monkeypatch):
    """Both contractions check the rims they changed: with add_point
    made to drop the fresh point's first neighbour, compress and
    contract_disk refuse the result instead of returning it."""
    M = _grown(torus16(), 8, 8)
    v, u = find_edge_disks(M)[0]
    ball = set(M.neighbors(v)) | set(M.neighbors(u)) | {v, u}
    add_point = DigitalSpace.add_point
    monkeypatch.setattr(
        DigitalSpace,
        "add_point",
        lambda space, point_id, neighbors=(): add_point(space, point_id, tuple(neighbors)[1:]),
    )
    message = re.escape(f"contracting {(v, u)} left no closed 2-manifold")
    with pytest.raises(NotAManifoldError, match=message):
        compress(M)
    with pytest.raises(NotAManifoldError, match=message):
        contract_disk(M, ball)


def test_compress_walks_the_whole_space_once(monkeypatch):
    """compress walks every rim of its input once, at entry; after that a
    contraction checks only the ring's rims, never a whole space."""
    M = _grown(torus16(), 8, 8)
    closed_dim = recognition._closed_dim
    walked = []

    def counted(rows, budget):
        walked.append(rows)
        return closed_dim(rows, budget)

    monkeypatch.setattr(recognition, "_closed_dim", counted)
    monkeypatch.setattr(transform, "_closed_dim", counted, raising=False)
    result = compress(M)
    spaces = {M._rows}
    current = M
    for step in result.steps:
        current = current.delete_points(step.interior_removed).add_point(
            step.new_point, step.boundary
        )
        spaces.add(current._rows)
    assert current == result.space and len(result.steps) > 0
    assert sum(rows in spaces for rows in walked) == 1


def test_compress_fixpoint_is_stable():
    octa = minimal_sphere(2)
    result = compress(octa)
    assert result.space == octa and result.steps == ()


def test_cycles_compress_to_the_square():
    for k in range(4, 13):
        result = compress(support.cycle(k))
        assert len(result.space) == 4
        assert recognize_sphere(result.space) == 1
        assert len(result.steps) == k - 4


def test_compress_strands_a_grown_three_sphere_at_twelve_points():
    """The deterministic contraction order can end far above the 8-point
    minimum: this grown 3-sphere stops at 12 points with no edge-disk
    left, though a disk with a 3-point interior still contracts."""
    grown = minimal_sphere(3)
    rng = random.Random(24004)
    while len(grown) < 24:
        grown = r_transform(grown, *rng.choice(grown.edges))
    stranded = compress(grown).space
    assert len(stranded) == 12
    assert recognize_sphere(stranded) == support.reference_sphere(stranded) == 3
    assert find_edge_disks(stranded) == []
    check = is_compressed(stranded, 3)
    assert check.verdict is CompressionVerdict.NOT_COMPRESSED
    smaller = contract_disk(stranded, check.witness)
    assert len(smaller) < 12
    assert recognize_sphere(smaller) == 3


def test_contract_disk_validation():
    octa = minimal_sphere(2)
    with pytest.raises(ValueError):
        contract_disk(octa, ("p0a", "p0b"))  # not a disk
    # a 1-disk (induced path) inside a 2-manifold: dimension mismatch
    with pytest.raises(ValueError):
        contract_disk(octa, ("p0a", "p1a", "p1b"))
    with pytest.raises(ValueError):
        contract_disk(support.wheel(4), ("hub", "c0", "c1"))  # not a manifold


def test_contract_disk_on_grown_sphere():
    octa = minimal_sphere(2)
    v, u = octa.edges[0]
    grown = r_transform(octa, v, u, fresh="w")
    pair = find_edge_disks(grown)[0]
    ball_points = sorted(
        set(grown.neighbors(pair[0])) | set(grown.neighbors(pair[1])) | set(pair)
    )
    contracted = contract_disk(grown, ball_points, fresh="q")
    assert recognize_closed_manifold(contracted) == 2
    assert "q" in contracted


def _contract_disk_cases():
    """(M, point mask) pairs: every subset of small closed manifolds, S0
    among them, whose {a} is a 0-disk with an empty boundary; on torus16
    each I + N(I) for a connected I of 1..3 points, and a seeded sample
    of other subsets."""
    small = [
        support.cycle(4),
        support.cycle(7),
        DigitalSpace(["a", "b"]),
        minimal_sphere(2),
        _grown(minimal_sphere(2), 1, 2),
        _grown(minimal_sphere(2), 2, 4),
        minimal_sphere(3),
        _grown(minimal_sphere(3), 3, 2),
        projective_plane11(),
    ]
    for M in small:
        for mask in range(1 << len(M)):
            yield M, mask
    T = torus16()
    rows = support.rows_of(T)

    def with_neighbours(inside):
        return inside | reduce(or_, (row for i, row in enumerate(rows) if inside >> i & 1))

    interiors = {1 << i for i in range(len(rows))}
    for _ in range(2):
        interiors |= {
            inside | 1 << j
            for inside in interiors
            for j in range(len(rows))
            if with_neighbours(inside) >> j & 1
        }
    rng = random.Random(16)
    balls = sorted({with_neighbours(inside) for inside in interiors})
    for mask in balls + [rng.getrandbits(len(rows)) for _ in range(300)]:
        yield T, mask


def test_contract_disk_matches_the_disk_definition():
    """contract_disk accepts D exactly when D induces a disk of M's
    dimension (the literal recognizer) whose interior has no neighbour
    outside D, and the fresh point's rim is then that disk's boundary."""
    accepted = rejected = 0
    for M, mask in _contract_disk_cases():
        rows = support.rows_of(M)
        dim = support.literal_closed(rows)
        positions = [i for i in range(len(M)) if mask >> i & 1]
        points = [M.points[i] for i in positions]
        n, boundary, interior = support.literal_disk(support.sub_rows(rows, mask)) or (None, 0, 0)
        inner = [positions[k] for k in range(len(positions)) if interior >> k & 1]
        if n != dim or any(rows[i] & ~mask for i in inner):
            with pytest.raises(ValueError):
                contract_disk(M, points)
            rejected += 1
            continue
        contracted = contract_disk(M, points)
        fresh = M.fresh_id()
        assert set(contracted.points) == set(M.points) - {M.points[i] for i in inner} | {fresh}
        assert set(contracted.neighbors(fresh)) == {
            p for k, p in enumerate(points) if boundary >> k & 1
        }, (M.points, points)
        accepted += 1
    assert accepted > 150 and rejected > 5000


def test_is_compressed_checks_its_bound_first():
    """A bad bound is an argument error, whatever the space, and is found
    before any rim is walked: a cold S3 would charge its rims' nodes."""
    with pytest.raises(ValueError, match="interior_bound"):
        is_compressed(support.complete(3), 1)
    cache.clear_all()
    with pytest.raises(ValueError, match="interior_bound"):
        is_compressed(minimal_sphere(3), 0, Budget(0))


def test_is_compressed_verdicts():
    assert is_compressed(support.cycle(4)).verdict == CompressionVerdict.EDGE_COMPRESSED
    assert is_compressed(minimal_sphere(2)).verdict == CompressionVerdict.EDGE_COMPRESSED
    assert (
        is_compressed(minimal_sphere(2), interior_bound=3).verdict
        == CompressionVerdict.COMPRESSED_UP_TO_BOUND
    )
    octa = minimal_sphere(2)
    grown = r_transform(octa, *octa.edges[0])
    check = is_compressed(grown)
    assert check.verdict == CompressionVerdict.NOT_COMPRESSED
    assert check.witness is not None
    # the witness names an embedded disk with a small interior
    assert len(check.witness) >= 4


def _grown(base, seed, moves):
    rng = random.Random(seed)
    for _ in range(moves):
        base = r_transform(base, *rng.choice(base.edges))
    return base


def test_is_compressed_matches_reference_subset_search():
    """The first disk of the literal search is the witness, and no disk
    means the clean verdict of the bound; every witness contracts to a
    closed manifold of the same dimension and chi."""
    spaces = [
        support.cycle(4),
        support.cycle(5),
        minimal_sphere(2),
        minimal_sphere(3),
        _grown(minimal_sphere(2), 1, 3),
        _grown(minimal_sphere(3), 1, 2),
        projective_plane11(),
        _grown(projective_plane11(), 1, 1),
    ]
    for M in spaces:
        dim = recognize_closed_manifold(M)
        chi = support.naive_euler(M)
        for bound in (2, 3, 4):
            check = is_compressed(M, bound)
            disks, _ = support.literal_disks(M, dim, bound)
            if disks:
                assert check.witness == tuple(sorted(disks[0][0] + disks[0][1]))
            else:
                assert check.verdict == (
                    CompressionVerdict.EDGE_COMPRESSED if bound == 2
                    else CompressionVerdict.COMPRESSED_UP_TO_BOUND
                ), (M.points, bound)
            if check.verdict == CompressionVerdict.NOT_COMPRESSED:
                contracted = contract_disk(M, check.witness)
                assert recognize_closed_manifold(contracted) == dim
                assert support.naive_euler(contracted) == chi


def test_disk_search_finds_three_point_interiors():
    grown = _grown(minimal_sphere(2), 1, 3)
    disks = [
        tuple(map(grown._ids_of, disk))
        for disk in transform._disks(grown._rows, 2, 3, Budget(100_000))
        if disk[0].bit_count() == 3
    ]
    assert disks
    interior, boundary = disks[0]
    contracted = contract_disk(grown, interior + boundary, fresh="q")
    assert len(contracted) == len(grown) - 2
    assert set(contracted.neighbors("q")) == set(boundary)
    assert recognize_closed_manifold(contracted) == 2


def _disk_search_cases():
    for k in range(4, 10):
        for bound in (2, 3, 4):
            yield support.cycle(k), bound
    for base in (minimal_sphere(2), torus16(), projective_plane11()):
        for moves in (1, 2, 3):
            grown = _grown(base, moves, moves)
            for bound in (2, 3, 4):
                yield grown, bound
    grown = minimal_sphere(3)
    rng = random.Random(24004)
    while len(grown) < 24:
        grown = r_transform(grown, *rng.choice(grown.edges))
    yield grown, 2
    stranded = compress(grown).space
    for bound in (2, 3):
        yield stranded, bound


def test_disk_search_matches_the_rim_split_search():
    """The disks of the cone test are those of the definition (I + N(I) is
    a disk whose interior is exactly I, split by its rims and decided by
    the literal recognizers), in the same order.  Each interior tried
    costs one node; recognizing a cycle or a closed surface costs none,
    so below dimension 3 that is the whole charge."""
    found = 0
    for M, bound in _disk_search_cases():
        dim = recognize_closed_manifold(M)
        cache.clear_all()
        budget = Budget(None)
        disks = [
            tuple(map(M._ids_of, disk))
            for disk in transform._disks(M._rows, dim, bound, budget)
        ]
        expected, tried = support.literal_disks(M, dim, bound)
        assert disks == expected, (M.points, bound)
        assert (budget.spent == tried) if dim < 3 else (budget.spent >= tried), (M.points, bound)
        found += len(disks)
    assert found > 400


def test_is_compressed_grows_only_bounded_interiors():
    """An edge-compressed torus16 is certified within 100 nodes; a search
    over every connected subset spends tens of thousands."""
    cache.clear_all()
    check = is_compressed(torus16(), budget=Budget(100))
    assert check.verdict == CompressionVerdict.EDGE_COMPRESSED


def test_manifold_preservation_over_random_moves():
    """Random r_transform / contract_disk sequences keep dimension and chi."""
    rng = random.Random(29)
    total_moves = 0
    for seed in range(25):
        rng.seed(seed)
        M = minimal_sphere(2) if seed % 2 else support.cycle(4)
        dim = recognize_closed_manifold(M)
        chi = M.euler_characteristic()
        for _ in range(8):
            disks = find_edge_disks(M)
            if disks and rng.random() < 0.4:
                v, u = rng.choice(disks)
                ball = sorted(
                    set(M.neighbors(v)) | set(M.neighbors(u)) | {v, u}
                )
                M = contract_disk(M, ball)
            else:
                v, u = rng.choice(M.edges)
                M = r_transform(M, v, u)
            total_moves += 1
            assert recognize_closed_manifold(M) == dim
            assert M.euler_characteristic() == chi
    assert total_moves >= 200


def test_connected_sum_of_octahedra():
    octa = minimal_sphere(2)
    other = support.shuffled(octa, random.Random(1))
    result = connected_sum(octa, octa.points[0], other, other.points[0])
    assert len(result) == 6
    assert recognize_sphere(result) == 2
    assert are_isomorphic(result, octa)


def test_connected_sum_of_squares():
    a = support.cycle(4)
    b = support.cycle(4, prefix="d")
    result = connected_sum(a, "c0", b, "d0")
    assert recognize_sphere(result) == 1
    assert len(result) == 4


def test_connected_sum_with_torus():
    # a 2-sphere whose rims match the torus rims (6-cycles)
    sphere = support.bipyramid(6)
    T = torus16()
    result = connected_sum(T, T.points[0], sphere, "north")
    assert len(result) == 16
    assert recognize_closed_manifold(result) == 2
    assert result.euler_characteristic() == 0
    # summing with a sphere is the identity up to compression
    assert are_isomorphic(compress(result).space, T)


def test_connected_sum_rejects_mismatched_rims():
    T = torus16()
    octa = minimal_sphere(2)
    with pytest.raises(ValueError):
        connected_sum(T, T.points[0], octa, octa.points[0])


def test_connected_sum_rejects_bad_matching():
    octa = minimal_sphere(2)
    other = octa.prefixed("o_")
    # sends the adjacent pair (p1a, p2a) to the antipodes (o_p1a, o_p1b)
    bad = {"p1a": "o_p1a", "p2a": "o_p1b", "p1b": "o_p2a", "p2b": "o_p2b"}
    with pytest.raises(ValueError):
        connected_sum(octa, "p0a", other, "o_p0a", matching=bad)


def test_connected_sum_refusals_are_pinned():
    """An id that both summands keep, and a matching that misses a rim
    point or lands off the second rim, are refused by name."""
    square = support.cycle(4)
    with pytest.raises(ValueError, match=re.escape("id collisions between summands: ['c2']")):
        connected_sum(square, "c0", square, "c0")
    octa = minimal_sphere(2)
    other = octa.prefixed("o_")
    whole = {p: "o_" + p for p in ("p1a", "p1b", "p2a", "p2b")}
    for matching, message in (
        ({p: q for p, q in whole.items() if p != "p2b"}, "matching does not cover the first rim exactly"),
        ({**whole, "p2b": "o_p0b"}, "matching does not map onto the second rim exactly"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            connected_sum(octa, "p0a", other, "o_p0a", matching=matching)


def test_edge_compressed_spaces_have_crossing_squares():
    """Every edge of an edge-compressed manifold lies in an induced 4-cycle
    made of the edge plus an adjacent pair taken across it."""
    targets = [
        support.cycle(4),
        minimal_sphere(1),
        minimal_sphere(2),
        minimal_sphere(3),
        torus16(),
        projective_plane11(),
    ]
    for M in targets:
        assert find_edge_disks(M) == []
        for v, u in M.edges:
            xs = [x for x in M.neighbors(v) if x != u and not M.adjacent(x, u)]
            ys = [y for y in M.neighbors(u) if y != v and not M.adjacent(y, v)]
            assert any(
                M.adjacent(x, y) for x in xs for y in ys
            ), f"edge {v} -- {u} has no crossing square"
