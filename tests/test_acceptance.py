"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "ACCEPTANCE <n> PASS|FAIL: <summary>" directly to the
terminal (bypassing capture) before asserting, so a full run always
shows the seven verdict lines.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import support
from digitop import (
    Budget,
    DistinguishVerdict,
    are_isomorphic,
    cache,
    canonical_form,
    catalog,
    compress,
    complexity,
    homotopy_distinguish,
    is_contractible,
    join,
    minimal_sphere,
    parse,
    projective_plane11,
    r_transform,
    recognize_closed_manifold,
    recognize_sphere,
    reduce_space,
    serialize,
    torus16,
)
from digitop.cli import main


def report(capsys, number: int, ok: bool, summary: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {summary}")


def test_acceptance_1_minimal_spheres(capsys):
    """Minimal spheres recognized for n = 0..5, manifold checks for n = 6, 7."""
    cache.clear_all()
    start = time.perf_counter()
    recognized = all(recognize_sphere(minimal_sphere(n)) == n for n in range(6))
    sizes = all(len(minimal_sphere(n)) == 2 * n + 2 for n in range(6))
    high = all(recognize_closed_manifold(minimal_sphere(n)) == n for n in (6, 7))
    elapsed = time.perf_counter() - start
    ok = recognized and sizes and high and elapsed < 60
    report(
        capsys, 1, ok,
        f"spheres n=0..5 recognized, n=6,7 manifold checks, {elapsed:.2f}s < 60s",
    )
    assert ok


def test_acceptance_2_complexity_values(capsys):
    values = {
        "octahedron": complexity(minimal_sphere(2)),
        "projective plane": complexity(projective_plane11()),
        "torus": complexity(torus16()),
    }
    cycles = {k: complexity(support.cycle(k)) for k in range(4, 13)}
    ok = (
        values["octahedron"] == 6
        and values["projective plane"] == 11
        and values["torus"] == 16
        and all(v == 4 for v in cycles.values())
    )
    report(
        capsys, 2, ok,
        "com octahedron=6 projective-plane=11 torus=16 cycles(4..12)=4",
    )
    assert ok, (values, cycles)


def test_acceptance_3_growth_and_recompression(capsys):
    octa = minimal_sphere(2)
    grown = r_transform(octa, *octa.edges[0])
    is_sphere = len(grown) == 7 and recognize_sphere(grown) == 2
    back = compress(grown).space
    round_trip = are_isomorphic(back, octa)
    ok = is_sphere and round_trip
    report(
        capsys, 3, ok,
        "r_transform(octahedron) is a 7-point 2-sphere; compress restores it",
    )
    assert ok


def test_acceptance_4_punctured_reductions(capsys):
    singles = []
    for n in range(1, 5):
        S = minimal_sphere(n)
        reduced = reduce_space(S.delete_points([S.points[0]]))
        singles.append(len(reduced.space) == 1)
    T = torus16()
    P = projective_plane11()
    reduced_t = reduce_space(T.delete_points([T.points[0]])).space
    reduced_p = reduce_space(P.delete_points([P.points[0]])).space
    chi_t = reduced_t.euler_characteristic()
    chi_p = reduced_p.euler_characteristic()
    verdict = homotopy_distinguish(reduced_t, reduced_p)
    ok = (
        all(singles)
        and chi_t == -1
        and chi_p == 0
        and verdict is DistinguishVerdict.DISTINCT
    )
    report(
        capsys, 4, ok,
        f"punctured spheres reduce to a point; chi(T-v)={chi_t}, chi(P-v)={chi_p},"
        f" {verdict.name}",
    )
    assert ok


def test_acceptance_5_catalogs(capsys):
    start = time.perf_counter()
    cat0 = catalog(0, 4)
    cat1 = catalog(1, 8)
    cat2 = catalog(2, 7)
    elapsed = time.perf_counter() - start
    rows = (
        cat0.exhaustive and len(cat0.entries) == 1 and cat0.entries[0].points == 2,
        cat1.exhaustive
        and len(cat1.entries) == 1
        and cat1.entries[0].form.encoding
        == canonical_form(support.cycle(4)).encoding,
        cat2.exhaustive
        and len(cat2.entries) == 1
        and cat2.entries[0].form.encoding
        == canonical_form(minimal_sphere(2)).encoding,
    )
    ok = all(rows) and elapsed < 600

    # stretch: nothing besides the octahedron through 10 points
    stretch_start = time.perf_counter()
    stretch = catalog(2, 10)
    stretch_elapsed = time.perf_counter() - stretch_start
    octa_encoding = canonical_form(minimal_sphere(2)).encoding
    stretch_clean = all(e.form.encoding == octa_encoding for e in stretch.entries)

    report(
        capsys, 5, ok,
        f"catalogs (0,4),(1,8),(2,7) exhaustive in {elapsed:.2f}s < 600s; stretch"
        f" (2,10): {len(stretch.entries)} entry, exhaustive={stretch.exhaustive},"
        f" only-octahedron={stretch_clean}, {stretch_elapsed:.1f}s",
    )
    assert ok
    # the stretch run is non-blocking for exhaustiveness, but any entry it
    # does find must be the octahedron
    assert stretch_clean


def test_acceptance_6_property_suites(capsys):
    import random

    # chi conservation over random legal transformation steps
    from digitop import (
        attach_simple_edge,
        attach_simple_point,
        delete_simple_edge,
        delete_simple_point,
        simple_edges,
        simple_points,
    )

    rng = random.Random(97)
    steps = violations = 0
    G = support.wheel(6)
    chi = G.euler_characteristic()
    fresh = 0
    while steps < 1000:
        moves = []
        pts = simple_points(G)
        if pts and len(G) > 2:
            moves.append(("dp", rng.choice(pts)))
        eds = simple_edges(G)
        if eds:
            moves.append(("de", rng.choice(eds)))
        pairs = [
            (p, q)
            for i, p in enumerate(G.points)
            for q in G.points[i + 1 :]
            if not G.adjacent(p, q) and is_contractible(G.joint_rim(p, q))
        ]
        if pairs:
            moves.append(("ae", rng.choice(pairs)))
        if len(G) < 14:
            moves.append(("ap", (rng.choice(G.points),)))
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
        steps += 1
        violations += G.euler_characteristic() != chi

    # manifold moves: r_transform and disk contraction
    from digitop import contract_disk, find_edge_disks

    move_steps = 0
    for seed in range(25):
        rng.seed(seed)
        M = minimal_sphere(2) if seed % 2 else support.cycle(4)
        dim = recognize_closed_manifold(M)
        base_chi = M.euler_characteristic()
        for _ in range(8):
            disks = find_edge_disks(M)
            if disks and rng.random() < 0.4:
                v, u = rng.choice(disks)
                ball = sorted(set(M.neighbors(v)) | set(M.neighbors(u)) | {v, u})
                M = contract_disk(M, ball)
            else:
                M = r_transform(M, *rng.choice(M.edges))
            move_steps += 1
            violations += M.euler_characteristic() != base_chi
            violations += recognize_closed_manifold(M) != dim

    # library vs the literal definition, exhaustively
    checked, _, mismatches = support.exhaustive_oracle_agreement(7)

    # sphere minus a contractible subspace stays contractible, chi matches
    prop_violations = 0
    for n in (1, 2):
        M = minimal_sphere(n)
        target_chi = M.delete_points([M.points[0]]).euler_characteristic()
        found = 0
        while found < 20:
            chosen = [rng.choice(M.points)]
            while rng.random() < 0.7 and len(chosen) < len(M) - 1:
                rest = [p for p in M.points if p not in chosen]
                rng.shuffle(rest)
                for p in rest:
                    if is_contractible(M.induced_subspace(chosen + [p])):
                        chosen.append(p)
                        break
                else:
                    break
            remainder = M.delete_points(chosen)
            prop_violations += not is_contractible(remainder)
            prop_violations += remainder.euler_characteristic() != target_chi
            found += 1

    # every edge of an edge-compressed space has a crossing square
    square_violations = 0
    for M in (
        support.cycle(4),
        minimal_sphere(1),
        minimal_sphere(2),
        minimal_sphere(3),
        torus16(),
        projective_plane11(),
    ):
        for v, u in M.edges:
            xs = [x for x in M.neighbors(v) if x != u and not M.adjacent(x, u)]
            ys = [y for y in M.neighbors(u) if y != v and not M.adjacent(y, v)]
            square_violations += not any(
                M.adjacent(x, y) for x in xs for y in ys
            )

    # join identity on 200 random pairs
    join_violations = 0
    for _ in range(200):
        A = support.random_space(rng, rng.randint(1, 7), rng.random()).prefixed("a_")
        B = support.random_space(rng, rng.randint(1, 7), rng.random()).prefixed("b_")
        a, b = A.euler_characteristic(), B.euler_characteristic()
        join_violations += join(A, B).euler_characteristic() != a + b - a * b

    ok = (
        steps >= 1000
        and move_steps >= 200
        and violations == 0
        and checked == 996
        and mismatches == 0
        and prop_violations == 0
        and square_violations == 0
        and join_violations == 0
    )
    report(
        capsys, 6, ok,
        f"chi conserved over {steps}+{move_steps} steps; oracle agreement on"
        f" {checked} graphs; subspace, crossing-square, join suites clean",
    )
    assert ok


def test_acceptance_7_determinism_and_round_trip(capsys):
    import random

    rng = random.Random(71)
    spaces = {
        "octahedron": minimal_sphere(2),
        "torus": torus16(),
        "projective plane": projective_plane11(),
    }
    stable = True
    for G in spaces.values():
        base = canonical_form(G).encoding
        for _ in range(100):
            stable &= canonical_form(support.shuffled(G, rng)).encoding == base

    round_trip = all(parse(serialize(G)) == G for G in spaces.values())

    identical = True
    for argv in (
        ["catalog", "--dim", "1", "--max-points", "8"],
        ["gen", "projplane11"],
    ):
        first = main(argv)
        out_first = capsys.readouterr().out
        second = main(argv)
        out_second = capsys.readouterr().out
        identical &= first == second and out_first == out_second

    script = [sys.executable, "-m", "digitop", "report", "-", "--json"]
    feed = serialize(torus16()).encode()
    runs = [
        subprocess.run(
            script, input=feed, capture_output=True, timeout=120, env=support.child_env()
        )
        for _ in range(2)
    ]
    identical &= runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    payload = json.loads(runs[0].stdout)
    identical &= payload["complexity"] == 16

    ok = stable and round_trip and identical
    report(
        capsys, 7, ok,
        "canonical forms stable over 300 relabelings; parse/serialize identity;"
        " repeated CLI runs byte-identical",
    )
    assert ok
