"""The three benchmark workloads: seeded inputs, fixed query lists, checks.

Each workload is one function that builds every input from the seed
with graphs.py (no library call decides anything there), writes the
SpaceFiles the CLI queries read, and returns the query list.  The
harness calls it again before every round, so each round starts from a
fresh import and fresh DigitalSpace objects with empty per-space caches,
and its cost does not depend on earlier rounds.

Every query carries a reference check that never looks at the library's
own answers: facts known by construction, or invariants recomputed by
graphs.py.

Why each workload exists and what it stresses is recorded in
BENCHMARK.json and repeated next to each builder below.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import graphs as g

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same query kinds at a size that runs in well under a second, for the
# harness self-test.
SIZES = {
    "full": {
        # a block of 13 similar paths makes up the top fifth of latencies:
        # p90 falls inside it, pooled over many samples of inputs whose cost
        # does not depend on the seed
        "paths": (16, 24, 32) + tuple(range(36, 49)),
        "trees": tuple(15 + 30 * k // 43 for k in range(44)),
        "disk2": (16, 20, 24, 28),
        "disk3": (15, 18),
        "projective": (16, 24, 32),
        "reduce_torus": (20, 24),
        # R-transform steps of each grown copy, per base manifold
        "grow": {"S2": (2, 4, 6), "S3": (1, 2, 3), "T": (1, 2, 4), "P": (1, 3, 5)},
        "sphere_dims": tuple(range(8)),
        "catalogs": ((1, 16), (2, 9), (3, 9)),
    },
    "tiny": {
        "paths": (8, 12),
        "trees": (8, 8, 12, 12),
        "disk2": (9,),
        "disk3": (10,),
        "projective": (13,),
        "reduce_torus": (18,),
        "grow": {"S2": (2,), "S3": (1,), "T": (1,), "P": (1,)},
        "sphere_dims": tuple(range(4)),
        "catalogs": ((1, 6), (2, 6), (3, 8)),
    },
}


@dataclass
class Query:
    """One timed library call and its independent check."""

    kind: str
    run: Callable[[Any], Any]  # receives the Budget the benchmark passes in
    check: Callable[[Any], bool]
    reset: bool = False  # clear the memo tables right before this query
    points: int = 0  # input size; paths and trees feed canon.scaling_exp
    scaling: bool = False
    limit: int | None = None  # node limit of the Budget; None: library default


@dataclass
class Manifold:
    """A closed manifold grown in set-up, with its reference invariants."""

    name: str
    dim: int
    base: g.Adjacency
    steps: list[tuple[str, str, str]]
    grown: g.Adjacency
    euler: int
    punctured_euler: int
    spacefile: Path | None = None


def space_of(dg, adj: g.Adjacency):
    return dg.DigitalSpace(adj, g.edge_list(adj))


def adjacency_of(space) -> g.Adjacency:
    return g.from_edges(space.points, space.edges)


def decode_encoding(encoding: bytes) -> g.Adjacency:
    """Adjacency from a canonical encoding: 2-byte count, then rows."""
    n = int.from_bytes(encoding[:2], "big")
    width = (n + 7) // 8
    if len(encoding) != 2 + n * width:
        raise ValueError("encoding length does not match its point count")
    ids = [f"c{i}" for i in range(n)]
    adj: g.Adjacency = {p: set() for p in ids}
    for i in range(n):
        row = int.from_bytes(encoding[2 + i * width : 2 + (i + 1) * width], "big")
        adj[ids[i]] = {ids[j] for j in range(n) if row >> j & 1}
    return adj


def _projective_plane(dg) -> g.Adjacency:
    """The library's 11-point projective plane, re-checked as an input."""
    plane = dg.projective_plane11()
    adj = g.from_edges(plane.points, plane.edges)
    if not (g.is_closed_surface(adj) and g.euler(adj) == 1):
        raise ValueError("built-in projective plane fails its reference invariants")
    return adj


def _grown_spheres(base: g.Adjacency, targets, rng, dim: int):
    """Punctured spheres grown to each target size: disks, so contractible."""
    out = []
    for target in targets:
        grown, _ = g.r_grow(base, target + 1 - len(base), rng)
        out.append((f"disk{dim}", g.delete_point(grown, rng.choice(sorted(grown)))))
    return out


# -- contract -------------------------------------------------------------------------
# Cold contractibility on large sparse spaces.  Why: canon._refine does most
# of the work, and with the memo cleared before every query each query writes
# fresh entries and reads none from earlier queries.  Paths and trees span
# 15-48 points so the traced run can fit canon time against size.


def contract(dg, rng: random.Random, sizes: dict, workdir: Path) -> list[Query]:
    specs = []
    for n in sizes["paths"]:
        specs.append(("path", g.path_graph(n, rng), True))
    for n in sizes["trees"]:
        specs.append(("tree", g.random_tree(n, rng), True))
    for kind, adj in _grown_spheres(g.minimal_sphere_graph(2), sizes["disk2"], rng, 2):
        specs.append((kind, adj, True))
    for kind, adj in _grown_spheres(g.minimal_sphere_graph(3), sizes["disk3"], rng, 3):
        specs.append((kind, adj, True))
    plane = _projective_plane(dg)
    for n in sizes["projective"]:
        grown, _ = g.r_grow(plane, n - len(plane), rng)
        # a closed surface: every rim is a circle, so no point is simple
        specs.append(("projective", grown, False))
    for n in sizes["reduce_torus"]:
        grown, _ = g.r_grow(g.torus_graph(), n + 1 - 16, rng)
        specs.append(("reduce", g.delete_point(grown, rng.choice(sorted(grown))), None))
    rng.shuffle(specs)
    queries = []
    for kind, adj, expected in specs:
        space = space_of(dg, adj)
        if kind == "reduce":
            queries.append(
                Query(
                    kind,
                    lambda b, s=space: dg.reduce_space(
                        s, dg.ReductionStrategy.DELETE_ONLY, b
                    ),
                    lambda r, n=len(adj): _check_reduced(r, n),
                    reset=True,
                    points=len(adj),
                )
            )
            continue
        queries.append(
            Query(
                kind,
                lambda b, s=space: dg.is_contractible(s, b),
                lambda r, e=expected: r is e,
                reset=True,
                points=len(adj),
                scaling=kind in ("path", "tree"),
            )
        )
    return queries


def _check_reduced(result, n: int) -> bool:
    """A punctured torus keeps chi = -1 and stays connected while shrinking."""
    reduced = adjacency_of(result.space)
    deletions = sum(step.kind == "delete-point" for step in result.trace.steps)
    return (
        not result.exhausted
        and g.is_connected(reduced)
        and g.euler(reduced) == -1
        and len(reduced) == n - deletions
    )


# -- manifold ---------------------------------------------------------------------------
# One session over grown closed manifolds, memo cleared once at the start.
# Why: transform and recognition do the work and the memo is mostly read, so
# this is where memo keying and compress cost show; the in-process CLI reports
# cover the cli layer.


_BASES = {
    "S2": (2, lambda dg: g.minimal_sphere_graph(2)),
    "S3": (3, lambda dg: g.minimal_sphere_graph(3)),
    "T": (2, lambda dg: g.torus_graph()),
    "P": (2, _projective_plane),
}


def manifold(dg, rng: random.Random, sizes: dict, workdir: Path) -> list[Query]:
    manifolds = []
    for name, step_counts in sizes["grow"].items():
        dim, make = _BASES[name]
        base = make(dg)
        for copy, steps in enumerate(step_counts):
            grown, done = g.r_grow(base, steps, rng)
            first = sorted(grown)[0]
            chi = g.euler(grown)
            manifolds.append(
                Manifold(
                    f"{name}-{copy}",
                    dim,
                    base,
                    done,
                    grown,
                    chi,
                    # chi(M - v) = chi(M) - 1 + chi(rim v); reductions keep it
                    chi - 1 + g.euler(g.induced(grown, grown[first])),
                )
            )
    for m in manifolds:
        if m.name.endswith("-0"):
            m.spacefile = workdir / f"{m.name}.space"
            m.spacefile.write_text(g.spacefile_text(m.grown), encoding="utf-8")

    queries = []
    for m in manifolds:
        sphere = m.name.startswith("S")
        base = space_of(dg, m.base)
        space = space_of(dg, m.grown)
        kind = dg.SpaceKind.SPHERE if sphere else dg.SpaceKind.CLOSED_MANIFOLD
        size = len(m.grown)
        queries += [
            Query("grow", lambda b, s=base, m=m: _grow(dg, s, m.steps, b),
                  lambda r, m=m: adjacency_of(r) == m.grown, points=size),
            Query("recognize", lambda b, s=space: dg.recognize(s, b),
                  lambda r, k=kind, m=m: r.kind is k and r.dimension == m.dim,
                  points=size),
            Query("compress", lambda b, s=space: dg.compress(s, b),
                  lambda r, m=m: _check_compressed(adjacency_of(r.space), m),
                  points=size),
            Query("complexity", lambda b, s=space: dg.complexity(s, b),
                  lambda r, m=m: _check_complexity(r, m), points=size),
            Query("report", lambda b, s=space: dg.classification_report(s, b),
                  lambda r, m=m: _check_report(r, m), points=size),
        ]
    queries += [
        Query("report-cli", lambda b, p=m.spacefile: _cli_report(dg, p),
              lambda r, m=m: _check_cli_report(r, m), points=len(m.grown))
        for m in manifolds
        if m.spacefile is not None
    ]
    queries += [
        Query("sphere",
              lambda b, s=space_of(dg, g.minimal_sphere_graph(n)): dg.recognize_sphere(s, b),
              lambda r, n=n: r == n, points=2 * n + 2)
        for n in sizes["sphere_dims"]
    ]
    queries[0].reset = True
    return queries


def _grow(dg, space, steps, budget):
    for v, u, fresh in steps:
        space = dg.r_transform(space, v, u, fresh=fresh, budget=budget)
    return space


def _cli_report(dg, path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dg.cli.main(["report", "--json", str(path)])
    return code, out.getvalue()


def _check_compressed(adj: g.Adjacency, m: Manifold) -> bool:
    """Spheres compress to the minimal sphere; surfaces keep their invariants.

    For tori and projective planes only invariants are checked: a closed
    surface with the same chi, no edge-disk left, no larger than the input.
    """
    if m.name.startswith("S"):
        return g.is_minimal_sphere(adj, m.dim)
    return (
        g.is_closed_surface(adj)
        and g.euler(adj) == m.euler
        and not g.has_edge_disk(adj)
        and len(adj) <= len(m.grown)
    )


def _check_complexity(value: int, m: Manifold) -> bool:
    if m.name.startswith("S"):
        return value == 2 * m.dim + 2
    # the fewest points of a closed surface is 6 (the octahedron)
    return 6 <= value <= len(m.grown)


def _check_report(rep, m: Manifold) -> bool:
    return (
        rep.point_count == len(m.grown)
        and rep.dimension == m.dim
        and rep.euler == m.euler
        and _check_complexity(rep.complexity, m)
        and len(decode_encoding(rep.compression.encoding)) == rep.complexity
        and rep.punctured_reduced_euler == m.punctured_euler
    )


def _check_cli_report(result: tuple[int, str], m: Manifold) -> bool:
    code, text = result
    if code != 0:
        return False
    fields = json.loads(text)
    return (
        fields["points"] == len(m.grown)
        and fields["dimension"] == m.dim
        and fields["euler"] == m.euler
        and _check_complexity(fields["complexity"], m)
        and len(decode_encoding(bytes.fromhex(fields["compression_form"])))
        == fields["complexity"]
        and fields["punctured_euler"] == m.punctured_euler
    )


# -- catalog ------------------------------------------------------------------------------
# Three long catalog queries with the default budget.  Why: classify (the
# 2^s mask loop and _prune) does the work and the memo is hardly used, so
# this workload bypasses memo and contractibility changes.  The dimension-1
# size stays at 16: catalog(1, 30) exhausts its 4M-node budget.


def catalog(dg, rng: random.Random, sizes: dict, workdir: Path) -> list[Query]:
    specs = list(sizes["catalogs"])
    rng.shuffle(specs)
    queries = [
        Query(
            "catalog",
            lambda b, n=n, size=size: dg.catalog(n, size, b),
            lambda r, n=n: _check_catalog(r, n),
            limit=dg.classify.DEFAULT_CATALOG_BUDGET,
        )
        for n, size in specs
    ]
    queries[0].reset = True
    return queries


def _check_catalog(cat, n: int) -> bool:
    """Exhaustive, and exactly the minimal n-sphere (4-cycle, octahedron, ...)."""
    if not cat.exhaustive or len(cat.entries) != 1:
        return False
    entry = cat.entries[0]
    adj = decode_encoding(entry.form.encoding)
    return (
        g.is_minimal_sphere(adj, n)
        and entry.points == 2 * n + 2
        and entry.euler == g.euler(adj)
    )


WORKLOADS = {"contract": contract, "manifold": manifold, "catalog": catalog}
