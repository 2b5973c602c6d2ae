#!/usr/bin/env python3
"""Scaling rows for contractibility, witnesses, catalogs, rims, compress, recognize, reduce.

    python3 scripts/scaling.py [--src DIR]

For each size n in SIZES (50 through 3,200) it runs is_contractible on
path(n) and on a seeded random tree with n points, each with the memo
tables cleared first, and prints one JSON row per run: input, n,
wall_s, held_mb (memory still allocated after the call, the memo full,
by tracemalloc, which runs for these rows only), nodes (budget
charged), canon_calls (canonical searches, counted by wrapping
digitop.canon._canonical) and subspaces (subspaces built as
DigitalSpaces, deletions of points included, counted by wrapping
DigitalSpace._induced_by_mask).  The next row holds the log-log slope
of wall_s over the sizes of at least 100 points, per input, computed
by bench/tracing.py's loglog_slope.  Then, for each size in WITNESSES,
it runs contractible_witness on path(n), memo cleared, and prints the
same fields plus the number of steps.  Then it runs
catalog(n, max_points) for each pair in CATALOGS, (2, 7) through
(2, 11), (3, 8) through (3, 11) and (4, 11), memo cleared, with the
default catalog budget, and prints the same fields plus exhaustive and
the entry count.  Then it runs is_contractible on the complete graph
with n points for each n in CONES, memo cleared, and prints wall_s and
nodes, or the exception the call raised.  Then it runs canonical_form on
the complete graph with n points for each n in CANON_COMPLETE and on n
isolated points for each n in CANON_ISOLATED, the searches one level per
point deep, and prints wall_s and canon_calls.  The next row times
building the rim of every point of torus16 grown by GROWTH seeded
R-transforms: the fastest of RIM_BATCHES batches of RIM_PASSES passes,
in ms per pass.  Then, for each (start, points) in COMPRESSIONS, it
grows that manifold by R-transforms on edges drawn with
random.Random(points) until it has that many points, clears the memo
tables and runs compress, and prints wall_s, nodes, canon_calls,
subspaces, spaces (every DigitalSpace built, counted by wrapping
DigitalSpace._from_rows), the number of contraction steps and the final
point count.
Then, for each (points, strategy) in REDUCTIONS, it grows torus16 the
same way to that many points, deletes its first point, clears the memo
tables and runs reduce_space with that strategy, and prints wall_s,
nodes, subspaces, spaces, the number of steps, the final point and edge
counts and exhausted (the reduction stopped on BudgetExceeded).
Then, for each size in RELABELED, it grows minimal_sphere(3) the same
way to that many points, clears the memo tables, and runs recognize once
cold and then on RELABELED_COPIES copies under shuffled labels, warm; it
prints one row per phase with the number of queries, the kinds
recognized, and wall_s, nodes, canon_calls, subspaces and spaces summed
over the phase.
The last row is the connected-graph census: catalog growth with n = 0,
where the link rule cuts nothing, through CENSUS_POINTS points,
unbounded, with the number of graphs per point count (OEIS A001349: 1,
1, 2, 6, 21, 112, 853, 11117, 261080), wall_s, nodes and canon_calls.
--src picks the digitop sources to import (default: src/ next to this
script), so two checkouts can be compared with the same script.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

from tracing import loglog_slope  # noqa: E402

SIZES = (50, 100, 200, 400, 800, 1600, 3200)
WITNESSES = (100, 200, 400, 800, 1600)
CATALOGS = ((2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (3, 8), (3, 9), (3, 10),
            (3, 11), (4, 11))
CONES = (20, 24, 200)
CANON_COMPLETE = (50, 100, 200)
CANON_ISOLATED = (100, 200, 400)
GROWTH, RIM_BATCHES, RIM_PASSES = 10, 15, 200
COMPRESSIONS = (("torus16", 50), ("torus16", 100), ("torus16", 200),
                ("torus16", 400), ("torus16", 800), ("projective_plane11", 60),
                ("minimal_sphere3", 30), ("minimal_sphere3", 50))
REDUCTIONS = ((50, "delete-only"), (100, "delete-only"), (200, "delete-only"),
              (400, "delete-only"), (50, "attach-edges"))
RELABELED, RELABELED_COPIES = (30, 50, 120), 5
CENSUS_POINTS = 9


def path_space(dg, n: int):
    ids = [f"p{i:03d}" for i in range(n)]
    return dg.DigitalSpace(ids, zip(ids, ids[1:]))


def tree_space(dg, n: int):
    """A random recursive tree on shuffled ids, seeded by n."""
    rng = random.Random(n)
    ids = [f"t{i:03d}" for i in range(n)]
    rng.shuffle(ids)
    return dg.DigitalSpace(ids, [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)])


def grown(dg, M, points: int):
    """M grown by R-transforms on edges drawn with random.Random(points)
    until it has that many points."""
    rng = random.Random(points)
    while len(M) < points:
        M = dg.r_transform(M, *rng.choice(M.edges))
    return M


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import digitop as dg
    from digitop import canon

    calls = [0]
    canonical = canon._canonical

    def counted(rows):
        calls[0] += 1
        return canonical(rows)

    canon._canonical = counted
    subspaces = [0]
    induced = dg.DigitalSpace._induced_by_mask

    def counted_induced(space, mask):
        subspaces[0] += 1
        return induced(space, mask)

    dg.DigitalSpace._induced_by_mask = counted_induced
    spaces = [0]
    from_rows = dg.DigitalSpace._from_rows

    def counted_from_rows(cls, ids, rows):
        spaces[0] += 1
        return from_rows(ids, rows)

    dg.DigitalSpace._from_rows = classmethod(counted_from_rows)
    slopes: dict[str, list[tuple[float, float]]] = {}
    for name, build in (("path", path_space), ("tree", tree_space)):
        for n in SIZES:
            space = build(dg, n)
            dg.cache.clear_all()
            calls[0] = subspaces[0] = 0
            budget = dg.Budget()
            start = time.perf_counter()
            verdict = dg.is_contractible(space, budget)
            wall = time.perf_counter() - start
            row = {"input": name, "n": n, "wall_s": round(wall, 4), "nodes": budget.spent,
                   "canon_calls": calls[0], "subspaces": subspaces[0],
                   "contractible": verdict}
            dg.cache.clear_all()
            tracemalloc.start()
            dg.is_contractible(space)
            row["held_mb"] = round(tracemalloc.get_traced_memory()[0] / 2**20, 3)
            tracemalloc.stop()
            print(json.dumps(row), flush=True)
            if n >= 100:
                slopes.setdefault(name, []).append((n, wall))
    print(json.dumps({"loglog_slope_n_ge_100": {
        name: round(loglog_slope(points), 3)
        for name, points in slopes.items()
    }}), flush=True)
    for n in WITNESSES:
        space = path_space(dg, n)
        dg.cache.clear_all()
        calls[0] = subspaces[0] = 0
        budget = dg.Budget()
        start = time.perf_counter()
        trace = dg.contractible_witness(space, budget)
        wall = time.perf_counter() - start
        print(json.dumps({"input": "witness_path", "n": n, "wall_s": round(wall, 4),
                          "nodes": budget.spent, "canon_calls": calls[0],
                          "subspaces": subspaces[0], "steps": len(trace.steps)}),
              flush=True)
    for n, max_points in CATALOGS:
        dg.cache.clear_all()
        calls[0] = 0
        budget = dg.Budget(dg.classify.DEFAULT_CATALOG_BUDGET)
        start = time.perf_counter()
        cat = dg.catalog(n, max_points, budget)
        wall = time.perf_counter() - start
        print(json.dumps({"input": "catalog", "n": n, "max_points": max_points,
                          "wall_s": round(wall, 4), "nodes": budget.spent,
                          "canon_calls": calls[0], "exhaustive": cat.exhaustive,
                          "entries": len(cat.entries)}), flush=True)
    for n in CONES:
        ids = [f"k{i:03d}" for i in range(n)]
        edges = [(p, q) for i, p in enumerate(ids) for q in ids[:i]]
        space = dg.DigitalSpace(ids, edges)
        dg.cache.clear_all()
        budget = dg.Budget()
        row = {"input": "complete", "n": n}
        start = time.perf_counter()
        try:
            row["contractible"] = dg.is_contractible(space, budget)
        except (dg.BudgetExceeded, RecursionError) as exc:
            row["raised"] = type(exc).__name__
        row.update(wall_s=round(time.perf_counter() - start, 4), nodes=budget.spent)
        print(json.dumps(row), flush=True)
    for name, sizes, edged in (("canonical_complete", CANON_COMPLETE, True),
                               ("canonical_isolated", CANON_ISOLATED, False)):
        for n in sizes:
            ids = [f"k{i:03d}" for i in range(n)]
            edges = [(p, q) for i, p in enumerate(ids) for q in ids[:i]] if edged else []
            space = dg.DigitalSpace(ids, edges)
            calls[0] = 0
            start = time.perf_counter()
            dg.canonical_form(space)
            wall = time.perf_counter() - start
            print(json.dumps({"input": name, "n": n, "wall_s": round(wall, 4),
                              "canon_calls": calls[0]}), flush=True)
    rng = random.Random(0)
    torus = dg.torus16()
    for _ in range(GROWTH):
        torus = dg.r_transform(torus, *rng.choice(torus.edges))
    batches = []
    for _ in range(RIM_BATCHES):
        start = time.perf_counter()
        for _ in range(RIM_PASSES):
            for v in torus.points:
                torus.rim(v)
        batches.append((time.perf_counter() - start) / RIM_PASSES)
    print(json.dumps({"input": "grown_torus_rims", "points": len(torus),
                      "growth_seed": 0, "per_pass_ms": round(1000 * min(batches), 4)}),
          flush=True)
    starts = {"torus16": dg.torus16, "projective_plane11": dg.projective_plane11,
              "minimal_sphere3": lambda: dg.minimal_sphere(3)}
    for start_name, points in COMPRESSIONS:
        M = grown(dg, starts[start_name](), points)
        dg.cache.clear_all()
        calls[0] = subspaces[0] = spaces[0] = 0
        budget = dg.Budget()
        start = time.perf_counter()
        result = dg.compress(M, budget)
        wall = time.perf_counter() - start
        print(json.dumps({"input": f"compress_{start_name}", "n": points,
                          "wall_s": round(wall, 4), "nodes": budget.spent,
                          "canon_calls": calls[0], "subspaces": subspaces[0],
                          "spaces": spaces[0], "steps": len(result.steps),
                          "final_points": len(result.space)}), flush=True)
    for points, strategy in REDUCTIONS:
        M = grown(dg, dg.torus16(), points)
        M = M.delete_points([M.points[0]])
        dg.cache.clear_all()
        subspaces[0] = spaces[0] = 0
        budget = dg.Budget()
        start = time.perf_counter()
        result = dg.reduce_space(M, dg.ReductionStrategy(strategy), budget)
        wall = time.perf_counter() - start
        print(json.dumps({"input": "reduce_torus16", "n": points, "strategy": strategy,
                          "wall_s": round(wall, 4), "nodes": budget.spent,
                          "subspaces": subspaces[0], "spaces": spaces[0],
                          "steps": len(result.trace.steps),
                          "final_points": len(result.space),
                          "final_edges": result.space.edge_count,
                          "exhausted": result.exhausted}), flush=True)
    for points in RELABELED:
        M = dg.minimal_sphere(3)
        rng = random.Random(points)
        while len(M) < points:
            M = dg.r_transform(M, *rng.choice(M.edges))
        copies = []
        for _ in range(RELABELED_COPIES):
            names = [f"r{i:03d}" for i in range(len(M))]
            rng.shuffle(names)
            copies.append(M.relabeled(dict(zip(M.points, names))))
        dg.cache.clear_all()
        for phase, queries in (("cold", [M]), ("warm", copies)):
            calls[0] = subspaces[0] = spaces[0] = 0
            budget = dg.Budget()
            start = time.perf_counter()
            kinds = {dg.recognize(space, budget).kind.value for space in queries}
            wall = time.perf_counter() - start
            print(json.dumps({"input": "relabeled_repeat", "n": points, "phase": phase,
                              "queries": len(queries), "kinds": sorted(kinds),
                              "wall_s": round(wall, 4), "nodes": budget.spent,
                              "canon_calls": calls[0], "subspaces": subspaces[0],
                              "spaces": spaces[0]}), flush=True)
    calls[0] = 0
    budget = dg.Budget(None)
    tiers = [0] * CENSUS_POINTS
    start = time.perf_counter()
    for rows in dg.classify._grown_connected_graphs(0, CENSUS_POINTS, budget):
        tiers[len(rows) - 1] += 1
    wall = time.perf_counter() - start
    print(json.dumps({"input": "connected_graph_census", "max_points": CENSUS_POINTS,
                      "tiers": tiers, "wall_s": round(wall, 4), "nodes": budget.spent,
                      "canon_calls": calls[0]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
