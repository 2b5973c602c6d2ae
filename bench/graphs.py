"""Graph builders and reference checks that do not use digitop.

Inputs for the workloads are made here from the seed, as plain
adjacency dicts (point id -> set of neighbour ids), and every answer the
library gives is checked here against facts known by construction or
computed from first principles: clique counts, rim shapes, edge-disk
rings.  Nothing in this module imports the library.
"""

from __future__ import annotations

import random

Adjacency = dict[str, set[str]]


# -- builders ----------------------------------------------------------------------


def _shuffled_ids(n: int, stem: str, rng: random.Random) -> list[str]:
    ids = [f"{stem}{i}" for i in range(n)]
    rng.shuffle(ids)
    return ids


def path_graph(n: int, rng: random.Random) -> Adjacency:
    """A path on n points whose ids are a seeded permutation."""
    ids = _shuffled_ids(n, "p", rng)
    adj: Adjacency = {p: set() for p in ids}
    for p, q in zip(ids, ids[1:]):
        adj[p].add(q)
        adj[q].add(p)
    return adj


def random_tree(n: int, rng: random.Random) -> Adjacency:
    """A random recursive tree: point k hangs from a uniform earlier point."""
    ids = _shuffled_ids(n, "v", rng)
    adj: Adjacency = {p: set() for p in ids}
    for k in range(1, n):
        parent = ids[rng.randrange(k)]
        adj[parent].add(ids[k])
        adj[ids[k]].add(parent)
    return adj


def minimal_sphere_graph(n: int) -> Adjacency:
    """Join of n+1 copies of S0: every pair adjacent except antipodes."""
    ids = [f"s{i}{side}" for i in range(n + 1) for side in "ab"]
    return {p: {q for q in ids if q[:-1] != p[:-1]} for p in ids}


def torus_graph() -> Adjacency:
    """The triangulated 4x4 toroidal grid (16 points, rims are 6-cycles)."""
    adj: Adjacency = {f"t{i}{j}": set() for i in range(4) for j in range(4)}
    for i in range(4):
        for j in range(4):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                p, q = f"t{i}{j}", f"t{(i + di) % 4}{(j + dj) % 4}"
                adj[p].add(q)
                adj[q].add(p)
    return adj


def from_edges(points, edges) -> Adjacency:
    adj: Adjacency = {p: set() for p in points}
    for p, q in edges:
        adj[p].add(q)
        adj[q].add(p)
    return adj


def edge_list(adj: Adjacency) -> list[tuple[str, str]]:
    return sorted((p, q) for p in adj for q in adj[p] if p < q)


def r_grow(
    adj: Adjacency, steps: int, rng: random.Random, stem: str = "r"
) -> tuple[Adjacency, list[tuple[str, str, str]]]:
    """Apply seeded R-transforms: edge vu becomes a point over v, u, O(vu).

    Returns the grown adjacency and the (v, u, fresh) steps, so the same
    growth can be replayed through the library and compared.
    """
    adj = {p: set(nbrs) for p, nbrs in adj.items()}
    done = []
    for k in range(steps):
        v, u = rng.choice(edge_list(adj))
        fresh = f"{stem}{k}"
        nbrs = (adj[v] & adj[u]) | {v, u}
        adj[v].discard(u)
        adj[u].discard(v)
        adj[fresh] = set(nbrs)
        for p in nbrs:
            adj[p].add(fresh)
        done.append((v, u, fresh))
    return adj, done


def delete_point(adj: Adjacency, v: str) -> Adjacency:
    return {p: nbrs - {v} for p, nbrs in adj.items() if p != v}


def spacefile_text(adj: Adjacency) -> str:
    """The SpaceFile format, written from its published grammar."""
    lines = ["digitop 1"]
    lines.extend(f"point {p}" for p in sorted(adj))
    lines.extend(f"edge {p} {q}" for p, q in edge_list(adj))
    return "\n".join(lines) + "\n"


# -- first-principles invariants -----------------------------------------------------


def induced(adj: Adjacency, keep) -> Adjacency:
    keep = set(keep)
    return {p: adj[p] & keep for p in keep}


def is_connected(adj: Adjacency) -> bool:
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        for q in adj[frontier.pop()]:
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == len(adj)


def euler(adj: Adjacency) -> int:
    """Alternating clique count of the clique complex."""
    chi = 0

    def extend(size: int, candidates: list[str]) -> None:
        nonlocal chi
        for i, p in enumerate(candidates):
            chi += 1 if size % 2 == 0 else -1
            extend(size + 1, [q for q in candidates[i + 1 :] if q in adj[p]])

    extend(0, sorted(adj))
    return chi


def is_long_cycle(adj: Adjacency) -> bool:
    """An induced cycle of length >= 4, i.e. a digital circle."""
    return len(adj) >= 4 and all(len(n) == 2 for n in adj.values()) and is_connected(adj)


def is_closed_surface(adj: Adjacency) -> bool:
    """Connected, and every rim is a digital circle: a closed 2-manifold."""
    return is_connected(adj) and all(
        is_long_cycle(induced(adj, adj[p])) for p in adj
    )


def has_edge_disk(adj: Adjacency) -> bool:
    """Does a closed surface still have an edge vu whose joint ball is a disk?

    The joint ball is a disk with interior exactly {v, u} when the ring
    around the edge induces a digital circle and no ring point has its
    whole rim inside the ball (such a point would be interior too).
    """
    for v, u in edge_list(adj):
        ball = adj[v] | adj[u] | {v, u}
        ring = ball - {v, u}
        if is_long_cycle(induced(adj, ring)) and not any(
            adj[w] <= ball for w in ring
        ):
            return True
    return False


def is_minimal_sphere(adj: Adjacency, n: int) -> bool:
    """2n+2 points, each missing exactly one other: the minimal n-sphere."""
    size = 2 * n + 2
    return len(adj) == size and all(len(nbrs) == size - 2 for nbrs in adj.values())
