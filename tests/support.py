"""Slow, independent oracles and small graph builders shared by the suites.

Everything here recomputes results from first principles (brute force
over combinations, literal recursion over the definition) so the fast
library implementations have something honest to disagree with.
"""

from __future__ import annotations

import itertools

from digitop import DigitalSpace, is_contractible
from digitop.canon import canonical_encoding_rows

# -- builders ----------------------------------------------------------------------


def cycle(k: int, prefix: str = "c") -> DigitalSpace:
    assert k >= 3
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, [(ids[i], ids[(i + 1) % k]) for i in range(k)])


def path(k: int, prefix: str = "p") -> DigitalSpace:
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, [(ids[i], ids[i + 1]) for i in range(k - 1)])


def complete(k: int, prefix: str = "k") -> DigitalSpace:
    ids = [f"{prefix}{i}" for i in range(k)]
    return DigitalSpace(ids, itertools.combinations(ids, 2))


def wheel(k: int) -> DigitalSpace:
    """A point joined to a k-cycle."""
    rim = cycle(k)
    return rim.add_point("hub", rim.points)


def bipyramid(k: int) -> DigitalSpace:
    """Two apexes over a k-cycle: a 2-sphere whose apex rims are k-cycles."""
    rim = cycle(k)
    return rim.add_point("north", rim.points).add_point("south", rim.points)


def random_space(rng, size: int, edge_chance: float = 0.5) -> DigitalSpace:
    ids = [f"v{i}" for i in range(size)]
    edges = [
        pair for pair in itertools.combinations(ids, 2) if rng.random() < edge_chance
    ]
    return DigitalSpace(ids, edges)


def space_from_rows(rows) -> DigitalSpace:
    ids = [f"v{i:02d}" for i in range(len(rows))]
    edges = [
        (ids[i], ids[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if rows[i] >> j & 1
    ]
    return DigitalSpace(ids, edges)


def shuffled(space: DigitalSpace, rng) -> DigitalSpace:
    """Random relabeling of a space (fresh names, random assignment)."""
    names = [f"r{i}" for i in range(len(space))]
    rng.shuffle(names)
    return space.relabeled(dict(zip(space.points, names)))


# -- brute-force clique counting ---------------------------------------------------


def naive_clique_counts(space: DigitalSpace) -> tuple[int, ...]:
    counts = []
    for size in range(1, len(space) + 1):
        found = 0
        for combo in itertools.combinations(space.points, size):
            if all(space.adjacent(p, q) for p, q in itertools.combinations(combo, 2)):
                found += 1
        if not found:
            break
        counts.append(found)
    return tuple(counts)


def naive_euler(space: DigitalSpace) -> int:
    return sum(
        count if size % 2 else -count
        for size, count in enumerate(naive_clique_counts(space), start=1)
    )


# -- exhaustive connected-graph generation ------------------------------------------


def all_connected_rows(max_points: int):
    """One bitmask adjacency-row tuple per isomorphism class.

    Grows each tier by attaching a new point to every nonempty subset of
    an existing graph and deduplicating on canonical encodings, so the
    enumeration is exhaustive over connected graphs.
    """
    tier = {canonical_encoding_rows((0,)): (0,)}
    yield (0,)
    for _ in range(2, max_points + 1):
        next_tier = {}
        for rows in tier.values():
            n = len(rows)
            for mask in range(1, 1 << n):
                grown = [row | ((mask >> i & 1) << n) for i, row in enumerate(rows)]
                grown.append(mask)
                key = canonical_encoding_rows(grown)
                if key not in next_tier:
                    next_tier[key] = tuple(grown)
        tier = next_tier
        yield from tier.values()


# -- round-based partition refinement -----------------------------------------------


def reference_refine(rows, cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition until it is equitable, one round at a time.

    Every round keys each point by its neighbour count in every cell and
    splits cells by key; this was the library's refinement before the
    splitter queue, and stays here as its reference.
    """
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = [sum(1 << v for v in c) for c in cells]
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            by_key: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                by_key.setdefault(key, []).append(v)
            if len(by_key) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(by_key):
                    out.append(by_key[key])
        cells = out
    return cells


# -- literal-definition contractibility --------------------------------------------

_NAIVE_MEMO: dict[tuple[int, ...], bool] = {}


def _sub_rows(rows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    keep = [i for i in range(len(rows)) if mask >> i & 1]
    remap = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        row = 0
        sub = rows[old] & mask
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            row |= 1 << remap[j]
        out.append(row)
    return tuple(out)


def naive_contractible_rows(rows: tuple[int, ...]) -> bool:
    """Is some point's rim contractible and its removal contractible?

    The recursion is the definition verbatim: no Euler pruning, no cone
    shortcut, no canonical-form memo, just a cache on labeled rows.
    """
    n = len(rows)
    if n == 0:
        return False
    if n == 1:
        return True
    cached = _NAIVE_MEMO.get(rows)
    if cached is not None:
        return cached
    full = (1 << n) - 1
    result = False
    for v in range(n):
        if not rows[v]:
            continue
        if naive_contractible_rows(_sub_rows(rows, rows[v])) and naive_contractible_rows(
            _sub_rows(rows, full & ~(1 << v))
        ):
            result = True
            break
    _NAIVE_MEMO[rows] = result
    return result


def naive_is_contractible(space: DigitalSpace) -> bool:
    index = {p: i for i, p in enumerate(space.points)}
    rows = [0] * len(space)
    for p, q in space.edges:
        rows[index[p]] |= 1 << index[q]
        rows[index[q]] |= 1 << index[p]
    return naive_contractible_rows(tuple(rows))


_EXHAUSTIVE_RESULTS: dict[int, tuple[int, int, int]] = {}


def exhaustive_oracle_agreement(max_points: int = 7) -> tuple[int, int, int]:
    """(graphs checked, contractible count, mismatches) for all connected
    graphs with at most max_points points; computed once per process."""
    if max_points not in _EXHAUSTIVE_RESULTS:
        checked = contractible = mismatches = 0
        for rows in all_connected_rows(max_points):
            verdict = is_contractible(space_from_rows(rows))
            checked += 1
            contractible += verdict
            if verdict != naive_contractible_rows(rows):
                mismatches += 1
        _EXHAUSTIVE_RESULTS[max_points] = (checked, contractible, mismatches)
    return _EXHAUSTIVE_RESULTS[max_points]
