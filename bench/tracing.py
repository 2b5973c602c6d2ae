"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each layer with wrappers at
every place a module binds them (digitop.homotopy.canonical_form,
digitop.recognition.is_contractible, ...), so calls between layers open
a span.  Spans live in parallel lists in memory, each with its parent
span and the index of the query that caused it, and are written out as
JSON lines after the traced round.  A span's self time is its duration
minus the time covered by its child spans.

Memo behaviour comes from wrapping FormCache.get, counted per table, and
Budget.charge is attributed to the layer of the innermost open span.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Public functions per layer, looked up on the module that defines them.
LAYERS = {
    "canon": ("canon", ("canonical_form", "canonical_encoding_rows", "point_orbits",
                        "are_isomorphic", "isomorphism")),
    "homotopy": ("homotopy", ("is_contractible", "is_simple_point", "is_simple_edge",
                              "simple_points", "simple_edges", "delete_simple_point",
                              "attach_simple_point", "delete_simple_edge",
                              "attach_simple_edge", "apply_step", "replay",
                              "contractible_witness", "reduce_space",
                              "homotopy_distinguish")),
    "recognition": ("recognition", ("recognize_sphere", "recognize_disk",
                                    "recognize_closed_manifold",
                                    "recognize_manifold_with_boundary", "recognize",
                                    "require_closed_manifold")),
    "transform": ("transform", ("r_transform", "contract_disk", "find_edge_disks",
                                "compress", "is_compressed", "connected_sum")),
    "classify": ("classify", ("complexity", "classification_report", "catalog",
                              "classify_against_catalog")),
    "cli": ("cli", ("main",)),
    "space": ("space", ("join",)),
}

# DigitalSpace methods that do graph work; trivial accessors such as
# neighbors and adjacent are left out, their wrapper would cost more
# than they do.
SPACE_METHODS = ("rim", "ball", "joint_rim", "induced_subspace", "delete_points",
                 "add_point", "add_edge", "remove_edge", "relabeled", "is_connected",
                 "connected_components", "dominating_point", "clique_vector",
                 "euler_characteristic")

LAYER_NAMES = ("space", "canon", "homotopy", "recognition", "transform", "classify",
               "cli")


class Tracer:
    def __init__(self, dg):
        self.dg = dg
        # one entry per span, in opening order
        self.layer: list[str] = []
        self.name: list[str] = []
        self.parent: list[int] = []
        self.query_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child: list[float] = []
        self.stack: list[int] = []
        self.query = -1
        self.nodes: Counter = Counter()
        self.memo_hits: Counter = Counter()
        self.memo_misses: Counter = Counter()
        self.memo_peak = 0
        self.canonized = 0
        self.catalog_keys: dict[int, set] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.tables = {
            cache: attr.strip("_").lower()
            for module in (dg.homotopy, dg.recognition)
            for attr, cache in vars(module).items()
            if isinstance(cache, dg.cache.FormCache)
        }

    # -- installing wrappers ------------------------------------------------------

    def install(self) -> None:
        dg = self.dg
        targets = {}
        for layer, (module_name, names) in LAYERS.items():
            module = getattr(dg, module_name)
            for name in names:
                fn = getattr(module, name)
                targets[id(fn)] = (fn, self._wrap(layer, name, fn))
        modules = [m for key, m in sys.modules.items()
                   if key == "digitop" or key.startswith("digitop.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._set(module, attr, targets[id(value)][1])
        space_cls = dg.DigitalSpace
        for name in SPACE_METHODS:
            self._set(space_cls, name, self._wrap("space", name, getattr(space_cls, name)))
        self._set(dg.cache.FormCache, "get", self._memo_get(dg.cache.FormCache.get))
        self._set(dg.Budget, "charge", self._charge(dg.Budget.charge))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        catalog_canon = layer == "canon" and name == "canonical_encoding_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.start)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            tracer.layer.append(layer)
            tracer.name.append(name)
            tracer.parent.append(parent)
            tracer.query_of.append(tracer.query)
            tracer.child.append(0.0)
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.end[span] = end
                stack.pop()
                if parent >= 0:
                    tracer.child[parent] += end - tracer.start[span]
            if catalog_canon and parent >= 0 and tracer.layer[parent] == "classify":
                tracer.canonized += 1
                tracer.catalog_keys.setdefault(parent, set()).add(result)
            return result

        return wrapper

    def _memo_get(self, original):
        tracer = self

        def get(cache, key):
            value = original(cache, key)
            table = tracer.tables.get(cache, "other")
            if value is tracer.dg.cache.MISSING:
                tracer.memo_misses[table] += 1
            else:
                tracer.memo_hits[table] += 1
            return value

        return get

    def _charge(self, original):
        tracer = self

        def charge(budget, amount: int = 1):
            if tracer.stack:
                tracer.nodes[tracer.layer[tracer.stack[-1]]] += amount
            return original(budget, amount)

        return charge

    def after_query(self) -> None:
        self.memo_peak = max(self.memo_peak, sum(len(t) for t in self.tables))

    # -- results --------------------------------------------------------------------

    def self_times(self) -> list[float]:
        return [e - s - c for s, e, c in zip(self.start, self.end, self.child)]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span, self_s in enumerate(self.self_times()):
                out.write(json.dumps({
                    "id": span, "parent": self.parent[span], "query": self.query_of[span],
                    "layer": self.layer[span], "name": self.name[span],
                    "start": self.start[span], "end": self.end[span], "self_s": self_s,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter(self.layer)
        self_s: Counter = Counter()
        for layer, s in zip(self.layer, self.self_times()):
            self_s[layer] += s
        names = Counter(self.name)
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for table in ("contractible", "sphere"):
            out[f"memo.{table}.hits"] = self.memo_hits[table]
            out[f"memo.{table}.misses"] = self.memo_misses[table]
        hits = sum(self.memo_hits.values())
        misses = sum(self.memo_misses.values())
        out["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["memo.entries"] = self.memo_peak
        out["homotopy.nodes"] = self.nodes["homotopy"]
        out["recognition.nodes"] = self.nodes["recognition"]
        out["transform.contractions"] = names["contract_disk"]
        out["transform.edge_disk_scans"] = names["find_edge_disks"]
        out["classify.canonized"] = self.canonized
        out["classify.classes"] = sum(len(keys) for keys in self.catalog_keys.values())
        return out

    def canon_time_by_query(self) -> Counter:
        per_query: Counter = Counter()
        for layer, q, s in zip(self.layer, self.query_of, self.self_times()):
            if layer == "canon":
                per_query[q] += s
        return per_query


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0 without two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
