"""Run one benchmark workload against the digitop sources next to it.

    python3 bench/run.py --workload contract --seed 1 --seconds 20 --trace 0

One process, one closed-loop client, no threads.  The workload runs in
rounds for --seconds: at least one, and another only while a round of
median length still ends in time.  Each round starts with a set-up
(import the package afresh, build the seeded inputs, write SpaceFiles),
timed as setup_s, and then runs the fixed query list, timed as wall_s;
both report the median over rounds, so they sample the same stretch of
time.  The latency percentiles pool every query of every round.  All
timings are scaled to a fixed machine speed (see REFERENCE_S).  Every
answer is checked against a reference that does not come from the
library, and the machine-independent counters (budget nodes, catalog
candidates and classes, compress contractions, CLI stdout bytes) must
repeat exactly in every round.

With --trace 1 one more round runs with the per-layer tracer installed,
and the per-layer metrics replace the end-to-end ones in the result.
The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import graphs as g
from tracing import Tracer, loglog_slope
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The machine's speed drifts: on a shared 2-vCPU VM every timing of a run
# moved up or down together by 30-60% for minutes at a time, so raw times of
# the same code spread more between runs than a regression bound allows.  A
# fixed stdlib computation is therefore timed before the first round and
# after every round, and each round's timings are scaled by REFERENCE_S over
# the mean of its two reference times: the metrics read as seconds on a
# machine that runs the reference in REFERENCE_S.  The raw medians and the
# scale factors are printed on the summary line.
REFERENCE_S = 0.16  # about the median reference time on that VM
_REFERENCE_INPUTS = (g.minimal_sphere_graph(3), g.torus_graph())


def import_library():
    """Import digitop afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "digitop" or m.startswith("digitop.")]:
        del sys.modules[name]
    dg = importlib.import_module("digitop")
    importlib.import_module("digitop.cli")
    return dg


def reference_seconds() -> float:
    """Time of a fixed pure-Python graph computation that never calls digitop."""
    sphere, torus = _REFERENCE_INPUTS
    start = time.perf_counter()
    for _ in range(200):
        g.euler(sphere)
        g.has_edge_disk(torus)
        g.is_closed_surface(torus)
    return time.perf_counter() - start


def set_up(workload, seed: int, sizes: dict, workdir: Path):
    """A fresh import, inputs and query list; returns them with the time taken."""
    start = time.perf_counter()
    dg = import_library()
    queries = workload(dg, random.Random(seed), sizes, workdir)
    return dg, queries, time.perf_counter() - start


class Round:
    """One timed pass over the query list, checked after the clock stops."""

    def __init__(self, dg, queries, tracer: Tracer | None = None):
        self.latencies: list[float] = []
        self.counters: Counter = Counter()
        self.failures: list[str] = []
        outcomes = []
        gc.collect()
        start = time.perf_counter()
        for index, query in enumerate(queries):
            if query.reset:
                dg.cache.clear_all()
            budget = dg.Budget() if query.limit is None else dg.Budget(query.limit)
            if tracer is not None:
                tracer.query = index
            began = time.perf_counter()
            try:
                result, error = query.run(budget), None
            except Exception:  # a failed query is counted; the run goes on
                result, error = None, traceback.format_exc()
            self.latencies.append(time.perf_counter() - began)
            if tracer is not None:
                tracer.after_query()
            outcomes.append((result, error, budget.spent))
        self.wall = time.perf_counter() - start
        for query, outcome in zip(queries, outcomes):
            self._account(query, *outcome)

    def _account(self, query, result, error, spent: int) -> None:
        self.counters["budget.nodes"] += spent
        if error is None:
            try:
                if not query.check(result):
                    error = f"wrong answer: {result!r}"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.failures.append(f"{query.kind} ({query.points} points): {error}")
            return
        if query.kind == "catalog":
            self.counters["catalog.candidates"] += spent
            self.counters["catalog.classes"] += len(result.entries)
        elif query.kind == "compress":
            self.counters["compress.contractions"] += len(result.steps)
        elif query.kind == "report-cli":
            self.counters["cli.stdout_bytes"] += len(result[1].encode("utf-8"))


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_metrics(dg, queries, untraced_wall: float, spans_path: Path):
    """Per-layer metrics from one traced round."""
    tracer = Tracer(dg)
    tracer.install()
    try:
        traced = Round(dg, queries, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    canon = tracer.canon_time_by_query()
    metrics["canon.scaling_exp"] = loglog_slope(
        [(q.points, canon[i]) for i, q in enumerate(queries) if q.scaling]
    )
    candidates = traced.counters["catalog.candidates"]
    canonized = metrics["classify.canonized"]
    classes = metrics.pop("classify.classes")
    metrics["classify.candidates"] = candidates
    metrics["classify.prune_ratio"] = 1 - canonized / candidates if candidates else 0.0
    metrics["classify.dedup_ratio"] = classes / canonized if canonized else 0.0
    metrics["cli.stdout_bytes"] = traced.counters["cli.stdout_bytes"]
    metrics["budget.nodes"] = traced.counters["budget.nodes"]
    metrics["trace.overhead"] = traced.wall / untraced_wall
    return traced, metrics


END_TO_END_UNITS = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer units by name suffix; every other per-layer metric is a count
PER_LAYER_UNITS = {
    "self_s": "s", "hit_ratio": "ratio", "prune_ratio": "ratio", "dedup_ratio": "ratio",
    "overhead": "ratio", "scaling_exp": "exponent", "stdout_bytes": "bytes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input sizes; tiny is for the harness self-test")
    args = parser.parse_args(argv)

    if not (SRC / "digitop" / "__init__.py").is_file():
        print(f"error: no digitop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload]
        setups: list[float] = []
        rounds: list[Round] = []
        durations: list[float] = []
        deadline = time.perf_counter() + args.seconds
        references = [reference_seconds()]
        while True:
            began = time.perf_counter()
            dg, queries, setup_s = set_up(workload, args.seed, SIZES[args.scale], workdir)
            if Path(dg.__file__).resolve().parent != SRC / "digitop":
                print(f"error: imported digitop from {dg.__file__}", file=sys.stderr)
                return 2
            setups.append(setup_s)
            rounds.append(Round(dg, queries))
            references.append(reference_seconds())
            durations.append(time.perf_counter() - began)
            # start a round only when a typical one still ends before the
            # deadline, so a run never outlasts --seconds by a whole round
            if time.perf_counter() + statistics.median(durations) > deadline:
                break
        scales = [2 * REFERENCE_S / (before + after)
                  for before, after in zip(references, references[1:])]
        raw_walls = [r.wall for r in rounds]
        walls = [r.wall * k for r, k in zip(rounds, scales)]
        latencies = [t * k for r, k in zip(rounds, scales) for t in r.latencies]
        raw_latencies = [t for r in rounds for t in r.latencies]
        counters = rounds[0].counters
        failures = [f for r in rounds for f in r.failures]
        unstable = [r.counters for r in rounds if r.counters != counters]

        if args.trace:
            dg, queries, _ = set_up(workload, args.seed, SIZES[args.scale], workdir)
            traced, metrics = traced_metrics(
                dg, queries, statistics.median(raw_walls),
                WORK / f"spans-{args.workload}.jsonl",
            )
            failures += traced.failures
            unstable += [traced.counters] if traced.counters != counters else []
            units = {name: PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
                     for name in metrics}
        else:
            metrics = {
                "wall_s": statistics.median(walls),
                "query_p50_ms": 1000 * percentile(latencies, 50),
                "query_p90_ms": 1000 * percentile(latencies, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(s * k for s, k in zip(setups, scales)),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies) + (len(traced.latencies) if args.trace else 0)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if unstable:
        print(f"counters differ between rounds: {counters} vs {unstable[0]}",
              file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "raw_round_walls_s": [round(w, 4) for w in raw_walls],
        "scales": [round(k, 4) for k in scales],
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(setups),
        "raw_query_p50_ms": 1000 * percentile(raw_latencies, 50),
        "raw_query_p90_ms": 1000 * percentile(raw_latencies, 90),
        "latency_samples": len(latencies), "failed_frac": len(failures) / attempted,
        "counters": dict(sorted(counters.items())),
    }
    print(json.dumps(summary))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures and not unstable,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
