"""Command line interface.

Every subcommand reads SpaceFiles (or "-" for stdin), writes its result
to stdout and diagnostics to stderr, and exits with:

    0   success, affirmative or complete result
    1   negative verdict (not contractible, not a sphere, not isomorphic, ...)
    2   usage error or malformed input
    3   budget exceeded

The library decides every failure and words its message; main alone maps
the exception to an exit code and prints "digitop: error: <message>".
Only argument errors the library never sees (--dim misuse, an unreadable
file, a malformed --edge) are raised here, as ValueError.  Identical
invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .budget import Budget, BudgetExceeded
from .canon import isomorphism
from .classify import catalog, classification_report, complexity
from .corpus import minimal_disk, minimal_sphere, projective_plane11, torus16
from .homotopy import ReductionStrategy, contractible_witness, is_contractible, reduce_space
from .recognition import NotAManifoldError, RecognitionResult, SpaceKind, recognize
from .space import DigitalSpace
from .spacefile import export_dot, parse, serialize
from .transform import compress, r_transform

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_space(path: str) -> DigitalSpace:
    if path == "-":
        return parse(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse(text)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)


def _budget(args: argparse.Namespace) -> Budget | None:
    return None if args.budget is None else Budget(args.budget)


# -- subcommand handlers -----------------------------------------------------------


_BUILTINS = {"torus16": torus16, "projplane11": projective_plane11}


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.space in _BUILTINS:
        if args.dim is not None:
            raise ValueError(f"--dim does not apply to {args.space}")
        space = _BUILTINS[args.space]()
    else:
        if args.dim is None:
            raise ValueError(f"gen {args.space} requires --dim")
        maker = minimal_sphere if args.space == "sphere" else minimal_disk
        space = maker(args.dim)
    _emit(serialize(space), args.output)
    return EXIT_OK


def _cmd_contractible(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    budget = _budget(args)
    verdict = is_contractible(G, budget)
    lines = ["contractible" if verdict else "not contractible"]
    if verdict and args.witness:
        trace = contractible_witness(G, budget)
        lines.extend(f"delete-point {step.points[0]}" for step in trace.steps)
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _is_expected(result: RecognitionResult, expect: str | None) -> bool:
    """Whether the most specific kind found is, in particular, of kind expect.

    Spheres are closed manifolds, and disks of dimension >= 1 are
    manifolds with boundary; the one-point 0-disk is not.
    """
    kind = result.kind
    return {
        None: kind is not SpaceKind.NONE,
        "sphere": kind is SpaceKind.SPHERE,
        "disk": kind is SpaceKind.DISK,
        "manifold": kind in (SpaceKind.SPHERE, SpaceKind.CLOSED_MANIFOLD),
        "manifold-with-boundary": kind is SpaceKind.MANIFOLD_WITH_BOUNDARY
        or (kind is SpaceKind.DISK and result.dimension >= 1),
    }[expect]


def _cmd_recognize(args: argparse.Namespace) -> int:
    result = recognize(_read_space(args.file), _budget(args))
    lines = [result.kind.name]
    if result.dimension is not None:
        lines.append(f"dimension {result.dimension}")
    if result.boundary is not None:
        lines.append(" ".join(("boundary",) + result.boundary))
    if result.interior is not None:
        lines.append(" ".join(("interior",) + result.interior))
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK if _is_expected(result, args.expect) else EXIT_NEGATIVE


def _cmd_euler(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    vec = G.clique_vector()
    counts = " ".join(str(c) for c in vec.counts)
    _emit(f"euler {vec.euler_characteristic()}\ncliques {counts}".rstrip() + "\n", None)
    return EXIT_OK


def _cmd_rtransform(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    parts = args.edge.split(",")
    if len(parts) != 2 or not all(parts):
        raise ValueError("--edge expects two point ids separated by a comma")
    v, u = parts
    result = r_transform(G, v, u, fresh=args.fresh, budget=_budget(args))
    _emit(serialize(result), args.output)
    return EXIT_OK


def _cmd_compress(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    result = compress(G, _budget(args))
    lines = [serialize(result.space).rstrip("\n")]
    for number, step in enumerate(result.steps, start=1):
        removed = " ".join(step.interior_removed)
        lines.append(f"# step {number}: contract {removed} -> {step.new_point}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_complexity(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    _emit(f"{complexity(G, _budget(args))}\n", None)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    rep = classification_report(G, _budget(args))
    fields = {
        "points": rep.point_count,
        "dimension": rep.dimension,
        "euler": rep.euler,
        "complexity": rep.complexity,
        "compression_form": rep.compression.encoding.hex(),
        "punctured_form": rep.punctured_reduced.encoding.hex(),
        "punctured_euler": rep.punctured_reduced_euler,
    }
    if args.json:
        _emit(json.dumps(fields, indent=2, sort_keys=True) + "\n", None)
    else:
        _emit("".join(f"{key} {value}\n" for key, value in fields.items()), None)
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    result = catalog(args.dim, args.max_points, _budget(args))
    flag = "true" if result.exhaustive else "false"
    lines = [
        f"catalog dim {result.dimension} max-points {result.max_points}"
        f" entries {len(result.entries)} exhaustive {flag}"
    ]
    lines.extend(
        f"{entry.form.encoding.hex()} points {entry.points} euler {entry.euler}"
        for entry in result.entries
    )
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK if result.exhaustive else EXIT_BUDGET


def _cmd_iso(args: argparse.Namespace) -> int:
    left = _read_space(args.left)
    right = _read_space(args.right)
    mapping = isomorphism(left, right)
    if mapping is None:
        _emit("not isomorphic\n", None)
        return EXIT_NEGATIVE
    lines = ["isomorphic"]
    lines.extend(f"{p} -> {mapping[p]}" for p in left.points)
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    G = _read_space(args.file)
    if args.delete_point is not None:
        G = G.delete_points([args.delete_point])
    result = reduce_space(G, ReductionStrategy(args.strategy), _budget(args))
    lines = [serialize(result.space).rstrip("\n")]
    for step in result.trace.steps:
        lines.append(f"# {step.kind} {' '.join(step.points)}")
    if result.exhausted:
        lines.append("# budget exhausted")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    _emit(export_dot(_read_space(args.file)), args.output)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _node_limit(text: str) -> int:
    """--budget's argument type: an integer N >= 0, in decimal digits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer N >= 0, got {text!r}")
    return int(text)


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget",
        type=_node_limit,
        metavar="N",
        help="search node limit N >= 0 (default: library default)",
    )


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "-o", "--output", metavar="PATH", help="write result here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop", description="digital topology on finite graphs"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="write a built-in space as a SpaceFile")
    gen.add_argument(
        "space", choices=("sphere", "disk", "torus16", "projplane11")
    )
    gen.add_argument("--dim", type=int, help="dimension for sphere/disk")
    _add_output(gen)
    gen.set_defaults(handler=_cmd_gen)

    contractible = commands.add_parser("contractible", help="contractibility verdict")
    contractible.add_argument("file")
    contractible.add_argument(
        "--witness", action="store_true", help="print a deletion sequence"
    )
    _add_budget(contractible)
    contractible.set_defaults(handler=_cmd_contractible)

    rec = commands.add_parser("recognize", help="sphere/disk/manifold recognition")
    rec.add_argument("file")
    rec.add_argument(
        "--expect",
        choices=("sphere", "disk", "manifold", "manifold-with-boundary"),
        help="exit 1 unless the space is of this kind",
    )
    _add_budget(rec)
    rec.set_defaults(handler=_cmd_recognize)

    euler = commands.add_parser("euler", help="Euler characteristic and clique vector")
    euler.add_argument("file")
    euler.set_defaults(handler=_cmd_euler)

    rtr = commands.add_parser("rtransform", help="replace an edge by a point")
    rtr.add_argument("file")
    rtr.add_argument("--edge", required=True, metavar="U,V")
    rtr.add_argument("--fresh", metavar="ID", help="id for the new point")
    _add_budget(rtr)
    _add_output(rtr)
    rtr.set_defaults(handler=_cmd_rtransform)

    comp = commands.add_parser("compress", help="contract edge-disks to a fixpoint")
    comp.add_argument("file")
    _add_budget(comp)
    _add_output(comp)
    comp.set_defaults(handler=_cmd_compress)

    cplx = commands.add_parser("complexity", help="points in the compressed space")
    cplx.add_argument("file")
    _add_budget(cplx)
    cplx.set_defaults(handler=_cmd_complexity)

    report = commands.add_parser("report", help="full classification report")
    report.add_argument("file")
    report.add_argument("--json", action="store_true", help="emit JSON")
    _add_budget(report)
    report.set_defaults(handler=_cmd_report)

    cat = commands.add_parser("catalog", help="compressed closed n-manifolds")
    cat.add_argument("--dim", type=int, required=True)
    cat.add_argument("--max-points", type=int, required=True)
    _add_budget(cat)
    cat.set_defaults(handler=_cmd_catalog)

    iso = commands.add_parser("iso", help="isomorphism verdict and mapping")
    iso.add_argument("left")
    iso.add_argument("right")
    iso.set_defaults(handler=_cmd_iso)

    red = commands.add_parser("reduce", help="shrink by contractible transformations")
    red.add_argument("file")
    red.add_argument(
        "--delete-point", metavar="ID", help="remove this point before reducing"
    )
    red.add_argument(
        "--strategy",
        choices=tuple(s.value for s in ReductionStrategy),
        default=ReductionStrategy.DELETE_ONLY.value,
    )
    _add_budget(red)
    _add_output(red)
    red.set_defaults(handler=_cmd_reduce)

    dot = commands.add_parser("dot", help="export as Graphviz DOT")
    dot.add_argument("file")
    _add_output(dot)
    dot.set_defaults(handler=_cmd_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BudgetExceeded:
        print("digitop: error: budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except NotAManifoldError as exc:
        print(f"digitop: error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"digitop: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
