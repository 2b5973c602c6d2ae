#!/usr/bin/env python3
"""Digest of the CLI's bytes and exit codes over a fixed command list.

    python3 scripts/cli_digest.py [--src DIR]

Writes the input SpaceFiles (built-in spaces, torus16 grown by three
R-transforms, a wheel and a malformed file) to a temporary directory,
makes it the working directory and runs each command of COMMANDS
in-process through digitop.cli.main, with the memo tables cleared before
every command.  The list reaches exit codes 0-3 of every subcommand that
has them and every error message the CLI prints.  One line per command:
the exit code, a sha256 prefix of stdout followed by stderr, and the
command; then a total with a digest over all lines.  File arguments are
relative paths, and COLUMNS is fixed for argparse's usage lines, so no
digest depends on the temporary directory or the terminal.  --src picks
the digitop sources to import (default: src/ next to this script), so two
checkouts can be compared with the same script.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

WHEEL = "digitop 1\n" + "".join(f"point {p}\n" for p in "abcdh") + "".join(
    f"edge {p} {q}\n" for p, q in ("ab", "ad", "ah", "bc", "bh", "cd", "ch", "dh")
)
MALFORMED = "digitop 1\npoint a\nedge a b\n"

COMMANDS = (
    "gen torus16",
    "gen projplane11",
    "gen sphere --dim 2",
    "gen disk --dim 3",
    "gen torus16 --dim 2",
    "gen sphere",
    "gen sphere --dim 13",
    "gen klein",
    "contractible wheel.sf",
    "contractible wheel.sf --witness",
    "contractible torus.sf",
    "contractible torus.sf --budget 0",
    "contractible wheel.sf --budget -1",
    "contractible missing.sf",
    "contractible bad.sf",
    "recognize octa.sf",
    "recognize disk.sf --expect manifold-with-boundary",
    "recognize wheel.sf",
    "recognize torus.sf --expect sphere",
    "recognize s3.sf --budget 0",
    "recognize bad.sf",
    "euler torus.sf",
    "euler bad.sf",
    "rtransform octa.sf --edge p0a,p1a",
    "rtransform octa.sf --edge p0a,p1a --fresh w",
    "rtransform octa.sf --edge p0a,p1a --fresh p2b",
    "rtransform octa.sf --edge p0a,zz",
    "rtransform torus.sf --edge t00",
    "rtransform torus.sf --edge t00,t22",
    "rtransform wheel.sf --edge a,c",
    "rtransform wheel.sf --edge a,b",
    "rtransform wheel.sf --edge a,zz",
    "rtransform s4.sf --edge p0a,p1a --budget 0",
    "compress grown.sf",
    "compress wheel.sf",
    "compress grown.sf --budget 5",
    "complexity torus.sf",
    "complexity grown.sf",
    "complexity wheel.sf",
    "complexity torus.sf --budget 2",
    "report torus.sf",
    "report plane.sf --json",
    "report grown.sf",
    "report wheel.sf",
    "report torus.sf --budget 10",
    "report torus.sf --budget 50",
    "report torus.sf --budget 50 --json",
    "report bad.sf",
    "catalog --dim 1 --max-points 8",
    "catalog --dim 2 --max-points 7",
    "catalog --dim 2 --max-points 9 --budget 500",
    "catalog --dim 2 --max-points 3",
    "catalog --dim -1 --max-points 5",
    "iso octa.sf octa.sf",
    "iso octa.sf torus.sf",
    "iso octa.sf bad.sf",
    "reduce torus.sf --delete-point t00",
    "reduce plane.sf --delete-point a",
    "reduce octa.sf --delete-point p0a --strategy attach-edges",
    "reduce torus.sf --delete-point t00 --budget 5",
    "reduce torus.sf --delete-point zz",
    "dot wheel.sf",
    "dot bad.sf",
)


def write_inputs(directory: Path, digitop) -> None:
    grown = digitop.torus16()
    for _ in range(3):
        grown = digitop.r_transform(grown, *grown.edges[0])
    spaces = {
        "torus.sf": digitop.torus16(),
        "plane.sf": digitop.projective_plane11(),
        "octa.sf": digitop.minimal_sphere(2),
        "s3.sf": digitop.minimal_sphere(3),
        "s4.sf": digitop.minimal_sphere(4),
        "disk.sf": digitop.minimal_disk(2),
        "grown.sf": grown,
    }
    for name, space in spaces.items():
        (directory / name).write_text(digitop.serialize(space), encoding="utf-8")
    (directory / "wheel.sf").write_text(WHEEL, encoding="utf-8")
    (directory / "bad.sf").write_text(MALFORMED, encoding="utf-8")


def run(main, clear, command: str) -> tuple[int, str]:
    clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
    return code, digest[:12]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    os.environ["COLUMNS"] = "80"
    import digitop
    from digitop import cache
    from digitop.cli import main as cli_main

    codes = Counter()
    total = hashlib.sha256()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), digitop)
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                code, digest = run(cli_main, cache.clear_all, command)
                line = f"{code} {digest} {command}"
                print(line)
                codes[code] += 1
                total.update(line.encode() + b"\n")
        finally:
            os.chdir(start)
    by_code = " ".join(f"exit{code}={codes[code]}" for code in sorted(codes))
    print(f"total {len(COMMANDS)} commands, {by_code}, digest {total.hexdigest()[:12]}")


if __name__ == "__main__":
    main()
