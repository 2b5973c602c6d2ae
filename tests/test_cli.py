"""End-to-end CLI behavior: output text, exit codes, determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

import support
from digitop import DigitalSpace, cache, minimal_sphere, parse, serialize, torus16
from digitop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_space(tmp_path, name, space):
    target = tmp_path / name
    target.write_text(serialize(space), encoding="utf-8")
    return str(target)


@pytest.fixture()
def octa_file(tmp_path):
    return write_space(tmp_path, "octa.sf", minimal_sphere(2))


@pytest.fixture()
def torus_file(tmp_path):
    return write_space(tmp_path, "torus.sf", torus16())


@pytest.fixture()
def triangle_file(tmp_path):
    return write_space(tmp_path, "tri.sf", support.complete(3, prefix="t"))


def test_gen_writes_spacefiles(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "sphere", "--dim", "2")
    assert code == 0 and err == ""
    assert parse(out) == minimal_sphere(2)

    target = tmp_path / "t.sf"
    code, out, _ = run(capsys, "gen", "torus16", "-o", str(target))
    assert code == 0 and out == ""
    assert parse(target.read_text(encoding="utf-8")) == torus16()


def test_gen_validation(capsys):
    code, _, err = run(capsys, "gen", "sphere")
    assert code == 2 and "requires --dim" in err
    code, _, err = run(capsys, "gen", "torus16", "--dim", "2")
    assert code == 2 and "does not apply" in err
    code, _, err = run(capsys, "gen", "sphere", "--dim", "99")
    assert code == 2


def test_contractible_verdicts(capsys, tmp_path, octa_file):
    wheel_file = write_space(tmp_path, "wheel.sf", support.wheel(4))
    code, out, _ = run(capsys, "contractible", wheel_file)
    assert code == 0 and out.splitlines()[0] == "contractible"

    code, out, _ = run(capsys, "contractible", octa_file)
    assert code == 1 and out.splitlines()[0] == "not contractible"


def test_contractible_witness_lists_deletions(capsys, tmp_path):
    wheel_file = write_space(tmp_path, "wheel.sf", support.wheel(4))
    code, out, _ = run(capsys, "contractible", wheel_file, "--witness")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "contractible"
    assert len(lines) == 5  # |G| - 1 deletions
    assert all(line.startswith("delete-point ") for line in lines[1:])


def test_recognize_output(capsys, octa_file, torus_file, triangle_file):
    code, out, _ = run(capsys, "recognize", octa_file)
    assert code == 0
    assert out == "SPHERE\ndimension 2\n"

    code, out, _ = run(capsys, "recognize", torus_file)
    assert code == 0
    assert out == "CLOSED_MANIFOLD\ndimension 2\n"

    code, out, _ = run(capsys, "recognize", triangle_file)
    assert code == 1
    assert out == "NONE\n"


def test_recognize_expectations(capsys, octa_file, triangle_file, tmp_path):
    code, out, _ = run(capsys, "recognize", triangle_file, "--expect", "sphere")
    assert code == 1 and out == "NONE\n"

    code, _, _ = run(capsys, "recognize", octa_file, "--expect", "sphere")
    assert code == 0
    # a sphere is in particular a closed manifold
    code, _, _ = run(capsys, "recognize", octa_file, "--expect", "manifold")
    assert code == 0
    code, _, _ = run(capsys, "recognize", octa_file, "--expect", "disk")
    assert code == 1

    wheel_file = write_space(tmp_path, "wheel.sf", support.wheel(4))
    code, out, _ = run(capsys, "recognize", wheel_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DISK"
    assert "boundary c0 c1 c2 c3" in lines
    assert "interior hub" in lines
    code, _, _ = run(
        capsys, "recognize", wheel_file, "--expect", "manifold-with-boundary"
    )
    assert code == 0

    # the one-point space is a 0-disk but not a manifold with boundary
    point_file = write_space(tmp_path, "point.sf", DigitalSpace(["a"]))
    code, out, _ = run(capsys, "recognize", point_file, "--expect", "disk")
    assert code == 0 and out == "DISK\ndimension 0\nboundary\ninterior a\n"
    code, _, _ = run(
        capsys, "recognize", point_file, "--expect", "manifold-with-boundary"
    )
    assert code == 1
    # S0 is a sphere, and so a closed 0-manifold
    s0_file = write_space(tmp_path, "s0.sf", minimal_sphere(0))
    code, out, _ = run(capsys, "recognize", s0_file, "--expect", "manifold")
    assert code == 0 and out == "SPHERE\ndimension 0\n"


def test_euler_output(capsys, octa_file):
    code, out, _ = run(capsys, "euler", octa_file)
    assert code == 0
    assert out == "euler 2\ncliques 6 12 8\n"


def test_rtransform_pipeline(capsys, octa_file):
    code, out, _ = run(capsys, "rtransform", octa_file, "--edge", "p0a,p1a")
    assert code == 0
    grown = parse(out)
    assert len(grown) == 7

    code, _, err = run(capsys, "rtransform", octa_file, "--edge", "p0a,p0b")
    assert code == 2 and "no such edge" in err
    code, _, err = run(capsys, "rtransform", octa_file, "--edge", "p0a")
    assert code == 2
    code, _, err = run(capsys, "rtransform", octa_file, "--edge", "p0a,zz")
    assert code == 2 and err == "digitop: error: no such point: 'zz'\n"


def test_compress_output_is_a_commented_spacefile(capsys, octa_file, tmp_path):
    code, grown_text, _ = run(capsys, "rtransform", octa_file, "--edge", "p0a,p1a")
    assert code == 0
    grown_file = tmp_path / "grown.sf"
    grown_file.write_text(grown_text, encoding="utf-8")

    code, out, _ = run(capsys, "compress", str(grown_file))
    assert code == 0
    assert "# step 1: contract" in out
    compressed = parse(out)  # comments must not break parsing
    assert len(compressed) == 6


def test_complexity_cli(capsys, torus_file):
    code, out, _ = run(capsys, "complexity", torus_file)
    assert code == 0 and out == "16\n"


def test_complexity_budget_exceeded(capsys, torus_file):
    cache.clear_all()
    code, _, err = run(capsys, "complexity", torus_file, "--budget", "2")
    assert code == 3 and "budget exceeded" in err


def test_report_text_and_json_agree(capsys, torus_file):
    code, text_out, _ = run(capsys, "report", torus_file)
    assert code == 0
    code, json_out, _ = run(capsys, "report", torus_file, "--json")
    assert code == 0
    data = json.loads(json_out)
    text_fields = dict(line.split(" ", 1) for line in text_out.splitlines())
    assert set(text_fields) == set(data)
    for key, value in data.items():
        assert text_fields[key] == str(value)
    assert data["points"] == 16
    assert data["complexity"] == 16
    assert data["punctured_euler"] == -1


def test_report_rejects_non_manifolds(capsys, triangle_file):
    code, _, err = run(capsys, "report", triangle_file)
    assert code == 1 and "not a closed manifold" in err


def test_catalog_cli(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "1", "--max-points", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "catalog dim 1 max-points 8 entries 1 exhaustive true"
    assert len(lines) == 2
    assert "points 4 euler 0" in lines[1]


def test_catalog_budget_exit(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "2", "--max-points", "9",
                       "--budget", "500")
    assert code == 3
    assert "exhaustive false" in out.splitlines()[0]


def test_contractible_rejects_a_negative_budget(capsys, octa_file):
    code, out, err = run(capsys, "contractible", octa_file, "--budget", "-1")
    assert code == 2 and out == ""
    assert "--budget" in err and "budget exceeded" not in err


def test_catalog_rejects_a_negative_budget(capsys):
    code, out, err = run(capsys, "catalog", "--dim", "1", "--max-points", "5",
                         "--budget", "-1")
    assert code == 2 and out == ""
    assert "--budget" in err and "budget exceeded" not in err


def test_iso_cli(capsys, tmp_path, octa_file, torus_file):
    import random

    other = write_space(
        tmp_path, "shuffled.sf", support.shuffled(minimal_sphere(2), random.Random(3))
    )
    code, out, _ = run(capsys, "iso", octa_file, other)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "isomorphic"
    assert len(lines) == 7 and all(" -> " in line for line in lines[1:])

    code, out, _ = run(capsys, "iso", octa_file, torus_file)
    assert code == 1 and out == "not isomorphic\n"


def test_reduce_cli(capsys, octa_file):
    code, out, _ = run(capsys, "reduce", octa_file, "--delete-point", "p0a")
    assert code == 0
    reduced = parse(out)
    assert len(reduced) == 1
    assert "# delete-point" in out

    code, _, err = run(capsys, "reduce", octa_file, "--delete-point", "zz")
    assert code == 2 and "no such point" in err

    code, out, _ = run(
        capsys, "reduce", octa_file, "--delete-point", "p0a",
        "--strategy", "attach-edges",
    )
    assert code == 0 and len(parse(out)) == 1


def test_dot_cli(capsys, triangle_file):
    code, out, _ = run(capsys, "dot", triangle_file)
    assert code == 0
    assert out.startswith("graph digitop {")
    assert '"t0" -- "t1";' in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(support.cycle(4))))
    code, out, _ = run(capsys, "recognize", "-")
    assert code == 0
    assert out == "SPHERE\ndimension 1\n"


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.sf"
    bad.write_text("digitop 1\nedge a b\n", encoding="utf-8")
    code, _, err = run(capsys, "recognize", str(bad))
    assert code == 2 and "line 2" in err

    code, _, err = run(capsys, "recognize", str(tmp_path / "missing.sf"))
    assert code == 2 and "cannot read" in err


def test_usage_errors_exit_2(capsys):
    assert main(["unknown-command"]) == 2
    assert main([]) == 2
    assert main(["catalog", "--dim", "1"]) == 2  # missing --max-points
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["recognize", "--help"]) == 0
    capsys.readouterr()


def test_repeated_invocations_are_byte_identical(capsys, torus_file, octa_file):
    for argv in (
        ["euler", torus_file],
        ["recognize", octa_file],
        ["report", torus_file, "--json"],
        ["catalog", "--dim", "1", "--max-points", "8"],
        ["compress", octa_file],
        ["dot", octa_file],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_console_entry_point_subprocess(tmp_path):
    """The module runs as a subprocess with identical bytes."""
    env = support.child_env()
    script = [sys.executable, "-m", "digitop", "gen", "projplane11"]
    first = subprocess.run(script, capture_output=True, timeout=60, env=env)
    second = subprocess.run(script, capture_output=True, timeout=60, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 1 + 11 + 30


# -- failure paths: one stderr line and one exit code per library exception -------------


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["gen", "torus16", "--dim", "2"], 2, "--dim does not apply to torus16"),
        (["gen", "sphere"], 2, "gen sphere requires --dim"),
        (["gen", "sphere", "--dim", "13"], 2, "dimension out of range: 13"),
        (["recognize", "missing.sf"], 2,
         "cannot read missing.sf: No such file or directory"),
        (["rtransform", "torus.sf", "--edge", "t00"], 2,
         "--edge expects two point ids separated by a comma"),
        (["rtransform", "torus.sf", "--edge", "t00,t22"], 2,
         "no such edge: 't00' -- 't22'"),
        # the edge is checked before the manifold test, so a non-edge of a
        # non-manifold is a usage error
        (["rtransform", "wheel.sf", "--edge", "c0,c2"], 2, "no such edge: 'c0' -- 'c2'"),
        (["rtransform", "wheel.sf", "--edge", "c0,c1"], 1, "space is not a closed manifold"),
        (["catalog", "--dim", "2", "--max-points", "3"], 2,
         "max_points below the minimal sphere size 2n+2"),
    ],
)
def test_error_bytes_and_exit_codes_are_pinned(capsys, tmp_path, monkeypatch, argv, code, err):
    monkeypatch.chdir(tmp_path)
    write_space(tmp_path, "torus.sf", torus16())
    write_space(tmp_path, "wheel.sf", support.wheel(4))
    assert run(capsys, *argv) == (code, "", f"digitop: error: {err}\n")


def test_report_exits_3_when_the_punctured_reduction_runs_out(capsys, torus_file):
    """50 nodes cover torus16's recognition and compression but not the
    reduction of its puncture; a cold report then prints nothing."""
    cache.clear_all()
    assert run(capsys, "report", torus_file, "--budget", "50") == (
        3, "", "digitop: error: budget exceeded\n"
    )


def test_reduce_prints_its_partial_result_and_exits_3(capsys, torus_file):
    cache.clear_all()
    code, out, err = run(capsys, "reduce", torus_file, "--delete-point", "t00",
                         "--budget", "5")
    assert code == 3 and err == ""
    assert out.splitlines()[-1] == "# budget exhausted"
    assert len(parse(out)) < 15
