"""SpaceFile parsing, serialization, and DOT export."""

from __future__ import annotations

import pytest

import support
from digitop import (
    DigitalSpace,
    SpaceFileError,
    export_dot,
    minimal_sphere,
    parse,
    projective_plane11,
    serialize,
    torus16,
)


def test_round_trip_on_corpus_spaces():
    spaces = [
        DigitalSpace(),
        DigitalSpace(["only"]),
        support.cycle(4),
        support.wheel(5),
        minimal_sphere(3),
        torus16(),
        projective_plane11(),
    ]
    for G in spaces:
        assert parse(serialize(G)) == G
        # serialization is byte-stable
        assert serialize(parse(serialize(G))) == serialize(G)


def test_serialize_layout():
    G = DigitalSpace(["b", "a"], [("b", "a")])
    assert serialize(G) == "digitop 1\npoint a\npoint b\nedge a b\n"


def test_parse_tolerates_comments_and_whitespace():
    text = """
# leading comment
digitop 1

point a   # trailing comment
point b
# in between
edge a b
"""
    G = parse(text)
    assert G.points == ("a", "b") and G.adjacent("a", "b")


def test_parse_errors_carry_line_numbers():
    cases = [
        ("point a\n", 1, "header"),
        ("digitop 2\npoint a\n", 1, "header"),
        ("digitop 1\npoint a b\n", 2, "exactly one id"),
        ("digitop 1\npoint a$\n", 2, "invalid point id"),
        ("digitop 1\npoint a\npoint a\n", 3, "duplicate point"),
        ("digitop 1\npoint a\nedge a a\n", 3, "self-loop"),
        ("digitop 1\npoint a\nedge a b-c\n", 3, "invalid point id 'b-c'"),
        ("digitop 1\npoint a\nedge a b\n", 3, "not declared"),
        ("digitop 1\npoint a\npoint b\nedge a b\nedge b a\n", 5, "duplicate edge"),
        ("digitop 1\npoint a\npoint b\nedge a b\npoint c\n", 5, "after edge"),
        ("digitop 1\nvertex a\n", 2, "unrecognized"),
        ("", 1, "missing header"),
        ("# only a comment\n", 1, "missing header"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(SpaceFileError) as info:
            parse(text)
        assert info.value.line_number == line, text
        assert fragment in str(info.value), text


def test_parse_edge_needs_two_ids():
    with pytest.raises(SpaceFileError):
        parse("digitop 1\npoint a\nedge a\n")


def test_export_dot_layout():
    G = DigitalSpace(["a", "b"], [("a", "b")])
    assert export_dot(G) == 'graph digitop {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'


def test_round_trip_random_spaces():
    import random

    rng = random.Random(47)
    for _ in range(25):
        G = support.random_space(rng, rng.randint(0, 10), rng.random())
        assert parse(serialize(G)) == G
