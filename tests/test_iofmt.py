"""Text format round trips and parse errors."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandles.affine import make_affine
from quandles.errors import ParseError, QuandleError
from quandles.groups import make_cyclic_product, multiplication_automorphism
from quandles.iofmt import (
    format_mesh,
    format_quandle,
    parse_affine_spec,
    parse_mesh,
    parse_moduli,
    parse_partition,
    parse_quandle,
)
from quandles.mesh import mesh_sum

from oracles import loop_parse_quandle
from test_cli_fuzz import QUANDLES, mutated, raw_bytes


def test_quandle_round_trip(sum_three_z2):
    text = format_quandle(sum_three_z2)
    assert parse_quandle(text).array.tolist() == sum_three_z2.array.tolist()


def test_quandle_parse_ignores_comments_and_blanks():
    text = "# projection\n\n2\n0 1\n\n0 1\n"
    assert parse_quandle(text).n == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0 1\n",  # missing row
        "2\n0 1\n0 1 0\n",  # ragged row
        "x\n",  # bad header
        "1 1\n0\n",  # header is not a single integer
        "2\n0 a\n0 1\n",  # non-integer entry
    ],
)
def test_quandle_parse_errors(text):
    with pytest.raises(ParseError):
        parse_quandle(text)


def test_quandle_parse_error_order():
    # a ragged row is reported before an out-of-range entry in an earlier
    # row, and the first out-of-range entry in row-major order is named
    with pytest.raises(ParseError, match="has 1 entries"):
        parse_quandle("2\n0 7\n1\n")
    with pytest.raises(ParseError, match="entry -1 in row 1 out of range 0..2"):
        parse_quandle("3\n0 1 2\n0 -1 9\n0 1 9\n")
    with pytest.raises(ParseError, match=f"entry {10**22} in row 0"):
        parse_quandle(f"2\n0 {10**22}\n1 1\n")


def test_quandle_parse_memory():
    # Aff(Z_1024, 257): a 4 MB int32 table, read one row at a time
    g = make_cyclic_product((1024,))
    text = format_quandle(make_affine(g, multiplication_automorphism(g, 257)).quandle)
    tracemalloc.start()
    try:
        q = parse_quandle(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n == 1024 and peak < 32 << 20


def test_numbered_rows_keep_no_second_table():
    # Aff(Z_1023, 2) has 1,023 distinct rows; numbering them keeps O(n)
    # integers beside the 4 MB table, not a sorted copy of its rows
    g = make_cyclic_product((1023,))
    text = format_quandle(make_affine(g, multiplication_automorphism(g, 2)).quandle)
    tracemalloc.start()
    try:
        q = parse_quandle(text)
        assert len(q.rows.first) == q.n == 1023
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept - q.array.nbytes < 1 << 20


def _outcome(parse, text):
    """The parsed table, or the type and message of the error raised;
    any warning, such as numpy's for a string it could not read to its
    end, is raised as an error instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text).array.tolist()
        except QuandleError as exc:
            return type(exc), str(exc)


@given(st.one_of(
    mutated(QUANDLES),
    raw_bytes(QUANDLES).map(lambda data: data.decode("utf-8", "replace")),
))
@settings(max_examples=500, deadline=None)
@example("3\n0 1 2\n0 1 2\n0 1 2\n")
@example("2\n0 1\n00 1\n")            # leading zero
@example("2\n0 1\n0 \u0661\n")         # Arabic-Indic one
@example("2\n0\t1\n0 1\n")             # tab
@example("2\n0 +1\n0 1\n")
@example("2\n0 1_0\n0 1\n")
@example("2\n-0 1\n0 1\n")
@example("2\n0 1\n0 1234567890\n")
@example("3\n0 1 2\n0 1 2\n0 1\n")      # repeated line, then ragged
@example("3\n0 1 5\n0 1 5\n0 1\n")      # range error, then ragged
@example("3\n0 2 1\n2 1 0\n0 2 1\n")   # repeated, not idempotent
def test_parse_quandle_matches_the_per_token_loop(text):
    assert _outcome(parse_quandle, text) == _outcome(loop_parse_quandle, text)


def test_parse_quandle_matches_the_per_token_loop_on_the_corpus(small_corpus):
    for _, q in small_corpus:
        text = format_quandle(q)
        expected = q.array.tolist()
        assert _outcome(loop_parse_quandle, text) == expected
        assert _outcome(parse_quandle, text) == expected


def test_partition_round_trip():
    p = parse_partition("0 2\n1 3\n", 4)
    assert p.blocks == ((0, 2), (1, 3))


def test_partition_errors():
    with pytest.raises(ParseError):
        parse_partition("", 2)
    with pytest.raises(ParseError):
        parse_partition("0 1\n1 2\n", 3)  # overlap
    with pytest.raises(ParseError):
        parse_partition("0 1\n", 3)  # wrong size


def test_parse_moduli():
    assert parse_moduli("2x2x3") == (2, 2, 3)
    with pytest.raises(ParseError):
        parse_moduli("2x0")
    with pytest.raises(ParseError):
        parse_moduli("ab")


def test_parse_affine_spec_mul():
    g, f = parse_affine_spec("8:mul:5")
    assert g.order == 8
    assert f.images[1] == 5


def test_parse_affine_spec_image_list():
    g, f = parse_affine_spec("2x2:0,2,1,3")
    assert g.order == 4
    assert f.images[1] == 2


@pytest.mark.parametrize(
    "spec",
    [
        "8",  # no automorphism
        "2x2:mul:3",  # mul needs one factor
        "8:mul:x",
        "8:0,1",  # wrong image count
        "8:mul:2",  # handled upstream as NotBijective, not ParseError
    ],
)
def test_parse_affine_spec_errors(spec):
    from quandles.errors import QuandleError

    with pytest.raises(QuandleError):
        parse_affine_spec(spec)


def test_mesh_round_trip(mesh_three_z2, mesh_two_z3, mesh_z2_z1):
    for m in (mesh_three_z2, mesh_two_z3, mesh_z2_z1):
        m2 = parse_mesh(format_mesh(m))
        assert m2.c == m.c
        assert [g.moduli for g in m2.groups] == [g.moduli for g in m.groups]
        assert mesh_sum(m2).array.tolist() == mesh_sum(m).array.tolist()


def test_mesh_parse_defaults():
    text = "mesh 2\ngroup 0 2\ngroup 1 2\nc 1 0 1\nc 0 1 1\n"
    m = parse_mesh(text)
    assert m.c == ((0, 1), (1, 0))
    assert all(not p.any() for row in m.phi for p in row)


def test_mesh_parse_nonzero_phi_round_trip():
    text = "mesh 1\ngroup 0 8\nphi 0 0 0 4 0 4 0 4 0 4\n"
    m = parse_mesh(text)
    assert list(m.phi[0][0]) == [0, 4, 0, 4, 0, 4, 0, 4]
    again = parse_mesh(format_mesh(m))
    assert list(again.phi[0][0]) == list(m.phi[0][0])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "mesh x\n",
        "mesh 0\n",
        "mesh 1\n",  # missing group line
        "mesh 1\ngroup 0 2\nbogus 0\n",
        "mesh 1\ngroup 2 2\n",  # index out of range
        "mesh 1\ngroup 0 2\nphi 0 0\n",  # short phi line
    ],
)
def test_mesh_parse_errors(text):
    with pytest.raises(ParseError):
        parse_mesh(text)


def test_cover_sidecar_lists_every_element(sum_z2_z1):
    from quandles.cover import build_cover, optimized_multitransversal
    from quandles.iofmt import format_cover_sidecar

    r = build_cover(sum_z2_z1, optimized_multitransversal(sum_z2_z1))
    text = format_cover_sidecar(r)
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == r.group.order
    assert [int(row[4]) for row in rows] == [int(v) for v in r.psi]
