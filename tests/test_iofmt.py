"""Text format round trips and parse errors."""

import hashlib
import io
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandles import core, groups, iofmt
from quandles.affine import make_affine
from quandles.core import RowSet
from quandles.errors import ParseError, QuandleError, TooLarge
from quandles.groups import (
    AbelianGroup,
    direct_product,
    make_cyclic_product,
    multiplication_automorphism,
)
from quandles.iofmt import (
    format_mesh,
    format_quandle,
    parse_affine_spec,
    parse_mesh,
    parse_moduli,
    parse_partition,
    parse_quandle,
    write_affine,
    write_quandle,
)
from quandles.mesh import AffineMesh, generate_max_mesh, mesh_sum, validate_mesh

import corpus
from oracles import loop_format_mesh, loop_parse_quandle
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


def _affine_text(m: int, u: int) -> str:
    g = make_cyclic_product((m,))
    return format_quandle(make_affine(g, multiplication_automorphism(g, u)).quandle)


def test_numbered_rows_keep_no_second_table(monkeypatch):
    # Aff(Z_1023, 2) has 1,023 distinct rows and Aff(Z_1024, 3) 512 of
    # 1,024; numbering them keeps O(n) integers beside the 4 MB table, not
    # a sorted copy of its rows or of its distinct lines.  Up to the
    # validation, the parse of Aff(Z_1024, 3) holds the table, its distinct
    # lines (half the text) and one chunk of copied rows, not a second
    # table of the distinct rows
    monkeypatch.setattr(core, "CHUNK_ENTRIES", 1 << 16)
    validated = iofmt._validated
    parse_peak = []

    def spy(*args):
        parse_peak.append(tracemalloc.get_traced_memory()[1])
        return validated(*args)

    monkeypatch.setattr(iofmt, "_validated", spy)
    for m, u, distinct in [(1023, 2, 1023), (1024, 3, 512)]:
        text = _affine_text(m, u)
        tracemalloc.start()
        try:
            q = parse_quandle(text)
            assert len(q.rows.first) == distinct and q.n == m
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept - q.array.nbytes < 1 << 20, (m, u)
    assert parse_peak[-1] - q.array.nbytes < len(text) // 2 + (1 << 20)


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


def _assert_rows_as_sorted_afresh(q):
    """q.rows, numbered from the lines of a file, equals a RowSet sorted
    afresh from the table: first, which, and index_of of every row and of
    rows that are not in the table."""
    fresh = RowSet(q.array)
    assert q.rows.first.tolist() == fresh.first.tolist()
    assert q.rows.which.tolist() == fresh.which.tolist()
    probe = np.concatenate([q.array, q.array[:, ::-1], q.array[::-1] + 1,
                            np.full((1, q.n), -1, dtype=np.int32)])
    assert q.rows.index_of(probe).tolist() == fresh.index_of(probe).tolist()


@given(st.one_of(
    mutated(QUANDLES),
    raw_bytes(QUANDLES).map(lambda data: data.decode("utf-8", "replace")),
))
@settings(max_examples=300, deadline=None)
def test_rows_numbered_from_lines_match_a_fresh_sort(text):
    try:
        q = parse_quandle(text)
    except QuandleError:
        return
    _assert_rows_as_sorted_afresh(q)


def _respelled(text: str, spell) -> str:
    """text with row a (a data line after the header) written as
    spell(a, tokens)."""
    head, *rows = text.splitlines()
    return "\n".join([head] + [spell(a, row.split()) for a, row in enumerate(rows)]) + "\n"


# Aff(Z_8, 5): rows 0, 2, 4, 6 are equal, and so are rows 1, 3, 5, 7.
AFF_8_5 = _affine_text(8, 5)
LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]


@pytest.mark.parametrize("text", [
    # different lines that give one row
    _respelled(AFF_8_5, lambda a, t: " ".join(t) if a < 2 else " ".join("00" + x for x in t)),
    _respelled(AFF_8_5, lambda a, t: " ".join(t) if a % 4 else "  ".join(t)),
    _respelled(AFF_8_5, lambda a, t: "\t".join(t) if a % 3 else " ".join(t)),
    _respelled(AFF_8_5, lambda a, t: " ".join(t) + " " * (a % 3)),
    # every line distinct, and half the lines distinct
    _affine_text(1023, 2),
    _affine_text(1024, 3),
    # a line end other than "\n" between rows, and inside a row
    *(AFF_8_5.replace("\n", end) for end in LINE_ENDS),
    *(AFF_8_5.replace("\n", end + "\n") for end in LINE_ENDS),
    *(AFF_8_5.replace(" 6 ", end, 1) for end in LINE_ENDS),
    *(AFF_8_5.replace(" 6 ", " 6" + end + " ", 1) for end in LINE_ENDS),
    "# comment\r\n2\r\n0 1\r\n\r\n0 1\r\n",
])
def test_rows_numbered_from_respelled_lines(text):
    assert _outcome(parse_quandle, text) == _outcome(loop_parse_quandle, text)
    try:
        q = parse_quandle(text)
    except QuandleError:
        return
    _assert_rows_as_sorted_afresh(q)


def _split_numbering(text: str) -> tuple[list[str], list[int]]:
    """The lines of text, split after each "\n" (by a StringIO that ends
    lines at "\n" alone), numbered by first occurrence, through a dict."""
    number: dict[str, int] = {}
    which = [number.setdefault(piece, len(number))
             for piece in io.StringIO(text, newline="\n")]
    return list(number), which


A48, B48 = "7" * 48 + " 1", "7" * 48 + " 2"   # one length, one fingerprint


@pytest.mark.parametrize("fingerprint", [1, 3, iofmt.FINGERPRINT])
@given(st.one_of(
    mutated(QUANDLES),
    raw_bytes(QUANDLES).map(lambda data: data.decode("utf-8", "replace")),
))
@settings(max_examples=200, deadline=None)
@example("0 1\n0 1")                      # no trailing "\n"
@example("2\r\n0 1\r\n0 1\r\n")
@example("")
@example("\n")
@example("a\nb\na\n\nb")                # pieces shorter than the fingerprint
@example(f"{A48}\n{B48}\n{A48}\n{B48}\n")  # alternating, one fingerprint
@example("0 1 2\n0 1 2 3\n0 1 2\n0 1 2 3")  # a piece a prefix of another
@example(f"{A48}\n{A48} 3\n{A48}\n")
def test_pieces_numbered_in_place_match_split(fingerprint, text):
    with mock.patch.object(iofmt, "FINGERPRINT", fingerprint):
        assert iofmt._numbered_pieces(text) == _split_numbering(text)


@given(st.one_of(
    mutated(QUANDLES),
    raw_bytes(QUANDLES).map(lambda data: data.decode("utf-8", "replace")),
), st.sampled_from([1, 2, 3, 7, 16]))
@settings(max_examples=200, deadline=None)
@example("", 1)
@example("\n", 1)
@example("0 1\n0 1", 3)                     # no trailing "\n"
@example("\u00e9\n\u00e9\u20ac\n\u00e9\n", 2)   # two- and three-byte sequences cut
@example("a\u2028b\n\x85\r\n\ufffd", 3)
def test_file_lines_numbered_as_the_text(text, size):
    # the lines of a binary file, cut by its buffer at any place, are the
    # lines sliced from its text
    fh = io.BufferedReader(io.BytesIO(text.encode()), size)
    assert iofmt._numbered_pieces(fh) == iofmt._numbered_pieces(text)


class _CountingFile(io.FileIO):
    """A raw file that counts its write calls."""

    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


def test_table_written_in_blocks(tmp_path):
    # Aff(Z_1024, 257): about 4 MB of text, in 1 MiB blocks, not in the
    # 8 KiB pieces of a buffered file's own chunking
    g = make_cyclic_product((1024,))
    f = multiplication_automorphism(g, 257)
    raw = _CountingFile(tmp_path / "aff.quandle", "w")
    with io.BufferedWriter(raw) as fh:
        write_affine(g, f, fh)
    data = (tmp_path / "aff.quandle").read_text()
    assert data == format_quandle(make_affine(g, f).quandle)
    assert raw.writes <= math.ceil(len(data) / (1 << 20)) + 2


class _HashingSink:
    """A binary sink that keeps only a running hash of what it is given."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, data):
        self.hash.update(data)


def test_writer_keeps_lines_within_its_budget(monkeypatch):
    # Aff(Z_4096, 3): 2,048 distinct lines of about 20 KB (40 MB), each
    # written twice; with the budget lowered to 2 MiB, the lines past it
    # are formatted again per block, and the bytes are format_quandle's
    # (write_quandle's at the full budget, here into a hash)
    g = make_cyclic_product((4096,))
    f = multiplication_automorphism(g, 3)
    expected = _HashingSink()
    write_quandle(make_affine(g, f).quandle, expected)
    monkeypatch.setattr(iofmt, "LINE_CACHE_BYTES", 2 << 20)
    bounded = _HashingSink()
    tracemalloc.start()
    try:
        write_affine(g, f, bounded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert bounded.hash.digest() == expected.hash.digest()


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


def test_format_mesh_reads_p_and_c_byte_for_byte(monkeypatch):
    # the nonzero cells are read off P and C, in the cell loop's line order
    raws = random.Random(24).sample(corpus.small_mesh_corpus(), 300)
    meshes = [corpus.build_mesh(raw) for raw in raws]
    meshes += [generate_max_mesh(n, k) for n, k in ((4, 1), (8, 2), (16, 3), (32, 4))]
    expected = [loop_format_mesh(m) for m in meshes]
    assert sum("\nphi " in text for text in expected) > 50

    def unread(self):
        raise AssertionError("phi or c read")

    monkeypatch.setattr(AffineMesh, "phi", property(unread))
    monkeypatch.setattr(AffineMesh, "c", property(unread))
    assert [format_mesh(m) for m in meshes] == expected


@pytest.mark.parametrize("n,k", [(4, 1), (8, 2), (16, 3), (32, 4), (200, 3)])
def test_genmax_mesh_round_trip(n, k):
    # the file names the nonzero constants only; parsing fills the rest of
    # P and C with zeros, at k = 200 too
    m = generate_max_mesh(n, k)
    text = format_mesh(m)
    again = parse_mesh(text)
    assert np.array_equal(again.P, m.P) and np.array_equal(again.C, m.C)
    assert [g.moduli for g in again.groups] == [g.moduli for g in m.groups]
    assert format_mesh(again) == text


def test_quandle_table_over_the_limit_is_refused(monkeypatch):
    # order 2: a 16-byte table, refused once the rows are counted and
    # before any row is read
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 15)
    with pytest.raises(TooLarge, match="quandle order 2 needs a 16-byte table"):
        parse_quandle("2\n0\n0\n")
    with pytest.raises(ParseError, match="expected 2 table rows, got 1"):
        parse_quandle("2\n0 1\n")
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 16)
    assert parse_quandle("2\n0 1\n0 1\n").n == 2
    with pytest.raises(ParseError, match="row '0' has 1 entries"):
        parse_quandle("2\n0\n0\n")


def test_mesh_arrays_over_the_table_limit_are_refused(monkeypatch):
    # two trivial groups: P is 2 x 2 int32 (16 bytes), C 2 x 2 int64 (32)
    text = "mesh 2\ngroup 0 1\ngroup 1 1\n"
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 15)
    with pytest.raises(TooLarge, match="mesh size 2 needs a 16-byte map matrix"):
        parse_mesh(text)
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 31)
    with pytest.raises(TooLarge, match="mesh index count 2 needs a 32-byte constant matrix"):
        parse_mesh(text)
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 32)
    assert parse_mesh(text).C.shape == (2, 2)


def test_format_mesh_refuses_a_group_without_moduli():
    # Z2 x Z2 as a bare table with phi(a, b) = (b, a + b): written as
    # "group 0 4" it would read back as Z_4, on which phi is no map at all
    z2 = make_cyclic_product((2, 2))
    table = AbelianGroup(np.array(z2.add), np.array(z2.neg))
    phi = np.array([0, 3, 1, 2], dtype=np.int32)
    mesh = validate_mesh([table], [[phi]], [[0]])
    with pytest.raises(ValueError, match="group 0 "):
        format_mesh(mesh)
    z3 = make_cyclic_product((3,))
    mesh = validate_mesh([z3, direct_product(z3, table)],
                         [[np.zeros(3, dtype=np.int32)] * 2, [np.zeros(12, dtype=np.int32)] * 2],
                         [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="group 1 "):
        format_mesh(mesh)


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
