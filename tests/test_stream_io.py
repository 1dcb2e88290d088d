"""Table files read line by line and written from their distinct lines:
the same tables, errors, bytes and messages as reading the whole text."""

import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandles import cli, core, iofmt
from quandles.affine import make_affine
from quandles.errors import QuandleError
from quandles.groups import make_cyclic_product, multiplication_automorphism
from quandles.iofmt import format_quandle, write_affine

from oracles import PLAIN_ROW, read_then_parse_quandle
from test_cli_fuzz import QUANDLES, raw_bytes


def _affine(m: int, u: int):
    g = make_cyclic_product((m,))
    return g, multiplication_automorphism(g, u)


def _affine_text(m: int, u: int) -> str:
    return format_quandle(make_affine(*_affine(m, u)).quandle)


# -- the plain-row test ------------------------------------------------------

@given(st.one_of(
    st.text(alphabet="0123456789 \r", max_size=40),
    st.lists(st.text(alphabet="0123456789", min_size=1, max_size=11), min_size=1,
             max_size=6).map(" ".join),
    st.text(max_size=12),
))
@settings(max_examples=2000, deadline=None)
@example("")
@example("0")
@example("123456789")
@example("1234567890")                 # ten digits
@example("1 123456789 2")
@example("1 1234567890 2")
@example("1  2")
@example(" 1")
@example("1 ")
@example("1\r")
@example("1\r\r")
@example("\r")
@example("1\r2")
@example("1\t2")
@example("١")                      # Arabic-Indic one
@example("１")                      # fullwidth one
@example("+1")
@example("-1")
@example("1_0")
@example("1 2\n")
@example("0" * 4000 + " 1")
def test_plain_row_accepts_what_the_regex_accepted(piece):
    assert iofmt._plain_row(piece) == bool(PLAIN_ROW.fullmatch(piece))


# -- the streaming reader against reading the whole text --------------------

def _outcome(read, path):
    """The table read from path, or the type and message of the error."""
    try:
        return read(path).array.tolist()
    except QuandleError as exc:
        return type(exc), str(exc)


AFF_8_5 = _affine_text(8, 5)
ROWS_8_5 = AFF_8_5.splitlines()


def _between_rows(text: str, gap: str) -> str:
    return gap.join(text.splitlines(keepends=True))


FILES = {
    "plain": AFF_8_5.encode(),
    "crlf": AFF_8_5.replace("\n", "\r\n").encode(),
    "cr": AFF_8_5.replace("\n", "\r").encode(),
    "cr-then-crlf": AFF_8_5.replace("\n", "\r", 3).replace("\n", "\r\n").encode(),
    "bom": b"\xef\xbb\xbf" + AFF_8_5.encode(),
    "blank-and-comments": _between_rows(AFF_8_5, "\n# note\n\n  \n").encode(),
    "no-final-newline": AFF_8_5.rstrip("\n").encode(),
    "crlf-no-final-newline": AFF_8_5.rstrip("\n").replace("\n", "\r\n").encode(),
    "comment-last": (AFF_8_5 + "# end").encode(),
    **{f"inside-{name}": AFF_8_5.replace(" 6 ", f" 6{ch}", 2).encode()
       for name, ch in [("vt", "\x0b"), ("ff", "\x0c"), ("nel", "\x85"),
                        ("ls", "\u2028")]},
    **{f"between-{name}": AFF_8_5.replace("\n", ch, 4).encode()
       for name, ch in [("vt", "\x0b"), ("ff", "\x0c"), ("nel", "\x85"),
                        ("ls", "\u2028")]},
    "ragged-after-range": b"3\n0 1 5\n0 1 2\n0 1\n",
    "range-after-ragged": b"3\n0 1\n0 1 5\n0 1 2\n",
    "range-in-repeated-line": b"3\n0 2 1\n2 1 7\n2 1 7\n",
    "not-distributive": b"4\n0 2 1 3\n2 1 3 0\n3 0 2 1\n2 0 1 3\n",
    "empty": b"",
    "only-comments": b"# a\n\n# b\n",
    **{f"bad-byte-at-{at}": AFF_8_5.encode()[:at] + b"\xff" + AFF_8_5.encode()[at:]
       for at in (0, 1, 2, 17, 40, len(AFF_8_5) - 1, len(AFF_8_5))},
    "bad-byte-in-a-repeated-line": (AFF_8_5 + ROWS_8_5[3]).encode() + b"\xff\n",
    "cut-sequence-before-newline": AFF_8_5.encode()[:30] + b"\xe2\x82\n" + AFF_8_5.encode()[30:],
    "cut-sequence-at-end": AFF_8_5.encode() + b"\xe2\x82",
    "surrogate": AFF_8_5.encode()[:20] + b"\xed\xa0\x80" + AFF_8_5.encode()[20:],
    "long-lines": _affine_text(1023, 2).encode(),
    "repeated-lines": _affine_text(64, 17).encode(),
}


@pytest.mark.parametrize("name, block", [
    (name, block) for name in sorted(FILES) for block in (1, 2, 3, 7, 16, 64, None)
    if name != "long-lines" or block in (64, None)   # 4 MB: not a few bytes a read
])
def test_streamed_file_reads_as_the_whole_text(tmp_path, monkeypatch, name, block):
    # read buffers of one byte up to the default cut every line, line end
    # and UTF-8 sequence at every place
    if block is not None:
        monkeypatch.setattr(iofmt, "READ_BLOCK_BYTES", block)
    path = tmp_path / "q.quandle"
    path.write_bytes(FILES[name])
    assert _outcome(cli._read_quandle, path) == _outcome(read_then_parse_quandle, path)


def test_streamed_errors_keep_their_messages(tmp_path):
    # the cases above by name: the first bad byte's file offset, and
    # the ragged row before the out-of-range entry
    path = tmp_path / "q.quandle"
    path.write_bytes(FILES["cut-sequence-before-newline"])
    with pytest.raises(QuandleError, match="invalid continuation byte at byte 30$"):
        cli._read_quandle(path)
    path.write_bytes(FILES["cut-sequence-at-end"])
    with pytest.raises(QuandleError, match=f"unexpected end of data at byte {len(AFF_8_5)}$"):
        cli._read_quandle(path)
    path.write_bytes(FILES["ragged-after-range"])
    with pytest.raises(QuandleError, match="has 2 entries"):
        cli._read_quandle(path)


@given(raw_bytes(QUANDLES), st.sampled_from([1, 2, 3, 16, None]))
@settings(max_examples=300, deadline=None)
def test_streamed_fuzzed_files_read_as_the_whole_text(data, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.quandle"
        path.write_bytes(data)
        saved = iofmt.READ_BLOCK_BYTES
        iofmt.READ_BLOCK_BYTES = block or saved
        try:
            assert _outcome(cli._read_quandle, path) == _outcome(read_then_parse_quandle, path)
        finally:
            iofmt.READ_BLOCK_BYTES = saved


def test_cli_reader_holds_no_text_of_the_file(tmp_path):
    # Aff(Z_1024, 257): a 4 MiB table from 4.2 MB of text; reading the
    # file whole held its bytes, then its text, beside the table
    path = tmp_path / "aff.quandle"
    with path.open("wb") as fh:
        write_affine(*_affine(1024, 257), fh)
    table = 1024 * 1024 * 4
    tracemalloc.start()
    try:
        q = cli._read_quandle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n == 1024 and q.array.nbytes == table
    assert peak < 2 * table, peak


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_reader_on_distinct_lines_holds_the_text_only_while_numbering(tmp_path):
    # Aff(Z_1023, 2): every line distinct, so the numbering keeps each
    # piece's bytes and its text, about twice the file; the text is gone
    # before the validation, whose own peak on the table then sets the
    # read's (reading the file whole peaked 8 MiB above it)
    path = tmp_path / "aff.quandle"
    path.write_bytes(_affine_text(1023, 2).encode())
    with path.open("rb") as fh:
        _, numbering = _traced_peak(lambda: iofmt._numbered_lines(fh))
    q, read = _traced_peak(lambda: cli._read_quandle(path))
    table = q.array.copy()
    _, validation = _traced_peak(lambda: core._validated(table))
    assert len(q.rows.first) == 1023
    assert numbering < 2.5 * path.stat().st_size, numbering
    assert read < table.nbytes + validation + (1 << 20), (read, validation)


# -- the writer --------------------------------------------------------------

@pytest.mark.parametrize("m, u", [(1, 0), (8, 5), (64, 5), (1024, 257), (1023, 2)])
def test_file_and_stdout_get_the_text_of_format_quandle(tmp_path, monkeypatch, m, u):
    # one bytes path: to the file, and to stdout's buffer after the text
    # printed before it
    group, f = _affine(m, u)
    path = tmp_path / "aff.quandle"
    cli._write_to(path, write_affine, group, f)
    text = _affine_text(m, u)
    assert path.read_bytes() == text.encode()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    cli._write_to(None, write_affine, group, f)
    print("after")
    stdout.flush()
    assert stdout.buffer.getvalue() == f"before\n{text}after\n".encode()


def test_table_goes_to_a_file_in_few_writes(tmp_path):
    # Aff(Z_1024, 257), about 4 MB: its 1,025 lines go in blocks of at
    # least 1 MiB, one write each
    calls = []

    class Counted(io.BytesIO):
        def write(self, data):
            calls.append(len(data))
            return super().write(data)

    sink = Counted()
    write_affine(*_affine(1024, 257), sink)
    assert sink.getvalue() == _affine_text(1024, 257).encode()
    assert len(calls) <= -(-len(sink.getvalue()) // (1 << 20)) + 1
    assert min(calls[:-1]) >= 1 << 20
