"""Random command-line inputs end with a documented exit code.

Affine specs, and quandle, partition and mesh files of at most six lines,
are valid inputs with a few tokens or lines mutated.  Integer tokens are
small or beyond 2^63.  The files are also written as raw bytes, valid ones
with a few byte strings spliced in: arbitrary bytes, or bytes on which
int() and the parser's numpy path could disagree.  Whatever the input,
main must return 0, 2, 3 or 4 and raise nothing.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.cli import main

from oracles import affine_table_mod

small = st.integers(-1, 5)
huge = st.sampled_from([2**63, 2**64 + 3, 10**22, -(2**63) - 1])
tokens = st.one_of(small, small, huge).map(str)


def _text(rows) -> str:
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


QUANDLES = [
    _text([[n]] + affine_table_mod(n, u))
    for n, u in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 2), (5, 3)]
] + ["3\n0 1 2\n0 1 2\n1 0 2\n"]
PARTITIONS = ["0\n1\n2\n", "0 2\n1 3\n", "0 1 2 3 4\n", "0 2 4\n1 3\n"]
MESHES = [
    "mesh 2\ngroup 0 2\ngroup 1 1\nc 1 0 1\n",
    "mesh 2\ngroup 0 3\ngroup 1 3\nc 0 1 1\nc 1 0 1\n",
    "mesh 1\ngroup 0 4\nphi 0 0 0 2 0 2\n",
    "mesh 1\ngroup 0 2x2\n",
]


@st.composite
def mutated(draw, texts):
    """One of the texts with up to three tokens or lines changed."""
    lines = [line.split() for line in draw(st.sampled_from(texts)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "copy", "extend"]))
        if kind == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(tokens)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "copy" and len(lines) < 6:
            lines.insert(i, list(lines[i]))
        elif kind == "extend":
            lines[i].append(draw(tokens))
    return _text(lines)


# bytes on which int() and a C conversion of a table row could disagree:
# not UTF-8, tab, carriage return, sign, underscore, negative zero, leading
# zeros, an Arabic-Indic digit that int() accepts, ten-digit and huge tokens
TRICKY = [b"\xff", b"\t", b"\r", b"+", b"_", b"-0", b"007", "\u0661".encode(),
           b"1234567890", b"99999999999999999999"]
spliced = st.one_of(
    st.binary(max_size=4),
    st.sampled_from(TRICKY),
    st.sampled_from([b" ", b"\n", b"0", b"1", b"2"]),
)


@st.composite
def raw_bytes(draw, texts):
    """One of the texts as bytes, with up to three spans (of 0 to 2 bytes)
    replaced by a drawn byte string."""
    data = draw(st.sampled_from(texts)).encode()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(i + 2, len(data))))
        data = data[:i] + draw(spliced) + data[j:]
    return data


affine_spec = st.tuples(
    st.lists(st.one_of(st.integers(1, 5).map(str), tokens), min_size=1, max_size=3)
    .map("x".join),
    st.one_of(
        tokens.map("mul:{}".format),
        st.lists(tokens, min_size=1, max_size=8).map(",".join),
    ),
).map(":".join)

commands = st.one_of(
    st.tuples(st.just(["affine"]), affine_spec),
    st.tuples(st.sampled_from([["analyze"], ["cover"]]), mutated(QUANDLES)),
    st.tuples(st.just(["quotient"]), mutated(QUANDLES), mutated(PARTITIONS)),
    st.tuples(
        st.sampled_from([["mesh", c] for c in ("validate", "sum", "coset", "semireg")]),
        mutated(MESHES),
    ),
)


raw_commands = st.one_of(
    st.tuples(st.sampled_from([["analyze"], ["cover"]]), raw_bytes(QUANDLES)),
    st.tuples(st.just(["quotient"]), raw_bytes(QUANDLES), raw_bytes(PARTITIONS)),
    st.tuples(
        st.sampled_from([["mesh", c] for c in ("validate", "sum", "coset", "semireg")]),
        raw_bytes(MESHES),
    ),
)


def _exit_code(command) -> tuple[int, str]:
    argv, *args = command
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["affine"]:
            argv = argv + args
        else:
            for i, content in enumerate(args):
                path = Path(tmp) / f"input{i}"
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(content)
                argv = argv + [str(path)]
        if argv[0] == "cover":
            argv = argv + ["--out", tmp]
        # stdout as the process has it: text over a binary buffer, which
        # the table writers write to
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an option-like spec
                code = exc.code
    return code, f"{argv} {err.getvalue()}"


@given(commands)
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_on_random_inputs(command):
    code, context = _exit_code(command)
    assert code in (0, 2, 3, 4), context


@given(raw_commands)
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_on_random_bytes(command):
    code, context = _exit_code(command)
    assert code in (0, 2, 3, 4), context
