"""Text formats: quandle tables, partitions, mesh files, affine specs.

All formats are line oriented; comment lines start with '#'.
"""

from __future__ import annotations

import io
from itertools import accumulate, chain

import numpy as np

from .affine import one_minus_f_images
from .core import Partition, Quandle, _as_int32, _validated
from .errors import InvalidParams, ParseError
from .groups import (
    AbelianGroup,
    GroupAutomorphism,
    _check_table_limit,
    make_cyclic_product,
    multiplication_automorphism,
    validate_automorphism,
)
from .mesh import AffineMesh, _validated_mesh


# A file is read through a buffer of READ_BLOCK_BYTES (cli._read).  A table
# file is written in blocks of at least WRITE_BLOCK_BYTES, one write each,
# and keeps its formatted lines while they fit LINE_CACHE_BYTES.
READ_BLOCK_BYTES = 1 << 18
WRITE_BLOCK_BYTES = 1 << 20
LINE_CACHE_BYTES = 1 << 26

# A line is looked up by its first FINGERPRINT characters (bytes, when read
# from a file) before the whole of it is compared.
FINGERPRINT = 48


def _lines(text: str):
    """The lines of text, each with its "\n" (the last maybe without),
    sliced from it one at a time."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _numbered_pieces(source) -> tuple[list[str], list[int]]:
    """The distinct lines of the text, each with its "\n", by first
    occurrence, and the number of every line in order.  The source is a
    str, or a binary file whose own readline splits it: only the distinct
    lines are kept, each decoded once as UTF-8, so repeated lines are held
    once, but a file of distinct lines is held twice until the numbering
    ends, as the lines' bytes and as their text.  A line is looked up by
    its first FINGERPRINT characters (bytes), and the match, the last line
    seen with them, is confirmed by comparing the two; only a line not
    confirmed is hashed whole."""
    binary = not isinstance(source, str)
    raw: list = []   # the distinct lines as read, str or bytes
    pieces: list[str] = []
    which: list[int] = []
    by_print: dict = {}   # start -> number
    by_piece: dict = {}
    at = 0   # the file offset of the line
    for line in source if binary else _lines(source):
        key = line[:FINGERPRINT]
        j = by_print.get(key)
        if j is None or raw[j] != line:
            j = by_piece.setdefault(line, len(raw))
            if j == len(raw):
                raw.append(line)
                pieces.append(_decoded(line, at) if binary else line)
            by_print[key] = j
        which.append(j)
        at += len(line)
    return pieces, which


def _decoded(line: bytes, at: int) -> str:
    """The UTF-8 text of a line of a file, found at its offset at.  A line
    that is not UTF-8 raises the UnicodeDecodeError that decoding the whole
    file would, at file offsets: no UTF-8 sequence holds the "\n"."""
    try:
        return line.decode()
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError("utf-8", line, at + exc.start, at + exc.end,
                                 exc.reason) from None


def _numbered_lines(source) -> tuple[list[str], set[int], list[int]]:
    """The distinct data lines of the text, by first occurrence, the numbers
    of those that were a plain row (_plain_row) as a whole piece, and the
    number of every data line in order.  The data lines are those of
    str.splitlines, stripped, that are neither blank nor '#' comments, and
    each distinct piece of _numbered_pieces is read once: a plain row is
    one data line (less its closing "\n" and "\r"); any other piece is
    split into lines, stripped and filtered."""
    pieces, which = _numbered_pieces(source)
    number: dict[str, int] = {}
    plain: set[int] = set()
    ids_of: list[list[int]] = []   # the line numbers of each piece
    for piece in pieces:
        if _plain_row(row := piece.removesuffix("\n")):
            j = number.setdefault(row.rstrip("\r"), len(number))
            plain.add(j)
            ids_of.append([j])
        else:
            ids_of.append([number.setdefault(line, len(number))
                           for raw in piece.splitlines()
                           if (line := raw.strip()) and not line.startswith("#")])
    ids = list(chain.from_iterable(map(ids_of.__getitem__, which)))
    return list(number), plain, ids


def _data_lines(source) -> list[str]:
    """The data lines of a text or binary file, in order (see _numbered_lines)."""
    lines, _, ids = _numbered_lines(source)
    return [lines[j] for j in ids]


def _ints(line: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {line!r}") from exc


# Each byte of an ASCII row as _plain_row reads it: a digit as "0", the
# space as itself, any other byte as "x".
_ROW_BYTES = bytes(48 if 48 <= b <= 57 else b if b == 32 else 120 for b in range(256))


def _plain_row(piece: str) -> bool:
    """Whether piece is a table row that one C call converts exactly as
    _ints would: ASCII decimal tokens of 1 to 9 digits, one space between
    two of them; as a piece of text, it may end in the "\r" of a "\r\n".
    A translation and three substring searches read it, with no
    backtracking: it starts and ends in a digit and holds no other byte,
    no two spaces and no ten digits in a row."""
    if piece.endswith("\r"):
        piece = piece[:-1]
    if not piece.isascii():
        return False
    shape = piece.encode().translate(_ROW_BYTES)
    return (shape[:1] == shape[-1:] == b"0" and b"x" not in shape
            and b"  " not in shape and b"0" * 10 not in shape)


def parse_quandle(source) -> Quandle:
    """Line 1: n; then n rows of n entries (row a = a*b for b = 0..n-1).
    The source is the text, or a binary file read line by line (a file
    that is not UTF-8 raises UnicodeDecodeError at its first bad byte).
    Once the rows are counted, a table over the 1 GiB limit is refused
    (TooLarge) before it is allocated.

    Each distinct table line is converted once, into its first row of a
    preallocated int32 table and, in one more call, into its other rows,
    so the parse holds one table and no copy of it, nor the text.  The
    numbering of the lines goes to the validation, so that its range check
    and the numbering of the table's rows read one row per distinct line.
    A plain row of n in-range entries is converted in one numpy call; any
    other line takes the per-token path, which alone raises the
    ParseErrors, in file order: a ragged or non-integer row anywhere comes
    before the first out-of-range entry."""
    lines, plain, ids = _numbered_lines(source)
    if not ids:
        raise ParseError("empty quandle file")
    header = _ints(lines[ids[0]])
    if len(header) != 1 or header[0] < 1:
        raise ParseError(f"bad size line {lines[ids[0]]!r}")
    n = header[0]
    if len(ids) != n + 1:
        raise ParseError(f"expected {n} table rows, got {len(ids) - 1}")
    _check_table_limit(n, "quandle order", "table")
    number: dict[int, int] = {}   # line -> its number among the rows
    which = np.array([number.setdefault(j, len(number)) for j in ids[1:]])
    count = np.bincount(which)
    order = np.argsort(which, kind="stable")   # the rows of each number in turn
    start = np.cumsum(count) - count
    first = order[start]   # the first row of each number
    table = np.empty((n, n), dtype=np.int32)
    out_of_range = None
    for j, a, lo, c in zip(number, first.tolist(), start.tolist(), count.tolist()):
        line = lines[j]
        row = None
        if j in plain or _plain_row(line):
            row = np.fromstring(line, dtype=np.int64, sep=" ")
            if len(row) != n or row.max() >= n:
                row = None
        if row is None:
            row = _ints(line)
            if len(row) != n:
                raise ParseError(f"row {line!r} has {len(row)} entries, expected {n}")
            if out_of_range is None and not (0 <= min(row) and max(row) < n):
                x = next(x for x in row if not 0 <= x < n)
                out_of_range = f"entry {x} in row {a} out of range 0..{n - 1}"
            if out_of_range is not None:
                continue
        table[a] = row
        if c > 1:
            table[order[lo + 1:lo + c]] = row
    if out_of_range is not None:
        raise ParseError(out_of_range)
    del lines   # the text is not held through the validation
    return _validated(table, (first, which))


def _tokens(n: int) -> np.ndarray:
    """The decimal strings of 0..n-1, as an object array: a gather from it
    makes no integer objects."""
    return np.array([str(i) for i in range(n)], dtype=object)


def _write_table(fh, n: int, row, which) -> None:
    """Write the size line n, then row(k), a permutation of 0..n-1, for
    each k in which, to the binary file fh.  Every line then has the same
    length, so the rows go in blocks of one count, at least
    WRITE_BLOCK_BYTES bytes, one write each.  A distinct row is formatted
    by gathering its entries from the n decimal strings (_tokens), and
    kept, as bytes, while the kept lines fit LINE_CACHE_BYTES; one past
    that is formatted once per block that has it."""
    tok = _tokens(n)
    size = len(" ".join(tok.tolist())) + 1
    step, keep = -(-WRITE_BLOCK_BYTES // size), LINE_CACHE_BYTES // size
    lines: dict[int, bytes] = {}   # the kept lines, and the block's others
    kept = 0
    out = [b"%d\n" % n]
    for lo in range(0, len(which), step):
        block = which[lo:lo + step].tolist()
        fresh = [k for k in dict.fromkeys(block) if k not in lines]
        for k in fresh:
            lines[k] = (" ".join(tok[row(k)].tolist()) + "\n").encode()
        out += map(lines.__getitem__, block)
        fh.write(b"".join(out))
        out = []
        stay = min(len(fresh), keep - kept)
        kept += stay
        for k in fresh[stay:]:
            del lines[k]


def write_quandle(q: Quandle, fh) -> None:
    """Write a quandle table to a binary file, as UTF-8 text: its size,
    then one line per row.  Equal rows share one formatted line."""
    first = q.rows.first
    _write_table(fh, q.n, lambda k: q.array[first[k]], q.rows.which)


def format_quandle(q: Quandle) -> str:
    """The text write_quandle writes, as one string."""
    out = io.BytesIO()
    write_quandle(q, out)
    return out.getvalue().decode()


def parse_partition(source, n: int | None = None) -> Partition:
    """One block per line, space-separated elements; the source is the
    text or a binary file."""
    lines = _data_lines(source)
    if not lines:
        raise ParseError("empty partition file")
    blocks = [_ints(line) for line in lines]
    try:
        p = Partition.from_blocks(blocks)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if n is not None and p.n != n:
        raise ParseError(f"partition covers {p.n} elements, quandle has {n}")
    return p


def parse_moduli(token: str) -> tuple[int, ...]:
    try:
        moduli = tuple(int(t) for t in token.split("x"))
    except ValueError as exc:
        raise ParseError(f"bad moduli spec {token!r}") from exc
    if not moduli or any(m < 1 for m in moduli):
        raise ParseError(f"bad moduli spec {token!r}")
    return moduli


def parse_affine_spec(spec: str) -> tuple[AbelianGroup, GroupAutomorphism]:
    """'<m1>x<m2>x...:<automorphism>' where the automorphism is either
    'mul:<u>' (single cyclic factor) or a comma-separated image list."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ParseError("affine spec needs '<moduli>:<automorphism>'")
    group = make_cyclic_product(parse_moduli(head))
    if rest.startswith("mul:"):
        try:
            u = int(rest[4:])
        except ValueError as exc:
            raise ParseError(f"bad multiplier {rest!r}") from exc
        if group.moduli is None or len(group.moduli) != 1:
            raise ParseError("'mul:' needs a single cyclic factor")
        return group, multiplication_automorphism(group, u)
    try:
        images = [int(t) for t in rest.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad image list {rest!r}") from exc
    if len(images) != group.order:
        raise ParseError(
            f"image list has {len(images)} entries, group has order {group.order}"
        )
    return group, validate_automorphism(group, images)


def parse_mesh(source) -> AffineMesh:
    """Mesh file: 'mesh <k>'; 'group <i> <moduli>'; optional 'phi <i> <j>
    <images...>' (default zero map); optional 'c <i> <j> <element>'.  The
    source is the text or a binary file."""
    lines = _data_lines(source)
    if not lines or not lines[0].startswith("mesh"):
        raise ParseError("mesh file must start with 'mesh <k>'")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad mesh header {lines[0]!r}")
    try:
        k = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad mesh header {lines[0]!r}") from exc
    if k < 1:
        raise ParseError("mesh needs at least one index")
    groups: dict[int, AbelianGroup] = {}
    phi_entries: dict[tuple[int, int], list[int]] = {}
    c_entries: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        toks = line.split()
        kind = toks[0]
        if kind == "group":
            if len(toks) != 3:
                raise ParseError(f"bad group line {line!r}")
            i = _index(toks[1], k)
            groups[i] = make_cyclic_product(parse_moduli(toks[2]))
        elif kind == "phi":
            if len(toks) < 4:
                raise ParseError(f"bad phi line {line!r}")
            i, j = _index(toks[1], k), _index(toks[2], k)
            phi_entries[(i, j)] = _ints(" ".join(toks[3:]))
        elif kind == "c":
            if len(toks) != 4:
                raise ParseError(f"bad c line {line!r}")
            i, j = _index(toks[1], k), _index(toks[2], k)
            c_entries[(i, j)] = _ints(toks[3])[0]
        else:
            raise ParseError(f"unknown mesh line {line!r}")
    for i in range(k):  # ends at the first index without a line, however large k is
        if i not in groups:
            raise ParseError(f"missing 'group {i}' line")
    o = [0, *accumulate(groups[i].order for i in range(k))]
    _check_table_limit(o[-1], "mesh size", "map matrix", k)
    _check_table_limit(k, "mesh index count", "constant matrix", 2 * k)  # int64: 2 int32s
    P, C = np.zeros((o[-1], k), dtype=np.int32), np.zeros((k, k), dtype=np.int64)
    short = np.zeros((k, k), dtype=bool)
    for (i, j), images in phi_entries.items():
        try:
            images = _as_int32(images)
        except OverflowError:  # an image that no int32 holds is no element
            raise InvalidParams("phi maps outside its target group") from None
        short[i, j] = len(images) != groups[i].order
        if not short[i, j]:
            P[o[i]:o[i + 1], j] = images
    for (i, j), x in c_entries.items():
        C[i, j] = x if x in range(groups[j].order) else -1  # -1: no element, even beyond int64
    return _validated_mesh(AffineMesh.from_arrays([groups[i] for i in range(k)], P, C), short)


def _index(tok: str, k: int) -> int:
    try:
        i = int(tok)
    except ValueError as exc:
        raise ParseError(f"bad index {tok!r}") from exc
    if not 0 <= i < k:
        raise ParseError(f"index {i} out of range 0..{k - 1}")
    return i


def format_mesh(mesh: AffineMesh) -> str:
    """The mesh file, nonzero cells read off P and C.  A group without
    moduli has no 'group' line, so it is refused with ValueError."""
    lines = [f"mesh {mesh.k}"]
    for i, g in enumerate(mesh.groups):
        if g.moduli is None:
            raise ValueError(f"group {i} is not a product of cyclic groups")
        lines.append(f"group {i} " + "x".join(map(str, g.moduli)))
    o = mesh.offsets.tolist()
    for i, j in np.argwhere(np.logical_or.reduceat(mesh.P != 0, o[:-1], axis=0)).tolist():
        lines.append(f"phi {i} {j} " + " ".join(map(str, mesh.P[o[i]:o[i + 1], j].tolist())))
    lines += [f"c {i} {j} {mesh.C[i, j]}" for i, j in np.argwhere(mesh.C).tolist()]
    return "\n".join(lines) + "\n"


def write_affine(group: AbelianGroup, f: GroupAutomorphism, fh) -> None:
    """Write Aff(A,f) to a binary file, byte for byte as
    write_quandle(make_affine(group, f).quandle, fh) would, without building
    the table: row u is w(u) + f(v) over v, with w = (1-f)(u), so there is
    one distinct row per distinct value of w."""
    values, which = np.unique(one_minus_f_images(group, f), return_inverse=True)
    _write_table(fh, group.order, lambda k: group.plus(values[k], f.images), which)


def format_cover_sidecar(result) -> str:
    """Per A-element: index, (alpha-index, T-index), f image, psi image,
    the numbers gathered from the decimal strings (_tokens) at once."""
    u = np.arange(result.group.order)
    columns = np.column_stack([u, *result.pair_of(u), result.f.images, result.psi])
    lines = [
        "# columns: element alpha_index t_index f_image psi_image",
        f"# |A|={result.group.order} |T|={result.transversal.size} "
        f"kappa={result.transversal.kappa}",
        *map(" ".join, _tokens(int(columns.max()) + 1)[columns].tolist()),
    ]
    return "\n".join(lines) + "\n"
