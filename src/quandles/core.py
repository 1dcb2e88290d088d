"""Finite quandles as multiplication tables over elements 0..n-1.

A quandle is an idempotent binary structure in which every left translation
L_a : b -> a*b is an automorphism.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotACongruence,
    NotIdempotent,
    NotLeftDistributive,
    RowNotBijective,
)

# Largest temporary, in entries, that a table or mesh check builds at once.
CHUNK_ENTRIES = 1 << 20


def _chunks(start: int, stop: int, width: int):
    """(lo, hi) runs of start..stop-1, at most CHUNK_ENTRIES // width long
    (at least one), so that a (hi - lo, width) temporary stays in a chunk;
    a check that stops at its first failure takes them via _first_failure."""
    step = max(1, CHUNK_ENTRIES // max(1, width))
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _first_failure(mismatch, rows: int, width: int) -> tuple[int, ...] | None:
    """The first index in row-major order at which the mask mismatch(lo, hi)
    of rows lo..hi-1 holds, lo added to its row, or None: rows 0..rows-1
    are taken in _chunks of width entries a row, up to the first failing one."""
    for lo, hi in _chunks(0, rows, width):
        bad = mismatch(lo, hi)
        if bad.any():
            row, *rest = np.argwhere(bad)[0].tolist()
            return lo + row, *rest
    return None


def _hom_failure(r: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[int, int] | None:
    """The first (b, c) in row-major order with r[src[b, c]] != dst[r[b], r[c]],
    or None if the map r is a homomorphism from the table src to the table
    dst.  Rows b are taken in chunks of at most CHUNK_ENTRIES products."""
    return _first_failure(lambda lo, hi: r.take(src[lo:hi])
                          != dst.take(r[lo:hi], axis=0).take(r, axis=1), len(r), len(r))


def _reach(maps: np.ndarray, reached: np.ndarray, frontier) -> None:
    """Mark in the mask ``reached`` the frontier and everything it leads to
    under the rows of maps (each a map of 0..n-1): a search that applies
    the maps to the elements newly marked only."""
    while frontier.size:
        fresh = np.zeros(len(reached), dtype=bool)
        fresh[frontier] = True
        new = (fresh > reached).nonzero()[0]
        reached[new] = True
        frontier = maps.take(new, axis=1).ravel()


def _generators(n: int, map_of, reached=()) -> list[int]:
    """The greedy generating walk over 0..n-1 from the elements reached:
    each x, ascending, not yet reached becomes a generator, and _reach
    marks what x and the reached set's images under map_of(x) (which may
    raise) lead to under all generators' maps (the old ones close it)."""
    mask = np.zeros(n, dtype=bool)
    mask[list(reached)] = True
    gens, maps = [], []
    while not mask.all():
        x = int(mask.argmin())
        maps.append(map_of(x))
        gens.append(x)
        _reach(np.array(maps), mask, np.append(maps[-1][mask], x))
    return gens


def _first_non_integer(arr: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry of arr that is not an integer, or None.  A
    number is one when it equals its floor; an integer array is not looked
    at, and one with no floor (strings, None) holds no integers."""
    if arr.dtype.kind in "iub":
        return None
    try:
        bad = np.floor(arr) != arr
    except TypeError:
        bad = np.ones(arr.shape, dtype=bool)
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def _as_int32(values) -> np.ndarray:
    """values as an int32 array.  A value that is not an integer raises
    TypeError; an integer out of int32 range raises OverflowError, from an
    array as from a Python int, instead of wrapping."""
    arr = np.asarray(values)
    if (at := _first_non_integer(arr)) is not None:
        raise TypeError(f"{arr[at]} is not an integer")
    if arr.size and arr.dtype != np.int32 and (arr.min() < -2**31 or arr.max() >= 2**31):
        raise OverflowError("value out of int32 range")
    return arr.astype(np.int32, copy=False)


@dataclass(frozen=True, eq=False)
class Quandle:
    """A finite quandle; a table from outside comes in via validate_quandle.

    The only stored field is ``array``, the table as a read-only
    C-contiguous int32 array, a*b at ``array[a, b]``; such an array is
    taken over without a copy.  Equality compares its shape and bytes,
    hashing its bytes.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.int32, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quandle):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    @property
    def n(self) -> int:
        return len(self.array)

    @cached_property
    def rows(self) -> RowSet:
        """The distinct left translations L_a, numbered by first occurrence;
        validation fills it in, and every reader of Q's rows shares it."""
        return RowSet(self.array)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering 0..n-1, canonically ordered.

    Blocks are sorted ascending internally and listed in order of their
    minimum element.
    """

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1]))
        if not all(canon):
            raise ValueError("empty block")
        elems = [x for b in canon for x in b]
        if len(set(elems)) != len(elems):
            raise ValueError("blocks are not disjoint or repeat an element")
        if set(elems) != set(range(len(elems))) or not elems:
            raise ValueError("blocks do not cover 0..n-1")
        return Partition(tuple(tuple(map(int, b)) for b in canon))  # 1.0 passed as 1

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return tuple(out)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _check_table(table, first=None) -> np.ndarray:
    """Shape, integer entries, range and idempotence, first witness each;
    the range is read on the rows ``first`` only, if given (every other
    row equals one of them).

    Returns the table as an int32 array.
    """
    rows = table if isinstance(table, np.ndarray) else list(table)
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise ValueError(f"table of shape {rows.shape} is not two-dimensional")
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    if isinstance(rows, np.ndarray):   # every row has shape[1] entries
        bad = None if rows.shape[1] == n else 0
    else:
        bad = next((a for a, row in enumerate(rows)
                    if not hasattr(row, "__len__") or len(row) != n), None)
    # an out-of-range entry in a row before the first bad one comes first
    arr = np.asarray(rows[:bad])
    if arr.ndim > 2:   # rows of lists
        raise ValueError(f"table of shape {arr.shape} is not two-dimensional")
    arr = arr.reshape(-1, n)
    if (at := _first_non_integer(arr)) is not None:
        raise ValueError(f"entry {arr[at]} in row {at[0]} is not an integer")
    read = arr if first is None else arr[first]
    if read.size and (read.min() < 0 or read.max() >= n):
        a, b = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise ValueError(f"entry {arr[a, b]} in row {a} out of range 0..{n - 1}")
    if bad is not None:
        if not hasattr(rows[bad], "__len__"):
            raise ValueError(f"row {bad} is not a sequence")
        raise ValueError(f"row {bad} has length {len(rows[bad])}, expected {n}")
    arr = arr.astype(np.int32, copy=False)
    wrong = np.flatnonzero(np.diagonal(arr) != np.arange(n))
    if wrong.size:
        raise NotIdempotent(int(wrong[0]))
    return arr


def validate_quandle(table) -> Quandle:
    """Check idempotence, row bijectivity and left self-distributivity.

    Both row checks depend only on the row L_a, so each distinct row is
    checked at most once, at the first index of its row, in ascending
    order: the first failure is at the least failing a.  "a*(b*c) =
    (a*b)*(a*c) for all b, c" says that L_a is an endomorphism, that is
    L_a L_b = L_{a*b} L_a for every b (Joyce 1982).  Over the d distinct
    rows this is (i) the row class of a*b depends on the class of b only,
    and (ii) L_a R = R' L_a for each distinct row R, R' the row of a*b
    for b behind R: d*n entries a row, d^2*n at most in all.  A row known
    to be an automorphism needs no check: if L_a and L_b are, so is
    L_{a*b} = L_a L_b L_a^-1.  The witness of the least failing a is
    _hom_failure's lexicographically first (b, c).
    The Quandle shares no memory with the caller's array, which stays
    writeable: an int32 array, which the check would take over, is
    copied first; any other is converted.
    """
    if isinstance(table, np.ndarray) and table.dtype == np.int32:
        table = table.copy()
    return _validated(table)


def _class_map(arr: np.ndarray, first: np.ndarray, which: np.ndarray,
               r: np.ndarray) -> np.ndarray | None:
    """For a bijective row r = L_a of the table arr, whose distinct rows
    are arr[first] and row numbers which: the map k of row classes, class
    of b -> class of a*b, if L_a is an endomorphism, else None.  Checks
    (i) which[a*b] = k[which[b]] for every b, then (ii) r o R_j = R_k[j] o r
    for each distinct row R_j, in chunks of rows (_first_failure)."""
    k = which[r[first]]
    if not np.array_equal(which[r], k[which]):
        return None
    fails = _first_failure(lambda lo, hi: r.take(arr[first[lo:hi]])
                           != arr[first[k[lo:hi]]].take(r, axis=1), len(first), len(r))
    return k if fails is None else None


def _validated(table, classes=None) -> Quandle:
    """The checks of validate_quandle, returning the Quandle with its rows
    numbered; an int32 table is taken over uncopied.  It checks tables
    from outside (validate_quandle, iofmt.parse_quandle) only: a table
    the library builds from checked parts is a quandle by construction.
    ``classes`` (first, which) numbers rows known to be equal, such as
    the rows of one line of a file, so that the range check reads and
    RowSet sorts one row per number.

    Distributivity is checked on the row classes j that _generators
    walks to, in ascending order (the order of ``first``), under the class
    maps k of the checked rows (k[j] = j by idempotence): a class it
    reaches has an automorphism row, since a*b has one when a and b do.
    _hom_failure runs only on the failing row."""
    arr = _check_table(table, None if classes is None else classes[0])
    q = Quandle(arr)
    if classes is not None:
        q.__dict__["rows"] = RowSet(arr, classes)
    first, which, n = q.rows.first, q.rows.which, q.n

    def not_bijective(lo, hi):   # distinct rows sorted per chunk, in place
        rows = arr[first[lo:hi]]
        rows.sort(axis=1)
        return (rows != np.arange(n)).any(axis=1)

    if (wrong := _first_failure(not_bijective, len(first), n)) is not None:
        raise RowNotBijective(int(first[wrong[0]]))

    def class_map(j: int) -> np.ndarray:
        k = _class_map(arr, first, which, arr[first[j]])
        if k is None:
            raise NotLeftDistributive(int(first[j]), *_hom_failure(arr[first[j]], arr, arr))
        return k

    _generators(len(first), class_map)
    return q


def _element_set(q: Quandle, subset) -> np.ndarray:
    """Distinct elements of subset, ascending, checked to be integers (a
    fraction or a string is refused, not truncated or parsed) in 0..n-1."""
    try:
        elems = _as_int32(list(subset))
    except TypeError as exc:
        raise ValueError(f"subset element {exc}") from None
    except OverflowError:
        raise ValueError(f"subset element outside 0..{q.n - 1}") from None
    if elems.ndim != 1:
        raise ValueError("subset is not a list of elements")
    elems = np.unique(elems)
    bad = elems[(elems < 0) | (elems >= q.n)]
    if bad.size:
        raise ValueError(f"element {int(bad[0])} outside 0..{q.n - 1}")
    return elems


def quotient(q: Quandle, p: Partition) -> Quandle:
    """Quandle on the blocks of a congruence, labeled by block order.

    With rows and columns in block order, block_of[a*b] must equal its
    block x block rectangle's corner entry; the corners form the quotient,
    unchecked: the block map is a homomorphism onto them, and their rows
    are onto, so bijective.  Else the witness is the first in (block I,
    a, a2 in I, block J, b, b2 in J) loop order: I is the block of the
    first row off its corners, and its corner row a = I[0] already fails
    against some a2.
    """
    if p.n != q.n:
        raise ValueError(f"partition of {p.n} elements for a quandle of order {q.n}")
    sizes = p.sizes()
    starts = np.cumsum([0, *sizes[:-1]])
    order = np.concatenate(p.blocks)
    b = np.asarray(p.block_of, dtype=np.int32)[q.array[np.ix_(order, order)]]
    corner = b[np.ix_(starts, starts)]
    off = b != np.repeat(np.repeat(corner, sizes, axis=0), sizes, axis=1)
    off_rows = np.flatnonzero(off.any(axis=1))
    if not off_rows.size:
        return Quandle(corner)
    i = p.block_of[order[off_rows[0]]]
    rows = slice(starts[i], starts[i] + sizes[i])           # a2 in I
    fails = np.logical_or.reduceat(off[rows] | off[starts[i]], starts, axis=1)
    a2, j = map(int, np.argwhere(fails)[0])
    cols = slice(starts[j], starts[j] + sizes[j])           # b, b2 in J
    x, y = map(int, np.argwhere(b[starts[i], cols][:, None] != b[starts[i] + a2, cols])[0])
    bi, bj = p.blocks[i], p.blocks[j]
    raise NotACongruence(bi[0], bi[a2], bj[x], bj[y])


def induced_subquandle(q: Quandle, subset) -> Quandle:
    """Restrict to a nonempty subset closed under * (relabeled in
    ascending order), unchecked: each row maps it into itself
    injectively, so onto it."""
    elems = _element_set(q, subset)
    if not elems.size:
        raise ValueError("empty table")
    sub = q.array[np.ix_(elems, elems)]
    pos = np.searchsorted(elems, sub).clip(max=len(elems) - 1)
    outside = elems[pos] != sub
    if outside.any():
        i, j = map(int, np.argwhere(outside)[0])
        raise ValueError(f"subset not closed: {elems[i]}*{elems[j]} = {sub[i, j]}")
    return Quandle(pos)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of an int32 array as one opaque scalar, so
    that whole rows sort, search and compare as single values."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    if not rows.shape[-1]:  # rows of width 0: one empty key each
        return np.zeros(rows.shape[:-1], dtype=np.dtype((np.void, 0)))
    return rows.view(np.dtype((np.void, 4 * rows.shape[-1])))[..., 0]


class RowSet:
    """The distinct rows (last axis) of a nonempty 2-d int32 array,
    numbered by first occurrence: ``first`` holds each distinct row's first
    index, ascending, ``which`` the number of every row (both read-only),
    and ``index_of`` numbers rows of any leading shape, -1 for a row not in
    the set.  The rows are argsorted once as byte keys (_row_keys, a view
    of int32 rows), so beyond them a RowSet keeps O(rows) integers.

    ``classes``, if given, is a numbering (first, which) of the same form
    in which equal numbers mean equal rows but equal rows may have
    different numbers; then only the rows ``first`` are sorted, one key per
    number, and every row takes its place in the order from its number."""

    def __init__(self, rows: np.ndarray, classes=None):
        self._keys = _row_keys(rows)
        if classes is not None and len(classes[0]) == len(self._keys):
            classes = None   # every row its own number: sort them all
        keys = self._keys if classes is None else self._keys[classes[0]]
        order = np.argsort(keys, kind="stable")
        new = np.ones(len(order), dtype=bool)   # starts a run of equal keys
        for lo, hi in _chunks(1, len(new), rows.shape[-1]):
            run = keys[order[lo - 1:hi]]
            new[lo:hi] = run[1:] != run[:-1]
        at = order[new]   # the least index of each run, the sort being stable
        first = np.sort(at)
        which = np.empty(len(new), dtype=np.int32)
        which[order] = np.searchsorted(first, at)[np.cumsum(new) - 1]
        if classes is None:
            self._order = order
        else:   # from the sorted keys to all rows, number by number
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
            self._order = np.argsort(rank[classes[1]], kind="stable")
            first, which = np.asarray(classes[0])[first], which[classes[1]]
        self.first, self.which = first, which
        self.first.setflags(write=False)
        self.which.setflags(write=False)

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        keys = _row_keys(rows)
        pos = np.searchsorted(self._keys, keys, sorter=self._order)
        hit = self._order[pos.clip(max=len(self._order) - 1)]
        return np.where(self._keys[hit] == keys, self.which[hit], np.int32(-1))


def _partition(labels: np.ndarray) -> Partition:
    """The Partition into the classes of equal label, for labels ordered
    as their classes' least elements are (then the blocks come out
    canonical): a stable argsort, split where the label changes."""
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    elems = order.tolist()
    return Partition(tuple(tuple(elems[lo:hi]) for lo, hi in zip(cuts, cuts[1:])))


def connectivity_orbits(q: Quandle) -> Partition:
    """Orbit partition of LMlt(Q), the components of x ~ a*x: each round a
    label drops to the least label of its images and preimages under the
    distinct rows, then to its label's label, until no label changes."""
    rows = q.array[q.rows.first]
    rows = np.concatenate([rows, np.argsort(rows, axis=1)])
    label = np.arange(q.n)
    while True:
        new = np.minimum(label, label[rows].min(axis=0))
        new = new[new]
        if np.array_equal(new, label):
            return _partition(label)   # each label is its orbit's least element
        label = new


def _cycle_type(images: list[int]) -> tuple[int, ...]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _profiles(q: Quandle, rows: list[list[int]]) -> tuple[list[tuple], Partition]:
    """Each element's profile (its row's cycle type, its orbit's size) and the orbits."""
    orb = connectivity_orbits(q)
    return [(_cycle_type(rows[a]), len(orb.blocks[orb.block_of[a]])) for a in range(q.n)], orb


def _extend(t1: list, t2: list, gens: list[int], b: int, sigma: list[int],
            inv: list[int], mapped: list[int]) -> bool:
    """Map the last of gens to b and extend sigma (inverse inv) from what
    the others generate over what all do, by sigma(x*y) = sigma(x)*sigma(y)
    for x in gens: _reach's search, carrying values, appending to mapped.
    False on a clash or an image taken twice."""
    x = gens[-1]
    frontier = [(x, b)] + [(t1[x][y], t2[b][sigma[y]]) for y in mapped]
    while frontier:
        start = len(mapped)
        for z, v in frontier:
            if sigma[z] < 0 and inv[v] < 0:
                sigma[z], inv[v] = v, z
                mapped.append(z)
            elif sigma[z] != v:
                return False
        frontier = [(t1[g][y], t2[sigma[g]][sigma[y]]) for y in mapped[start:] for g in gens]
    return True


def is_isomorphic(q1: Quandle, q2: Quandle) -> tuple[int, ...] | None:
    """Search for an element bijection preserving *, or return None.

    A homomorphism is fixed by its values on generators, so the search
    backtracks over unused images of q1's generators (_generators) with
    equal profiles, one stack level each, and _extend carries sigma over
    what they generate.  The first one tries only the least element of
    each orbit of q2, where inner automorphisms move its image.  A full
    sigma is confirmed with _hom_failure.
    """
    if q1.n != q2.n:
        return None
    t1, t2 = q1.array.tolist(), q2.array.tolist()
    (prof1, _), (prof2, orb2) = _profiles(q1, t1), _profiles(q2, t2)
    if sorted(prof1) != sorted(prof2):
        return None
    gens = _generators(q1.n, q1.array.__getitem__)
    images: dict[tuple, list[int]] = {}
    for b, p in enumerate(prof2):
        images.setdefault(p, []).append(b)
    sigma, inv, mapped = [-1] * q1.n, [-1] * q1.n, []
    # one level per chosen generator: its candidates, and len(mapped) below it
    stack = [(iter([o[0] for o in orb2.blocks if prof2[o[0]] == prof1[0]]), 0)]
    while stack:
        cands, start = stack[-1]
        for y in mapped[start:]:   # unmap this level's last image
            inv[sigma[y]] = -1
            sigma[y] = -1
        del mapped[start:]
        b = next((b for b in cands if inv[b] < 0), None)
        if b is None:
            stack.pop()
        elif not _extend(t1, t2, gens[:len(stack)], b, sigma, inv, mapped):
            continue
        elif len(stack) < len(gens):
            stack.append((iter(images[prof1[gens[len(stack)]]]), len(mapped)))
        elif _hom_failure(np.asarray(sigma), q1.array, q2.array) is None:
            return tuple(sigma)
    return None
