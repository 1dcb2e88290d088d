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

# The self-distributivity check (d*n^2 products for d distinct rows) is
# skipped above this size for tables that are correct by construction
# (affine tables); validate_quandle itself always runs it.
FULL_VALIDATE_LIMIT = 512


@dataclass(frozen=True, eq=False)
class Quandle:
    """A validated finite quandle.  Construct via :func:`validate_quandle`.

    The only stored field is ``array``, a read-only C-contiguous int32 copy
    of the table; equality compares its shape and bytes, hashing its bytes.
    ``table`` and ``row()`` are a lazily cached tuple view for code that
    walks small tables element by element.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.int32, order="C")
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
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def ldiv_table(self) -> np.ndarray:
        """ldiv_table[a, c] = the unique b with a*b = c: each row inverted."""
        inv = np.argsort(self.array, axis=1).astype(np.int32)
        inv.setflags(write=False)
        return inv

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def row(self, a: int) -> tuple[int, ...]:
        """The left translation L_a as an image sequence."""
        return self.table[a]

    def elements(self) -> range:
        return range(self.n)


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
        return Partition(canon)

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


def singleton_partition(n: int) -> Partition:
    return Partition(tuple((i,) for i in range(n)))


def _check_table(table) -> np.ndarray:
    """Shape, range, idempotence and row bijectivity, first witness each.

    Returns the table as an int32 array.
    """
    rows = table if isinstance(table, np.ndarray) else list(table)
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    bad = next((a for a, row in enumerate(rows) if len(row) != n), None)
    # an out-of-range entry in a row before the first bad one comes first
    arr = np.asarray(rows[:bad]).reshape(-1, n)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        a, b = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise ValueError(f"entry {arr[a, b]} in row {a} out of range 0..{n - 1}")
    if bad is not None:
        raise ValueError(f"row {bad} has length {len(rows[bad])}, expected {n}")
    arr = arr.astype(np.int32, copy=False)
    wrong = np.flatnonzero(np.diagonal(arr) != np.arange(n))
    if wrong.size:
        raise NotIdempotent(int(wrong[0]))
    step = max(1, (1 << 20) // n)  # rows sorted per block, to bound memory
    for start in range(0, n, step):
        block = np.sort(arr[start:start + step], axis=1)
        wrong = np.flatnonzero((block != np.arange(n)).any(axis=1))
        if wrong.size:
            raise RowNotBijective(start + int(wrong[0]))
    return arr


def validate_quandle(table) -> Quandle:
    """Check idempotence, row bijectivity and left self-distributivity.

    "a*(b*c) = (a*b)*(a*c) for all b, c" says that L_a is an endomorphism,
    which depends only on the row L_a: equal rows pass or fail together.
    So each distinct row is checked once, in chunks of at most 2^20
    products, and the cost is d*n^2 for d distinct rows instead of n^3.
    The rows are taken at their first index, in ascending order, so the
    first failing one is the least a that fails, and its first (b, c) in
    row-major order makes the witness the lexicographically first one.
    """
    arr = _check_table(table)
    n = len(arr)
    first = np.sort(np.unique(_row_keys(arr), return_index=True)[1])
    step = max(1, (1 << 20) // (n * n))
    for start in range(0, len(first), step):
        rows = arr[first[start:start + step]]
        bad = rows[:, arr] != arr[rows[:, :, None], rows[:, None, :]]
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=(1, 2)))[0])
            b, c = map(int, np.argwhere(bad[i])[0])
            raise NotLeftDistributive(int(first[start + i]), b, c)
    return Quandle(arr)


def unchecked_quandle(table: np.ndarray) -> Quandle:
    """Wrap a table that is a quandle by construction.

    Shape, range, idempotence and row bijectivity are still checked (they
    are quadratic); the d*n^2 distributivity check runs only up to
    FULL_VALIDATE_LIMIT.
    """
    if len(table) <= FULL_VALIDATE_LIMIT:
        return validate_quandle(table)
    return Quandle(_check_table(table))


def left_divide(q: Quandle, a: int, c: int) -> int:
    """The unique b with a*b = c."""
    return int(q.ldiv_table[a, c])


def quotient(q: Quandle, p: Partition) -> Quandle:
    """Quandle on the blocks of a congruence, labeled by block order."""
    block_of = p.block_of
    # congruence check, lexicographic first witness
    for bi in p.blocks:
        for a in bi:
            for a2 in bi:
                for bj in p.blocks:
                    for b in bj:
                        for b2 in bj:
                            if block_of[q.table[a][b]] != block_of[q.table[a2][b2]]:
                                raise NotACongruence(a, a2, b, b2)
    reps = [b[0] for b in p.blocks]
    return validate_quandle(np.asarray(block_of)[q.array[np.ix_(reps, reps)]])


def induced_subquandle(q: Quandle, subset) -> Quandle:
    """Restrict to a subset closed under * (relabeled in ascending order)."""
    elems = sorted(set(subset))
    index = {x: i for i, x in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            z = q.table[x][y]
            if z not in index:
                raise ValueError(f"subset not closed: {x}*{y} = {z}")
            table[i][j] = index[z]
    return validate_quandle(table)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of an int32 array as one opaque scalar, so
    that whole rows sort, search and compare as single values."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[-1])))[..., 0]


def connectivity_orbits(q: Quandle) -> Partition:
    """Orbit partition of LMlt(Q) via union-find over x ~ a*x; each
    distinct left translation is walked once."""
    parent = list(range(q.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    _, first = np.unique(_row_keys(q.array), return_index=True)
    for row in q.array[first].tolist():
        for x, y in enumerate(row):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    groups: dict[int, list[int]] = {}
    for x in range(q.n):
        groups.setdefault(find(x), []).append(x)
    return Partition.from_blocks(groups.values())


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
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


def _profiles(q: Quandle) -> list[tuple]:
    orb = connectivity_orbits(q)
    sizes = orb.sizes()
    return [
        (_cycle_type(q.table[a]), sizes[orb.block_of[a]])
        for a in range(q.n)
    ]


def is_isomorphic(q1: Quandle, q2: Quandle) -> tuple[int, ...] | None:
    """Search for an element bijection preserving *, or return None.

    Plain backtracking, pruned by orbit sizes and translation cycle types.
    """
    if q1.n != q2.n:
        return None
    n = q1.n
    prof1, prof2 = _profiles(q1), _profiles(q2)
    if sorted(prof1) != sorted(prof2):
        return None
    candidates = [
        [b for b in range(n) if prof2[b] == prof1[a]] for a in range(n)
    ]
    order = sorted(range(n), key=lambda a: len(candidates[a]))
    sigma = [-1] * n
    used = [False] * n
    t1, t2 = q1.table, q2.table

    def extend(pos: int) -> bool:
        if pos == n:
            # pairwise pruning does not see products landing on elements
            # mapped later, so confirm the full table once at the leaf
            return all(
                sigma[t1[x][y]] == t2[sigma[x]][sigma[y]]
                for x in range(n)
                for y in range(n)
            )
        a = order[pos]
        for b in candidates[a]:
            if used[b]:
                continue
            ok = True
            for c in range(n):
                sc = sigma[c]
                if sc < 0:
                    continue
                im = sigma[t1[a][c]]
                if im >= 0 and im != t2[b][sc]:
                    ok = False
                    break
                im = sigma[t1[c][a]]
                if im >= 0 and im != t2[sc][b]:
                    ok = False
                    break
            if not ok:
                continue
            sigma[a] = b
            used[b] = True
            if extend(pos + 1):
                return True
            sigma[a] = -1
            used[b] = False
        return False

    if extend(0):
        return tuple(sigma)
    return None
