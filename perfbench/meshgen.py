"""Seeded sample of valid affine meshes, drawn without replacement from
the set the acceptance corpus enumerates.

The set is every valid mesh with k <= 2 indices over Z1, Z2, Z3, Z4 and
Z2xZ2, and with k = 3 over the cyclic ones: 94 group tuples, 187,790
meshes.  The set is enumerated here, independently of ``tests/``: for each
tuple a depth-first search assigns the homomorphism cells, pruning on
(M1) and (M3); for each such assignment, the constants that satisfy (M4)
are found at once with numpy.  (M4) is linear and homogeneous in the
constants, so they form a subgroup and the all-zero choice is always one.
Knowing how many meshes each assignment has, the sample takes one mesh
from each of equal stretches of the enumeration, at a seeded offset, so
it has the corpus's mix of group tuples and sizes.

Elements of Z_{m1} x ... x Z_{mr} are indexed in mixed radix with the last
coordinate fastest, which is the indexing ``make_cyclic_product`` uses.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

import numpy as np

CYCLIC = ((1,), (2,), (3,), (4,))
ALL_GROUPS = CYCLIC + ((2, 2),)


def group_tuples() -> list[tuple[tuple[int, ...], ...]]:
    """The 94 group tuples of the acceptance corpus, in its order."""
    return (
        [(g,) for g in ALL_GROUPS]
        + list(itertools.product(ALL_GROUPS, repeat=2))
        + list(itertools.product(CYCLIC, repeat=3))
    )


def _index(moduli, coords) -> int:
    i = 0
    for m, x in zip(moduli, coords):
        i = i * m + x % m
    return i


class GroupTables:
    """Plain-Python addition and homomorphism lists for small cyclic products."""

    def __init__(self):
        self._coords = {}
        self._sub = {}
        self._add = {}
        self._homs = {}

    def coords(self, moduli) -> list[tuple[int, ...]]:
        if moduli not in self._coords:
            self._coords[moduli] = list(itertools.product(*(range(m) for m in moduli)))
        return self._coords[moduli]

    def sub(self, moduli) -> list[list[int]]:
        """sub(moduli)[a][b] = a - b."""
        if moduli not in self._sub:
            cs = self.coords(moduli)
            self._sub[moduli] = [
                [_index(moduli, [x - y for x, y in zip(ca, cb)]) for cb in cs]
                for ca in cs
            ]
        return self._sub[moduli]

    def add(self, moduli) -> list[list[int]]:
        """add(moduli)[a][b] = a + b."""
        if moduli not in self._add:
            sub = self.sub(moduli)
            neg = sub[0]
            self._add[moduli] = [[row[nb] for nb in neg] for row in sub]
        return self._add[moduli]

    def homs(self, src, dst) -> list[tuple[int, ...]]:
        """Every additive map src -> dst as an image tuple.

        A map is fixed by the images of the unit vectors; the image of the
        i-th one must be killed by the i-th modulus."""
        key = (src, dst)
        if key not in self._homs:
            dst_coords = self.coords(dst)
            choices = [
                [y for y in dst_coords if all((m * v) % b == 0 for v, b in zip(y, dst))]
                for m in src
            ]
            out = []
            for gens in itertools.product(*choices):
                out.append(tuple(
                    _index(dst, [sum(x * g[j] for x, g in zip(c, gens)) for j in range(len(dst))])
                    for c in self.coords(src)
                ))
            self._homs[key] = out
        return self._homs[key]


class MeshSet:
    """Every valid mesh over the corpus's group tuples, in a fixed order:
    by tuple, then by homomorphism assignment, then by constants."""

    def __init__(self, tables: GroupTables):
        self.blocks = []        # (tuple, phi, constant solutions)
        self.ends = []          # cumulative mesh counts
        total = 0
        for tup in group_tuples():
            phis = _phi_assignments(tup, tables)
            for phi, solutions in zip(phis, _constant_solutions(tup, phis, tables)):
                total += len(solutions)
                self.blocks.append((tup, phi, solutions))
                self.ends.append(total)
        self.size = total

    def mesh(self, position: int):
        """The raw mesh ``(moduli_tuple, phi, c)`` at ``position``, with
        phi[i][j] an image tuple A_i -> A_j and c[i][j] an element index of
        A_j."""
        b = bisect.bisect_right(self.ends, position)
        tup, phi, solutions = self.blocks[b]
        row = solutions[position - (self.ends[b - 1] if b else 0)].tolist()
        k = len(tup)
        values = iter(row)
        c = [[0 if i == j else next(values) for j in range(k)] for i in range(k)]
        return (
            tup,
            tuple(tuple(phi[(i, j)] for j in range(k)) for i in range(k)),
            tuple(tuple(r) for r in c),
        )


def sample_meshes(count: int, rng: random.Random, tables: GroupTables | None = None):
    """``count`` distinct raw meshes from ``MeshSet``, in enumeration order:
    a systematic sample, one mesh from each of ``count`` equal stretches of
    the enumeration, at an offset drawn from ``rng``.  Every mesh is as
    likely to be drawn as any other, and since the enumeration keeps the
    meshes of a group tuple together, each seed's sample has the same mix
    of group tuples as the whole set, to within one mesh per tuple."""
    meshes = MeshSet(tables or GroupTables())
    offset = rng.random()
    return [meshes.mesh(int((i + offset) * meshes.size / count)) for i in range(count)]


def _phi_assignments(tup, tables: GroupTables):
    """Every homomorphism assignment phi[(i, j)]: A_i -> A_j with 1 - phi_ii
    bijective (M1) and phi_jk . phi_ij independent of j (M3)."""
    k = len(tup)
    cells = [(i, i) for i in range(k)] + [
        (i, j) for i in range(k) for j in range(k) if i != j
    ]
    options = {}
    for i, j in cells:
        homs = tables.homs(tup[i], tup[j])
        if i == j:
            sub = tables.sub(tup[i])
            homs = [h for h in homs if len({sub[a][x] for a, x in enumerate(h)}) == len(h)]
        options[(i, j)] = homs

    # each (M3) condition (i, kk) is checked once, when the last cell it
    # reads has been set
    order = {cell: p for p, cell in enumerate(cells)}
    m3_at = {cell: [] for cell in cells}
    for i, kk in itertools.product(range(k), repeat=2):
        reads = [(i, j) for j in range(k)] + [(j, kk) for j in range(k)]
        m3_at[max(reads, key=order.get)].append((i, kk))

    phi: dict[tuple[int, int], tuple[int, ...]] = {}

    def m3_ok(cell) -> bool:
        for i, kk in m3_at[cell]:
            first = [phi[(0, kk)][x] for x in phi[(i, 0)]]
            for j in range(1, k):
                if [phi[(j, kk)][x] for x in phi[(i, j)]] != first:
                    return False
        return True

    def assign(pos: int):
        if pos == len(cells):
            yield dict(phi)
            return
        cell = cells[pos]
        for h in options[cell]:
            phi[cell] = h
            if m3_ok(cell):
                yield from assign(pos + 1)
        del phi[cell]

    return list(assign(0))


def _constant_solutions(tup, phis, tables: GroupTables) -> list[np.ndarray]:
    """For each homomorphism assignment, every choice of the off-diagonal
    constants c[i][j] (row-major; the diagonal ones are 0) that satisfies
    (M4): phi_jk(c_ij) = phi_kk(c_ik - c_jk) for all i, j, k.  All
    assignments of the tuple are tested at once, against every choice."""
    k = len(tup)
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    sizes = [math.prod(tup[j]) for _, j in cells]
    choices = np.indices(sizes).reshape(len(cells), math.prod(sizes))
    position = {cell: p for p, cell in enumerate(cells)}
    stacked = {cell: np.array([phi[cell] for phi in phis]) for cell in phis[0]}
    subs = [np.asarray(tables.sub(m)) for m in tup]
    zero = np.zeros(choices.shape[1], dtype=choices.dtype)
    ok = np.ones((len(phis), choices.shape[1]), dtype=bool)
    for i, j, kk in itertools.product(range(k), repeat=3):
        reads = [position.get(x) for x in ((i, j), (i, kk), (j, kk))]
        if reads == [None] * 3:
            continue            # only diagonal constants, 0 on both sides
        cij, cik, cjk = (zero if p is None else choices[p] for p in reads)
        ok &= stacked[(j, kk)][:, cij] == stacked[(kk, kk)][:, subs[kk][cik, cjk]]
    _, cols = np.nonzero(ok)
    return np.split(choices.T[cols], np.cumsum(ok.sum(axis=1))[:-1])


def sum_table(raw, tables: GroupTables) -> list[list[int]]:
    """The mesh sum on the disjoint union of the fibers, in fiber order:
    a*b = c[i][j] + phi[i][j](a) + b - phi[j][j](b) for a in A_i, b in A_j."""
    tup, phi, c = raw
    sizes = [math.prod(m) for m in tup]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    rows = []
    for i in range(len(tup)):
        for a in range(sizes[i]):
            row = []
            for j, mj in enumerate(tup):
                add, sub = tables.add(mj), tables.sub(mj)
                shift = add[c[i][j]][phi[i][j][a]]
                row.extend(
                    offsets[j] + add[shift][sub[b][phi[j][j][b]]]
                    for b in range(sizes[j])
                )
            rows.append(row)
    return rows
