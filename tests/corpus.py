"""Shared test corpus: exhaustive mesh enumeration at desk scale plus the
cyclic affine family.

Meshes are enumerated by DFS over homomorphism cells and constant cells
with incremental (M1)/(M3)/(M4) pruning, so only valid meshes are ever
materialized.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from quandles.groups import AbelianGroup, make_cyclic_product
from quandles.mesh import AffineMesh, mesh_sum, validate_mesh

from oracles import enumerate_homomorphism_images

GROUP_MODULI = ((1,), (2,), (3,), (4,), (2, 2))


@lru_cache(maxsize=None)
def group_for(moduli: tuple[int, ...]) -> AbelianGroup:
    return make_cyclic_product(moduli)


@lru_cache(maxsize=None)
def homs_between(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple:
    maps = enumerate_homomorphism_images(group_for(src), group_for(dst))
    return tuple(tuple(int(x) for x in m) for m in maps)


def _one_minus_bijective(g: AbelianGroup, phi_im) -> bool:
    im = {int(g.add[a, g.neg[phi_im[a]]]) for a in range(g.order)}
    return len(im) == g.order


def enumerate_meshes(max_indices: int = 3, moduli_choices=GROUP_MODULI):
    """Yield every valid mesh as a plain (moduli_tuple, phi, c) triple."""
    for k in range(1, max_indices + 1):
        for tup in itertools.product(moduli_choices, repeat=k):
            yield from _meshes_over(tup)


def _meshes_over(tup: tuple[tuple[int, ...], ...]):
    k = len(tup)
    groups = [group_for(m) for m in tup]
    cells = [(i, i) for i in range(k)] + [
        (i, j) for i in range(k) for j in range(k) if i != j
    ]
    cell_pos = {c: p for p, c in enumerate(cells)}
    options = {}
    for i, j in cells:
        homs = homs_between(tup[i], tup[j])
        if i == j:
            homs = tuple(h for h in homs if _one_minus_bijective(groups[i], h))
        options[(i, j)] = homs
    # M3 quadruples, attached to the last-assigned cell involved
    m3_by_cell: dict[tuple[int, int], list] = {c: [] for c in cells}
    for i, j, j2, kk in itertools.product(range(k), repeat=4):
        if j == j2:
            continue
        involved = {(i, j), (j, kk), (i, j2), (j2, kk)}
        last = max(involved, key=lambda c: cell_pos[c])
        m3_by_cell[last].append((i, j, j2, kk))
    phi: dict[tuple[int, int], tuple[int, ...]] = {}

    def compose_im(outer, inner):
        return tuple(outer[x] for x in inner)

    def m3_ok(quad) -> bool:
        i, j, j2, kk = quad
        return compose_im(phi[(j, kk)], phi[(i, j)]) == compose_im(
            phi[(j2, kk)], phi[(i, j2)]
        )

    c_cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    c_pos = {c: p for p, c in enumerate(c_cells)}
    m4_by_cell: dict[tuple[int, int], list] = {c: [] for c in c_cells}
    m4_rest = []  # triples touching only diagonal constants (all zero)
    for i, j, kk in itertools.product(range(k), repeat=3):
        involved = {c for c in ((i, j), (i, kk), (j, kk)) if c[0] != c[1]}
        if involved:
            last = max(involved, key=lambda c: c_pos[c])
            m4_by_cell[last].append((i, j, kk))
        else:
            m4_rest.append((i, j, kk))

    consts: dict[tuple[int, int], int] = {(i, i): 0 for i in range(k)}

    def m4_ok(triple) -> bool:
        i, j, kk = triple
        lhs = phi[(j, kk)][consts[(i, j)]]
        rhs = phi[(kk, kk)][groups[kk].add[consts[(i, kk)], groups[kk].neg[consts[(j, kk)]]]]
        return lhs == rhs

    results = []

    def assign_c(pos: int):
        if pos == len(c_cells):
            results.append((
                tuple(tup),
                tuple(tuple(phi[(i, j)] for j in range(k)) for i in range(k)),
                tuple(tuple(consts[(i, j)] for j in range(k)) for i in range(k)),
            ))
            return
        cell = c_cells[pos]
        for v in range(groups[cell[1]].order):
            consts[cell] = v
            if all(m4_ok(t) for t in m4_by_cell[cell]):
                assign_c(pos + 1)
        del consts[cell]

    def assign_phi(pos: int):
        if pos == len(cells):
            if all(m4_ok(t) for t in m4_rest):
                assign_c(0)
            return
        cell = cells[pos]
        for h in options[cell]:
            phi[cell] = h
            if all(m3_ok(q) for q in m3_by_cell[cell]):
                assign_phi(pos + 1)
        del phi[cell]

    assign_phi(0)
    yield from results


def build_mesh(raw) -> AffineMesh:
    tup, phi, c = raw
    groups = [group_for(m) for m in tup]
    return validate_mesh(
        groups,
        [[np.asarray(p, dtype=np.int32) for p in row] for row in phi],
        c,
    )


def affine_family(max_order: int = 12):
    """All Aff(Z_m, u) with m <= max_order and gcd(u, m) = 1."""
    import math

    return [
        (m, u)
        for m in range(1, max_order + 1)
        for u in range(m)
        if math.gcd(u, m) == 1 or m == 1
    ]


CYCLIC_MODULI = ((1,), (2,), (3,), (4,))


def small_mesh_corpus():
    """Deduplicated tier for property suites: k <= 2 over all groups of
    order <= 4, k = 3 over groups of order <= 3."""
    raws = []
    for k in (1, 2):
        for tup in itertools.product(GROUP_MODULI, repeat=k):
            raws.extend(_meshes_over(tup))
    for tup in itertools.product(((1,), (2,), (3,)), repeat=3):
        raws.extend(_meshes_over(tup))
    return raws


def big_mesh_corpus_iter():
    """Acceptance tier: k <= 2 over all groups of order <= 4, k = 3 over
    cyclic groups of order <= 4 (the non-cyclic order-4 group at three
    indices alone contributes millions of meshes and is left out)."""
    for k in (1, 2):
        for tup in itertools.product(GROUP_MODULI, repeat=k):
            yield from _meshes_over(tup)
    for tup in itertools.product(CYCLIC_MODULI, repeat=3):
        yield from _meshes_over(tup)
