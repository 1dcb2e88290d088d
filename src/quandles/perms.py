"""Permutations, group closure, and the quandle-theoretic group invariants.

Permutations are image tuples: p[i] is the image of i, maps act on the left,
so compose(p, q) is "p after q".  Groups are materialized as full element
sets; everything here is desk scale by design (no stabilizer chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Partition, Quandle, _row_keys, connectivity_orbits
from .errors import DegreeMismatch

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group given by its full element set.

    Elements are listed in discovery order of the BFS closure, identity
    first; the ordering is part of the contract (cover construction
    indexes into it).
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[Perm, int]:
        return {p: i for i, p in enumerate(self.elements)}

    def __contains__(self, p: Perm) -> bool:
        return p in self.index


def closure(generators, degree: int | None = None) -> PermGroup:
    """BFS multiplication closure from the identity, generators in order."""
    gens = tuple(tuple(g) for g in generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch(degree, len(g))
    ident = identity_perm(degree)
    elements = [ident]
    seen = {ident}
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            r = compose(g, p)
            if r not in seen:
                seen.add(r)
                elements.append(r)
                queue.append(r)
    return PermGroup(degree, gens, tuple(elements))


def multiplication_group(q: Quandle) -> PermGroup:
    """LMlt(Q), generated by all left translations."""
    return closure([q.row(a) for a in range(q.n)], q.n)


def displacement_generators(q: Quandle, e: int = 0) -> list[Perm]:
    le_inv = inverse(q.row(e))
    return [compose(q.row(a), le_inv) for a in range(q.n)]


def displacement_group(q: Quandle, e: int = 0) -> PermGroup:
    """Dis(Q) = <L_a L_e^{-1} : a in Q>, for any fixed e."""
    return closure(displacement_generators(q, e), q.n)


def orbits(q: Quandle) -> Partition:
    """Orbit partition of the Dis(Q) action, equal to the LMlt(Q) one."""
    return connectivity_orbits(q)


def cayley_kernel(q: Quandle) -> Partition:
    """Partition identifying elements with equal left translations."""
    by_row: dict[Perm, list[int]] = {}
    for a in range(q.n):
        by_row.setdefault(q.row(a), []).append(a)
    return Partition.from_blocks(by_row.values())


def is_abelian(g: PermGroup) -> bool:
    gens = g.generators
    return all(
        compose(a, b) == compose(b, a)
        for i, a in enumerate(gens)
        for b in gens[i + 1:]
    )


def is_semiregular(g: PermGroup) -> bool:
    """No non-identity element fixes a point."""
    ident = identity_perm(g.degree)
    for p in g.elements:
        if p != ident and any(p[x] == x for x in range(g.degree)):
            return False
    return True


# Entries of one chunk of products when D's composition table is built.
CHUNK_ENTRIES = 1 << 22


class Translations:
    """The translation set D = {L_x L_e^{-1} : x in Q} and its structure.

    ``d`` is D as an (m, n) int32 array of images, listed in order of the
    first x giving each map (the identity comes first for e = 0).
    ``block_of[x]`` is the index of L_x L_e^{-1} in ``d``; since
    L_x = L_y iff L_x L_e^{-1} = L_y L_e^{-1}, it names the Cayley-kernel
    block of x.  ``table[i, j]`` is the index of d[i] o d[j] and
    ``inverses[i]`` that of d[i]^{-1}, or -1 where the map is not in D.
    The table is built in row chunks of about CHUNK_ENTRIES products.
    """

    def __init__(self, q: Quandle, e: int = 0):
        self.e = e
        rows = q.array[:, np.argsort(q.array[e])]
        # distinct rows as sorted keys; key k first appears at x = first[k]
        self._keys, first, which = np.unique(
            _row_keys(rows), return_index=True, return_inverse=True
        )
        self._rank = np.empty(len(first), dtype=np.int32)  # key -> D index
        self._rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
        self.d = rows[np.sort(first)]
        self.block_of = self._rank[which]
        m, n = self.d.shape
        self.table = np.empty((m, m), dtype=np.int32)
        step = max(1, CHUNK_ENTRIES // (m * n))
        for i in range(0, m, step):
            self.table[i:i + step] = self.index_of(self.d[i:i + step][:, self.d])
        self.inverses = self.index_of(np.argsort(self.d, axis=1))

    @property
    def m(self) -> int:
        return len(self.d)

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Index in D of each map given as a row (last axis), -1 if none."""
        keys = _row_keys(rows)
        pos = np.searchsorted(self._keys, keys).clip(max=self.m - 1)
        hit = self._keys[pos] == keys
        return np.where(hit, self._rank[pos], np.int32(-1))

    @property
    def closed(self) -> bool:
        """Is D closed under composition, that is, equal to Dis(Q)?"""
        return bool(self.table.min() >= 0)

    @property
    def blocks(self) -> list[list[int]]:
        """Cayley-kernel blocks aligned with ``d``: block i holds every x
        with L_x L_e^{-1} = d[i], ascending, except that e is moved to the
        front of its block."""
        blocks: list[list[int]] = [[] for _ in range(self.m)]
        for x, i in enumerate(self.block_of.tolist()):
            blocks[i].append(x)
        be = blocks[self.block_of[self.e]]
        be.remove(self.e)
        be.insert(0, self.e)
        return blocks


def is_tiny(q: Quandle, e: int = 0) -> bool:
    """Does Dis(Q) equal the plain set {L_x L_e^{-1} : x in Q}?

    The set always sits inside Dis(Q) and holds the identity, so equality
    amounts to the set being closed under composition.
    """
    return Translations(q, e).closed


def is_medial(q: Quandle) -> bool:
    """(x*y)*(u*v) == (x*u)*(y*v) for all quadruples."""
    t = q.array
    uv = t[None, :, :]                      # (u,v)
    for x in range(q.n):                    # keep memory at O(n^3)
        lhs = t[t[x][:, None, None], uv]    # (y,u,v)
        rhs = t[t[x][None, :, None], t[:, None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True
