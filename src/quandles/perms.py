"""Permutation groups on int32 rows, and the quandle-theoretic invariants.

A permutation of degree n is a row of n images, p[i] the image of i.  Maps
act on the left, so "p after q" is p[q], and a set of permutations is an
(m, n) int32 array whose rows are numbered and looked up by a core.RowSet.
Groups are materialized as full element sets; everything here is desk
scale by design (no stabilizer chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (Partition, Quandle, RowSet, _as_int32, _chunks, _first_failure,
                   _orbit_labels, _partition)
from .errors import DegreeMismatch

# Entries of one chunk of closure's candidates.  The other chunked loops
# use core._chunks; closure keeps a larger step because each chunk is
# numbered by a RowSet over every element found so far, re-sorting them
# (at core's 2^20, S_8's LMlt takes about 20 % longer).
CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A finite permutation group given by its full element set.

    ``array`` holds the elements as read-only (order, degree) int32 rows,
    in discovery order of the BFS closure, identity first; the ordering
    is part of the contract.  ``generators`` holds the generators as
    read-only (g, degree) int32 rows, in the order given.
    """

    degree: int
    generators: np.ndarray
    array: np.ndarray

    @property
    def order(self) -> int:
        return len(self.array)


def closure(generators, degree: int | None = None) -> PermGroup:
    """BFS multiplication closure from the identity, generators in order.

    Layer by layer: the candidates g o p of a layer run over its elements
    p in discovery order and, for each p, over the generators g in order;
    the first occurrence of each candidate not met before joins the next
    layer.  That is the discovery order of a FIFO queue.  Candidates are
    built in frontier chunks of about CHUNK_ENTRIES images, each numbered
    after the elements found so far by one core.RowSet.  A generator that
    is not a permutation of 0..degree-1 is refused with ValueError.
    """
    try:
        gens = [_as_int32(g) for g in generators]
    except OverflowError:
        raise ValueError("a generator image does not fit int32") from None
    except TypeError as exc:
        raise ValueError(f"a generator image {exc}") from None
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if g.shape != (degree,):
            raise DegreeMismatch(degree, len(g))
    gen_rows = np.array(gens, dtype=np.int32).reshape(len(gens), degree)
    wrong = np.flatnonzero((np.sort(gen_rows, axis=1) != np.arange(degree)).any(axis=1))
    if wrong.size:
        raise ValueError(f"generator {wrong[0]} is not a permutation of 0..{degree - 1}")
    elements = np.arange(degree, dtype=np.int32)[None, :]
    done = 0   # elements[:done] have been multiplied out
    step = max(1, CHUNK_ENTRIES // max(1, len(gens) * degree))
    while degree and done < len(elements):
        frontier, done = elements[done:], len(elements)
        for start in range(0, len(frontier), step):
            cand = gen_rows[:, frontier[start:start + step]]   # (g, p, x)
            rows = np.concatenate([elements, cand.transpose(1, 0, 2).reshape(-1, degree)])
            elements = rows[RowSet(rows).first]   # the elements, then new rows in order
    elements.setflags(write=False)
    gen_rows.setflags(write=False)
    return PermGroup(degree, gen_rows, elements)


def multiplication_group(q: Quandle) -> PermGroup:
    """LMlt(Q), generated by the distinct left translations."""
    return closure(q.array[q.rows.first], q.n)


def displacement_group(q: Quandle) -> PermGroup:
    """Dis(Q) = <L_a L_0^{-1} : a in Q>, generated by D."""
    return closure(Translations(q).d, q.n)


def orbits(q: Quandle) -> Partition:
    """Orbit partition of the Dis(Q) action, equal to the LMlt(Q) one, from
    the orbit labels (core._orbit_labels)."""
    return _partition(_orbit_labels(q))


def cayley_kernel(q: Quandle) -> Partition:
    """Partition identifying elements with equal left translations; block
    k, of the k-th distinct row, is least at q.rows.first[k]: canonical."""
    return _partition(q.rows.which)


def _commute(gens: np.ndarray) -> bool:
    """Do the permutations ``gens`` commute pairwise?  gens[:, gens][i, j]
    is g_i o g_j; it is compared with its transpose in row chunks
    (core._first_failure)."""
    return _first_failure(lambda lo, hi: gens[lo:hi][:, gens]
                          != gens[:, gens[lo:hi]].transpose(1, 0, 2), len(gens), gens.size) is None


def is_abelian(g: PermGroup) -> bool:
    """Do the generators commute?"""
    return _commute(g.generators)


def is_semiregular(g: PermGroup) -> bool:
    """No non-identity element fixes a point."""
    fixed = g.array == np.arange(g.degree)
    return not (fixed.any(axis=1) & ~fixed.all(axis=1)).any()


class Translations:
    """The translation set D = {L_x L_0^{-1} : x in Q}, read off Q's
    numbered rows ``q.rows``: L_x L_0^{-1} = L_y L_0^{-1} iff L_x = L_y,
    and a map M is in D iff M o L_0 is a row of Q.

    The base point is 0, which loses nothing: relabeling Q by the
    transposition (0 e) conjugates D at base point e into D at 0, so the
    verdicts read off D are the same for every e.

    ``d`` is D as (m, n) int32 images, d[i] = L_x L_0^{-1} for x the i-th
    of ``q.rows.first``, the identity first.  ``block_of`` is
    ``q.rows.which``, the index in ``d`` of L_x L_0^{-1}: the Cayley-kernel
    block of x.  ``table[i, j]`` is the index of d[i] o d[j], looked up as
    the row d[i] o L_x for x the j-th of ``q.rows.first``, ``inverses[i]``
    that of d[i]^{-1}, -1 where the map is not in D; both are built when
    first read, the table in row chunks (core._chunks).
    """

    def __init__(self, q: Quandle):
        self.q = q
        self.d = q.array[q.rows.first][:, np.argsort(q.array[0])]
        self.d.setflags(write=False)
        self.block_of = q.rows.which

    @property
    def m(self) -> int:
        return len(self.d)

    @cached_property
    def table(self) -> np.ndarray:
        gens = self.q.array[self.q.rows.first]
        return np.concatenate([self.q.rows.index_of(self.d[lo:hi][:, gens])
                               for lo, hi in _chunks(0, self.m, self.d.size)])

    @cached_property
    def inverses(self) -> np.ndarray:
        return self.q.rows.index_of(np.argsort(self.d, axis=1)[:, self.q.array[0]])

    @property
    def closed(self) -> bool:
        """Is D closed under composition, that is, equal to Dis(Q)?"""
        return bool(self.table.min() >= 0)

    @property
    def closed_abelian(self) -> bool:
        """Is D closed under composition and commutative, that is, Dis(Q)
        abelian and tiny?  Then, and only then, Q is a homomorphic image
        of an affine quandle."""
        return self.closed and np.array_equal(self.table, self.table.T)


def is_tiny(q: Quandle) -> bool:
    """Does Dis(Q) equal the plain set {L_x L_0^{-1} : x in Q}?

    The set always sits inside Dis(Q) and holds the identity, so equality
    amounts to the set being closed under composition.
    """
    return Translations(q).closed


def is_medial(q: Quandle) -> bool:
    """(x*y)*(u*v) == (x*u)*(y*v) for all quadruples?  Q is medial iff
    Dis(Q) is abelian (Jedlicka, Pilitowska, Stanovsky, Zamojska-Dzienio,
    J. Algebra 443, 2015), that is, iff the maps of D = {L_a L_0^{-1}} commute."""
    return _commute(Translations(q).d)
