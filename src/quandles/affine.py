"""Affine quandles Aff(A,f): a*b = (1-f)(a) + f(b) over an abelian group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Quandle, _chunks, _element_set, _reach
from .groups import AbelianGroup, GroupAutomorphism, _check_table_limit


@dataclass(frozen=True, eq=False)
class AffineQuandle:
    group: AbelianGroup
    f: GroupAutomorphism
    quandle: Quandle


def one_minus_f_images(group: AbelianGroup, f: GroupAutomorphism) -> np.ndarray:
    """Image array of g = 1 - f, i.e. g(a) = a - f(a)."""
    return group.plus(np.arange(group.order), group.neg[f.images])


def _same_group(g: AbelianGroup, h: AbelianGroup) -> bool:
    """Do g and h have the same order and addition, both with zero 0?
    Checked on the generators of g, through ``plus``: if x + s agrees for
    every x and each generator s, the translations by the generators
    agree, hence so do all the translations they generate."""
    x = np.arange(g.order)
    return g.order == h.order and all(
        np.array_equal(g.plus(x, s), h.plus(x, s)) for s in g.generators())


def make_affine(group: AbelianGroup, f: GroupAutomorphism) -> AffineQuandle:
    """Build Aff(A,f) under the group's element indexing, unchecked: it
    is a quandle for every automorphism f of an abelian group A.  Row u
    is w(u) + f(v) over v, w = (1-f)(u), so one row is summed (``plus``)
    per distinct value of w and the rows are gathered in table order; A's
    table is not read."""
    if f.group is not group and not _same_group(group, f.group):
        raise ValueError("automorphism belongs to a different group")
    _check_table_limit(group.order)
    values, which = np.unique(one_minus_f_images(group, f), return_inverse=True)
    rows = np.empty((len(values), group.order), dtype=np.int32)
    for lo, hi in _chunks(0, len(values), group.order):
        rows[lo:hi] = group.plus(values[lo:hi, None], f.images)
    return AffineQuandle(group, f, Quandle(rows[which]))


def subquandle_closure(q: Quandle, subset) -> tuple[int, ...]:
    """Smallest superset of the subset closed under * and left division:
    the orbit of S under <L_s : s in S>.  That orbit is closed, as
    L_{g(s)} = g L_s g^-1 lies in the group for each g in it, and each
    L_s has finite order, so L_s^-1 is a power of L_s."""
    elems = _element_set(q, subset)
    if not elems.size:
        raise ValueError("subset must be nonempty")
    inside = np.zeros(q.n, dtype=bool)
    _reach(q.array[elems], inside, elems)
    return tuple(np.flatnonzero(inside).tolist())
