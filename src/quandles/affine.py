"""Affine quandles Aff(A,f): a*b = (1-f)(a) + f(b) over an abelian group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Quandle, _element_set, _reach
from .groups import AbelianGroup, GroupAutomorphism


@dataclass(frozen=True, eq=False)
class AffineQuandle:
    group: AbelianGroup
    f: GroupAutomorphism
    quandle: Quandle


def one_minus_f_images(group: AbelianGroup, f: GroupAutomorphism) -> np.ndarray:
    """Image array of g = 1 - f, i.e. g(a) = a - f(a)."""
    return group.plus(np.arange(group.order), group.neg[f.images])


def make_affine(group: AbelianGroup, f: GroupAutomorphism) -> AffineQuandle:
    """Build Aff(A,f) under the group's element indexing, unchecked: it
    is a quandle for every automorphism f of an abelian group A."""
    if f.group is not group and not np.array_equal(f.group.add, group.add):
        raise ValueError("automorphism belongs to a different group")
    g = one_minus_f_images(group, f)
    table = group.add[np.ix_(g, f.images)]
    return AffineQuandle(group, f, Quandle(table))


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
