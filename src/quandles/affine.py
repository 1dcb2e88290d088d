"""Affine quandles Aff(A,f): a*b = (1-f)(a) + f(b) over an abelian group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Quandle, _element_set
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
    """Smallest superset of the subset closed under * and left division;
    each round forms only the products with a factor found in the last."""
    frontier = _element_set(q, subset)
    if not frontier.size:
        raise ValueError("subset must be nonempty")
    inside = np.zeros(q.n, dtype=bool)
    inside[frontier] = True
    while frontier.size:
        members = np.flatnonzero(inside)
        found = np.concatenate([
            table[np.ix_(rows, cols)].ravel()
            for table in (q.array, q.ldiv_table)
            for rows, cols in ((frontier, members), (members, frontier))
        ])
        frontier = np.unique(found[~inside[found]])
        inside[frontier] = True
    return tuple(np.flatnonzero(inside).tolist())
