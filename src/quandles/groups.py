"""Finite abelian groups with integer-indexed elements.

Index 0 is always the zero.  Dis(Q), a group given by its elements, is
stored as a full int32 addition table.  Z_m is kept as its modulus and a
direct product as its two factors (element (a, b) at a*|G2| + b):
``neg``, ``plus`` and ``generators`` are computed in O(order), and the
order^2 table ``add`` is built only when it is read.
A table whose finished int32 form would exceed 1 GiB (order above
16,384) is refused with TooLarge before anything is allocated.

``plus`` is defined on elements 0..order-1 only: it is a flat gather
from the table or floor arithmetic on the indices, and it checks
nothing.  Its callers pass elements:

- _additive_failure (validate_automorphism, verify_cover's claim 3) and
  affine._same_group: index ranges, generators, and f's images once in range;
- affine.one_minus_f_images, make_affine and iofmt.write_affine: the
  images of a GroupAutomorphism (validated, or the certified cover's f)
  and ``neg`` of a group the package built;
- verify_cover: claim 1 sums ``neg`` only after check_abelian_table has
  range-checked each factor's ``neg``, and claim 5 sums f's images only
  after claim 2's range check.

An AbelianGroup is a plain record, like a Quandle: its constructor
checks nothing.  Every group the package builds is a group by
construction (a cyclic product from its moduli, Dis(Q) from a D that is
closed and commutative, a direct product from two groups).
check_abelian_table checks a group's tables from outside: commutativity, identity
and inverses exhaustively, associativity by Light's test over a
generating set (equivalent to the exhaustive cubic scan, but quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .core import _as_int32, _first_failure, _first_non_integer, _generators, _hom_failure, _reach
from .errors import EmptyModuli, NotAdditive, NotBijective, TooLarge


# Limit on a finished n^2 int32 table (an addition table, a mesh sum):
# 1 GiB, so n <= 16,384.
_TABLE_LIMIT_BYTES = 1 << 30


def _check_table_limit(n: int, what: str = "group order",
                       table: str = "addition table", width: int | None = None) -> None:
    """Refuse a table whose finished n x width int32 form (n x n by default)
    exceeds the limit."""
    if (size := 4 * n * (width or n)) > _TABLE_LIMIT_BYTES:
        raise TooLarge(f"{what} {n} needs a {size}-byte {table}, "
                       f"over the {_TABLE_LIMIT_BYTES >> 30} GiB table limit")


def _first_asymmetry(b: np.ndarray) -> tuple[int, int] | None:
    """First (i, j) in row-major order with b[i,j] != b[j,i], or None.

    Compares 256-wide tiles against transposed ones, so that transposed
    reads stay in cache; only a failing table pays for the witness scan.
    """
    n, tile = len(b), 256
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            if not np.array_equal(b[i:i + tile, j:j + tile], b[j:j + tile, i:i + tile].T):
                return _first_failure(lambda lo, hi: b[lo:hi] != b[:, lo:hi].T, n, n)
    return None


def _close_under(add: np.ndarray, seed) -> np.ndarray:
    """Mask of the subgroup generated by seed (the table must be a group)."""
    reached = np.zeros(len(add), dtype=bool)
    _reach(add[:, np.unique(seed)].T, reached, np.zeros(1, dtype=np.intp))
    return reached


def generating_indices(add: np.ndarray) -> list[int]:
    """Greedy generating set under the operation table (0 excluded).

    core._generators from 0 under the maps y -> y + x.  On a group table
    the reached set is the generated subgroup, so the list is that of
    closing under all pairwise sums.  On any table every reached element is
    a sum of generators (0 + g1 + ... + gk) and 0 is the identity, checked
    just before, so Light's closure argument in ``check_abelian_table``
    holds even when the table is not a group.
    """
    return _generators(len(add), add.T.__getitem__, [0])


def check_abelian_table(group: AbelianGroup) -> str | None:
    """Return a description of the first axiom failure of the group's
    tables, or None.

    Associativity is Light's test: the g with (a+g)+c == a+(g+c) for all
    a, c are closed under +, so a generating set suffices, the group's
    ``generators()``, read only after the identity has passed: a
    table-backed group walks its own table once and keeps the set, and a
    cyclic group or product states its unit coordinates, which are the
    walk's.  Once
    commutativity has passed, (a+g)+c = B[a,c] and a+(g+c) = B[c,a] for
    B = add[add[g], :], so the test for g is "B is symmetric", with the
    same first witness (a, g, c).  Both tables must have an integer
    dtype, which the generating walk and the gathers index with.
    """
    add, neg = np.asarray(group.add), np.asarray(group.neg)
    n = len(add)
    if add.shape != (n, n) or neg.shape != (n,):
        return "shape mismatch"
    if n == 0:
        return "empty table"
    if add.dtype.kind not in "iu" or neg.dtype.kind not in "iu":
        return f"entries of types {add.dtype} and {neg.dtype} are not all integers"
    rng = np.arange(n, dtype=add.dtype)
    if add.min() < 0 or add.max() >= n:
        return "entry out of range"
    witness = _first_asymmetry(add)
    if witness is not None:
        return "not commutative at ({},{})".format(*witness)
    if not np.array_equal(add[0], rng):
        return "index 0 is not a neutral element"
    if neg.min() < 0 or neg.max() >= n:
        a = int(np.flatnonzero((neg < 0) | (neg >= n))[0])
        return f"neg({a}) = {neg[a]} is not in 0..{n - 1}"
    if not np.array_equal(add[rng, neg], np.zeros(n, dtype=add.dtype)):
        a = int(np.argwhere(add[rng, neg] != 0)[0][0])
        return f"neg({a}) is not an inverse"
    for g in group.generators():
        witness = _first_asymmetry(add[add[g], :])
        if witness is not None:
            a, c = witness
            return f"not associative at ({a},{g},{c})"
    return None


@dataclass(frozen=True, eq=False)
class AbelianGroup:
    """Finite abelian group on elements 0..order-1, zero at index 0.

    The tables are taken as given: build one from a table that is an
    abelian group, or check it with check_abelian_table before use.
    """

    add: np.ndarray
    neg: np.ndarray
    moduli: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self):
        # plus gathers from the flat table, so keep one C-ordered copy
        object.__setattr__(self, "add", np.ascontiguousarray(self.add))
        self.add.setflags(write=False)
        self.neg.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.neg)

    def plus(self, x, y) -> np.ndarray:
        """Elementwise sum of elements 0..order-1 (broadcast), one flat
        gather from the table.  Outside 0..order-1 it checks nothing: it
        reads another row's entry or raises IndexError (the module
        docstring lists the callers that keep to the elements)."""
        return self.add.reshape(-1).take(x * self.order + y)

    def factors(self) -> list[AbelianGroup]:
        """The table-backed factors, left to right: here the group itself."""
        return [self]

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        return tuple(generating_indices(self.add))

    def generators(self) -> list[int]:
        """A generating set, read off the table once per group."""
        return list(self._generators)

    def __repr__(self) -> str:
        label = self.name or (
            "Z" + "xZ".join(map(str, self.moduli)) if self.moduli else "group"
        )
        return f"AbelianGroup({label}, order={self.order})"


class CyclicGroup(AbelianGroup):
    """Z_m kept as its modulus m: ``neg`` and ``plus``, (x + y) mod m, are
    computed, and the m^2 table ``add``, an outer sum reduced mod m in
    place, is built on first read and cached."""

    def __init__(self, m: int):
        neg = -np.arange(m, dtype=np.int32) % m
        neg.setflags(write=False)
        self.__dict__.update(neg=neg, moduli=(m,), name="")

    @cached_property
    def add(self) -> np.ndarray:
        c = np.arange(self.order, dtype=np.int32)
        add = np.add.outer(c, c)
        np.remainder(add, self.order, out=add)
        add.setflags(write=False)
        return add

    def plus(self, x, y) -> np.ndarray:
        """(x + y) mod m for elements 0..m-1 (the domain of every
        ``plus``), as s - (s // m) * m, the floor remainder of any
        integer s."""
        s = np.add(x, y, dtype=np.int32)
        return s - (s // self.order) * self.order

    def generators(self) -> list[int]:
        return [1] if self.order > 1 else []


class ProductGroup(AbelianGroup):
    """G1 x G2 kept as its factors; element (a, b) has index a*|G2| + b.

    ``neg`` and ``plus`` cost O(order), from the factors; the order^2
    table ``add`` is built on first read and cached, and refused
    with TooLarge beyond the table limit.  A product of abelian groups is
    one, so nothing is checked.
    """

    def __init__(self, g1: AbelianGroup, g2: AbelianGroup, name: str = ""):
        neg = (g1.neg[:, None].astype(np.int32) * np.int32(g2.order)
               + g2.neg[None, :]).reshape(-1)
        neg.setflags(write=False)
        moduli = None
        if g1.moduli is not None and g2.moduli is not None:
            moduli = g1.moduli + g2.moduli
        self.__dict__.update(g1=g1, g2=g2, neg=neg, moduli=moduli, name=name)

    @cached_property
    def add(self) -> np.ndarray:
        _check_table_limit(self.order)
        g1, g2 = self.g1, self.g2
        add = (
            g1.add[:, None, :, None].astype(np.int32) * np.int32(g2.order)
            + g2.add[None, :, None, :]
        ).reshape(self.order, self.order)
        add.setflags(write=False)
        return add

    def plus(self, x, y) -> np.ndarray:
        """Sum of elements 0..order-1 (the domain of every ``plus``) by
        coordinates: u = u1*|G2| + u2 is split as u1 = u // |G2| and
        u2 = u - u1*|G2|, and each factor adds its own."""
        n2 = self.g2.order
        x1, y1 = x // n2, y // n2
        return self.g1.plus(x1, y1) * n2 + self.g2.plus(x - x1 * n2, y - y1 * n2)

    def factors(self) -> list[AbelianGroup]:
        return self.g1.factors() + self.g2.factors()

    def generators(self) -> list[int]:
        """The factors' generators, each lifted to its coordinate with zero
        elsewhere; they generate the product when the factors are groups."""
        n2 = self.g2.order
        return [g * n2 for g in self.g1.generators()] + self.g2.generators()


class CyclicProduct(ProductGroup):
    """The product of r >= 2 cyclic groups, whose generators are its unit
    coordinates in ascending order, as generating_indices reads them off
    its table."""

    def generators(self) -> list[int]:
        return sorted(super().generators())


def direct_product(g1: AbelianGroup, g2: AbelianGroup, name: str = "") -> ProductGroup:
    """Direct product; element (a,b) has index a*|G2| + b.  No table is
    built until ``add`` is read."""
    return ProductGroup(g1, g2, name)


def make_cyclic_product(moduli) -> AbelianGroup:
    """Z_{m1} x ... x Z_{mr}, elements in mixed-radix order, zero first:
    a CyclicGroup, or for r >= 2 the CyclicProduct of the Z_m, with no
    table built yet.  One whose table would exceed the table limit is
    refused with TooLarge, and a modulus that is not an integer with
    ValueError, not truncated or parsed (a float with an integer value is
    taken, as core._as_int32 takes one)."""
    moduli = tuple(moduli)
    if (at := _first_non_integer(np.asarray(moduli))) is not None:
        raise ValueError(f"modulus {moduli[at[0]]!r} is not an integer")
    moduli = tuple(int(m) for m in moduli)
    if not moduli:
        raise EmptyModuli()
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be positive")
    _check_table_limit(math.prod(moduli))
    factors = [CyclicGroup(m) for m in moduli]
    if len(factors) == 1:
        return factors[0]
    return CyclicProduct(reduce(direct_product, factors[:-1]), factors[-1])


@dataclass(frozen=True, eq=False)
class GroupAutomorphism:
    """A validated automorphism, stored as an explicit element map."""

    group: AbelianGroup
    images: np.ndarray

    def __post_init__(self):
        self.images.setflags(write=False)


def validate_automorphism(group: AbelianGroup, images) -> GroupAutomorphism:
    """Check bijectivity and additivity (first witness each).  Additivity
    is checked at the generators (_additive_failure, no table read); only
    on a failure does core._hom_failure scan the addition table for the
    first (a, b) with f(a+b) != f(a)+f(b)."""
    try:
        im = _as_int32(images)
    except (OverflowError, TypeError):  # an image that is no int32 integer is no element
        raise NotBijective() from None
    n = group.order
    if im.shape != (n,):
        raise ValueError(f"map has {im.shape} images, expected {n}")
    if not np.array_equal(np.sort(im), np.arange(n)):
        raise NotBijective()
    if _additive_failure(group, im) is not None:
        raise NotAdditive(*_hom_failure(im, group.add, group.add))
    return GroupAutomorphism(group, im)


def _additive_failure(group: AbelianGroup, images: np.ndarray) -> tuple[int, int] | None:
    """The first (g, u), g in group.generators() order, then u, with f(u+g)
    != f(u)+f(g) for f = images, or None iff f is additive: the g that pass
    are closed under +.  |gens| * order sums through ``plus``, no table read."""
    gens = np.array(group.generators(), dtype=np.int32)
    rng = np.arange(group.order, dtype=np.int32)

    def mismatch(lo, hi):  # row i is gens[lo + i]
        g = gens[lo:hi, None]
        return images.take(group.plus(rng, g)) != group.plus(images, images.take(g))

    found = _first_failure(mismatch, len(gens), group.order)
    return None if found is None else (int(gens[found[0]]), found[1])


def multiplication_automorphism(group: AbelianGroup, u: int) -> GroupAutomorphism:
    """x -> u*x on a single cyclic group Z_m.  It is additive for every u
    and a bijection iff gcd(u, m) = 1, so only the gcd is checked."""
    if group.moduli is None or len(group.moduli) != 1:
        raise ValueError("multiplication shorthand needs a single cyclic factor")
    m = group.moduli[0]
    if math.gcd(u, m) != 1:
        raise NotBijective()
    return GroupAutomorphism(group, (np.arange(m) * (u % m) % m).astype(np.int32))
