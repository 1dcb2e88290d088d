"""Affine meshes: validation, sums, and the mesh-level affinity criteria.

An affine mesh is an indexed family of abelian groups A_i, a matrix of
homomorphisms phi[i][j] : A_i -> A_j and a matrix of constants c[i][j]
in A_j, subject to (M1)-(M4).  Its sum is the medial quandle on the
disjoint union with a*b = c[i][j] + phi[i][j](a) + (1-phi[j][j])(b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Partition, Quandle, validate_quandle
from .errors import (
    InternalAssertionFailure,
    InvalidParams,
    M1Violation,
    M2Violation,
    M3Violation,
    M4Violation,
    NotAHomomorphism,
    TooLarge,
)
from .groups import AbelianGroup, _check_table_limit, _close_under, make_cyclic_product


@dataclass(frozen=True, eq=False)
class AffineMesh:
    """Validated mesh; construct via :func:`validate_mesh`."""

    groups: tuple[AbelianGroup, ...]
    phi: tuple[tuple[np.ndarray, ...], ...]
    c: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.groups)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for g in self.groups:
            out.append(out[-1] + g.order)
        return tuple(out)

    @property
    def total_size(self) -> int:
        return self.offsets[-1]

    def fiber_partition(self) -> Partition:
        return Partition.from_blocks(
            tuple(range(self.offsets[i], self.offsets[i + 1]))
            for i in range(self.k)
        )


def validate_mesh(groups, phi, c) -> AffineMesh:
    """Verify homomorphisms and (M1)-(M4) exhaustively, first witness each."""
    groups = tuple(groups)
    k = len(groups)
    if k == 0:
        raise InvalidParams("mesh needs at least one index")
    try:
        phi = tuple(
            tuple(np.asarray(phi[i][j], dtype=np.int32) for j in range(k))
            for i in range(k)
        )
    except OverflowError:  # an image no int32 holds is out of range
        raise InvalidParams("phi maps outside its target group") from None
    c = tuple(tuple(int(c[i][j]) for j in range(k)) for i in range(k))
    for i in range(k):
        for j in range(k):
            if phi[i][j].shape != (groups[i].order,):
                raise InvalidParams(f"phi[{i}][{j}] has the wrong length")
            if phi[i][j].min(initial=0) < 0 or phi[i][j].max(initial=0) >= groups[j].order:
                raise InvalidParams(f"phi[{i}][{j}] maps outside the target group")
            if not 0 <= c[i][j] < groups[j].order:
                raise InvalidParams(f"c[{i}][{j}] is not an element of the target group")
    for i in range(k):
        for j in range(k):
            m = phi[i][j]
            mapped_sum = m[groups[i].add]
            sum_mapped = groups[j].add[np.ix_(m, m)]
            if not np.array_equal(mapped_sum, sum_mapped):
                a, b = map(int, np.argwhere(mapped_sum != sum_mapped)[0])
                raise NotAHomomorphism(i, j, a, b)
    for i in range(k):
        gi = groups[i]
        one_minus = gi.add[np.arange(gi.order), gi.neg[phi[i][i]]]
        if len(set(one_minus.tolist())) != gi.order:
            raise M1Violation(i)
    for i in range(k):
        if c[i][i] != 0:
            raise M2Violation(i)
    for i, kk in itertools.product(range(k), repeat=2):
        # phi[j][kk] . phi[i][j] must not depend on j; compare all to j=0.
        ref = phi[0][kk][phi[i][0]]
        for j in range(1, k):
            if not np.array_equal(phi[j][kk][phi[i][j]], ref):
                raise M3Violation(i, 0, j, kk)
    for i, j, kk in itertools.product(range(k), repeat=3):
        lhs = int(phi[j][kk][c[i][j]])
        rhs = int(phi[kk][kk][groups[kk].sub_el(c[i][kk], c[j][kk])])
        if lhs != rhs:
            raise M4Violation(i, j, kk)
    return AffineMesh(groups, phi, c)


def is_indecomposable(mesh: AffineMesh) -> bool:
    """Each A_j generated by all constants c[i][j] and images phi[i][j](a)."""
    for j in range(mesh.k):
        seed = {mesh.c[i][j] for i in range(mesh.k)}
        for i in range(mesh.k):
            seed.update(int(x) for x in mesh.phi[i][j])
        if len(_close_under(mesh.groups[j].add, seed)) != mesh.groups[j].order:
            return False
    return True


def mesh_sum(mesh: AffineMesh) -> Quandle:
    """The quandle on the disjoint union, fibers concatenated in order."""
    n = mesh.total_size
    _check_table_limit(n, "mesh sum of order", "table")
    table = np.empty((n, n), dtype=np.int32)
    for j, gj in enumerate(mesh.groups):
        rng = np.arange(gj.order)
        one_minus = gj.add[rng, gj.neg[mesh.phi[j][j]]]
        for i in range(mesh.k):
            # c[i][j] + phi[i][j](a) + (1-phi[j][j])(b) inside A_j
            shifted = gj.add[mesh.c[i][j]][mesh.phi[i][j]]
            block = gj.add[np.ix_(shifted, one_minus)]
            table[
                mesh.offsets[i]:mesh.offsets[i + 1],
                mesh.offsets[j]:mesh.offsets[j + 1],
            ] = block + mesh.offsets[j]
    return validate_quandle(table)


def _row_tuples(mesh: AffineMesh):
    """The tuples (phi[i][j](a) + c[i][j])_j over all i and a in A_i."""
    rows = []
    for i in range(mesh.k):
        for a in range(mesh.groups[i].order):
            rows.append(tuple(
                mesh.groups[j].add_el(int(mesh.phi[i][j][a]), mesh.c[i][j])
                for j in range(mesh.k)
            ))
    return rows


def coset_criterion(mesh: AffineMesh) -> bool:
    """Is {(phi[i][j](a)+c[i][j])_j} a coset of a subgroup of the product?

    A subset X of a group is a coset iff -h+X is a subgroup for any single
    h in X, so one shift and a closure check suffice.
    """
    rows = _row_tuples(mesh)
    h = rows[0]
    shifted = {
        tuple(mesh.groups[j].sub_el(r[j], h[j]) for j in range(mesh.k))
        for r in rows
    }
    for x in shifted:
        for y in shifted:
            s = tuple(mesh.groups[j].add_el(x[j], y[j]) for j in range(mesh.k))
            if s not in shifted:
                return False
    return True


def semiregular_extension_form(mesh: AffineMesh) -> bool:
    """Syntactic test: identical groups, one shared phi, c[i][j] = d_i - d_j.

    This recognizes meshes already written in the shape that characterizes
    subquandles of affine quandles; it does not search over isomorphic
    meshes, so it is not the semantic embedding verdict.
    """
    g0 = mesh.groups[0]
    for g in mesh.groups[1:]:
        if g.moduli != g0.moduli or not np.array_equal(g.add, g0.add):
            return False
    shared = mesh.phi[0][0]
    for i in range(mesh.k):
        for j in range(mesh.k):
            if not np.array_equal(mesh.phi[i][j], shared):
                return False
    # 1 - shared is bijective: (M1) holds for phi[0][0], the same map
    d = [mesh.c[i][0] for i in range(mesh.k)]
    return all(
        mesh.c[i][j] == g0.sub_el(d[i], d[j])
        for i in range(mesh.k)
        for j in range(mesh.k)
    )


def generate_max_mesh(n: int, k: int) -> AffineMesh:
    """Worst-case family: k copies of Z2 then n-k copies of Z1, zero maps,
    and a constant block whose top rows run over all of Z2^k.

    Rows are arranged to keep the diagonal zero (first k rows have bit i
    zero at row i) with the zero row placed as late as possible; for k=1
    the zero row is forced to the top.  The n - 2^k surplus rows repeat a
    value held only by singleton fibers, so the largest kernel block has
    exactly n - 2^k + 1 elements.
    """
    if not (1 <= k < n.bit_length() and 2 ** k < n):  # 2^k computed if <= n
        raise InvalidParams(f"need 2^k < n, got n={n}, k={k}")
    if n + k > np.iinfo(np.int32).max:
        raise TooLarge(f"mesh size {n + k} does not fit int32 element indices")
    z2 = make_cyclic_product((2,))
    z1 = make_cyclic_product((1,))
    groups = tuple([z2] * k + [z1] * (n - k))

    all_vecs = list(itertools.product((0, 1), repeat=k))
    rows: list[tuple[int, ...] | None] = [None] * (2 ** k)
    zero = tuple([0] * k)
    if k == 1:
        rows = [(0,), (1,)]
    else:
        used = {zero}
        for i in range(k):
            e = tuple(1 if t == (i + 1) % k else 0 for t in range(k))
            rows[i] = e
            used.add(e)
        rest = [v for v in all_vecs if v not in used]
        for pos, v in zip(range(k, 2 ** k - 1), rest):
            rows[pos] = v
        rows[2 ** k - 1] = zero
    if sorted(rows) != sorted(all_vecs):
        raise InternalAssertionFailure("constant rows must run over all of Z2^k")
    if any(rows[i][i] for i in range(k)):
        raise InternalAssertionFailure("diagonal constants must be zero")

    dup = (1,) if k == 1 else rows[2 ** k - 1]
    for i in range(2 ** k, n):
        rows.append(dup)
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(k):
            c[i][j] = rows[i][j]
    phi = [
        [np.zeros(groups[i].order, dtype=np.int32) for j in range(n)]
        for i in range(n)
    ]
    mesh = validate_mesh(groups, phi, c)
    if not is_indecomposable(mesh):
        raise InternalAssertionFailure("the worst-case mesh must be indecomposable")
    return mesh
