"""Affine meshes: validation, sums, and the mesh-level affinity criteria.

An affine mesh is an indexed family of abelian groups A_i, a matrix of
homomorphisms phi[i][j] : A_i -> A_j and a matrix of constants c[i][j]
in A_j, subject to (M1)-(M4).  Its sum is the medial quandle on the
disjoint union with a*b = c[i][j] + phi[i][j](a) + (1-phi[j][j])(b).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Quandle, RowSet, _as_int32, _chunks, _first_failure, _hom_failure
from .errors import (
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
    """A mesh, its k groups side by side in one index space 0..N-1, made by
    its one constructor ``from_arrays``: validate_mesh and parse_mesh check
    the arrays they give it, generate_max_mesh's are a mesh by construction.

    Element a of A_i is o_i + a, o_i = ``offsets[i]``.  ``flat`` holds the
    addition tables one after another, so a + b in A_i is
    ``flat[bases[i] + a*sizes[i] + b]``; ``neg[o_i + a]`` is -a in A_i and
    ``P[o_i + a, j]`` is phi[i][j](a), both as indices of their group; ``C``
    is the (k, k) matrix of constants and ``fiber[x]`` the i of element x.
    Every array is read-only; ``phi`` and ``c`` are read off P and C.
    """

    groups: tuple[AbelianGroup, ...]
    offsets: np.ndarray
    sizes: np.ndarray
    bases: np.ndarray
    fiber: np.ndarray
    flat: np.ndarray
    neg: np.ndarray
    P: np.ndarray
    C: np.ndarray

    @classmethod
    def from_arrays(cls, groups, P: np.ndarray, C: np.ndarray) -> AffineMesh:
        """The mesh of the (N, k) int32 maps P and (k, k) int64 constants C,
        unchecked: P and C are kept, not copied; the rest comes from groups.
        The addition tables, side by side in ``flat``, are refused with
        TooLarge over the table limit before any group's table is read."""
        groups = tuple(groups)
        sizes = np.array([g.order for g in groups], dtype=np.int64)
        _check_table_limit(int((sizes * sizes).sum()), "mesh addition entries",
                           "table of the groups' sums", 1)
        tables = [g.add.reshape(-1) for g in groups]
        mesh = cls(
            groups=groups,
            offsets=np.concatenate([[0], np.cumsum(sizes)]),
            sizes=sizes,
            bases=np.concatenate([[0], np.cumsum(sizes * sizes)[:-1]]),
            fiber=np.repeat(np.arange(len(groups)), sizes),
            flat=tables[0] if len(groups) == 1 else np.concatenate(tables),  # no copy of one table
            neg=np.concatenate([g.neg for g in groups]),
            P=P, C=C,
        )
        for a in vars(mesh).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return mesh

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def total_size(self) -> int:
        return len(self.fiber)

    @cached_property
    def phi(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """phi[i][j] as a read-only view of P[o_i:o_{i+1}, j]."""
        o = self.offsets.tolist()
        return tuple(tuple(self.P[o[i]:o[i + 1], j] for j in range(self.k))
                     for i in range(self.k))

    @cached_property
    def c(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row) for row in self.C.tolist())

    def add(self, i, a, b) -> np.ndarray:
        """a + b in A_i, elementwise; i, a and b broadcast."""
        return self.flat[self.bases[i] + a * self.sizes[i] + b]

    @cached_property
    def one_minus(self) -> np.ndarray:
        """(1 - phi[i][i])(a) at element o_i + a."""
        f, x = self.fiber, np.arange(self.total_size)
        out = self.add(f, x - self.offsets[f], self.neg[self.offsets[f] + self.P[x, f]])
        out.setflags(write=False)
        return out

    @cached_property
    def shifted(self) -> np.ndarray:
        """(N, k): phi[i][j](a) + c[i][j] in A_j at row o_i + a."""
        out = np.empty_like(self.P)
        cols = np.arange(self.k)
        for lo, hi in _chunks(0, self.total_size, self.k):
            out[lo:hi] = self.add(cols, self.P[lo:hi], self.C[self.fiber[lo:hi]])
        out.setflags(write=False)
        return out


def _first_failing_fiber(mesh: AffineMesh, mismatch, width: int) -> tuple[int, np.ndarray] | None:
    """(i, flags) or None: core._first_failure scans the layout, width
    entries a row, for mismatch(lo, hi), a (hi - lo, ...) mask per row;
    i is the fiber of the first failing row, flags its OR over A_i's rows."""
    if (at := _first_failure(mismatch, mesh.total_size, width)) is None:
        return None
    i = int(mesh.fiber[at[0]])
    span = _chunks(int(mesh.offsets[i]), int(mesh.offsets[i + 1]), width)
    return i, np.any([mismatch(start, stop).any(axis=0) for start, stop in span], axis=0)


def _check_homomorphisms(mesh: AffineMesh) -> None:
    """phi[i][j] is additive iff phi(a + s) = phi(a) + phi(s) for every a
    and each generator s of A_i, as the s that pass are closed under +;
    s = 0 for a trivial group, and a fiber is padded by its last s.  The
    witness is the first failing (i, j), then core._hom_failure's (a, b)."""
    gens = [g.generators() or [0] for g in mesh.groups]
    width = max(map(len, gens))
    S = np.array([s + s[-1:] * (width - len(s)) for s in gens])  # [i, t]
    cols, o, P = np.arange(mesh.k), mesh.offsets, mesh.P

    def mismatch(lo, hi):  # [x, j]: phi[i][j](a + s) != phi[i][j](a) + phi[i][j](s), some s
        f = mesh.fiber[lo:hi, None]
        of, s = o[f], S[f[:, 0]]
        lhs = P[of + mesh.add(f, np.arange(lo, hi)[:, None] - of, s)]
        return (lhs != mesh.add(cols, P[lo:hi, None, :], P[of + s])).any(axis=1)

    if found := _first_failing_fiber(mesh, mismatch, width * mesh.k):
        i, j, g = found[0], int(found[1].argmax()), mesh.groups
        raise NotAHomomorphism(i, j, *_hom_failure(mesh.phi[i][j], g[i].add, g[j].add))


def _check_m3(mesh: AffineMesh) -> None:
    """phi[j][kk] . phi[i][j] = phi[0][kk] . phi[i][0] for every
    (i, j, kk); the witness is the first (i, kk), then the least j."""
    def mismatch(lo, hi):  # [x, j, kk]
        g = mesh.P[mesh.offsets[:-1] + mesh.P[lo:hi]]
        return g != g[:, :1, :]

    if found := _first_failing_fiber(mesh, mismatch, mesh.k * mesh.k):
        kk, j = map(int, np.argwhere(found[1].T)[0])
        raise M3Violation(found[0], 0, j, kk)


def _check_m4(mesh: AffineMesh) -> None:
    """phi[j][kk](c[i][j]) = phi[kk][kk](c[i][kk] - c[j][kk]) for every
    (i, j, kk); the witness is the first in row-major order."""
    k = mesh.k
    o, cols = mesh.offsets[:-1], np.arange(k)
    minus = mesh.neg[o + mesh.C]  # [j, kk]: -c[j][kk] in A_kk

    def mismatch(lo, hi):  # [i, j, kk]
        ci = mesh.C[lo:hi]
        return mesh.P[o + ci] != mesh.P[o + mesh.add(cols, ci[:, None, :], minus), cols]

    if found := _first_failure(mismatch, k, k * k):
        raise M4Violation(*found)


def validate_mesh(groups, phi, c) -> AffineMesh:
    """The mesh of k rows of k cells phi[i][j] and c[i][j], checked by _validated_mesh."""
    groups = tuple(groups)
    k = len(groups)
    if k == 0:
        raise InvalidParams("mesh needs at least one index")
    for name, cells in (("phi", phi), ("c", c)):
        if len(cells) != k or any(len(row) != k for row in cells):
            raise InvalidParams(f"{name} needs {k} rows of {k} cells")
    try:
        phi = [[_as_int32(p) for p in row] for row in phi]
    except (OverflowError, TypeError):  # an image that is no int32 integer is no element
        raise InvalidParams("phi maps outside its target group") from None
    orders = [g.order for g in groups]
    short = np.array([[p.shape != (n,) for p in row] for row, n in zip(phi, orders)])
    P = np.concatenate([  # source i's k maps as columns, zeros for a wrong length
        np.array([np.zeros(n, np.int32) if s else p for p, s in zip(row, flags)]).T
        for row, flags, n in zip(phi, short.tolist(), orders)])
    # -1 stands for a constant that is no element: a non-integer is in no range
    C = np.array([[x if x in range(n) else -1 for x, n in zip(row, orders)] for row in c],
                 dtype=np.int64)
    return _validated_mesh(AffineMesh.from_arrays(groups, P, C), short)


def _validated_mesh(mesh: AffineMesh, short: np.ndarray) -> AffineMesh:
    """Verify parameters, homomorphisms and (M1)-(M4) on mesh's arrays, the
    first failure in the order of the per-cell loops: parameters per (i, j)
    (length: short[i, j], the map zero in P; images; constant: -1 in C for
    one that is no element), homomorphisms per (i, j) then (a, b), (M1) and
    (M2) per i, (M3) per (i, kk) then j, (M4) per (i, j, kk).  Each check
    runs over the whole layout in chunks of at most core.CHUNK_ENTRIES
    entries, and only a failing one goes back for its witness; phi[i][j] is
    checked at the generators of A_i only."""
    # a negative image read as uint32 is 2^31 or more, beyond every group
    outside = np.logical_or.reduceat(mesh.P.view(np.uint32) >= mesh.sizes,
                                     mesh.offsets[:-1], axis=0)
    bad = short | outside | (mesh.C < 0)
    if bad.any():
        i, j = divmod(int(bad.argmax()), mesh.k)
        if short[i, j]:
            raise InvalidParams(f"phi[{i}][{j}] has the wrong length")
        if outside[i, j]:
            raise InvalidParams(f"phi[{i}][{j}] maps outside the target group")
        raise InvalidParams(f"c[{i}][{j}] is not an element of the target group")
    _check_homomorphisms(mesh)
    unseen = np.ones(mesh.total_size, dtype=bool)
    unseen[mesh.offsets[mesh.fiber] + mesh.one_minus] = False
    if unseen.any():  # 1 - phi[i][i] misses an element of A_i: not onto
        raise M1Violation(int(mesh.fiber[unseen.argmax()]))
    diagonal = np.flatnonzero(np.diagonal(mesh.C))
    if diagonal.size:
        raise M2Violation(int(diagonal[0]))
    _check_m3(mesh)
    _check_m4(mesh)
    return mesh


def is_indecomposable(mesh: AffineMesh) -> bool:
    """Each A_j generated by all constants c[i][j] and images phi[i][j](a)."""
    return all(
        _close_under(g.add, np.concatenate([mesh.P[:, j], mesh.C[:, j]])).all()
        for j, g in enumerate(mesh.groups)
    )


def mesh_sum(mesh: AffineMesh) -> Quandle:
    """The quandle on the disjoint union, fibers concatenated in order,
    unchecked: the sum of a mesh is a quandle (Jedlicka, Pilitowska,
    Stanovsky, Zamojska-Dzienio, J. Algebra 443, 2015)."""
    n = mesh.total_size
    _check_table_limit(n, "mesh sum of order", "table")
    return Quandle(_sum_table(mesh))


def _sum_table(mesh: AffineMesh) -> np.ndarray:
    """Row o_i + a, column o_j + b holds
    o_j + c[i][j] + phi[i][j](a) + (1 - phi[j][j])(b): one gather per chunk
    of rows, its index built in place in int32: every index is below
    len(flat) = sum |A_i|^2 <= n^2 < 2^31 under the table limit."""
    f, n = mesh.fiber, mesh.total_size
    scale, o = mesh.sizes[f].astype(np.int32), mesh.offsets[f].astype(np.int32)
    col = (mesh.bases[f] + mesh.one_minus).astype(np.int32)
    table = np.empty((n, n), dtype=np.int32)
    for lo, hi in _chunks(0, n, n):
        idx = mesh.shifted[lo:hi].take(f, axis=1)
        idx *= scale
        idx += col
        mesh.flat.take(idx, out=table[lo:hi])
        table[lo:hi] += o
    return table


def coset_criterion(mesh: AffineMesh) -> bool:
    """Is {(phi[i][j](a)+c[i][j])_j} a coset of a subgroup of the product?

    A subset X of a group is a coset iff -h+X is a subgroup for any single
    h in X, so one shift and a closure check suffice: the sum of every
    pair of elements of -h+X is looked up among its distinct rows.
    """
    cols = np.flatnonzero(mesh.sizes > 1)  # a trivial group adds a 0 to every row
    rows = mesh.shifted[:, cols]
    x = mesh.add(cols, rows, mesh.neg[mesh.offsets[cols] + rows[0]])
    members = RowSet(x)
    x = x[members.first]
    return _first_failure(lambda lo, hi: members.index_of(
        mesh.add(cols, x[lo:hi, None, :], x[None, :, :])) < 0, len(x), len(x) * len(cols)) is None


def semiregular_extension_form(mesh: AffineMesh) -> bool:
    """Syntactic test: identical groups, one shared phi, c[i][j] = d_i - d_j.

    This recognizes meshes already written in the shape that characterizes
    subquandles of affine quandles; it does not search over isomorphic
    meshes, so it is not the semantic embedding verdict.
    """
    g0, k = mesh.groups[0], mesh.k
    n = g0.order
    if (mesh.sizes != n).any() or any(g.moduli != g0.moduli for g in mesh.groups):
        return False
    if not (mesh.flat.reshape(k, n * n) == mesh.flat[:n * n]).all():
        return False
    if not (mesh.P.reshape(k, n, k) == mesh.P[:n, :1]).all():
        return False
    # 1 - shared is bijective: (M1) holds for phi[0][0], the same map
    d = mesh.C[:, 0]
    return bool((mesh.C == mesh.add(0, d[:, None], mesh.neg[d])).all())


def generate_max_mesh(n: int, k: int) -> AffineMesh:
    """Worst-case family: k copies of Z2 then n-k copies of Z1, zero maps,
    and a constant block whose top rows run over all of Z2^k.

    Rows are arranged to keep the diagonal zero (first k rows have bit i
    zero at row i) with the zero row placed as late as possible; for k=1
    the zero row is forced to the top.  The n - 2^k surplus rows repeat a
    value held only by singleton fibers, so the largest kernel block has
    exactly n - 2^k + 1 elements.  It is not validated: zero maps satisfy
    (M1), (M3) and (M4), the zero diagonal (M2), and the Z2 columns'
    constants run over Z2, so it is an indecomposable mesh.  n and k are
    integers of any type operator.index takes (numpy's too); anything
    else is refused with InvalidParams.
    """
    try:
        n, k = operator.index(n), operator.index(k)
    except TypeError:
        raise InvalidParams(f"n and k must be integers, got n={n!r}, k={k!r}") from None
    if not (1 <= k < n.bit_length() and 2 ** k < n):  # 2^k computed if <= n
        raise InvalidParams(f"need 2^k < n, got n={n}, k={k}")
    if n + k > np.iinfo(np.int32).max:
        raise TooLarge(f"mesh size {n + k} does not fit int32 element indices")
    _check_table_limit(n + k, "mesh size", "map matrix", n)
    _check_table_limit(n, "mesh index count", "constant matrix", 2 * n)  # int64: 2 int32s
    z2 = make_cyclic_product((2,))
    z1 = make_cyclic_product((1,))
    groups = (z2,) * k + (z1,) * (n - k)
    C = np.zeros((n, n), dtype=np.int64)
    if k == 1:
        C[1:, 0] = 1
    else:
        C[:k, :k] = np.roll(np.eye(k, dtype=np.int64), 1, axis=1)  # row i: bit (i + 1) % k
        v = np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1) & 1  # Z2^k, product order
        rest = v[v.sum(axis=1) > 1]  # neither zero nor a unit
        C[k:k + len(rest), :k] = rest
    return AffineMesh.from_arrays(groups, np.zeros((n + k, n), dtype=np.int32), C)
