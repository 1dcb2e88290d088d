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

from .core import Partition, Quandle, RowSet, _as_int32, _chunks, _validated
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
class MeshLayout:
    """The k groups of a mesh side by side in one index space 0..N-1.

    Element a of A_i is o_i + a, o_i = ``offsets[i]``.  ``flat`` holds the
    addition tables one after another, so a + b in A_i is
    ``flat[bases[i] + a*sizes[i] + b]``; ``neg[o_i + a]`` is -a in A_i and
    ``P[o_i + a, j]`` is phi[i][j](a), both as indices of their group; ``C``
    is the (k, k) matrix of constants and ``fiber[x]`` the i of element x.
    """

    offsets: np.ndarray
    sizes: np.ndarray
    bases: np.ndarray
    fiber: np.ndarray
    flat: np.ndarray
    neg: np.ndarray
    P: np.ndarray
    C: np.ndarray

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return len(self.fiber)

    def add(self, i, a, b) -> np.ndarray:
        """a + b in A_i, elementwise; i, a and b broadcast."""
        return self.flat[self.bases[i] + a * self.sizes[i] + b]

    @cached_property
    def one_minus(self) -> np.ndarray:
        """(1 - phi[i][i])(a) at element o_i + a."""
        f = self.fiber
        local = np.arange(self.n) - self.offsets[f]
        return self.add(f, local, self.neg[self.offsets[f] + self.P[np.arange(self.n), f]])

    @cached_property
    def shifted(self) -> np.ndarray:
        """(N, k): phi[i][j](a) + c[i][j] in A_j at row o_i + a."""
        out = np.empty_like(self.P)
        cols = np.arange(self.k)
        for lo, hi in _chunks(0, self.n, self.k):
            out[lo:hi] = self.add(cols, self.P[lo:hi], self.C[self.fiber[lo:hi]])
        return out


def _layout(groups, phi, c) -> MeshLayout:
    sizes = np.array([g.order for g in groups], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    k = len(groups)
    # phi in (i, j) order: source i's block holds its k maps one after another
    images = np.concatenate([p for row in phi for p in row])
    tables = [g.add.reshape(-1) for g in groups]
    return MeshLayout(
        offsets=offsets,
        sizes=sizes,
        bases=np.concatenate([[0], np.cumsum(sizes * sizes)[:-1]]),
        fiber=np.repeat(np.arange(k), sizes),
        flat=tables[0] if k == 1 else np.concatenate(tables),  # no copy of one table
        neg=np.concatenate([g.neg for g in groups]),
        P=np.concatenate([
            images[k * o:k * (o + n)].reshape(k, n).T
            for o, n in zip(offsets[:-1].tolist(), sizes.tolist())
        ]),
        C=np.array(c, dtype=np.int64),
    )


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
        return tuple(self.layout.offsets.tolist())

    @property
    def total_size(self) -> int:
        return self.offsets[-1]

    @cached_property
    def layout(self) -> MeshLayout:
        return _layout(self.groups, self.phi, self.c)

    def fiber_partition(self) -> Partition:
        return Partition.from_blocks(
            tuple(range(self.offsets[i], self.offsets[i + 1]))
            for i in range(self.k)
        )


def _param_error(groups, phi, c) -> InvalidParams | None:
    """The first bad cell (i, j) in row-major order: its length, then its
    images, then its constant."""
    k = len(groups)
    for i in range(k):
        for j in range(k):
            if phi[i][j].shape != (groups[i].order,):
                return InvalidParams(f"phi[{i}][{j}] has the wrong length")
            if phi[i][j].min(initial=0) < 0 or phi[i][j].max(initial=0) >= groups[j].order:
                return InvalidParams(f"phi[{i}][{j}] maps outside the target group")
            if not 0 <= c[i][j] < groups[j].order:
                return InvalidParams(f"c[{i}][{j}] is not an element of the target group")
    return None


def _hom_mismatch(lay: MeshLayout, x0: int, x1: int) -> np.ndarray:
    """(x1 - x0, m, k), m the largest order: at row x = o_i + a, column b
    and target j, is phi[i][j](a + b) != phi[i][j](a) + phi[i][j](b)?

    A column b past the end of A_i repeats b = |A_i| - 1, so the first
    failing column of a row is a real one.
    """
    f = lay.fiber[x0:x1, None]
    o, n = lay.offsets[f], lay.sizes[f]
    a = np.arange(x0, x1)[:, None] - o
    b = np.minimum(np.arange(lay.sizes.max()), n - 1)
    cols = np.arange(lay.k)
    return lay.P[o + lay.add(f, a, b)] != lay.add(cols, lay.P[x0:x1, None, :], lay.P[o + b])


def _check_homomorphisms(lay: MeshLayout) -> None:
    """Every phi[i][j] at once; the witness is the first (i, j), then the
    first (a, b)."""
    for lo, hi in _chunks(0, lay.n, int(lay.sizes.max()) * lay.k):
        bad = _hom_mismatch(lay, lo, hi)
        if bad.any():
            raise _hom_witness(lay, int(lay.fiber[lo + int(bad.any(axis=(1, 2)).argmax())]))


def _hom_witness(lay: MeshLayout, i: int) -> NotAHomomorphism:
    """The first failing target j of source i, then its first (a, b)."""
    k, m, o = lay.k, int(lay.sizes.max()), int(lay.offsets[i])
    first = np.full(k, -1)  # first failing a*m + b, per j
    for lo, hi in _chunks(o, o + int(lay.sizes[i]), m * k):
        bad = _hom_mismatch(lay, lo, hi).reshape(-1, k)
        hit = bad.any(axis=0) & (first < 0)
        first[hit] = (lo - o) * m + bad.argmax(axis=0)[hit]
    j = int(np.flatnonzero(first >= 0)[0])
    return NotAHomomorphism(i, j, *divmod(int(first[j]), m))


def _m3_mismatch(lay: MeshLayout, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, k, k): at element x = o_i + a, is
    phi[j][kk](phi[i][j](a)) != phi[0][kk](phi[i][0](a))?"""
    g = lay.P[lay.offsets[:-1] + lay.P[lo:hi]]
    return g != g[:, :1, :]


def _check_m3(lay: MeshLayout) -> None:
    """The witness is the first (i, kk), then the least j."""
    k = lay.k
    for lo, hi in _chunks(0, lay.n, k * k):
        bad = _m3_mismatch(lay, lo, hi)
        if not bad.any():
            continue
        i = int(lay.fiber[lo + int(bad.any(axis=(1, 2)).argmax())])
        failing = np.zeros((k, k), dtype=bool)  # [j, kk] over all of A_i
        for start, stop in _chunks(int(lay.offsets[i]), int(lay.offsets[i + 1]), k * k):
            failing |= _m3_mismatch(lay, start, stop).any(axis=0)
        kk, j = map(int, np.argwhere(failing.T)[0])
        raise M3Violation(i, 0, j, kk)


def _check_m4(lay: MeshLayout) -> None:
    """phi[j][kk](c[i][j]) = phi[kk][kk](c[i][kk] - c[j][kk]) for every
    (i, j, kk); the witness is the first in row-major order."""
    k = lay.k
    o, cols = lay.offsets[:-1], np.arange(k)
    minus = lay.neg[o + lay.C]  # [j, kk]: -c[j][kk] in A_kk
    for lo, hi in _chunks(0, k, k * k):
        ci = lay.C[lo:hi]
        lhs = lay.P[o + ci]  # [i, j, kk]
        rhs = lay.P[o + lay.add(cols, ci[:, None, :], minus), cols]
        bad = lhs != rhs
        if bad.any():
            i, j, kk = map(int, np.argwhere(bad)[0])
            raise M4Violation(lo + i, j, kk)


def validate_mesh(groups, phi, c) -> AffineMesh:
    """Verify homomorphisms and (M1)-(M4) exhaustively, first witness each.

    Each check runs over the whole layout at once, in chunks of at most
    core.CHUNK_ENTRIES entries; only a failing check goes back for its witness,
    the first failure in the order of the per-cell loops: parameters per
    (i, j), homomorphisms per (i, j) then (a, b), (M1) and (M2) per i,
    (M3) per (i, kk) then j, (M4) per (i, j, kk).
    """
    groups = tuple(groups)
    k = len(groups)
    if k == 0:
        raise InvalidParams("mesh needs at least one index")
    try:
        phi = tuple(tuple(_as_int32(phi[i][j]) for j in range(k)) for i in range(k))
    except OverflowError:  # an image no int32 holds is out of range
        raise InvalidParams("phi maps outside its target group") from None
    c = tuple(tuple(int(c[i][j]) for j in range(k)) for i in range(k))
    mesh = AffineMesh(groups, phi, c)
    orders = [g.order for g in groups]
    if not (
        all(p.shape == (orders[i],) for i, row in enumerate(phi) for p in row)
        and all(0 <= x < orders[j] for row in c for j, x in enumerate(row))
        and mesh.layout.P.min(initial=0) >= 0
        and (mesh.layout.P < mesh.layout.sizes).all()
    ):
        raise _param_error(groups, phi, c)
    lay = mesh.layout
    _check_homomorphisms(lay)
    unseen = np.ones(lay.n, dtype=bool)
    unseen[lay.offsets[lay.fiber] + lay.one_minus] = False
    if unseen.any():  # 1 - phi[i][i] misses an element of A_i: not onto
        raise M1Violation(int(lay.fiber[unseen.argmax()]))
    diagonal = np.flatnonzero(np.diagonal(lay.C))
    if diagonal.size:
        raise M2Violation(int(diagonal[0]))
    _check_m3(lay)
    _check_m4(lay)
    return mesh


def is_indecomposable(mesh: AffineMesh) -> bool:
    """Each A_j generated by all constants c[i][j] and images phi[i][j](a)."""
    lay = mesh.layout
    return all(
        _close_under(g.add, np.concatenate([lay.P[:, j], lay.C[:, j]])).all()
        for j, g in enumerate(mesh.groups)
    )


def mesh_sum(mesh: AffineMesh) -> Quandle:
    """The quandle on the disjoint union, fibers concatenated in order."""
    n = mesh.total_size
    _check_table_limit(n, "mesh sum of order", "table")
    return _validated(_sum_table(mesh.layout))


def _sum_table(lay: MeshLayout) -> np.ndarray:
    """Row o_i + a, column o_j + b holds
    o_j + c[i][j] + phi[i][j](a) + (1 - phi[j][j])(b): one gather per chunk
    of rows."""
    f = lay.fiber
    scale, col, o = lay.sizes[f], lay.bases[f] + lay.one_minus, lay.offsets[f]
    table = np.empty((lay.n, lay.n), dtype=np.int32)
    for lo, hi in _chunks(0, lay.n, lay.n):
        idx = lay.shifted[lo:hi, f] * scale
        idx += col
        np.add(lay.flat[idx], o, out=table[lo:hi], casting="unsafe")
    return table


def coset_criterion(mesh: AffineMesh) -> bool:
    """Is {(phi[i][j](a)+c[i][j])_j} a coset of a subgroup of the product?

    A subset X of a group is a coset iff -h+X is a subgroup for any single
    h in X, so one shift and a closure check suffice: the sum of every
    pair of elements of -h+X is looked up among its distinct rows.
    """
    lay = mesh.layout
    cols = np.flatnonzero(lay.sizes > 1)  # a trivial group adds a 0 to every row
    rows = lay.shifted[:, cols]
    x = lay.add(cols, rows, lay.neg[lay.offsets[cols] + rows[0]])
    members = RowSet(x)
    x = x[members.first]
    for lo, hi in _chunks(0, len(x), len(x) * len(cols)):
        sums = lay.add(cols, x[lo:hi, None, :], x[None, :, :])
        if (members.index_of(sums) < 0).any():
            return False
    return True


def semiregular_extension_form(mesh: AffineMesh) -> bool:
    """Syntactic test: identical groups, one shared phi, c[i][j] = d_i - d_j.

    This recognizes meshes already written in the shape that characterizes
    subquandles of affine quandles; it does not search over isomorphic
    meshes, so it is not the semantic embedding verdict.
    """
    lay, g0, k = mesh.layout, mesh.groups[0], mesh.k
    n = g0.order
    if (lay.sizes != n).any() or any(g.moduli != g0.moduli for g in mesh.groups):
        return False
    if not (lay.flat.reshape(k, n * n) == lay.flat[:n * n]).all():
        return False
    if not (lay.P.reshape(k, n, k) == lay.P[:n, :1]).all():
        return False
    # 1 - shared is bijective: (M1) holds for phi[0][0], the same map
    d = lay.C[:, 0]
    return bool((lay.C == lay.add(0, d[:, None], lay.neg[d])).all())


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
