"""Recognition of homomorphic images of affine quandles and explicit
construction of a covering affine quandle with a verified surjection.

The verdict: Q is a homomorphic image of an affine quandle iff its
displacement group is abelian and tiny, checked directly on the set
D = {L_x L_e^{-1}} without computing any group closure.

The construction: pick a multitransversal T of the Cayley kernel that
meets every orbit, endow T with an abelian operation indexed by D and a
cyclic tag group Z_kappa, and return A = Dis(Q) x (T,+) together with an
automorphism f and a surjective quandle homomorphism psi: Aff(A,f) -> Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np

from . import perms
from .affine import AffineQuandle, make_affine
from .core import Quandle
from .errors import (
    InternalAssertionFailure,
    NotAGroup,
    NotHomImage,
    OplusUndefined,
    QuandleError,
)
from .groups import (
    AbelianGroup,
    GroupAutomorphism,
    check_abelian_table,
    direct_product,
    make_cyclic_product,
)
from .perms import Translations


def _commute_and_close(tr: Translations) -> bool:
    return tr.closed and np.array_equal(tr.table, tr.table.T)


def is_homim_of_affine(q: Quandle, e: int = 0) -> bool:
    """Is Q a homomorphic image of an affine quandle?

    True iff D = {L_x L_e^{-1} : x in Q} commutes and is closed under
    composition, read off D's composition table.
    """
    return _commute_and_close(Translations(q, e))


def _homim_translations(q: Quandle) -> Translations:
    tr = Translations(q)
    if not _commute_and_close(tr):
        raise NotHomImage()
    return tr


@dataclass(frozen=True)
class Multitransversal:
    """kappa entries from each Cayley-kernel block, at least one per orbit.

    Entries are stored block-major: entry i*kappa + j is the j-th pick
    from block i (blocks follow the discovery order of D); entries are
    formally distinct even when the underlying element repeats, and the
    within-block position j is the tag valued in Z_kappa.  Entry 0 is the
    designated zero e.
    """

    elements: tuple[int, ...]
    kappa: int
    m: int

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def e(self) -> int:
        return self.elements[0]


def simple_multitransversal(q: Quandle) -> Multitransversal:
    """All of Q, cycled per block up to the largest block size."""
    blocks = _homim_translations(q).blocks
    kappa = max(len(b) for b in blocks)
    elems: list[int] = []
    for b in blocks:
        elems.extend(b[j % len(b)] for j in range(kappa))
    return Multitransversal(tuple(elems), kappa, len(blocks))


def optimized_multitransversal(q: Quandle) -> Multitransversal:
    """Greedy transversal keeping the per-block multiplicity low.

    Picks one element per orbit: the orbit of e goes first and takes e;
    the rest are processed most-constrained first (fewest candidate
    blocks) and each takes the smallest element of its currently
    least-loaded block.  Blocks are then padded to the maximum load.
    """
    tr = _homim_translations(q)
    blocks = tr.blocks
    m = len(blocks)
    block_of = tr.block_of.tolist()
    orbit_list = [list(b) for b in perms.orbits(q).blocks]
    loads = [0] * m
    chosen: list[list[int]] = [[] for _ in range(m)]

    def take(orbit: list[int], forced: int | None = None) -> None:
        if forced is not None:
            b = block_of[forced]
            chosen[b].append(forced)
            loads[b] += 1
            return
        cands = sorted({block_of[x] for x in orbit})
        b = min(cands, key=lambda i: (loads[i], i))
        x = min(x for x in orbit if block_of[x] == b)
        chosen[b].append(x)
        loads[b] += 1

    e = 0
    rest = []
    for orbit in orbit_list:
        if e in orbit:
            take(orbit, forced=e)
        else:
            rest.append(orbit)
    rest.sort(key=lambda orbit: (len({block_of[x] for x in orbit}), min(orbit)))
    for orbit in rest:
        take(orbit)

    kappa = max(loads)
    elems: list[int] = []
    for i, b in enumerate(blocks):
        entries = sorted(chosen[i])
        if i == 0:
            entries.remove(e)
            entries.insert(0, e)
        unused = [x for x in b if x not in entries]
        filler = cycle(b)
        while len(entries) < kappa:
            entries.append(unused.pop(0) if unused else next(filler))
        elems.extend(entries)
    return Multitransversal(tuple(elems), kappa, m)


def build_oplus(q: Quandle, t: Multitransversal) -> AbelianGroup:
    """The abelian group (T,+) = Dis(Q) x Z_kappa: entry i*kappa + j is
    the pair (D[i], j), added by composition in D and the tag mod kappa."""
    try:
        return _oplus(dis_as_group(Translations(q)), t)
    except NotAGroup as exc:
        raise OplusUndefined(str(exc)) from exc


def _oplus(dis: AbelianGroup, t: Multitransversal) -> AbelianGroup:
    if t.m != dis.order or t.size != dis.order * t.kappa:
        raise OplusUndefined("transversal does not match the block structure")
    return direct_product(dis, make_cyclic_product((t.kappa,)), name="(T,+)")


@dataclass(frozen=True, eq=False)
class CoverResult:
    """A = Dis(Q) x (T,+) with elements (alpha, t) indexed alpha-major."""

    group: AbelianGroup
    f: GroupAutomorphism
    psi: np.ndarray
    cover: AffineQuandle
    transversal: Multitransversal
    dis: tuple[tuple[int, ...], ...]

    @property
    def psi_bijective(self) -> bool:
        return len(set(self.psi.tolist())) == len(self.psi)

    def pair_of(self, u: int) -> tuple[int, int]:
        """(index in D, index in T) of the A-element u."""
        return divmod(u, self.transversal.size)


def dis_as_group(tr: Translations) -> AbelianGroup:
    """Dis(Q) = D, abelian and tiny, as a table-backed abelian group over
    D (built with e = 0, so that the identity is element 0)."""
    return AbelianGroup(tr.table, tr.inverses, name="Dis(Q)")


def build_cover(q: Quandle, t: Multitransversal) -> CoverResult:
    """Construct Aff(A,f) and the surjection psi onto Q, and verify them.

    A = Dis(Q) x (T,+), element (alpha, t) at alpha * |T| + t.  f maps
    (alpha, t) to (L_e alpha L_x^{-1}, t), where x is the element behind
    t, and psi maps it to alpha(x).  Since L_x = D[b] L_e for the block b
    of x, L_e alpha L_x^{-1} = (L_e alpha L_e^{-1}) D[b]^{-1}: a lookup in
    D's composition table.  verify_cover, called once here, is the one
    exhaustive check of A, f and psi; any failure raises
    InternalAssertionFailure.
    """
    tr = _homim_translations(q)
    group_d = dis_as_group(tr)
    a = direct_product(group_d, _oplus(group_d, t), name="Dis(Q) x (T,+)")
    le = q.array[0]
    conj = tr.index_of(le[tr.d[:, np.argsort(le)]])    # L_e alpha L_e^{-1}
    if conj.min() < 0:
        raise InternalAssertionFailure(
            "f image escapes D; displacement group is not tiny"
        )
    elems = np.asarray(t.elements)
    nt = t.size
    f_d = tr.table[conj][:, tr.inverses[tr.block_of[elems]]]   # (alpha, t)
    f_im = (f_d * np.int32(nt) + np.arange(nt, dtype=np.int32)).reshape(-1)
    psi = tr.d[:, elems].reshape(-1)
    f = GroupAutomorphism(a, f_im)
    try:
        cover = make_affine(a, f)
    except QuandleError as exc:
        raise InternalAssertionFailure(f"Aff(A,f) is not a quandle: {exc}") from exc
    result = CoverResult(a, f, psi, cover, t, tuple(map(tuple, tr.d.tolist())))
    report = verify_cover(result, q)
    if not report.ok:
        raise InternalAssertionFailure(
            "cover verification failed: " + "; ".join(report.failures)
        )
    return result


@dataclass(frozen=True)
class VerifyReport:
    failures: tuple[str, ...]
    a_order: int
    psi_bijective: bool

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_cover(result: CoverResult, q: Quandle) -> VerifyReport:
    """Independent exhaustive check of the cover.

    Confirms that A is an abelian group, f an automorphism, psi a
    surjective quandle homomorphism Aff(A,f) -> Q.  Reports the first
    witness per failed property instead of raising.
    """
    failures: list[str] = []
    a = result.group
    witness = check_abelian_table(a.add, a.neg)
    if witness is not None:
        failures.append(f"A is not an abelian group: {witness}")
    im = result.f.images
    n = a.order
    if not np.array_equal(np.sort(im), np.arange(n)):
        failures.append("f is not bijective")
    else:
        lhs = im[a.add]
        rhs = a.add[np.ix_(im, im)]
        if not np.array_equal(lhs, rhs):
            u, v = map(int, np.argwhere(lhs != rhs)[0])
            failures.append(f"f is not additive at ({u},{v})")
    psi = result.psi
    ct = result.cover.quandle.array
    qt = q.array
    if psi.shape != (n,) or psi.min() < 0 or psi.max() >= q.n:
        failures.append("psi is not a map into Q")
    else:
        lhs = psi[ct]
        rhs = qt[np.ix_(psi, psi)]
        if not np.array_equal(lhs, rhs):
            u, v = map(int, np.argwhere(lhs != rhs)[0])
            failures.append(
                f"psi is not a homomorphism at ({u},{v}): "
                f"psi(u*v)={int(lhs[u][v])} but psi(u)*psi(v)={int(rhs[u][v])}"
            )
        if set(psi.tolist()) != set(range(q.n)):
            failures.append("psi is not surjective")
    return VerifyReport(
        tuple(failures),
        a_order=n,
        psi_bijective=result.psi_bijective,
    )
