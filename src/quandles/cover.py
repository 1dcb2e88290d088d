"""Recognition of homomorphic images of affine quandles and explicit
construction of a covering affine quandle with a verified surjection.

The verdict: Q is a homomorphic image of an affine quandle iff its
displacement group is abelian and tiny, checked directly on the set
D = {L_x L_0^{-1}} (perms.Translations) without computing any group
closure.

The construction: pick a multitransversal T of the Cayley kernel that
meets every orbit, endow T with an abelian operation indexed by D and a
cyclic tag group Z_kappa, and return A = Dis(Q) x (T,+) together with an
automorphism f and a surjective quandle homomorphism psi: Aff(A,f) -> Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import perms
from .affine import AffineQuandle, make_affine, one_minus_f_images
from .core import Quandle, _chunks
from .errors import InternalAssertionFailure, NotHomImage, OplusUndefined
from .groups import (
    AbelianGroup,
    GroupAutomorphism,
    _additive_failure,
    check_abelian_table,
    direct_product,
    make_cyclic_product,
)
from .perms import Translations


def is_homim_of_affine(q: Quandle) -> bool:
    """Is Q a homomorphic image of an affine quandle?

    True iff D = {L_x L_0^{-1} : x in Q} commutes and is closed under
    composition, read off D's composition table.
    """
    return Translations(q).closed_abelian


def _homim_translations(q: Quandle) -> Translations:
    tr = Translations(q)
    if not tr.closed_abelian:
        raise NotHomImage()
    return tr


@dataclass(frozen=True)
class Multitransversal:
    """kappa entries from each Cayley-kernel block, at least one per orbit.

    Entries are stored block-major: entry i*kappa + j is the j-th pick
    from block i (blocks follow the discovery order of D); entries are
    formally distinct even when the underlying element repeats, and the
    within-block position j is the tag valued in Z_kappa.  ``translations``
    is the D of the quandle it was picked from, read again by build_oplus
    and build_cover.
    """

    elements: tuple[int, ...]
    kappa: int
    translations: Translations = field(repr=False)

    @property
    def m(self) -> int:
        return self.translations.m

    @property
    def size(self) -> int:
        return len(self.elements)


def simple_multitransversal(q: Quandle) -> Multitransversal:
    """All of Q, cycled per block up to the largest block size."""
    tr = _homim_translations(q)
    return _padded(tr, [[]] * tr.m, int(np.bincount(tr.block_of).max()))


def optimized_multitransversal(q: Quandle) -> Multitransversal:
    """Greedy transversal keeping the per-block multiplicity low.

    Picks one element per orbit, the orbit of 0 first and then the
    most constrained first (fewest candidate blocks, then least element):
    each orbit takes the smallest of its elements in its least-loaded
    candidate block.  The orbit of 0 thus takes 0 into block 0, as the
    first and least entry.  Blocks are then padded to the maximum load.
    An orbit is ascending, so its first element is its least.
    """
    tr = _homim_translations(q)
    block_of = tr.block_of.tolist()
    loads = [0] * tr.m
    chosen: list[list[int]] = [[] for _ in range(tr.m)]
    orbits = [(orbit, {block_of[x] for x in orbit}) for orbit in perms.orbits(q).blocks]
    orbits.sort(key=lambda ob: (ob[0][0] != 0, len(ob[1]), ob[0][0]))
    for orbit, cands in orbits:
        b = min(cands, key=lambda i: (loads[i], i))
        chosen[b].append(next(x for x in orbit if block_of[x] == b))
        loads[b] += 1
    return _padded(tr, chosen, max(loads))


def _padded(tr: Translations, chosen: list[list[int]], kappa: int) -> Multitransversal:
    """kappa entries per Cayley-kernel block, block-major: the block's
    chosen entries ascending, then its unused elements, then the block
    again in turn from its start."""
    elems: list[int] = []
    for picks, b in zip(chosen, perms.cayley_kernel(tr.q).blocks):
        taken = set(picks)
        entries = sorted(picks) + [x for x in b if x not in taken]
        entries += [b[j % len(b)] for j in range(kappa - len(entries))]
        elems.extend(entries[:kappa])
    return Multitransversal(tuple(elems), kappa, tr)


def _transversal_translations(q: Quandle, t: Multitransversal) -> Translations:
    """The D that t was picked from, refused unless it is Q's and, being
    closed and commutative, Dis(Q)."""
    tr = t.translations
    if tr.q != q:
        raise OplusUndefined("transversal belongs to another quandle")
    if not tr.closed_abelian:
        raise OplusUndefined("D is not a closed commutative set")
    return tr


def build_oplus(q: Quandle, t: Multitransversal) -> AbelianGroup:
    """The abelian group (T,+) = Dis(Q) x Z_kappa: entry i*kappa + j is
    the pair (D[i], j), added by composition in D and the tag mod kappa."""
    return _oplus(dis_as_group(_transversal_translations(q, t)), t)


def _oplus(dis: AbelianGroup, t: Multitransversal) -> AbelianGroup:
    if t.size != dis.order * t.kappa:
        raise OplusUndefined("transversal does not match the block structure")
    return direct_product(dis, make_cyclic_product((t.kappa,)), name="(T,+)")


@dataclass(frozen=True, eq=False)
class CoverResult:
    """A = Dis(Q) x (T,+) with elements (alpha, t) indexed alpha-major.

    ``group`` is kept as its factors and ``f``, ``psi`` are image arrays,
    so a result costs O(|A|); ``group.add`` and ``cover`` (the |A|^2
    table of Aff(A,f)) are built on first read and cached.
    """

    group: AbelianGroup
    f: GroupAutomorphism
    psi: np.ndarray
    transversal: Multitransversal

    @property
    def dis(self) -> np.ndarray:
        """D = Dis(Q) as read-only (|D|, |Q|) int32 rows (``Translations.d``)."""
        return self.transversal.translations.d

    @cached_property
    def cover(self) -> AffineQuandle:
        return make_affine(self.group, self.f)

    @property
    def psi_bijective(self) -> bool:
        return len(np.unique(self.psi)) == len(self.psi)

    def pair_of(self, u):
        """(index in D, index in T) of the A-element u, elementwise for an
        array of elements."""
        return divmod(u, self.transversal.size)


def dis_as_group(tr: Translations) -> AbelianGroup:
    """Dis(Q) = D, abelian and tiny, as a table-backed abelian group over
    D, unchecked: D's table is a group table, with the identity d[0] as
    element 0, once ``closed_abelian`` accepts it."""
    return AbelianGroup(tr.table, tr.inverses, name="Dis(Q)")


def build_cover(q: Quandle, t: Multitransversal) -> CoverResult:
    """Construct Aff(A,f) and the surjection psi onto Q, and verify them.

    A = Dis(Q) x (T,+), element (alpha, t) at alpha * |T| + t.  f maps
    (alpha, t) to (L_0 alpha L_x^{-1}, t), where x is the element behind
    t, and psi maps it to alpha(x).  Since L_x = D[b] L_0 for the block b
    of x, L_0 alpha L_x^{-1} = (L_0 alpha L_0^{-1}) D[b]^{-1}: a lookup in
    D's composition table.  For alpha = L_y L_0^{-1}, left distributivity
    gives L_0 L_y L_0^{-1} = L_{0*y}, so L_0 alpha L_0^{-1} is the member
    of D at the row number of 0*y.  A is kept as its factors and no
    |A|^2 table is built; verify_cover, called once here, proves every
    claim from the factor tables and is the certificate of the cover: a
    failure raises InternalAssertionFailure.  D is read from t, so a
    transversal of another quandle is refused with OplusUndefined before
    anything is built.
    """
    tr = _transversal_translations(q, t)
    group_d = dis_as_group(tr)
    a = direct_product(group_d, _oplus(group_d, t), name="Dis(Q) x (T,+)")
    conj = q.rows.which[q.array[0, q.rows.first]]   # L_0 alpha L_0^{-1} = L_{0*y} L_0^{-1}
    elems = np.asarray(t.elements)
    nt = t.size
    f_d = tr.table[conj][:, tr.inverses[tr.block_of[elems]]]   # (alpha, t)
    f_im = (f_d * np.int32(nt) + np.arange(nt, dtype=np.int32)).reshape(-1)
    psi = tr.d[:, elems].reshape(-1)
    f = GroupAutomorphism(a, f_im)
    result = CoverResult(a, f, psi, t)
    report = verify_cover(result, q)
    if not report.ok:
        raise InternalAssertionFailure(
            "cover verification failed: " + "; ".join(report.failures)
        )
    return result


@dataclass(frozen=True)
class VerifyReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_cover(result: CoverResult, q: Quandle) -> VerifyReport:
    """Check that A is an abelian group, f an automorphism and psi a
    surjective quandle homomorphism Aff(A,f) -> Q, from the factor tables
    of A, in O(sum of factor orders^2 + |A| (d + |gens|)); it is the one
    check of the factor tables' group axioms.  Reports the first witness
    per failed property instead of raising.  Each claim rests on one
    lemma:

    1. A is an abelian group.  A product group's order is the product of
       its factor orders and ``plus`` adds coordinates in the factor
       tables, u -> divmod(u, |G2|) being a bijection onto G1 x G2; so when
       check_abelian_table passes on each distinct factor table, A is a
       direct product of abelian groups.  |A| = |Dis(Q)| * |T| is checked
       so that pair_of is that bijection for the cover, and ``neg`` to
       invert every element, since w below is computed with it.
    2. f is bijective: its |A| images lie in 0..|A|-1 and hit each.
    3. f is additive.  Let S = {g : f(u+g) = f(u)+f(g) for all u}.  If g
       and h are in S, then f(u+g+h) = f(u+g)+f(h) = f(u)+f(g)+f(h) =
       f(u)+f(g+h), so S is closed under +, and in a finite group a
       nonempty subset closed under + is a subgroup.  The lifted
       generators of the factors generate A, so checking f(u+g) = f(u)+f(g)
       for every u and each of them (|A| * |gens|, _additive_failure) shows
       S = A.  A table-backed factor reads its generating set off its table
       once and keeps it, so D's is read once, for claims 1 and 3, although
       D is a factor twice.
    4. psi maps into Q: shape |A| and values in 0..|Q|-1.
    5. psi is a homomorphism.  In Aff(A,f), u*v = w(u) + f(v) with
       w = (1-f)(u) = u + neg(f(u)), so u*v depends on u only through w(u).
       For one representative r per value of w, psi(r*v) = psi(r)*psi(v)
       is checked for every v (d * |A| for d values).  If r passes, then
       for u with w(u) = w(r), psi(u*v) = psi(r*v) = psi(r)*psi(v), so u
       passes if the row of psi(u) in Q equals that of psi(r): one
       comparison of the row numbers ``q.rows.which`` per u.  Every u that
       fails is therefore behind a failing representative or has a
       differing row (rows equal in full are equal on the image of psi);
       only those are rescanned, in ascending order, so the witness (u, v)
       is the first in row-major order.
    6. psi is surjective: its values cover 0..|Q|-1.

    Claims 2-6 are stated over A, so they are checked only when claim 1
    holds; claims 3 and 5 sum f's images with ``plus``, which is defined
    on elements only, so they run after claim 2's range check.
    """
    failures: list[str] = []
    a, im, psi = result.group, result.f.images, result.psi
    n = a.order
    witness = _group_witness(a, len(result.dis) * result.transversal.size)
    if witness is not None:
        return VerifyReport((f"A is not an abelian group: {witness}",))
    f_in_range = im.shape == (n,) and im.min() >= 0 and im.max() < n
    if not (f_in_range and np.bincount(im, minlength=n).all()):
        failures.append("f is not bijective")
    elif (witness := _additive_failure(a, im)) is not None:
        failures.append("f is not additive at ({1},{0})".format(*witness))
    if psi.shape != (n,) or psi.min() < 0 or psi.max() >= q.n:
        failures.append("psi is not a map into Q")
    else:
        if f_in_range:
            witness = _psi_witness(a, result.f, psi, q)
            if witness is not None:
                failures.append("psi is not a homomorphism at ({},{}): "
                                "psi(u*v)={} but psi(u)*psi(v)={}".format(*witness))
        if not np.bincount(psi, minlength=q.n).all():
            failures.append("psi is not surjective")
    return VerifyReport(tuple(failures))


def _group_witness(a: AbelianGroup, order: int) -> str | None:
    """Claim 1: each distinct factor table is an abelian group, |A| is
    ``order``, and neg inverts.  Light's test reads the generating set
    the factor keeps, walked off its table once, which claim 3 reads too."""
    for g in {id(g): g for g in a.factors()}.values():
        witness = check_abelian_table(g)
        if witness is not None:
            return witness
    if a.order != order:
        return f"order {a.order} is not |Dis(Q)| * |T| = {order}"
    bad = a.plus(np.arange(a.order), a.neg) != 0
    if bad.any():
        return f"neg({int(np.flatnonzero(bad)[0])}) is not an inverse"
    return None


def _psi_witness(a: AbelianGroup, f: GroupAutomorphism, psi: np.ndarray,
                 q: Quandle) -> tuple[int, int, int, int] | None:
    """Claim 5: the first (u, v, psi(u*v), psi(u)*psi(v)) in row-major
    order with psi(u*v) != psi(u)*psi(v), or None."""
    n, im, qt = a.order, f.images, q.array
    w = one_minus_f_images(a, f)
    _, reps, cls = np.unique(w, return_index=True, return_inverse=True)
    bad_rep = np.zeros(len(reps), dtype=bool)
    for start, stop in _chunks(0, len(reps), n):
        r = reps[start:stop]
        lhs = psi.take(a.plus(w.take(r)[:, None], im[None, :]))
        rhs = qt.take(psi.take(r), axis=0).take(psi, axis=1)
        bad_rep[start:stop] = (lhs != rhs).any(axis=1)
    row_id = q.rows.which
    suspect = bad_rep.take(cls) | (row_id.take(psi) != row_id.take(psi.take(reps.take(cls))))
    for u in np.flatnonzero(suspect).tolist():
        lhs = psi.take(a.plus(w[u], im))
        rhs = qt[psi[u]].take(psi)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            v = int(bad[0])
            return u, v, int(lhs[v]), int(rhs[v])
    return None
