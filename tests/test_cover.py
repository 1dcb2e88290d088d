"""Transversals, the tagged addition, and covering affine quandles."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from quandles import cover, groups, perms
from quandles.core import is_isomorphic, validate_quandle
from quandles.cover import (
    build_cover,
    build_oplus,
    dis_as_group,
    is_homim_of_affine,
    optimized_multitransversal,
    simple_multitransversal,
    verify_cover,
)
from quandles.errors import NotHomImage, OplusUndefined
from quandles.groups import make_cyclic_product
from quandles.mesh import generate_max_mesh, mesh_sum
from quandles.perms import Translations, cayley_kernel, displacement_group

import corpus
from conftest import aff
from oracles import (
    element_loop_optimized_multitransversal,
    element_loop_simple_multitransversal,
    identity_perm,
    loop_optimized_multitransversal,
)


def proj(n: int):
    return validate_quandle([[b for b in range(n)] for _ in range(n)])


def test_is_homim_verdicts(sum_three_z2, sum_two_z3, sum_z2_z1):
    assert is_homim_of_affine(sum_three_z2)
    assert not is_homim_of_affine(sum_two_z3)
    assert is_homim_of_affine(sum_z2_z1)


def test_is_homim_true_for_affine(affine_corpus):
    for _, _, aq in affine_corpus:
        assert is_homim_of_affine(aq.quandle)


def test_cover_of_every_small_affine_quandle(affine_corpus):
    # L_e conjugates D nontrivially in most of these (Aff(Z5, 2): by 2),
    # and f must follow that conjugation for psi to be a homomorphism.
    for _, _, aq in affine_corpus:
        q = aq.quandle
        for make in (simple_multitransversal, optimized_multitransversal):
            assert verify_cover(build_cover(q, make(q)), q).ok


def test_conjugate_by_row_number_matches_row_lookup(small_corpus):
    # build_cover reads L_0 alpha L_0^{-1} for alpha = L_y L_0^{-1} as the
    # row number of 0*y (left distributivity: L_0 L_y L_0^{-1} = L_{0*y});
    # it must be the number of the row L_0 alpha, looked up in full.  The
    # identity holds in any quandle, so the negatives are checked too.
    cases = [q for _, q in small_corpus]
    cases += [aff(m, u).quandle for m in range(1, 17) for u in range(m)
              if np.gcd(u, m) == 1]
    for q in cases:
        tr = Translations(q)
        expected = q.rows.index_of(q.array[0][tr.d])
        assert (expected >= 0).all()
        assert q.rows.which[q.array[0, q.rows.first]].tolist() == expected.tolist()


def test_translation_blocks_identity_first(sum_three_z2):
    tr = Translations(sum_three_z2)
    d, blocks = [tuple(p) for p in tr.d.tolist()], cayley_kernel(sum_three_z2).blocks
    assert d[0] == identity_perm(6)
    assert len(d) == 2
    assert blocks == ((0, 1, 2, 3), (4, 5))
    # Block alignment: block index of x matches index of L_x L_e^{-1} in d.
    q = sum_three_z2
    e_row_inv = np.argsort(q.array[0])
    for bi, block in enumerate(blocks):
        for x in block:
            assert tuple(q.array[x][e_row_inv]) == d[bi]


def test_simple_multitransversal_sizes(sum_three_z2, sum_z2_z1):
    t = simple_multitransversal(sum_three_z2)
    assert (t.elements, t.kappa, t.m) == ((0, 1, 2, 3, 4, 5, 4, 5), 4, 2)
    t3 = simple_multitransversal(sum_z2_z1)
    assert (t3.elements, t3.kappa, t3.m) == ((0, 1, 2, 2), 2, 2)


def test_simple_multitransversal_cycles_each_block(small_corpus):
    cases = [q for _, q in small_corpus if is_homim_of_affine(q)]
    cases += [aff(m, u).quandle for m, u in corpus.affine_family(16)]
    for q in cases:
        t = simple_multitransversal(q)
        blocks = cayley_kernel(q).blocks
        kappa = max(len(b) for b in blocks)
        assert t.kappa == kappa
        assert t.elements == tuple(b[j % len(b)] for b in blocks for j in range(kappa))


def test_optimized_multitransversal_smaller(sum_three_z2, sum_z2_z1):
    t = optimized_multitransversal(sum_three_z2)
    assert (t.elements, t.kappa) == ((0, 2, 4, 5), 2)
    t3 = optimized_multitransversal(sum_z2_z1)
    assert (t3.elements, t3.kappa) == ((0, 2), 1)


def test_multitransversal_meets_every_orbit(sum_three_z2):
    from quandles.perms import orbits

    t = optimized_multitransversal(sum_three_z2)
    hit = set(t.elements)
    for orbit in orbits(sum_three_z2).blocks:
        assert hit & set(orbit)


def test_oplus_of_projection_is_cyclic():
    q = proj(3)
    t = simple_multitransversal(q)
    add = build_oplus(q, t).add
    assert np.array_equal(add, make_cyclic_product((3,)).add)


def _order_multiset(g):
    out = []
    for x in range(g.order):
        y, k = x, 1
        while y != 0:
            y = g.plus(y, x)
            k += 1
        out.append(k)
    return sorted(out)


def test_cover_group_structure(sum_three_z2):
    simple = build_cover(sum_three_z2, simple_multitransversal(sum_three_z2))
    opt = build_cover(sum_three_z2, optimized_multitransversal(sum_three_z2))
    assert simple.group.order == 16
    assert opt.group.order == 8
    # Optimized cover group is elementary abelian (Z2^3), simple is Z2^2 x Z4.
    assert _order_multiset(opt.group) == [1] + [2] * 7
    assert _order_multiset(simple.group) == [1] + [2] * 7 + [4] * 8


def test_cover_order_is_dis_times_transversal(sum_three_z2, sum_z2_z1):
    for q in (sum_three_z2, sum_z2_z1):
        t = optimized_multitransversal(q)
        r = build_cover(q, t)
        assert r.group.order == displacement_group(q).order * t.size


def test_psi_is_surjective_homomorphism(sum_z2_z1):
    q = sum_z2_z1
    r = build_cover(q, optimized_multitransversal(q))
    ct = r.cover.quandle.array.tolist()
    qt = q.array.tolist()
    psi = r.psi.tolist()
    assert set(psi) == set(range(q.n))
    for u in range(len(ct)):
        for v in range(len(ct)):
            assert psi[ct[u][v]] == qt[psi[u]][psi[v]]


def test_projection_cover_is_identity():
    q = proj(3)
    r = build_cover(q, simple_multitransversal(q))
    assert r.psi_bijective
    assert list(r.psi) == [0, 1, 2]
    assert is_isomorphic(r.cover.quandle, q) is not None


def test_bijective_cover_of_affine_input():
    # Aff(Z8,5) is covered bijectively from the optimized transversal, so
    # the cover is a re-coordinatized copy of the input.
    q = aff(8, 5).quandle
    r = build_cover(q, optimized_multitransversal(q))
    assert r.group.order == 8
    assert r.psi_bijective
    assert is_isomorphic(r.cover.quandle, q) is not None


def test_oplus_undefined_when_translations_not_closed(sum_two_z3, sum_three_z2):
    t = simple_multitransversal(sum_three_z2)
    with pytest.raises(OplusUndefined):
        build_oplus(sum_two_z3, t)


def test_negative_verdict_raises(sum_two_z3):
    with pytest.raises(NotHomImage):
        build_cover(sum_two_z3, simple_multitransversal(sum_two_z3))


def test_singleton_quandle_cover():
    q = proj(1)
    r = build_cover(q, simple_multitransversal(q))
    assert r.group.order == 1
    assert r.psi_bijective


def test_verify_cover_catches_tampered_psi(sum_three_z2):
    q = sum_three_z2
    r = build_cover(q, optimized_multitransversal(q))
    bad_psi = np.array(r.psi, dtype=np.int32)
    bad_psi[0], bad_psi[1] = bad_psi[1], bad_psi[0]
    tampered = dataclasses.replace(r, psi=bad_psi)
    report = verify_cover(tampered, q)
    assert not report.ok
    assert report.failures


def test_dis_as_group_matches_displacement_order(sum_three_z2, sum_z2_z1):
    for q in (sum_three_z2, sum_z2_z1):
        assert dis_as_group(Translations(q)).order == displacement_group(q).order


def test_pair_of_roundtrip(sum_z2_z1):
    q = sum_z2_z1
    r = build_cover(q, optimized_multitransversal(q))
    for u in range(r.group.order):
        di, ti = r.pair_of(u)
        assert u == di * r.transversal.size + ti


def test_build_cover_checks_the_cover_group_once(monkeypatch):
    q = mesh_sum(generate_max_mesh(8, 2))
    orders = []
    real = groups.check_abelian_table

    def counted(g):
        orders.append(g.order)
        return real(g)

    monkeypatch.setattr(groups, "check_abelian_table", counted)
    monkeypatch.setattr(cover, "check_abelian_table", counted)
    t = optimized_multitransversal(q)
    r = build_cover(q, t)
    assert r.group.order == 80 and len(r.dis) == 4 and t.size == 20
    # only the factor tables, Dis(Q) and Z_kappa, once each in
    # verify_cover; no order-80 (or order-20) table is checked
    assert sorted(orders) == [4, 5]


def _count_translations(monkeypatch) -> list:
    built = []
    real_init = perms.Translations.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(perms.Translations, "__init__", counted_init)
    return built


def test_build_cover_builds_the_translation_set_once(monkeypatch):
    q = mesh_sum(generate_max_mesh(8, 2))
    built = _count_translations(monkeypatch)
    t = optimized_multitransversal(q)
    r = build_cover(q, t)
    assert len(built) == 1
    assert r.transversal.translations is t.translations and t.m == 4


def test_transversal_of_another_quandle_is_refused_before_building(monkeypatch):
    q, other = aff(8, 5).quandle, aff(8, 3).quandle
    t = optimized_multitransversal(other)
    built, checked = _count_translations(monkeypatch), []
    monkeypatch.setattr(cover, "check_abelian_table", checked.append)
    for build in (build_cover, build_oplus):
        with pytest.raises(OplusUndefined, match="another quandle"):
            build(q, t)
    assert built == [] and checked == []
    monkeypatch.undo()
    # an equal quandle object is the same quandle
    copy = validate_quandle(other.array.tolist())
    assert copy is not other and verify_cover(build_cover(copy, t), copy).ok


def test_hand_built_transversal_over_non_closed_d_is_refused(sum_two_z3):
    t = cover.Multitransversal((0, 1, 2, 3, 4, 5), 3, Translations(sum_two_z3))
    for build in (build_cover, build_oplus):
        with pytest.raises(OplusUndefined, match="closed commutative"):
            build(sum_two_z3, t)


def _product(q1, q2):
    """Q1 x Q2 with the componentwise operation, (a, b) at a * |Q2| + b."""
    a, b = q1.array, q2.array
    table = a[:, None, :, None] * len(b) + b[None, :, None, :]
    return validate_quandle(table.reshape(len(a) * len(b), -1))


def _trivial(n: int):
    return validate_quandle([list(range(n))] * n)


def test_multitransversals_match_the_element_loops():
    # the array passes against the orbit and kernel Partition loops they
    # replaced; on the products every orbit meets several kernel blocks,
    # as many as every other, and two orbits meet the same blocks or
    # disjoint ones (optimized_multitransversal's lemma); in two of them a
    # block set is met by more orbits than it has blocks, so the deal wraps
    several = [_product(aff(3, 2).quandle, _trivial(4)),
               _product(aff(5, 2).quandle, mesh_sum(generate_max_mesh(8, 2))),
               _product(aff(7, 3).quandle, _product(aff(3, 2).quandle, _trivial(5))),
               _product(aff(5, 3).quandle, mesh_sum(generate_max_mesh(16, 3)))]
    wraps = []
    for q in several:
        block_of = q.rows.which.tolist()
        met = Counter(frozenset(block_of[x] for x in orbit) for orbit in perms.orbits(q).blocks)
        assert len({len(blocks) for blocks in met}) == 1 and len(next(iter(met))) > 1
        assert all(a == b or not a & b for a in met for b in met)
        wraps.append(any(count > len(blocks) for blocks, count in met.items()))
    assert wraps == [True, False, False, True]
    cases = several + [aff(m, u).quandle for m, u in corpus.affine_family(69)]
    cases += [mesh_sum(generate_max_mesh(n, k))
              for n, k in ((4, 1), (8, 2), (16, 3), (32, 4), (64, 5))]
    for q in cases:
        for make, loop in ((simple_multitransversal, element_loop_simple_multitransversal),
                           (optimized_multitransversal, element_loop_optimized_multitransversal)):
            t, ref = make(q), loop(q)
            assert (t.elements, t.kappa) == (ref.elements, ref.kappa)


def test_optimized_multitransversal_matches_the_forced_base_point_loop(small_corpus):
    cases = [q for _, q in small_corpus if is_homim_of_affine(q)]
    cases += [aff(m, u).quandle for m, u in corpus.affine_family(16)]
    assert len(cases) > 1000
    cases += [mesh_sum(generate_max_mesh(n, k)) for n, k in ((8, 2), (16, 3), (32, 4))]
    for q in cases:
        t, ref = optimized_multitransversal(q), loop_optimized_multitransversal(q)
        assert (t.elements, t.kappa) == (ref.elements, ref.kappa)


def test_build_cover_reads_each_generating_set_once(monkeypatch):
    # claims 1 and 3 share one generating set per factor table: D's is
    # walked once, though D is a factor of A twice, and Z_kappa states its
    # generator 1 (on Aff(Z_1024, 257) a walk of Z_64 would take 64 rounds)
    tables = []
    real = groups.generating_indices
    monkeypatch.setattr(groups, "generating_indices",
                        lambda add: tables.append(len(add)) or real(add))
    for q, d, kappa in ((mesh_sum(generate_max_mesh(16, 3)), 8, 9),
                        (aff(1024, 257).quandle, 4, 64)):
        t = optimized_multitransversal(q)
        tables.clear()
        r = build_cover(q, t)
        assert len(r.dis) == d and t.kappa == kappa
        assert tables == [d]


def test_build_oplus_matches_the_tagged_addition():
    # (T,+) entry i*kappa + j is (D[i], j): D-part by composition in D,
    # tag part mod kappa, compared with permutation products directly.
    for q in (mesh_sum(generate_max_mesh(8, 2)), aff(12, 7).quandle, aff(9, 4).quandle):
        t = optimized_multitransversal(q)
        g = build_oplus(q, t)
        d = [tuple(p) for p in Translations(q).d.tolist()]
        index = {p: i for i, p in enumerate(d)}
        k = t.kappa
        for u in range(t.size):
            for v in range(t.size):
                (i, a), (j, b) = divmod(u, k), divmod(v, k)
                prod = tuple(d[i][x] for x in d[j])
                assert g.plus(u, v) == index[prod] * k + (a + b) % k
            i, a = divmod(u, k)
            inv = tuple(sorted(range(q.n), key=lambda x: d[i][x]))
            assert g.neg[u] == index[inv] * k + (-a) % k
