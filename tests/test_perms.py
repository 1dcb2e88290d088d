"""Permutation closure, displacement/multiplication groups, kernel, verdict
predicates, cross-checked against naive set-fixpoint oracles."""

import numpy as np
import pytest

from quandles import core, perms
from quandles.core import validate_quandle
from quandles.cover import is_homim_of_affine
from quandles.errors import DegreeMismatch
from quandles.perms import (
    Translations,
    cayley_kernel,
    closure,
    displacement_group,
    is_abelian,
    is_medial,
    is_semiregular,
    is_tiny,
    multiplication_group,
    orbits,
)

from conftest import aff
from oracles import (
    as_tuples,
    compose,
    fifo_closure,
    identity_perm,
    inverse,
    naive_closure,
    naive_is_medial,
    naive_orbits,
    swap_labels,
)


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # compose(p, q) applies q first.
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse(p)) == identity_perm(3)
    assert compose(inverse(p), p) == identity_perm(3)


def test_closure_symmetric_group_order():
    g = closure([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert set(as_tuples(g.array)) == naive_closure([(1, 0, 2), (1, 2, 0)])


def test_closure_starts_at_identity_bfs_order():
    g = closure([(1, 2, 3, 0)])
    assert as_tuples(g.array)[0] == identity_perm(4)
    # Cyclic generator: BFS discovers powers in order.
    assert as_tuples(g.array) == (
        (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
    )


@pytest.mark.parametrize("gens,degree", [([], 0), ([[]], None), ([[], []], None)])
def test_closure_of_degree_zero_is_the_trivial_group(gens, degree):
    g = closure(gens, degree)
    assert g.degree == 0 and g.order == 1 and g.array.shape == (1, 0)


def test_closure_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        closure([(1, 0), (0, 1, 2)])


@pytest.mark.parametrize("gen", [np.array([1, 2**32]), [1, 2**40]])
def test_closure_refuses_images_int32_cannot_hold(gen):
    # np.array([1, 2**32]) would wrap to the swap (1, 0)
    with pytest.raises(ValueError):
        closure([gen])


@pytest.mark.parametrize("gens, bad", [
    ([[-1, 0, 1]], 0),             # an image below 0
    ([[1, 0, 2], [0, 0, 1]], 1),   # not a bijection
    ([[1, 0, 5]], 0),              # an image past the degree
])
def test_closure_refuses_generators_that_are_not_permutations(gens, bad):
    with pytest.raises(ValueError, match=f"generator {bad} is not a permutation of 0..2"):
        closure(gens)


def test_closure_refuses_non_integer_images_and_takes_integral_floats():
    with pytest.raises(ValueError, match="not an integer"):
        closure([[1, 0.5, 2]])
    assert closure([[1.0, 0.0, 2.0]]).array.tolist() == [[0, 1, 2], [1, 0, 2]]


def test_multiplication_group_of_affine_z8_5():
    # LMlt(Aff(Z8,5)) = maps b -> 5^k b + 4t: since 5^2 = 1 (mod 8) and
    # translations lie in 4Z8, the order is 2 * 2 = 4 (naive fixpoint agrees).
    q = aff(8, 5).quandle
    lmlt = multiplication_group(q)
    assert lmlt.order == 4
    assert set(as_tuples(lmlt.array)) == naive_closure(list(as_tuples(q.array)))


def test_displacement_group_of_affine_is_image_of_one_minus_f():
    # Dis(Aff(Z8,5)) is translation by Im(1-5) = {0,4}.
    q = aff(8, 5).quandle
    dis = displacement_group(q)
    assert dis.order == 2
    assert set(as_tuples(dis.array)) == {
        tuple((b + s) % 8 for b in range(8)) for s in (0, 4)
    }


def test_orbits_match_connectivity():
    q = aff(9, 4).quandle
    # Im(1-4) = 3Z9, so orbits are cosets of {0,3,6}.
    assert orbits(q).blocks == ((0, 3, 6), (1, 4, 7), (2, 5, 8))


def test_cayley_kernel_of_affine_z8_5():
    # L_a = L_b iff (1-5)a = (1-5)b iff a = b (mod 2).
    q = aff(8, 5).quandle
    assert cayley_kernel(q).blocks == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_cayley_kernel_trivial_when_one_minus_f_injective():
    q = aff(5, 2).quandle
    assert cayley_kernel(q).sizes() == (1, 1, 1, 1, 1)


def test_is_abelian_on_symmetric_and_cyclic():
    assert not is_abelian(closure([(1, 0, 2), (1, 2, 0)]))
    assert is_abelian(closure([(1, 2, 3, 0)]))
    # repeated generators and none at all
    assert not is_abelian(closure([(1, 0, 2)] * 4 + [(1, 2, 0)] * 2))
    assert is_abelian(closure([(1, 2, 3, 0)] * 5 + [(2, 3, 0, 1)] * 3))
    assert is_abelian(closure([], 3))


def test_is_semiregular():
    # Translations of Z4 are semiregular; S3 is not.
    assert is_semiregular(closure([(1, 2, 3, 0)]))
    assert not is_semiregular(closure([(1, 0, 2), (1, 2, 0)]))


def test_translation_set_dedupes_in_element_order():
    q = aff(8, 5).quandle
    ts = [tuple(p) for p in Translations(q).d.tolist()]
    assert len(ts) == 2
    assert ts[0] == identity_perm(8)  # L_0 L_0^{-1}


def test_is_tiny_affine_true():
    for m, u in [(8, 5), (9, 4), (12, 7), (5, 2)]:
        assert is_tiny(aff(m, u).quandle)


def test_is_tiny_false_for_non_closed_translation_set(sum_two_z3):
    # |Dis| = 3 but only translations by two displacement values occur.
    assert not is_tiny(sum_two_z3)
    assert displacement_group(sum_two_z3).order == 3


def transposition_conjugation_quandle(k: int = 4):
    """x*y = xyx on the transpositions of S_k; for k = 4 the smallest
    standard example of a non-medial quandle."""
    from itertools import combinations

    trans = []
    for i, j in combinations(range(k), 2):
        p = list(range(k))
        p[i], p[j] = p[j], p[i]
        trans.append(tuple(p))

    def conj(x, y):
        return compose(compose(x, y), x)

    return validate_quandle(
        [[trans.index(conj(x, y)) for y in trans] for x in trans]
    )


def test_is_medial_matches_naive_oracle(sum_three_z2, sum_two_z3):
    cases = (
        sum_three_z2,
        sum_two_z3,
        aff(8, 5).quandle,
        *(transposition_conjugation_quandle(k) for k in (4, 5, 6)),
        conjugation_quandle_s3(),
    )
    verdicts = []
    for q in cases:
        verdicts.append(is_medial(q))
        assert verdicts[-1] == naive_is_medial(q.array.tolist())
    assert verdicts == [True] * 3 + [False] * 4


def test_non_medial_has_nonabelian_displacement():
    q = transposition_conjugation_quandle()
    assert not is_medial(q)
    assert not is_abelian(displacement_group(q))
    assert not is_tiny(q)
    assert not is_semiregular(displacement_group(q))


def conjugation_quandle_s3():
    """x*y = x y x^{-1} on all of S3; with e the identity, D is the group
    of inner automorphisms, closed and not abelian."""
    from itertools import permutations

    elems = list(permutations(range(3)))

    def conj(x, y):
        return compose(compose(x, y), inverse(x))

    return validate_quandle(
        [[elems.index(conj(x, y)) for y in elems] for x in elems]
    )


def test_translation_table_matches_compose(sum_three_z2, sum_two_z3):
    cases = (
        sum_three_z2,
        sum_two_z3,
        aff(8, 5).quandle,
        aff(12, 7).quandle,
        transposition_conjugation_quandle(),
        conjugation_quandle_s3(),
    )
    # relabeled by (e 0), so that D at base point 0 is D at e of q0, conjugated
    for q0 in cases:
        for e in range(q0.n):
            q = swap_labels(q0, e, 0)
            rows = as_tuples(q.array)
            tr = Translations(q)
            d = [tuple(p) for p in tr.d.tolist()]
            index = {p: i for i, p in enumerate(d)}
            assert d == list(dict.fromkeys(
                compose(rows[x], inverse(rows[0])) for x in range(q.n)
            ))
            assert [index[compose(rows[x], inverse(rows[0]))] for x in range(q.n)] == (
                tr.block_of.tolist()
            )
            for i, a in enumerate(d):
                assert tr.inverses[i] == index.get(inverse(a), -1)
                for j, b in enumerate(d):
                    assert tr.table[i, j] == index.get(compose(a, b), -1)
            assert is_tiny(q) == all(
                compose(a, b) in index for a in d for b in d
            )


def test_closed_non_abelian_translation_set():
    # Dis(Conj(S3)) = Inn(S3) is tiny but not abelian: not an affine image
    q = conjugation_quandle_s3()
    tr = Translations(q)
    assert tr.closed and not np.array_equal(tr.table, tr.table.T)
    assert is_tiny(q) and not is_homim_of_affine(q)


def test_translation_table_chunks_agree(monkeypatch):
    q = transposition_conjugation_quandle()
    whole = Translations(q).table
    monkeypatch.setattr(core, "CHUNK_ENTRIES", 1)
    assert np.array_equal(Translations(q).table, whole)


def test_dis_and_lmlt_orbits_coincide(small_corpus):
    # Dis(Q) and LMlt(Q) have the same orbits; orbits() walks the rows only.
    cases = [q for _, q in small_corpus] + [transposition_conjugation_quandle()]
    for q in cases:
        by_dis = naive_orbits(Translations(q).d, q.n)
        assert by_dis == naive_orbits(as_tuples(q.array), q.n) == orbits(q).blocks


def _loop_cayley_kernel(q) -> tuple[tuple[int, ...], ...]:
    """Blocks of equal rows, each gathered by one scan of the table."""
    rows = as_tuples(q.array)
    return tuple(
        tuple(x for x in range(q.n) if rows[x] == rows[a])
        for a in range(q.n) if rows.index(rows[a]) == a
    )


def test_partitions_match_per_block_oracles(small_corpus):
    for _, q in small_corpus:
        assert cayley_kernel(q).blocks == _loop_cayley_kernel(q)
        assert orbits(q).blocks == naive_orbits(as_tuples(q.array), q.n)


def test_closure_matches_fifo_reference(small_corpus):
    # The layered closure lists elements in the order of a FIFO queue.
    gen_sets = [
        ([(1, 0, 2), (1, 2, 0)], None),
        ([(1, 2, 3, 0)], None),
        ([(1, 0, 2), (1, 2, 0), (1, 0, 2), (0, 1, 2)], None),
        ([], 5),
    ]
    quandles = [q for _, q in small_corpus] + [
        transposition_conjugation_quandle(k) for k in (4, 5, 6)
    ]
    for q in quandles:
        gen_sets.append((as_tuples(q.array), q.n))
        # D with repeats: L_a L_0^{-1} for every a
        gen_sets.append((q.array[:, np.argsort(q.array[0])].tolist(), q.n))
    for gens, degree in gen_sets:
        group, ref = closure(gens, degree), fifo_closure(gens, degree)
        assert as_tuples(group.array) == ref.elements
        assert as_tuples(group.generators) == ref.generators
        for rows in (group.array, group.generators):
            assert rows.dtype == np.int32 and not rows.flags.writeable


def test_closure_and_commutation_chunks_agree(monkeypatch):
    gens = transposition_conjugation_quandle(5).array
    whole = closure(gens).array
    monkeypatch.setattr(perms, "CHUNK_ENTRIES", 1)
    monkeypatch.setattr(core, "CHUNK_ENTRIES", 1)
    assert np.array_equal(closure(gens).array, whole)
    assert not is_abelian(closure([(1, 0, 2), (1, 2, 0)]))
    assert is_abelian(closure([(1, 2, 3, 0), (2, 3, 0, 1)]))
    assert not is_medial(transposition_conjugation_quandle())
    assert is_medial(aff(12, 5).quandle)


def test_membership_searches_the_elements():
    g = closure([(1, 2, 3, 0)])
    members = {tuple(row) for row in g.array.tolist()}
    assert (2, 3, 0, 1) in members and (3, 0, 1, 2) in members
    assert (1, 0, 3, 2) not in members
