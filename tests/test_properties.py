"""Property-based checks over randomly drawn parameters and relabelings."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.affine import make_affine, subquandle_closure
from quandles.core import is_isomorphic, validate_quandle
from quandles.groups import make_cyclic_product, multiplication_automorphism
from quandles.mesh import mesh_sum
from quandles.perms import (
    displacement_group,
    is_abelian,
    is_medial,
    is_semiregular,
    is_tiny,
    multiplication_group,
)

from conftest import aff, zero_phi_mesh
from oracles import as_tuples, compose, inverse, left_division, swap_labels


def _quandle_pool():
    from test_perms import transposition_conjugation_quandle

    return [
        mesh_sum(zero_phi_mesh([(2,), (2,), (2,)], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])),
        mesh_sum(zero_phi_mesh([(3,), (3,)], [[0, 1], [1, 0]])),
        mesh_sum(zero_phi_mesh([(2,), (1,)], [[0, 0], [1, 0]])),
        aff(8, 5).quandle,
        aff(9, 4).quandle,
        validate_quandle([[b for b in range(4)] for _ in range(4)]),
        transposition_conjugation_quandle(),
    ]


POOL = _quandle_pool()


affine_params = st.integers(min_value=1, max_value=12).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1] or [0]),
    )
)


@given(affine_params)
@settings(max_examples=60, deadline=None)
def test_affine_always_positive_verdicts(mu):
    m, u = mu
    q = aff(m, u).quandle
    assert is_medial(q)
    assert is_tiny(q)
    dis = displacement_group(q)
    assert is_abelian(dis)
    assert is_semiregular(dis)


@given(affine_params, st.data())
@settings(max_examples=60, deadline=None)
def test_left_division_roundtrips(mu, data):
    m, u = mu
    q = aff(m, u).quandle
    a = data.draw(st.integers(min_value=0, max_value=m - 1))
    c = data.draw(st.integers(min_value=0, max_value=m - 1))
    b = left_division(q)[a, c]
    assert q.array[a, b] == c
    assert left_division(q)[a, q.array[a, b]] == b


@given(st.sampled_from(range(len(POOL))), st.data())
@settings(max_examples=40, deadline=None)
def test_verdicts_invariant_under_relabeling(qi, data):
    q = POOL[qi]
    sigma = data.draw(st.permutations(list(range(q.n))))
    inv = [0] * q.n
    for i, v in enumerate(sigma):
        inv[v] = i
    t = q.array.tolist()
    table = [
        [sigma[t[inv[a]][inv[b]]] for b in range(q.n)] for a in range(q.n)
    ]
    q2 = validate_quandle(table)
    assert is_medial(q2) == is_medial(q)
    assert is_tiny(q2) == is_tiny(q)
    d1, d2 = displacement_group(q), displacement_group(q2)
    assert d1.order == d2.order
    assert is_semiregular(d1) == is_semiregular(d2)
    assert is_isomorphic(q, q2) is not None


@given(st.sampled_from(range(len(POOL))))
@settings(max_examples=len(POOL), deadline=None)
def test_translation_conjugation_identity(qi):
    # Left translations of a quandle satisfy L_{alpha(x)} = alpha L_x alpha^{-1}
    # for every alpha in the multiplication group.
    q = POOL[qi]
    lmlt = multiplication_group(q)
    rows = as_tuples(q.array)
    for alpha in as_tuples(lmlt.array):
        for x in range(q.n):
            lhs = rows[alpha[x]]
            rhs = compose(alpha, compose(rows[x], inverse(alpha)))
            assert lhs == rhs


@given(st.sampled_from(range(len(POOL))), st.data())
@settings(max_examples=40, deadline=None)
def test_tiny_is_independent_of_base_point(qi, data):
    q = POOL[qi]
    e = data.draw(st.integers(min_value=0, max_value=q.n - 1))
    assert is_tiny(swap_labels(q, e, 0)) == is_tiny(q)


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_subquandle_closure_is_idempotent_and_closed(m, data):
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    u = data.draw(st.sampled_from(units))
    q = aff(m, u).quandle
    seed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=3
        )
    )
    sub = subquandle_closure(q, seed)
    assert set(seed) <= set(sub)
    assert subquandle_closure(q, sub) == sub
    t, ldiv = q.array.tolist(), left_division(q).tolist()
    for a in sub:
        for b in sub:
            assert t[a][b] in sub
            assert ldiv[a][b] in sub


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_cyclic_product_group_axioms_hold(moduli):
    g = make_cyclic_product(moduli)
    n = g.order
    assert n == math.prod(moduli)
    # Spot-check associativity and inverses beyond the construction path.
    for a in range(0, n, max(1, n // 5)):
        for b in range(0, n, max(1, n // 5)):
            assert g.add[a, b] == g.add[b, a]
            assert g.add[a, g.neg[a]] == 0
