"""Affine quandle construction against direct modular arithmetic."""

import pytest

import numpy as np

from quandles.affine import (
    make_affine,
    one_minus_f_images,
    subquandle_closure,
)
from quandles.core import induced_subquandle, is_isomorphic, validate_quandle
from quandles.groups import (
    make_cyclic_product,
    multiplication_automorphism,
    validate_automorphism,
)
from quandles.perms import displacement_group, is_medial, is_semiregular, is_tiny

from conftest import aff
from oracles import affine_table_mod, as_tuples


@pytest.mark.parametrize(
    "m,u", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 2), (8, 5), (9, 4), (12, 7)]
)
def test_affine_table_matches_modular_formula(m, u):
    got = aff(m, u).quandle.array.tolist()
    assert got == affine_table_mod(m, u)


def test_identity_automorphism_gives_projection():
    g = make_cyclic_product((4,))
    t = make_affine(g, validate_automorphism(g, range(4))).quandle.array.tolist()
    assert all(t[a][b] == b for a in range(4) for b in range(4))


def test_affine_over_z2_squared():
    g = make_cyclic_product((2, 2))
    # Swap of coordinates is an automorphism of Z2 x Z2.
    f = validate_automorphism(g, [0, 2, 1, 3])
    t = make_affine(g, f).quandle.array.tolist()
    # a*b = a - f(a) + f(b) with indices (hi, lo) over bits.
    for a in range(4):
        for b in range(4):
            ah, al = divmod(a, 2)
            bh, bl = divmod(b, 2)
            expect = (((ah + al + bl) % 2) * 2 + (ah + al + bh) % 2)
            assert t[a][b] == expect


def test_affine_verdict_predicates_always_positive():
    for m, u in [(8, 5), (9, 4), (12, 7), (7, 3)]:
        q = aff(m, u).quandle
        assert is_medial(q)
        assert is_tiny(q)
        assert is_semiregular(displacement_group(q))


def test_image_of_one_minus_f():
    g = make_cyclic_product((8,))
    image = [np.unique(one_minus_f_images(g, multiplication_automorphism(g, u))).tolist()
             for u in (5, 3)]
    assert image == [[0, 4], [0, 2, 4, 6]]


def test_subquandle_closure_in_affine_z8_5():
    q = aff(8, 5).quandle
    # a*b = -4a + 5b: odd elements generate their coset plus 4Z8 shifts.
    assert subquandle_closure(q, [0]) == (0,)
    assert subquandle_closure(q, [0, 2]) == (0, 2)
    assert subquandle_closure(q, [1]) == (1,)
    # 0*1 = 5, 1*0 = 4, and {0,1,4,5} is closed.
    assert subquandle_closure(q, [0, 1]) == (0, 1, 4, 5)


def test_closed_subset_gives_subquandle():
    q = aff(9, 4).quandle
    sub = subquandle_closure(q, [0, 1])
    s = induced_subquandle(q, sub)
    assert validate_quandle(s.array.tolist()).n == s.n


@pytest.mark.parametrize("m,u", [(640, 161), (1024, 257)])
def test_large_affine_table_passes_validation_unchanged(m, u):
    # make_affine takes its table as a quandle by construction, at any size
    q = aff(m, u).quandle
    assert validate_quandle(q.array) == q


def test_displacement_of_affine_is_translation_by_image():
    g = make_cyclic_product((12,))
    f = multiplication_automorphism(g, 7)
    q = make_affine(g, f).quandle
    dis = displacement_group(q)
    image = np.unique(one_minus_f_images(g, f)).tolist()
    assert dis.order == len(image)
    assert set(as_tuples(dis.array)) == {
        tuple((b + s) % 12 for b in range(12)) for s in image
    }
