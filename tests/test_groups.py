"""Abelian group tables, automorphisms, homomorphism enumeration."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import core, groups
from quandles.affine import make_affine
from quandles.cover import build_cover, optimized_multitransversal, verify_cover
from quandles.errors import EmptyModuli, NotAdditive, NotBijective, TooLarge
from quandles.groups import (
    AbelianGroup,
    GroupAutomorphism,
    _check_table_limit,
    check_abelian_table,
    direct_product,
    generating_indices,
    make_cyclic_product,
    multiplication_automorphism,
    validate_automorphism,
)
from quandles.mesh import generate_max_mesh, mesh_sum

from oracles import (
    enumerate_homomorphism_images,
    exhaustive_additivity_witness,
    int64_cyclic_product,
)


def test_cyclic_group_table():
    g = make_cyclic_product((5,))
    assert g.order == 5
    assert g.add[3, 4] == 2
    assert g.neg[2] == 3
    assert g.add[1, g.neg[3]] == 3


def test_mixed_radix_product_order_and_tuples():
    g = make_cyclic_product((2, 3))
    assert g.order == 6
    # Index i encodes (i // 3, i % 3).
    assert np.unravel_index(5, g.moduli) == (1, 2)
    a, b = 4, 5  # (1,1) + (1,2) = (0,0)
    assert g.add[a, b] == 0


def test_zero_is_element_zero():
    for moduli in [(1,), (4,), (2, 2), (3, 3)]:
        g = make_cyclic_product(moduli)
        assert all(g.add[0, a] == a for a in range(g.order))


def test_empty_moduli_rejected():
    with pytest.raises(EmptyModuli):
        make_cyclic_product(())


@pytest.mark.parametrize("moduli", [(2.5,), ("3",)])
def test_non_integer_modulus_is_refused(moduli):
    # refused, not truncated to Z_2 or parsed as Z_3
    with pytest.raises(ValueError, match="is not an integer"):
        make_cyclic_product(moduli)
    assert make_cyclic_product((3.0,)).moduli == (3,)


def test_group_table_validation_rejects_nonassociative():
    # Swap two entries of Z3's table: breaks the axioms.
    g = make_cyclic_product((3,))
    add = np.array(g.add, dtype=np.int32)
    add[1, 1], add[1, 2] = add[1, 2], add[1, 1]
    neg = np.array(g.neg, dtype=np.int32)
    assert check_abelian_table(AbelianGroup(add, neg)) is not None


def test_check_abelian_table_rejects_noncommutative():
    # S3's Cayley table is a group but not abelian.
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0),
    ]
    idx = {p: i for i, p in enumerate(perms)}
    add = np.array(
        [
            [idx[tuple(p[q[k]] for k in range(3))] for q in perms]
            for p in perms
        ],
        dtype=np.int32,
    )
    neg = np.array([idx[tuple(np.argsort(p))] for p in perms], dtype=np.int32)
    assert check_abelian_table(AbelianGroup(add, neg)) is not None


def test_generating_indices_generate():
    g = make_cyclic_product((2, 4))
    add = np.array(g.add, dtype=np.int32)
    gens = generating_indices(add)
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = int(add[x, s])
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(range(8))


def test_direct_product_index_layout():
    g1 = make_cyclic_product((2,))
    g2 = make_cyclic_product((3,))
    g = direct_product(g1, g2)
    assert g.order == 6
    # index = a * |G2| + b
    assert g.plus(1 * 3 + 2, 1 * 3 + 2) == 0 * 3 + 1


def test_direct_product_sums_from_its_factors():
    # (T,+)-like nesting: Z2 x (Z3 x Z4); plus, neg and the lazily built
    # table agree, and the table is built only when read
    g1, g2, g3 = (make_cyclic_product((m,)) for m in (2, 3, 4))
    g = direct_product(g1, direct_product(g2, g3))
    assert g.order == 24 and "add" not in vars(g)
    x, y = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
    assert np.array_equal(g.plus(x, y), g.add)
    assert np.array_equal(g.add, make_cyclic_product((2, 3, 4)).add)
    assert np.array_equal(g.neg, make_cyclic_product((2, 3, 4)).neg)


def test_oversized_direct_product_table_refused_before_allocating():
    g = direct_product(make_cyclic_product((200,)), make_cyclic_product((100,)))
    assert g.order == 20000 and g.plus(1, 100) == 101
    assert _refusal_peak(lambda: g.add) < 1 << 20


@pytest.mark.parametrize("moduli", [(4096,), (64, 64), (2, 3, 4), (5, 5), (1,)])
def test_cyclic_product_matches_the_int64_formula(moduli):
    g = make_cyclic_product(moduli)
    add, neg = int64_cyclic_product(moduli)
    assert g.add.dtype == np.int32
    assert np.array_equal(g.add, add) and np.array_equal(g.neg, neg)


# Every moduli tuple the tests of this file build a cyclic product from.
LISTED_MODULI = [
    (1,), (2,), (3,), (4,), (5,), (6,), (8,), (100,), (200,), (300,), (4096,),
    (2, 2), (2, 3), (2, 4), (3, 3), (4, 6), (5, 5), (64, 64), (2, 3, 4),
    (3, 3, 3),
]


@pytest.mark.parametrize("moduli", LISTED_MODULI)
def test_cyclic_product_is_a_group(moduli):
    # make_cyclic_product checks nothing; its tables are a group by
    # construction, and this is the check of that.
    g = make_cyclic_product(moduli)
    assert check_abelian_table(g) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_cyclic_product_is_a_group_for_any_moduli(moduli):
    g = make_cyclic_product(moduli)
    assert check_abelian_table(g) is None


@pytest.mark.parametrize("moduli", [(4096,), (64, 64)])
def test_cyclic_product_builds_its_table_only_when_read(moduli):
    # neg, plus and the generators need no table; add is the int64 formula
    tracemalloc.start()
    try:
        g = make_cyclic_product(moduli)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and "add" not in vars(g)
    add, neg = int64_cyclic_product(moduli)
    x = np.arange(g.order)
    rng = np.random.default_rng(20261020)
    a, b = rng.integers(0, g.order, (2, 1000))
    assert np.array_equal(g.neg, neg)
    assert np.array_equal(g.plus(a, b), add[a, b])
    assert np.array_equal(g.plus(x[:, None], x[:64][None, :]), add[:, :64])
    assert g.generators() == generating_indices(add)
    assert "add" not in vars(g)
    assert g.add.dtype == np.int32 and not g.add.flags.writeable
    assert np.array_equal(g.add, add)


@pytest.mark.parametrize("moduli", LISTED_MODULI)
def test_cyclic_product_generators_are_read_off_the_table(moduli):
    # [1] for Z_m, m >= 2, [] for Z_1, the ascending unit coordinates of a
    # product: what the greedy search gives on the table
    g = make_cyclic_product(moduli)
    assert g.generators() == generating_indices(int64_cyclic_product(moduli)[0])


def test_cyclic_product_builds_in_about_its_table_size():
    # a 67 MB int32 table each: Z_4096 is reduced mod 4096 in place, and
    # Z_64 x Z_64 is written at once from its 64 x 64 factor tables
    for moduli in ((4096,), (64, 64)):
        tracemalloc.start()
        try:
            make_cyclic_product(moduli)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 4 * 4096 ** 2, moduli


def test_validate_automorphism_accepts_and_inverts():
    g = make_cyclic_product((8,))
    f = validate_automorphism(g, [(3 * a) % 8 for a in range(8)])
    assert f.images[1] == 3
    assert np.argsort(f.images)[3] == 1


def test_validate_automorphism_rejects_non_bijection():
    g = make_cyclic_product((8,))
    with pytest.raises(NotBijective):
        validate_automorphism(g, [(2 * a) % 8 for a in range(8)])


@pytest.mark.parametrize("images", [
    np.array([0, 1 + 2**32, 2, 3]),          # wraps to the identity in int32
    np.array([0, 3, 2, 1 - 2**32], dtype=np.int64),
    [0, 2**63, 2, 3],
])
def test_validate_automorphism_refuses_images_int32_cannot_hold(images):
    with pytest.raises(NotBijective):
        validate_automorphism(make_cyclic_product((4,)), images)


def test_validate_automorphism_rejects_non_additive():
    g = make_cyclic_product((4,))
    with pytest.raises(NotAdditive):
        validate_automorphism(g, [0, 1, 3, 2])


def test_validate_automorphism_witness_matches_exhaustive_check(monkeypatch):
    # random permutations, mostly not additive, and the automorphisms x -> -x;
    # at one row per chunk a witness past the first chunk must be offset right
    rng = np.random.default_rng(20261019)
    moduli = [(m,) for m in range(1, 40)] + [(2, 2), (2, 4), (3, 3), (2, 2, 2), (4, 4)]
    cases = []
    for mod in moduli:
        g = make_cyclic_product(mod)
        cases += [(g, g.neg)] + [(g, rng.permutation(g.order)) for _ in range(25)]
    rejected = 0
    for chunk in (core.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
        for g, images in cases:
            witness = exhaustive_additivity_witness(g, images)
            if witness is None:
                validate_automorphism(g, images)
                continue
            with pytest.raises(NotAdditive) as exc:
                validate_automorphism(g, images)
            assert exc.value.witness == witness
            rejected += 1
    assert rejected > 2 * 1000


def test_validate_automorphism_holds_one_chunk_of_temporaries():
    # Z_2048's table is 16 MiB; f(a+b) and f(a)+f(b) as whole tables would
    # be two more
    g = make_cyclic_product((2048,))
    images = (3 * np.arange(2048)) % 2048
    tracemalloc.start()
    try:
        validate_automorphism(g, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_multiplication_automorphism_requires_unit():
    g = make_cyclic_product((8,))
    assert multiplication_automorphism(g, 5).images[3] == 7
    with pytest.raises(NotBijective):
        multiplication_automorphism(g, 2)


def _images_or_refusal(make):
    try:
        f = make()
    except NotBijective:
        return "NotBijective"
    assert f.images.dtype == np.int32 and not f.images.flags.writeable
    return f.images.tolist()


def test_multiplication_automorphism_matches_the_validated_image_list():
    # x -> u*x is additive for every u, so only gcd(u, m) is checked; the
    # reference validates the whole image list.
    for m in range(1, 65):
        g = make_cyclic_product((m,))
        for u in range(-2 * m, 3 * m):
            expected = _images_or_refusal(
                lambda: validate_automorphism(g, [(u * x) % m for x in range(m)]))
            assert _images_or_refusal(lambda: multiplication_automorphism(g, u)) == expected


def test_hom_count_between_cyclic_groups():
    # |Hom(Z_m, Z_n)| = gcd(m, n).
    import math

    for m in (1, 2, 3, 4, 6):
        for n in (1, 2, 3, 4, 6):
            src = make_cyclic_product((m,))
            dst = make_cyclic_product((n,))
            homs = enumerate_homomorphism_images(src, dst)
            assert len(homs) == math.gcd(m, n), (m, n)


def test_automorphism_count_of_z2_squared():
    g = make_cyclic_product((2, 2))
    autos = [
        im
        for im in enumerate_homomorphism_images(g, g)
        if len(set(map(int, im))) == 4
    ]
    assert len(autos) == 6  # |GL(2, F2)|


def _pairwise_generating_indices(add: np.ndarray) -> list[int]:
    """Reference: greedy generators, closing under all pairwise sums."""
    n = len(add)
    closed = {0}
    gens = []
    for x in range(n):
        if x in closed:
            continue
        gens.append(x)
        closed.add(x)
        while True:
            new = {int(add[a, b]) for a in closed for b in closed} - closed
            if not new:
                break
            closed |= new
        if len(closed) == n:
            break
    return gens


@pytest.mark.parametrize("moduli", [(1,), (6,), (2, 2), (2, 4), (3, 3, 3), (4, 6), (2, 3, 4)])
def test_generating_indices_match_pairwise_closure(moduli):
    g = make_cyclic_product(moduli)
    rng = np.random.default_rng(len(moduli))
    for _ in range(3):
        # relabel the nonzero elements, keeping 0 at index 0
        perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
        inv = np.argsort(perm)
        add = perm[g.add[np.ix_(inv, inv)]]
        assert generating_indices(add) == _pairwise_generating_indices(add)


def _two_sided_light_witness(add: np.ndarray) -> str | None:
    """Reference: Light's test as (a+g)+c == a+(g+c) per generator g."""
    for x in generating_indices(add):
        left = add[add[:, x], :]       # (a+g)+c
        right = add[:, add[x, :]]      # a+(g+c)
        if not np.array_equal(left, right):
            a, c = map(int, np.argwhere(left != right)[0])
            return f"not associative at ({a},{x},{c})"
    return None


def _z6_swapped() -> np.ndarray:
    # Z6 with 1+2 and 1+3 exchanged on both sides: commutative, 0 neutral,
    # inverses intact, not associative.
    add = np.array(make_cyclic_product((6,)).add, dtype=np.int32)
    add[1, 2] = add[2, 1] = 4
    add[1, 3] = add[3, 1] = 3
    return add


def _z4_z2_swapped() -> np.ndarray:
    # Z4 x Z2 with (1,0)+(1,1) and (2,0)+(2,1) exchanged: generators 1 and
    # 2, and Light's test passes at 1 and fails at 2 only.
    add = np.array(make_cyclic_product((4, 2)).add, dtype=np.int32)
    add[2, 3] = add[3, 2] = 1
    add[4, 5] = add[5, 4] = 5
    return add


def test_light_symmetry_witness_matches_two_sided_test():
    add = _z6_swapped()
    expected = _two_sided_light_witness(add)
    assert expected is not None
    assert check_abelian_table(AbelianGroup(add, make_cyclic_product((6,)).neg)) == expected


def test_light_witness_at_the_second_generator():
    add = _z4_z2_swapped()
    assert generating_indices(add) == [1, 2]
    assert _two_sided_light_witness(add) == "not associative at (1,2,2)"
    assert check_abelian_table(AbelianGroup(add, make_cyclic_product((4, 2)).neg)) == (
        "not associative at (1,2,2)")


@pytest.mark.parametrize("neg, witness", [
    ([0, -1, 1], "neg(1) = -1 is not in 0..2"),
    ([0, 2, 4], "neg(2) = 4 is not in 0..2"),
])
def test_neg_outside_the_elements_is_refused(neg, witness):
    # -1 would wrap to the inverse 2, and 4 would index past the table
    assert check_abelian_table(AbelianGroup(make_cyclic_product((3,)).add, np.array(neg))) == witness


def _relabeled(g) -> AbelianGroup:
    """g as a table-backed group, its nonzero elements relabeled."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(7).permutation(g.order - 1)])
    inv = np.argsort(perm).astype(np.int32)
    return AbelianGroup(perm[g.add[np.ix_(inv, inv)]].astype(np.int32),
                        perm[g.neg[inv]].astype(np.int32))


def _cover_group_8_2():
    q = mesh_sum(generate_max_mesh(8, 2))
    return build_cover(q, optimized_multitransversal(q)).group   # Dis(Q) x (Dis(Q) x Z_5)


@pytest.mark.parametrize("make", [
    lambda: _relabeled(make_cyclic_product((2, 6))),
    lambda: make_cyclic_product((7,)),
    lambda: make_cyclic_product((3, 4, 2)),
    _cover_group_8_2,
])
def test_plus_is_the_table_on_every_pair(make):
    g = make()
    x = np.arange(g.order, dtype=np.int32)
    table = g.add
    for args in ((x[:, None], x[None, :]), (x.astype(np.int64)[:, None], x[None, :])):
        total = g.plus(*args)
        assert total.dtype == np.int32
        assert np.array_equal(total, table)
    assert g.plus(x[-1], x[-1]) == table[-1, -1]


def test_a_table_given_as_a_view_is_kept_as_one_flat_table():
    add = np.array(make_cyclic_product((3, 4)).add, dtype=np.int32)
    g = AbelianGroup(add.T, make_cyclic_product((3, 4)).neg)
    assert g.add.flags.c_contiguous and np.array_equal(g.add, add)
    x = np.arange(g.order)
    assert np.array_equal(g.plus(x[:, None], x[None, :]), add)


def test_plus_outside_the_elements_is_unchecked():
    # plus is a flat gather: y = order reads the next row's first entry and
    # a sum index past the table raises IndexError.  A map given straight
    # to GroupAutomorphism is not checked either; an image outside the group
    # is refused by make_affine's neg gather and by verify_cover's claim 2
    # before any plus
    g = _relabeled(make_cyclic_product((2, 6)))
    n = g.order
    assert g.plus(1, n) == g.add[2, 0]
    with pytest.raises(IndexError):
        g.plus(n - 1, n)
    f = GroupAutomorphism(g, np.r_[1:n, n].astype(np.int32))
    with pytest.raises(IndexError):
        make_affine(g, f)
    q = mesh_sum(generate_max_mesh(8, 2))
    r = build_cover(q, optimized_multitransversal(q))
    images = np.array(r.f.images)
    images[-1] = r.group.order
    report = verify_cover(dataclasses.replace(r, f=GroupAutomorphism(r.group, images)), q)
    assert report.failures == ("f is not bijective",)


def test_table_backed_generators_are_read_once_and_handed_out_fresh(monkeypatch):
    g = _relabeled(make_cyclic_product((2, 6)))
    calls = []
    real = groups.generating_indices
    monkeypatch.setattr(groups, "generating_indices",
                        lambda add: calls.append(len(add)) or real(add))
    first = g.generators()
    first.append(-1)
    assert g.generators() == real(g.add) and calls == [12]


def test_commutativity_witness_spans_tiles(monkeypatch):
    # 300 > one 256-wide tile: the witness must still be the first one in
    # row-major order, also when the witness scan takes one row a chunk
    n = 300
    add = make_cyclic_product((n,)).add.copy()
    neg = make_cyclic_product((n,)).neg
    add[280, 10], add[270, 290] = add[280, 11], add[270, 291]
    for chunk in (core.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
        assert check_abelian_table(AbelianGroup(add, neg)) == "not commutative at (10,280)"


def _refusal_peak(build) -> int:
    """Traced peak memory of a build that must raise TooLarge."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "1 GiB table limit" in str(exc.value)
    return peak


def test_oversized_cyclic_product_refused_before_allocating():
    assert _refusal_peak(lambda: make_cyclic_product((10**6,))) < 1 << 20


def test_table_limit_boundary():
    _check_table_limit(16384)  # 16384^2 int32 entries are exactly 1 GiB
    with pytest.raises(TooLarge):
        _check_table_limit(16385)


def test_empty_table_is_described():
    empty = np.zeros((0, 0), dtype=np.int32)
    assert check_abelian_table(AbelianGroup(empty, np.zeros(0, dtype=np.int32))) == "empty table"


@pytest.mark.parametrize("dtype", [float, object])
def test_non_integer_table_is_described(dtype):
    # the table of Z3 held as floats or objects: its generating walk and
    # gathers index with the entries, so it is refused before them
    g = make_cyclic_product((3,))
    assert check_abelian_table(AbelianGroup(g.add.astype(dtype), g.neg)) == (
        f"entries of types {np.dtype(dtype)} and int32 are not all integers")
    assert check_abelian_table(AbelianGroup(g.add, g.neg.astype(dtype))) == (
        f"entries of types int32 and {np.dtype(dtype)} are not all integers")

