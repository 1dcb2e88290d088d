"""Tables, validation witnesses, quotients, subquandles, isomorphism,
distinct rows."""

import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quandles import core
from quandles.affine import make_affine
from quandles.core import (
    Partition,
    Quandle,
    RowSet,
    induced_subquandle,
    is_isomorphic,
    quotient,
    validate_quandle,
)
from quandles.errors import (
    InvalidParams,
    NotACongruence,
    NotBijective,
    NotIdempotent,
    NotLeftDistributive,
    RowNotBijective,
)
from quandles.groups import (
    make_cyclic_product,
    multiplication_automorphism,
    validate_automorphism,
)
from quandles.iofmt import format_quandle, parse_quandle
from quandles.mesh import coset_criterion, mesh_sum, validate_mesh
from quandles.perms import orbits

from conftest import aff
from oracles import (
    affine_table_mod,
    left_division,
    lexicographic_validate,
    loop_is_isomorphic,
    loop_profiles,
    naive_is_quandle,
)

PROJECTION_4 = [[b for b in range(4)] for _ in range(4)]

# Aff(Z4, 3): a*b = 2a + 3b mod 4, written out by hand.
AFF_Z4_NEG = [
    [0, 3, 2, 1],
    [2, 1, 0, 3],
    [0, 3, 2, 1],
    [2, 1, 0, 3],
]


def test_projection_validates():
    q = validate_quandle(PROJECTION_4)
    assert q.n == 4
    assert q.array[1, 3] == 3


def test_handwritten_affine_table_validates():
    assert AFF_Z4_NEG == affine_table_mod(4, 3)
    q = validate_quandle(AFF_Z4_NEG)
    assert q.array[1].tolist() == [2, 1, 0, 3]


def test_validated_quandle_does_not_share_the_callers_array():
    arr = np.array(AFF_Z4_NEG, dtype=np.int32)
    q = validate_quandle(arr)
    arr[0, 1] = 1
    assert arr.flags.writeable
    assert q.array.tolist() == AFF_Z4_NEG


@pytest.mark.parametrize("make", [
    lambda t: t,                                   # taken as it is
    lambda t: t.astype(np.int64),                  # converted
    lambda t: np.asfortranarray(t),                # made C-contiguous
    lambda t: np.pad(t, ((0, 1), (0, 0)))[:-1],    # a view of a larger array
    lambda t: t[:, ::-1][:, ::-1],                 # a strided view
])
def test_no_input_array_is_shared_with_the_quandle(make):
    arr = make(np.array(AFF_Z4_NEG, dtype=np.int32))
    q = validate_quandle(arr)
    assert not np.shares_memory(q.array, arr)
    assert arr.flags.writeable
    assert q.array.tolist() == AFF_Z4_NEG
    assert q.rows.index_of(q.array).tolist() == q.rows.which.tolist()


@pytest.mark.parametrize("table, shape", [
    ([[[0]]], (1, 1, 1)),
    (np.zeros((1, 1, 1), int), (1, 1, 1)),
    (np.zeros((2, 2, 2), int), (2, 2, 2)),
    (np.array([0]), (1,)),
    (np.array(0), ()),
])
def test_table_that_is_not_two_dimensional_is_refused(table, shape):
    message = f"table of shape {shape} is not two-dimensional"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_quandle(table)


@pytest.mark.parametrize("table, row", [([0], 0), ([None], 0), ([[1, 1], None], 1)])
def test_row_that_is_not_a_sequence_is_refused(table, row):
    with pytest.raises(ValueError, match=f"row {row} is not a sequence"):
        validate_quandle(table)


def _mesh_sum_2048():
    g = make_cyclic_product((2048,))
    m = validate_mesh([g], [[(1024 * np.arange(2048, dtype=np.int32)) % 2048]], [[0]])
    return lambda: mesh_sum(m)


def _parse_aff_300():
    text = format_quandle(aff(300, 7).quandle)
    return lambda: parse_quandle(text)


def _make_aff_512():
    g = make_cyclic_product((512,))
    f = multiplication_automorphism(g, 5)
    return lambda: make_affine(g, f).quandle


@pytest.mark.parametrize("build, where", [
    (_mesh_sum_2048, "mesh.py"),
    (_parse_aff_300, "iofmt.py"),
    (_make_aff_512, "affine.py"),
])
def test_library_built_tables_are_taken_over_uncopied(build, where):
    # the table a library function builds and validates is kept as it is:
    # the Quandle's array is the block allocated where the table was built
    call = build()
    tracemalloc.start()
    try:
        q = call()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    kept = [t for t in traces if t.size == q.array.nbytes]
    assert [Path(t.traceback[0].filename).name for t in kept] == [where]


def test_distributivity_check_holds_one_chunk_of_temporaries():
    # the sum of the one-index Z_2048 mesh is a 16 MiB table; checking it
    # a whole row of n^2 products at a time would gather three tables more
    call = _mesh_sum_2048()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34 << 20


def test_not_idempotent_witness():
    bad = [[1, 1], [0, 0]]
    with pytest.raises(NotIdempotent) as exc:
        validate_quandle(bad)
    assert exc.value.a == 0


def test_row_not_bijective_witness():
    bad = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    with pytest.raises(RowNotBijective) as exc:
        validate_quandle(bad)
    assert exc.value.a == 0


def test_not_distributive_first_witness():
    # Idempotent latin-like table that is not left distributive.
    bad = [
        [0, 2, 1, 3],
        [2, 1, 3, 0],
        [3, 0, 2, 1],
        [2, 0, 1, 3],
    ]
    assert not naive_is_quandle(bad)
    with pytest.raises(NotLeftDistributive) as exc:
        validate_quandle(bad)
    a, b, c = exc.value.witness
    assert bad[a][bad[b][c]] != bad[bad[a][b]][bad[a][c]]
    # Lexicographically first triple.
    for a2 in range(4):
        for b2 in range(4):
            for c2 in range(4):
                if (a2, b2, c2) == (a, b, c):
                    return
                assert bad[a2][bad[b2][c2]] == bad[bad[a2][b2]][bad[a2][c2]]


def test_left_divide_roundtrip():
    q = aff(8, 5).quandle
    t, ldiv = q.array.tolist(), left_division(q).tolist()
    for a in range(q.n):
        for c in range(q.n):
            b = ldiv[a][c]
            assert t[a][b] == c


def test_partition_canonical_block_order():
    p = Partition.from_blocks([[5, 7], [1, 3], [0], [2], [4], [6]])
    assert p.blocks == ((0,), (1, 3), (2,), (4,), (5, 7), (6,))
    assert p.block_of[7] == p.block_of[5]
    assert p.sizes() == (1, 2, 1, 1, 2, 1)


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], [2]])
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 0], [1]])
    with pytest.raises(ValueError):
        Partition.from_blocks([[], [0]])


def test_quotient_of_affine_by_doubling_kernel():
    # In Aff(Z4, 3), identifying a with a+2 is a congruence; the quotient
    # is Aff(Z2, 1), the 2-element projection quandle.
    q = validate_quandle(AFF_Z4_NEG)
    p = Partition.from_blocks([[0, 2], [1, 3]])
    qq = quotient(q, p)
    assert qq.array.tolist() == [[0, 1], [0, 1]]


def test_quotient_rejects_non_congruence():
    q = validate_quandle(AFF_Z4_NEG)
    p = Partition.from_blocks([[0, 1], [2], [3]])
    with pytest.raises(NotACongruence):
        quotient(q, p)


def test_quotient_by_singletons_is_identity():
    q = aff(5, 2).quandle
    singletons = Partition.from_blocks([x] for x in range(5))
    assert quotient(q, singletons).array.tolist() == q.array.tolist()


def test_induced_subquandle_relabels_in_order():
    q = aff(8, 5).quandle
    sub = induced_subquandle(q, [6, 0, 4, 2])
    # {0,2,4,6} is closed and 2a*2b = -8a+10b = 10b (mod 8), so after the
    # sorted relabeling the subquandle is the 4-element projection.
    assert sub.array.tolist() == PROJECTION_4


def test_connectivity_orbits_projection_all_singletons():
    q = validate_quandle(PROJECTION_4)
    assert orbits(q).blocks == ((0,), (1,), (2,), (3,))


def test_connectivity_orbits_affine_are_cosets():
    # Orbits of Aff(Z8, 5) are the cosets of Im(1-5) = 4Z8 = {0, 4}.
    q = aff(8, 5).quandle
    assert orbits(q).blocks == (
        (0, 4), (1, 5), (2, 6), (3, 7),
    )


def test_is_isomorphic_finds_relabeling():
    q = aff(8, 3).quandle
    perm = (3, 5, 0, 7, 2, 1, 6, 4)
    inv = [0] * 8
    for i, v in enumerate(perm):
        inv[v] = i
    t = q.array.tolist()
    relabeled = [
        [perm[t[inv[a]][inv[b]]] for b in range(8)] for a in range(8)
    ]
    q2 = validate_quandle(relabeled)
    sigma = is_isomorphic(q, q2)
    assert sigma is not None
    for a in range(8):
        for b in range(8):
            assert sigma[t[a][b]] == relabeled[sigma[a]][sigma[b]]


def test_is_isomorphic_distinguishes_same_profile():
    # Aff(Z8,3) and Aff(Z8,5): same size, both connected-by-cosets, but
    # non-isomorphic (translation orders differ).
    assert is_isomorphic(aff(8, 3).quandle, aff(8, 5).quandle) is None


def test_is_isomorphic_size_mismatch():
    assert is_isomorphic(aff(2, 1).quandle, aff(3, 1).quandle) is None


def _relabeled(q: Quandle, perm: np.ndarray) -> Quandle:
    """q with element x renamed perm[x]."""
    inv = np.argsort(perm)
    return validate_quandle(perm[q.array[np.ix_(inv, inv)]])


def _same_verdict(q1: Quandle, q2: Quandle) -> bool:
    """is_isomorphic agrees with the element-by-element search, and a
    sigma it returns is a bijection that carries * over."""
    sigma = is_isomorphic(q1, q2)
    if sigma is not None:
        r = np.asarray(sigma)
        assert sorted(sigma) == list(range(q1.n))
        assert np.array_equal(r[q1.array], q2.array[np.ix_(r, r)])
    return (sigma is None) == (loop_is_isomorphic(q1, q2) is None)


def test_is_isomorphic_agrees_with_the_element_search(small_corpus):
    # equal-order corpus pairs, half of them drawn from pairs whose
    # profiles agree (where the search has to decide), relabelings of
    # corpus quandles, and every Aff(Z_m, u) against Aff(Z_m, u'), m <= 16
    rng = np.random.default_rng(24)
    by_order, by_profile = {}, {}
    for _, q in small_corpus:
        by_order.setdefault(q.n, []).append(q)
        key = (q.n, tuple(sorted(loop_profiles(q, q.array.tolist()))))
        by_profile.setdefault(key, []).append(q)
    pairs = []
    for groups in (list(by_order.values()), [g for g in by_profile.values() if len(g) > 1]):
        for _ in range(1500):
            group = groups[rng.integers(len(groups))]
            pairs.append((group[rng.integers(len(group))], group[rng.integers(len(group))]))
    for i in rng.choice(len(small_corpus), 300, replace=False):
        q = small_corpus[i][1]
        pairs.append((q, _relabeled(q, rng.permutation(q.n))))
    units = {m: [u for u in range(m) if math.gcd(u, m) == 1 or m == 1] for m in range(1, 17)}
    pairs += [(aff(m, u).quandle, aff(m, v).quandle)
              for m, us in units.items() for u in us for v in us]
    assert all(_same_verdict(q1, q2) for q1, q2 in pairs)
    found = sum(is_isomorphic(q1, q2) is not None for q1, q2 in pairs)
    assert 600 < found < len(pairs) - 600


def test_is_isomorphic_decides_equal_profile_affine_pairs_quickly():
    # 5 and 7 are primitive roots mod 23, 3 and 11 mod 31, 2 and 3 mod 101:
    # every element has the same profile, and no two of them are
    # isomorphic.  The element search took 31.7 s on the first pair alone.
    start = time.perf_counter()
    for m, u, v in ((23, 5, 7), (31, 3, 11), (101, 2, 3)):
        assert is_isomorphic(aff(m, u).quandle, aff(m, v).quandle) is None
    q = aff(256, 3).quandle
    q2 = _relabeled(q, np.random.default_rng(256).permutation(256))
    sigma = np.asarray(is_isomorphic(q, q2))
    assert np.array_equal(sigma[q.array], q2.array[np.ix_(sigma, sigma)])
    assert time.perf_counter() - start < 5.0


def _affine_513() -> np.ndarray:
    """Aff(Z_513, 2), a table over 512 elements."""
    m = 513
    a = np.arange(m)
    return ((-a[:, None] + 2 * a[None, :]) % m).astype(np.int32)


def test_large_table_reports_bad_diagonal():
    t = _affine_513()
    t[7, 7] = 8
    with pytest.raises(NotIdempotent) as exc:
        validate_quandle(t)
    assert exc.value.a == 7


def test_large_table_reports_repeated_entry():
    t = _affine_513()
    t[9, 10] = t[9, 11]
    with pytest.raises(RowNotBijective) as exc:
        validate_quandle(t)
    assert exc.value.a == 9


def test_quandle_equality_is_by_table():
    t = _affine_513()
    q1 = validate_quandle(t.tolist())
    q2 = Quandle(t)
    assert q1 == q2 and hash(q1) == hash(q2)
    assert q2.array.dtype == np.int32 and q2.array.flags.c_contiguous
    assert not q2.array.flags.writeable
    assert q1.array.tolist() == t.tolist()
    # relabel by the transposition (1 2): the same quandle, another table
    sigma = np.arange(len(t))
    sigma[[1, 2]] = [2, 1]
    relabelled = np.empty_like(t)
    relabelled[np.ix_(sigma, sigma)] = sigma[t]
    q3 = Quandle(relabelled)
    assert q3 != q1


def test_a_quandle_equals_itself_without_reading_its_table(monkeypatch):
    # a cover of Q compares the Q of its transversal with Q itself: the
    # same object, told at once, however large its table
    q = Quandle(_affine_513())
    with monkeypatch.context() as patch:
        patch.setattr(np, "array_equal", lambda *args: pytest.fail("table compared"))
        assert q == q
    assert q == Quandle(_affine_513()) and q != Quandle(np.zeros((1, 1), dtype=np.int32))


def _oracle_numbers(rows: np.ndarray) -> dict:
    """Each distinct row, as a tuple, numbered by first occurrence."""
    number: dict = {}
    for row in map(tuple, rows.tolist()):
        number.setdefault(row, len(number))
    return number


INT32_VALUES = st.sampled_from([-2**31, -1, 0, 1, 2, 2**31 - 1])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(lambda w: st.tuples(
    arrays(np.int32, st.tuples(st.integers(1, 12), st.just(w)), elements=INT32_VALUES),
    arrays(np.int32, st.tuples(st.integers(0, 3), st.integers(0, 4), st.just(w)),
           elements=INT32_VALUES),
)))
def test_row_set_matches_a_dict_of_tuples(data):
    rows, probe = data
    number = _oracle_numbers(rows)
    members = RowSet(rows)
    listed = [tuple(r) for r in rows.tolist()]
    assert members.first.tolist() == [listed.index(r) for r in number]
    assert members.which.tolist() == [number[r] for r in listed]
    assert members.index_of(probe).tolist() == [
        [number.get(tuple(r), -1) for r in plane] for plane in probe.tolist()]
    assert members.index_of(rows).tolist() == members.which.tolist()


def test_row_set_numbers_repeated_rows_by_first_occurrence():
    rows = np.array([[3, 1], [0, 2], [3, 1], [0, 2], [5, 5], [3, 1]], dtype=np.int32)
    members = RowSet(rows)
    assert members.first.tolist() == [0, 1, 4]
    assert members.which.tolist() == [0, 1, 0, 1, 2, 0]


def test_row_set_of_width_zero_is_one_empty_row():
    members = RowSet(np.zeros((4, 0), dtype=np.int32))
    assert members.first.tolist() == [0]
    assert members.which.tolist() == [0, 0, 0, 0]
    assert members.index_of(np.zeros((2, 3, 0), dtype=np.int32)).tolist() == [[0] * 3] * 2


def test_row_set_index_of_absent_rows_and_3d_input():
    members = RowSet(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int32))
    probe = np.array([[[4, 5, 6], [1, 2, 4]], [[0, 0, 0], [1, 2, 3]]], dtype=np.int32)
    out = members.index_of(probe)
    assert out.shape == (2, 2) and out.tolist() == [[1, -1], [-1, 0]]
    assert members.index_of(np.array([7, 8, 9], dtype=np.int32)) == -1


def test_coset_criterion_on_an_all_trivial_mesh():
    # every group is Z_1, so every row of the coset test has width 0
    z1 = make_cyclic_product((1,))
    zero = np.zeros(1, dtype=np.int32)
    m = validate_mesh([z1] * 3, [[zero] * 3] * 3, [[0] * 3] * 3)
    assert coset_criterion(m)


# -- values that are not integers are refused where they come in, not
#    truncated; floats with integer values are taken

def test_table_with_a_fraction_is_refused():
    with pytest.raises(ValueError, match="entry 1.7 in row 0 is not an integer"):
        validate_quandle([[0, 1.7], [0, 1]])
    assert validate_quandle([[0.0, 1.0], [0, 1]]).array.tolist() == [[0, 1], [0, 1]]


@pytest.mark.parametrize("table", [[["0", "1"], ["0", "1"]], [[0, None], [0, 1]]])
def test_table_of_non_numbers_is_refused_with_value_error(table):
    with pytest.raises(ValueError, match="is not an integer"):
        validate_quandle(table)


def test_automorphism_with_a_fraction_is_refused():
    g = make_cyclic_product((4,))
    with pytest.raises(NotBijective):
        validate_automorphism(g, [0, 1.5, 2, 3.9])
    assert validate_automorphism(g, [0.0, 3.0, 2.0, 1.0]).images.tolist() == [0, 3, 2, 1]


def test_mesh_constant_with_a_fraction_is_refused():
    g = make_cyclic_product((2,))
    phi = [[np.zeros(2, dtype=np.int32)]]
    with pytest.raises(InvalidParams, match=r"c\[0\]\[0\] is not an element"):
        validate_mesh([g], phi, [[0.7]])
    assert validate_mesh([g], phi, [[0.0]]).c == ((0,),)


def test_partition_with_a_fraction_is_refused():
    with pytest.raises(ValueError, match="do not cover"):
        Partition.from_blocks([[0.5], [1]])
    p = Partition.from_blocks([[0.0], [1]])
    assert p.blocks == ((0,), (1,)) and type(p.blocks[0][0]) is int


def test_validated_copy_keeps_the_rows_numbered_for_the_check(monkeypatch):
    # validate_quandle copies a caller's int32 array before the check; the
    # copy is numbered once, by the check, and keeps nothing of the
    # caller's array.
    inits = []
    real_init = RowSet.__init__

    def counted_init(self, rows):
        inits.append(rows.shape)
        real_init(self, rows)

    monkeypatch.setattr(RowSet, "__init__", counted_init)
    arr = np.array(affine_table_mod(16, 5), dtype=np.int32)
    q = validate_quandle(arr)
    assert len(q.rows.first) == 4 and inits == [(16, 16)]
    arr[:] = arr[::-1]
    assert q.rows.index_of(q.array).tolist() == q.rows.which.tolist()
    assert q.rows.index_of(arr[:1]).tolist() == [q.rows.which[15]]


def _non_bijective_mutants(rng):
    """Mutants of Aff(Z_m, u), m <= 16, with repeated rows: the rows of
    one class of equal rows get the same repeated entry (so that a broken
    row repeats), and one row of another class later gets its own."""
    for m in range(4, 17):
        for u in range(2, m):
            if np.gcd(u, m) != 1:
                continue
            table = np.array(affine_table_mod(m, u), dtype=np.int32)
            rows = validate_quandle(table).rows
            classes = [np.flatnonzero(rows.which == k) for k in range(len(rows.first))]
            repeated = [c for c in classes if len(c) > 1]
            if not repeated:
                continue
            for _ in range(3):
                cls = repeated[rng.integers(len(repeated))]
                free = [x for x in range(m) if x not in cls]
                c1, c2 = rng.choice(free, size=2, replace=False)
                bad = table.copy()
                bad[cls, c1] = bad[cls, c2]
                later = [a for a in range(cls[0] + 1, m) if rows.which[a] != rows.which[cls[0]]]
                if later:
                    a = later[rng.integers(len(later))]
                    d1, d2 = rng.choice([x for x in range(m) if x != a], size=2, replace=False)
                    bad[a, d1] = bad[a, d2]
                yield bad


@pytest.mark.parametrize("chunk", [core.CHUNK_ENTRIES, 20])
def test_row_not_bijective_witness_matches_the_every_row_scan(monkeypatch, chunk):
    monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    witnesses = []
    for bad in _non_bijective_mutants(np.random.default_rng(16)):
        with pytest.raises(RowNotBijective) as expected:
            lexicographic_validate(bad)
        with pytest.raises(RowNotBijective) as got:
            validate_quandle(bad)
        assert got.value.a == expected.value.a
        witnesses.append(got.value.a)
    assert len(witnesses) > 30 and len(set(witnesses)) > 3
