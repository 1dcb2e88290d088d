"""validate_quandle checks each distinct row at most once, over the row
classes; it must agree with the per-element scan and with the scan of
every distinct row (tests/oracles.py) in outcome and first witness."""

import tracemalloc

import numpy as np

from quandles import core
from quandles.core import _row_keys, validate_quandle
from quandles.errors import NotLeftDistributive, QuandleError

from oracles import affine_table_mod, distinct_row_validate, lexicographic_validate

# Idempotent, rows bijective, not left distributive (also in test_core.py).
BAD_4 = [
    [0, 2, 1, 3],
    [2, 1, 3, 0],
    [3, 0, 2, 1],
    [2, 0, 1, 3],
]


def _outcome(check, table):
    try:
        q = check(table)
    except QuandleError as exc:
        return type(exc), getattr(exc, "witness", None)
    return "quandle", q.array.tobytes()


def _agree(table):
    expected = _outcome(lexicographic_validate, table)
    assert _outcome(distinct_row_validate, table) == expected
    assert _outcome(validate_quandle, table) == expected
    return expected


def _random_table(rng, n):
    """Idempotent, every row a bijection fixing its own index."""
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        others = rng.permutation([x for x in range(n) if x != a])
        table[a] = np.insert(others, a, a)
    return table


def _swap(rng, table, row):
    """Swap two entries of a row away from its diagonal."""
    n = len(table)
    c1, c2 = rng.choice([c for c in range(n) if c != row], size=2, replace=False)
    table[row, [c1, c2]] = table[row, [c2, c1]]


def test_random_idempotent_tables_agree():
    rng = np.random.default_rng(5)
    kinds = set()
    for _ in range(2000):
        kinds.add(_agree(_random_table(rng, int(rng.integers(1, 8))))[0])
    assert kinds == {"quandle", NotLeftDistributive}


def _units(m):
    return [u for u in range(1, m) if np.gcd(u, m) == 1]


def _affine_swaps_agree():
    rng = np.random.default_rng(11)
    failures = 0
    for m in range(3, 17):
        for u in _units(m):
            table = np.asarray(affine_table_mod(m, u), dtype=np.int32)
            assert _agree(table)[0] == "quandle"
            for swaps in (1, 2):
                bad = table.copy()
                for _ in range(swaps):
                    _swap(rng, bad, int(rng.integers(m)))
                failures += _agree(bad)[0] is NotLeftDistributive
    assert failures > 100


def test_affine_tables_with_swaps_agree():
    _affine_swaps_agree()


def test_affine_tables_with_swaps_agree_in_small_chunks(monkeypatch):
    # with 40 products a chunk, the rows of m > 6 are checked a few b at a
    # time, and those of m <= 6 several rows at once
    monkeypatch.setattr(core, "CHUNK_ENTRIES", 40)
    _affine_swaps_agree()


def test_repeated_failing_row_agrees():
    # Aff(Z_16, 5): L_a = L_b iff a = b mod 4.  The same swap in rows 1, 5,
    # 9 and 13 keeps them equal, and row 1 is the first to fail.
    table = np.asarray(affine_table_mod(16, 5), dtype=np.int32)
    rows = [1, 5, 9, 13]
    table[np.ix_(rows, [0, 8])] = table[np.ix_(rows, [8, 0])]
    assert _agree(table) == (NotLeftDistributive, (1, 3, 0))
    assert all(np.array_equal(table[1], table[a]) for a in rows)


def test_large_table_one_row_per_chunk_agrees():
    # n^2 > 2^20, so each row is checked in two chunks of b
    m = 1032
    table = np.asarray(affine_table_mod(m, 1 + m // 4), dtype=np.int32)
    assert validate_quandle(table).array.tobytes() == table.tobytes()
    _swap(np.random.default_rng(3), table, 5)
    assert _agree(table)[0] is NotLeftDistributive


def test_failure_in_a_later_chunk_agrees():
    # Aff(Z_5, 2) and Aff(Z_301, 2) side by side, each acting trivially on
    # the other: a quandle.  A swap in row 3 breaks only the Z_5 rows,
    # whose byte keys sort after all 301 others, past the first chunk.
    k, m = 5, 301
    n = k + m
    table = np.empty((n, n), dtype=np.int32)
    table[:k, :k] = affine_table_mod(k, 2)
    table[k:, k:] = np.asarray(affine_table_mod(m, 2)) + k
    table[:k, k:] = np.arange(k, n)
    table[k:, :k] = np.arange(k)
    assert _agree(table)[0] == "quandle"
    table[3, [0, 1]] = table[3, [1, 0]]
    _, first = np.unique(_row_keys(table), return_index=True)
    assert np.all(first[:(1 << 20) // (n * n)] >= k)
    assert _agree(table) == (NotLeftDistributive, (0, 3, 0))


def test_tiny_table_in_one_chunk_agrees():
    assert _agree(BAD_4)[0] is NotLeftDistributive
    assert _agree([list(range(4))] * 4)[0] == "quandle"


def test_small_corpus_and_its_swaps_agree(small_corpus):
    rng = np.random.default_rng(17)
    failures = 0
    for _, q in small_corpus:
        table = q.array.copy()
        assert _agree(table) == ("quandle", q.array.tobytes())
        if q.n > 2:
            _swap(rng, table, int(rng.integers(q.n)))
            failures += _agree(table)[0] is NotLeftDistributive
    assert failures > 1000


def test_row_class_failure_agrees():
    # A swap in row 1 of a quandle of order 4 makes rows 0 and 1 equal.
    # Row 2 then maps them to 3 and 1, whose rows differ: condition (i)
    # fails, while L_2 R = R' L_2 holds for both distinct rows R.
    table = np.array([[0, 1, 3, 2], [0, 1, 3, 2], [3, 1, 2, 0], [2, 1, 0, 3]],
                     dtype=np.int32)
    r = table[2]
    assert not np.array_equal(table[r[0]], table[r[1]])
    assert all(np.array_equal(r[table[b]], table[r[b]][r]) for b in (0, 2, 3))
    assert _agree(table) == (NotLeftDistributive, (2, 1, 0))


def test_rows_reached_from_checked_rows_are_not_checked(monkeypatch):
    # Aff(Z_1024, 3) has 512 distinct rows.  Those of 0 and 1 are checked;
    # every other row is L_x for x a product of 0 and 1, so an automorphism.
    checked = []
    real = core._class_map

    def recorded(arr, first, which, r):
        checked.append(r.tolist())
        return real(arr, first, which, r)

    monkeypatch.setattr(core, "_class_map", recorded)
    table = np.asarray(affine_table_mod(1024, 3), dtype=np.int32)
    assert validate_quandle(table).array.tobytes() == table.tobytes()
    assert checked == table[:2].tolist()


def test_validate_memory_stays_within_one_chunk():
    # Aff(Z_1024, 257) has 4 distinct rows of 2^20 products each; checking
    # them all at once would gather (4, 1024, 1024) twice, 32 MB.
    table = np.asarray(affine_table_mod(1024, 257), dtype=np.int32)
    tracemalloc.start()
    try:
        validate_quandle(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20

