"""Output checks computed apart from the library.

Nothing here calls into ``quandles``: every check works on plain numpy
arrays (tables, image arrays) or on the files the CLI wrote, and rests on
a property the mathematics guarantees, never on a stored copy of an
earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Covers up to this order are checked on every pair; larger ones on a
# seeded sample of pairs.
FULL_CHECK_ORDER = 1024
SAMPLED_PAIRS = 200_000


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def translation_rows(table: np.ndarray) -> np.ndarray:
    """The distinct maps L_x L_0^{-1}, in order of first x, as rows."""
    return translations(table)[0]


def translations(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct maps L_x L_0^{-1}, in order of first x, as rows, and
    for each x the index of its row."""
    rows = table[:, np.argsort(table[0])]
    _, first, which = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rows[np.sort(first)], rank[which.ravel()]


def translations_commute_and_close(table: np.ndarray) -> bool:
    """Does D = {L_x L_0^{-1}} commute pairwise and stay closed under
    composition?  This is the tiny-and-abelian displacement group test,
    done on whole arrays."""
    d = translation_rows(table)
    comp = d[:, d]                        # comp[a, b] = D_a o D_b
    if not np.array_equal(comp, comp.transpose(1, 0, 2)):
        return False
    members = {row.tobytes() for row in d}
    return all(row.tobytes() in members for row in comp.reshape(-1, d.shape[1]))


def composition_table(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of composition (a after b) and inverse on the rows of d,
    a group of permutations listed identity first."""
    require(np.array_equal(d[0], np.arange(d.shape[1])), "D does not start with the identity")
    index = {row.tobytes(): i for i, row in enumerate(d)}
    comp = d[:, d]
    add = np.array(
        [[index[comp[a, b].tobytes()] for b in range(len(d))] for a in range(len(d))],
        dtype=np.int64,
    )
    return add, np.argmax(add == 0, axis=1)


def check_cover(add, neg, f, psi, cover_table, q_table, rng) -> None:
    """f additive and bijective, psi a surjective homomorphism
    Aff(A,f) -> Q, and u*v = (1-f)(u) + f(v) in the cover table.

    ``add`` and ``neg`` are the addition table and negation map of A, zero
    at index 0.  Covers above FULL_CHECK_ORDER are checked on SAMPLED_PAIRS
    pairs drawn from ``rng``."""
    n = len(f)
    f = np.asarray(f, dtype=np.int64)
    psi = np.asarray(psi, dtype=np.int64)
    require(np.array_equal(np.sort(f), np.arange(n)), "f is not bijective")
    require(
        psi.min() >= 0 and psi.max() < len(q_table)
        and len(np.unique(psi)) == len(q_table),
        "psi is not onto Q",
    )
    if n <= FULL_CHECK_ORDER:
        u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        u, v = u.ravel(), v.ravel()
    else:
        u = rng.integers(0, n, SAMPLED_PAIRS)
        v = rng.integers(0, n, SAMPLED_PAIRS)
    add_uv = add[u, v]
    require(np.array_equal(f[add_uv], add[f[u], f[v]]), "f is not additive")
    uv = cover_table[u, v]
    one_minus_f_u = add[u, neg[f[u]]]
    require(
        np.array_equal(uv, add[one_minus_f_u, f[v]]),
        "cover table is not (1-f)(u) + f(v)",
    )
    require(
        np.array_equal(psi[uv], q_table[psi[u], psi[v]]),
        "psi is not a homomorphism",
    )


def check_written_cover(cover_table, side, kappa: int, q_table) -> None:
    """Check a cover written as a table and a sidecar with the columns
    element, alpha_index, t_index, f_image, psi_image.

    A = Dis(Q) x (T,+) is rebuilt from these files and Q alone.  Two
    conventions are read from the format: element 0 is the zero of A, and
    within each Cayley-kernel block the T entries carry the tags
    0 .. kappa-1 in ascending order of t_index.  Which translation each
    alpha_index and each t_index stands for is derived, not assumed:
    psi(alpha, t) = alpha(x_t), where x_t = psi(0, t) is the T entry, and
    entry t lies in the block of the translation L_{x_t} L_0^{-1}.
    """
    n = len(cover_table)
    require(side.shape == (n, 5) and np.array_equal(side[:, 0], np.arange(n)),
            "sidecar rows are not the elements of A in order")
    alpha, t, f, psi = side[:, 1], side[:, 2], side[:, 3], side[:, 4]
    d, d_of_x = translations(q_table)
    dadd, dneg = composition_table(d)
    nd, nt = len(d), int(t.max()) + 1
    require(alpha.min() >= 0 and t.min() >= 0 and alpha.max() < nd and nd * nt == n,
            "|A| is not |Dis(Q)| * |T|")
    element = np.full((nd, nt), -1)
    element[alpha, t] = np.arange(n)
    require(bool((element >= 0).all()), "sidecar pairs are not Dis(Q) x T")
    require(psi.min() >= 0 and psi.max() < len(q_table), "psi leaves Q")
    x = psi[element[alpha[0]]]
    index = {row.tobytes(): i for i, row in enumerate(np.ascontiguousarray(d[:, x]))}
    alpha_d = np.array([index.get(row.tobytes(), -1)
                        for row in np.ascontiguousarray(psi[element])])
    require(bool((alpha_d >= 0).all()) and len(set(alpha_d.tolist())) == nd,
            "alpha indices are not the translations of Q")
    block = d_of_x[x]
    require(np.array_equal(np.bincount(block, minlength=nd), np.full(nd, kappa)),
            "T does not hold kappa entries of every block")
    tag = np.empty(nt, dtype=np.int64)
    tag[np.lexsort((np.arange(nt), block))] = np.arange(nt) % kappa
    a, b, g = alpha_d[alpha], block[t], tag[t]
    of_code = np.empty(n, dtype=np.int64)
    of_code[(a * nd + b) * kappa + g] = np.arange(n)
    add = of_code[(dadd[a[:, None], a[None, :]] * nd + dadd[b[:, None], b[None, :]]) * kappa
                  + (g[:, None] + g[None, :]) % kappa]
    neg = of_code[(dneg[a] * nd + dneg[b]) * kappa + (-g) % kappa]
    require(add[0, 0] == 0, "element 0 is not the zero of A")
    check_cover(add, neg, f, psi, cover_table, q_table, None)


def transposition_table(n: int) -> np.ndarray:
    """Conjugation quandle on the transpositions of S_n, in lexicographic
    order of the pairs: (a b) * (c d) = (a b)(c d)(a b)."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    table = np.empty((len(pairs), len(pairs)), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        swap = list(range(n))
        swap[a], swap[b] = b, a
        for j, (c, d) in enumerate(pairs):
            x, y = swap[c], swap[d]
            table[i, j] = index[(min(x, y), max(x, y))]
    return table


def affine_table(m: int, u: int) -> np.ndarray:
    """Aff(Z_m, u): a*b = (1-u)a + ub mod m."""
    a = np.arange(m, dtype=np.int64)
    return ((1 - u) * a[:, None] + u * a[None, :]) % m


def multiplicative_order(u: int, m: int) -> int:
    if m == 1:
        return 1
    k, x = 1, u % m
    while x != 1:
        x = (x * u) % m
        k += 1
    return k


def expected_affine_analysis(m: int, u: int) -> dict[str, str]:
    g = math.gcd(u - 1, m)
    return {
        "n": str(m),
        "dis_order": str(m // g),
        "orbits": str(g),
        "lmlt_order": str(multiplicative_order(u, m) * m // g),
    }


def expected_transposition_analysis(n: int) -> dict[str, str]:
    size = n * (n - 1) // 2
    return {
        "n": str(size),
        "lmlt_order": str(math.factorial(n)),
        "dis_order": str(math.factorial(n) // 2),
        "orbits": "1",
        "orbit_sizes": str(size),
    }


VERDICTS = (
    "medial", "dis_abelian", "dis_semiregular", "dis_tiny",
    "embeds_into_affine", "homim_of_affine",
)


def check_analysis(report: dict[str, str], expected: dict[str, str], verdict: bool) -> None:
    for key, value in expected.items():
        require(report.get(key) == value, f"{key}={report.get(key)}, expected {value}")
    want = "true" if verdict else "false"
    for key in VERDICTS:
        require(report.get(key) == want, f"{key}={report.get(key)}, expected {want}")


def read_table(text: str) -> np.ndarray:
    """A quandle table file: size line, then the rows."""
    numbers = np.array(text.split(), dtype=np.int64)
    n = int(numbers[0])
    require(len(numbers) == 1 + n * n, "table file has the wrong number of entries")
    return numbers[1:].reshape(n, n)
