"""End-to-end acceptance suite.

Each test covers one numbered criterion and records a PASS/FAIL line that
is printed in the terminal summary.  The heavy corpus sweep (criteria 4-6)
runs once in a session fixture.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest

import conftest
import corpus
import oracles
from conftest import aff, zero_phi_mesh
from oracles import as_tuples, compose, inverse, loop_is_medial, swap_labels

from quandles.affine import subquandle_closure
from quandles.core import induced_subquandle, is_isomorphic, quotient, Partition
from quandles.cover import (
    build_cover,
    is_homim_of_affine,
    optimized_multitransversal,
    simple_multitransversal,
    verify_cover,
)
from quandles.groups import make_cyclic_product
from quandles.mesh import (
    coset_criterion,
    generate_max_mesh,
    mesh_sum,
    validate_mesh,
)
from quandles.perms import (
    cayley_kernel,
    displacement_group,
    is_abelian,
    is_semiregular,
    is_tiny,
    multiplication_group,
    orbits,
)


def record(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d}: {tag} - {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


@pytest.fixture(scope="session")
def sweep(affine_corpus):
    """One pass over the mesh corpus: verdicts, covers, small negatives.

    The corpus is every valid mesh with at most 3 indices over groups of
    order <= 4, except that at exactly 3 indices the non-cyclic order-4
    group is omitted: tuples containing Z2xZ2 three times over contribute
    millions of meshes with no new phenomena (the group already appears in
    every 1- and 2-index combination) and would push the sweep from
    minutes to hours.
    """
    stats = {
        "meshes": 0,
        "positives": 0,
        "coset_mismatches": 0,
        "cover_failures": [],
        "order_failures": [],
        "negative_tables": {},  # table -> quandle, |Q| <= 6 only
    }
    for raw in corpus.big_mesh_corpus_iter():
        mesh = corpus.build_mesh(raw)
        q = mesh_sum(mesh)
        stats["meshes"] += 1
        coset = coset_criterion(mesh)
        homim = is_homim_of_affine(q)
        if coset != homim:
            stats["coset_mismatches"] += 1
            continue
        if homim:
            stats["positives"] += 1
            t = optimized_multitransversal(q)
            r = build_cover(q, t)
            report = verify_cover(r, q)
            if not report.ok:
                stats["cover_failures"].append((raw, report.failures))
            if r.group.order != displacement_group(q).order * t.size:
                stats["order_failures"].append(raw)
        elif q.n <= 6:
            stats["negative_tables"].setdefault(q, q)

    for _, _, aq in affine_corpus:
        q = aq.quandle
        assert is_homim_of_affine(q)
        stats["positives"] += 1
        t = optimized_multitransversal(q)
        r = build_cover(q, t)
        report = verify_cover(r, q)
        if not report.ok:
            stats["cover_failures"].append(("affine", report.failures))
        if r.group.order != displacement_group(q).order * t.size:
            stats["order_failures"].append("affine")
    return stats


def test_criterion_1_example_triple(mesh_three_z2, mesh_two_z3, mesh_z2_z1):
    start = time.perf_counter()
    meshes = (mesh_three_z2, mesh_two_z3, mesh_z2_z1)  # validated on build
    cosets = tuple(coset_criterion(m) for m in meshes)
    semi = tuple(
        is_semiregular(displacement_group(mesh_sum(m))) for m in meshes
    )
    elapsed = time.perf_counter() - start
    ok = cosets == (True, False, True) and semi == (True, True, False)
    record(
        1,
        "example triple: coset (T,F,T), semiregular (T,T,F)",
        ok and elapsed < 1.0,
        f"coset={cosets} semiregular={semi} {elapsed * 1e3:.0f}ms",
    )


def test_criterion_2_cover_cross_check_a(sum_three_z2):
    start = time.perf_counter()
    q = aff(8, 5).quandle
    p = Partition.from_blocks([[0], [2], [4], [6], [1, 3], [5, 7]])
    quot_iso = is_isomorphic(quotient(q, p), sum_three_z2) is not None
    subset = (0, 4, 2, 6, 1, 5)
    closed = subquandle_closure(q, subset) == tuple(sorted(subset))
    sub_iso = (
        is_isomorphic(induced_subquandle(q, subset), sum_three_z2) is not None
    )
    elapsed = time.perf_counter() - start
    record(
        2,
        "Aff(Z8,5): quotient and 6-element subquandle match first sum",
        quot_iso and closed and sub_iso and elapsed < 1.0,
        f"quotient_iso={quot_iso} closed={closed} sub_iso={sub_iso} "
        f"{elapsed * 1e3:.0f}ms",
    )


def test_criterion_3_cover_cross_check_b(sum_z2_z1, sum_two_z3):
    start = time.perf_counter()
    q4 = aff(4, 3).quandle  # f = -1 on Z4
    p = Partition.from_blocks([[0], [2], [1, 3]])
    quot_iso = is_isomorphic(quotient(q4, p), sum_z2_z1) is not None
    q9 = aff(9, 4).quandle
    subset = (0, 3, 6, 1, 4, 7)
    closed = subquandle_closure(q9, subset) == tuple(sorted(subset))
    sub_iso = (
        is_isomorphic(induced_subquandle(q9, subset), sum_two_z3) is not None
    )
    elapsed = time.perf_counter() - start
    record(
        3,
        "Aff(Z4,-1) quotient and Aff(Z9,4) subquandle match remaining sums",
        quot_iso and closed and sub_iso and elapsed < 1.0,
        f"quotient_iso={quot_iso} closed={closed} sub_iso={sub_iso} "
        f"{elapsed * 1e3:.0f}ms",
    )


def test_criterion_4_constructive_soundness(sweep):
    ok = (
        not sweep["cover_failures"]
        and not sweep["order_failures"]
        and sweep["positives"] > 1000
    )
    record(
        4,
        "every positive corpus verdict yields a verified cover with "
        "|A| = |Dis|*|T|",
        ok,
        f"{sweep['positives']} covers over {sweep['meshes']} meshes, "
        f"{len(sweep['cover_failures'])} verify failures, "
        f"{len(sweep['order_failures'])} order failures",
    )


def test_criterion_5_coset_equals_homim(sweep):
    record(
        5,
        "coset criterion agrees with the displacement-group verdict on "
        "every corpus mesh",
        sweep["coset_mismatches"] == 0,
        f"{sweep['coset_mismatches']} discrepancies in {sweep['meshes']} meshes",
    )


def test_criterion_6_negative_oracle(sweep):
    # Deduplicate small negatives up to isomorphism, then confirm by brute
    # force that no affine quandle of order <= 9 maps onto any of them.
    reps = []
    for q in sweep["negative_tables"].values():
        if all(is_isomorphic(q, r) is None for r in reps):
            reps.append(q)
    covered = [
        r.n
        for r in reps
        if oracles.covered_by_some_affine(r.array.tolist(), 9)
    ]
    record(
        6,
        "no surjective affine source (order <= 9) exists for any small "
        "negative-verdict quandle",
        bool(reps) and not covered,
        f"{len(sweep['negative_tables'])} tables, {len(reps)} classes, "
        f"{len(covered)} unexpectedly covered",
    )


@pytest.mark.parametrize("n,k", [(4, 1), (8, 2)])
def test_criterion_7_worst_case_family(n, k):
    start = time.perf_counter()
    mesh = generate_max_mesh(n, k)
    q = mesh_sum(mesh)
    kernel = cayley_kernel(q)
    bound = 2 ** k * (n - 2 ** k + 1)
    opt = optimized_multitransversal(q)
    checks = {
        "size": q.n == n + k,
        "blocks": len(kernel.blocks) == 2 ** k,
        "large_block": max(kernel.sizes()) == n - 2 ** k + 1,
        "optimum": opt.size == bound,
    }
    if (n, k) == (4, 1):
        # Exhaustive audit: every choice of one element per orbit already
        # loads some kernel block with kappa picks, so every valid
        # multitransversal has |T| = m * kappa >= bound.
        kappas = oracles.all_orbit_transversal_kappas(
            kernel.blocks, [list(b) for b in orbits(q).blocks]
        )
        m = len(kernel.blocks)
        checks["audit"] = min(m * kk for kk in kappas) == bound
    elapsed = time.perf_counter() - start
    record(
        7,
        f"worst-case mesh ({n},{k}): kernel shape and |T| lower bound "
        "achieved",
        all(checks.values()) and elapsed < 10.0,
        f"{checks} {elapsed * 1e3:.0f}ms",
    )


def test_criterion_8_two_orbit_classification():
    start = time.perf_counter()
    passing = []
    for ma, mb in itertools.product(range(1, 7), repeat=2):
        ga, gb = make_cyclic_product((ma,)), make_cyclic_product((mb,))
        gens_a = [a for a in range(ma) if math.gcd(a, ma) == 1 or ma == 1]
        gens_b = [b for b in range(mb) if math.gcd(b, mb) == 1 or mb == 1]
        for a in gens_a:
            for b in gens_b:
                zero_a = np.zeros(ma, dtype=np.int32)
                zero_b = np.zeros(mb, dtype=np.int32)
                mesh = validate_mesh(
                    [ga, gb],
                    [[zero_a, zero_a], [zero_b, zero_b]],
                    [[0, b % mb], [a % ma, 0]],
                )
                if coset_criterion(mesh):
                    passing.append(((ma, mb), mesh_sum(mesh)))
    orders_ok = {p[0] for p in passing} == {(1, 1), (2, 1), (1, 2), (2, 2)}
    reps = []
    for _, q in passing:
        if all(is_isomorphic(q, r) is None for r in reps):
            reps.append(q)
    elapsed = time.perf_counter() - start
    record(
        8,
        "two-orbit meshes over cyclic generators: exactly three sums "
        "pass, up to isomorphism",
        orders_ok and len(reps) == 3 and elapsed < 10.0,
        f"orders={sorted({p[0] for p in passing})} classes={len(reps)} "
        f"{elapsed * 1e3:.0f}ms",
    )


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_9_growth_envelopes():
    # Decision algorithm on the worst-case family.
    sums = {}
    for n, k in [(8, 2), (16, 3), (32, 4), (64, 5)]:
        sums[n] = mesh_sum(generate_max_mesh(n, k))
    t_decide = {
        n: _best_time(lambda q=q: is_homim_of_affine(q)) for n, q in sums.items()
    }
    c5 = max(t_decide[8], 1e-4)
    decide_ok = all(
        t_decide[n] <= 50 * c5 * (n / 8) ** 5 for n in (16, 32, 64)
    )

    # Construction on the same family, simple (largest) transversal.
    t_build = {}
    for n in (8, 16, 32):
        q = sums[n]
        t = simple_multitransversal(q)
        t_build[n] = _best_time(lambda: build_cover(q, t), repeats=1)
    c7 = max(t_build[8], 1e-3)
    build_ok = all(t_build[n] <= 50 * c7 * (n / 8) ** 7 for n in (16, 32))

    fmt = lambda d: {k: f"{v * 1e3:.1f}ms" for k, v in d.items()}
    record(
        9,
        "decision within c*n^5 and construction within c*n^7 envelopes",
        decide_ok and build_ok,
        f"decide={fmt(t_decide)} build={fmt(t_build)}",
    )


def test_criterion_10_property_suites(small_corpus):
    rng = random.Random(20260826)
    e_failures = relabel_failures = conj_failures = medial_failures = 0
    checked = 0
    for mesh, q in small_corpus:
        checked += 1
        medial = loop_is_medial(q)
        assert medial  # mesh sums are medial; vs. abelian Dis below
        dis = displacement_group(q)
        if medial != is_abelian(dis):
            medial_failures += 1
        tiny0 = is_tiny(q)
        if q.n <= 8:
            if any(is_tiny(swap_labels(q, e, 0)) != tiny0 for e in range(1, q.n)):
                e_failures += 1
        base = (tiny0, dis.order, is_semiregular(dis))
        rows = as_tuples(q.array)
        for _ in range(5):
            sigma = list(range(q.n))
            rng.shuffle(sigma)
            inv = [0] * q.n
            for i, v in enumerate(sigma):
                inv[v] = i
            table = tuple(
                tuple(sigma[rows[inv[a]][inv[b]]] for b in range(q.n))
                for a in range(q.n)
            )
            from quandles.core import Quandle

            q2 = Quandle(table)
            d2 = displacement_group(q2)
            if (is_tiny(q2), d2.order, is_semiregular(d2)) != base:
                relabel_failures += 1
                break
        lmlt = multiplication_group(q)
        for alpha in as_tuples(lmlt.array):
            inv_alpha = inverse(alpha)
            if any(
                rows[alpha[x]] != compose(alpha, compose(rows[x], inv_alpha))
                for x in range(q.n)
            ):
                conj_failures += 1
                break
    ok = not (e_failures or relabel_failures or conj_failures or medial_failures)
    record(
        10,
        "property suites: base-point freedom, relabeling invariance, "
        "translation conjugation, mediality equivalence",
        ok and checked > 500,
        f"{checked} quandles, failures: e={e_failures} "
        f"relabel={relabel_failures} conj={conj_failures} "
        f"medial={medial_failures}",
    )
