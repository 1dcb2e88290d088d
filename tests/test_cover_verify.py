"""The structured cover: verify_cover against the exhaustive |A|^2 check,
on true covers and on mutants, and the memory it needs."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from quandles import core, cover, groups
from quandles.cover import (
    build_cover,
    is_homim_of_affine,
    optimized_multitransversal,
    simple_multitransversal,
    verify_cover,
)
from quandles.errors import TooLarge
from quandles.groups import GroupAutomorphism
from quandles.iofmt import format_quandle, write_affine
from quandles.mesh import generate_max_mesh, mesh_sum
from quandles.perms import Translations

from oracles import exhaustive_verify_cover


def _without_conjugation(r, q):
    """f as build_cover forms it, but with alpha where L_e alpha L_e^{-1}
    belongs: (alpha, t) -> (alpha D[b(t)]^{-1}, t)."""
    tr = Translations(q)
    elems = np.asarray(r.transversal.elements)
    nt = r.transversal.size
    f_d = tr.table[:, tr.inverses[tr.block_of[elems]]]
    return (f_d * np.int32(nt) + np.arange(nt, dtype=np.int32)).reshape(-1)


def _swapped(values, i, j):
    out = np.array(values, dtype=np.int32)
    out[i], out[j] = out[j], out[i]
    return out


def _mutants(r, q):
    """The result itself, then f without the L_e conjugation, two psi
    values swapped and two f images swapped, where each applies."""
    yield r
    unconjugated = _without_conjugation(r, q)
    yield dataclasses.replace(r, f=GroupAutomorphism(r.group, unconjugated))
    other = np.flatnonzero(r.psi != r.psi[0])
    if other.size:
        yield dataclasses.replace(r, psi=_swapped(r.psi, 0, int(other[0])))
    n = r.group.order
    if n >= 3:
        yield dataclasses.replace(
            r, f=GroupAutomorphism(r.group, _swapped(r.f.images, 1, n - 1)))


def _name(failure: str) -> str:
    return failure.split(" at (")[0].split(":")[0]


def _both(r, q):
    """The failures verify_cover reports, after checking that the
    exhaustive check fails the same properties, with the same first psi
    witness (both scan in row-major order)."""
    fast = verify_cover(r, q).failures
    slow = exhaustive_verify_cover(r, q)
    assert [_name(x) for x in fast] == [_name(x) for x in slow]
    assert [x for x in fast if x.startswith("psi")] == [
        x for x in slow if x.startswith("psi")]
    return fast


def _agree(q) -> int:
    """Compare both checks on both covers of q and their mutants; return
    how many of them fail."""
    failing = 0
    for make in (simple_multitransversal, optimized_multitransversal):
        for r in _mutants(build_cover(q, make(q)), q):
            failing += bool(_both(r, q))
    return failing


def test_agrees_with_exhaustive_check_on_small_corpus(small_corpus):
    positives = [q for _, q in small_corpus if is_homim_of_affine(q)]
    assert len(positives) > 1000
    assert sum(_agree(q) for q in positives) > 1000


def test_agrees_with_exhaustive_check_on_affine_corpus(affine_corpus):
    assert sum(_agree(aq.quandle) for _, _, aq in affine_corpus) > 50


def test_mutants_fail_as_expected():
    q = mesh_sum(generate_max_mesh(16, 3))
    r = build_cover(q, optimized_multitransversal(q))
    names = [tuple(map(_name, verify_cover(m, q).failures)) for m in _mutants(r, q)]
    assert names[0] == ()
    assert names[2] == ("psi is not a homomorphism",)
    assert names[3][0] == "f is not additive"


def test_f_additive_on_one_generator_only(sum_three_z2):
    # A = Z2 x (Z2 x Z4), u = 8 alpha + 4 beta + j; f o sigma, where sigma
    # swaps the tags 1 and 2, still commutes with adding the first (Dis)
    # generator 8, but not with adding the tag generator 1
    q = sum_three_z2
    r = build_cover(q, simple_multitransversal(q))
    assert r.group.order == 16 and r.transversal.kappa == 4
    assert r.group.generators()[0] == 8
    u = np.arange(16)
    sigma = u - u % 4 + np.array([0, 2, 1, 3])[u % 4]
    images = r.f.images[sigma]
    fast = _both(dataclasses.replace(r, f=GroupAutomorphism(r.group, images)), q)
    assert _name(fast[0]) == "f is not additive"


@pytest.mark.parametrize("chunk", [core.CHUNK_ENTRIES, 2 * 576, 1])
def test_f_additive_witness_names_the_first_failing_generator(chunk, monkeypatch):
    # f o sigma, where sigma swaps 1 and 2 in the last coordinate (u mod 9)
    # and in the middle one ((u // 9) mod 8) of A, fails additivity at four
    # of the seven lifted generators; the report names the first of them
    # in order, with its first u, as a loop over the generators finds them,
    # whether the generators are checked all at once, two or one at a time
    monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    q = mesh_sum(generate_max_mesh(16, 3))
    r = build_cover(q, optimized_multitransversal(q))
    a = r.group
    assert a.generators() == [72, 144, 216, 9, 18, 27, 1]
    u = np.arange(a.order)
    swap = np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])
    images = r.f.images[u // 72 * 72 + swap[u // 9 % 8] * 9 + swap[u % 9]]
    loop = [(g, int(bad[0])) for g in a.generators()
            if (bad := np.flatnonzero(images[a.plus(u, g)] != a.plus(images, images[g]))).size]
    assert loop == [(9, 27), (18, 27), (27, 9), (1, 1)]
    fast = _both(dataclasses.replace(r, f=GroupAutomorphism(a, images)), q)
    assert fast[0] == "f is not additive at (27,9)"


def test_psi_values_replaced_within_a_row_class(sum_three_z2, sum_z2_z1):
    # psi(u0) replaced by another element with the same row in Q: the row
    # comparison passes for u0, and failures can sit in one column only
    failing = 0
    for q in (sum_three_z2, sum_z2_z1, mesh_sum(generate_max_mesh(8, 2))):
        rows = [q.array[x].tobytes() for x in range(q.n)]
        for make in (simple_multitransversal, optimized_multitransversal):
            r = build_cover(q, make(q))
            for u0 in range(r.group.order):
                for y in range(q.n):
                    if y != r.psi[u0] and rows[y] == rows[r.psi[u0]]:
                        psi = np.array(r.psi, dtype=np.int32)
                        psi[u0] = y
                        failing += bool(_both(dataclasses.replace(r, psi=psi), q))
    assert failing > 100


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def genmax_64_5():
    return mesh_sum(generate_max_mesh(64, 5))


def test_64_5_builds_and_verifies_in_small_memory(genmax_64_5):
    q = genmax_64_5
    t = optimized_multitransversal(q)
    r, peak = _traced_peak(lambda: build_cover(q, t))
    assert r.group.order == 33792
    assert peak < 64 << 20
    assert verify_cover(r, q).ok


def test_64_5_table_is_refused_before_allocating(genmax_64_5):
    r = build_cover(genmax_64_5, optimized_multitransversal(genmax_64_5))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            r.group.add
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "1 GiB table limit" in str(exc.value)
    with pytest.raises(TooLarge):
        r.cover


def test_32_4_builds_no_table_of_the_cover_group(monkeypatch):
    q = mesh_sum(generate_max_mesh(32, 4))
    t = optimized_multitransversal(q)
    orders = []
    real = groups.check_abelian_table

    def counted(g):
        orders.append(g.order)
        return real(g)

    monkeypatch.setattr(groups, "check_abelian_table", counted)
    monkeypatch.setattr(cover, "check_abelian_table", counted)
    r = build_cover(q, t)
    assert r.group.order == 4352 and len(r.dis) == 16 and t.kappa == 17
    assert set(orders) == {16, 17}     # Dis(Q) and Z_kappa only
    # neither lazily built table has been read
    assert "add" not in vars(r.group) and "cover" not in vars(r)
    # nor does the cover read it: Aff(A, f) is summed one row per value of w
    assert r.cover.quandle.n == 4352 and "add" not in vars(r.group)


def test_32_4_cover_table_is_not_copied():
    # The cover quandle takes over the |A|^2 table make_affine builds
    # (75.8 MB here), so reading it costs one such table, not two.
    q = mesh_sum(generate_max_mesh(32, 4))
    r = build_cover(q, optimized_multitransversal(q))
    r.group.add                     # built before tracing starts
    cover, peak = _traced_peak(lambda: r.cover)
    assert cover.quandle.n == 4352
    assert peak < 100 << 20


def test_written_table_is_the_cover_table(affine_corpus, sum_three_z2):
    for _, _, aq in affine_corpus:      # the affine command's writer too
        out = io.BytesIO()
        write_affine(aq.group, aq.f, out)
        assert out.getvalue().decode() == format_quandle(aq.quandle)
    quandles = [aq.quandle for _, _, aq in affine_corpus[::7]] + [sum_three_z2]
    for q in quandles:
        for make in (simple_multitransversal, optimized_multitransversal):
            r = build_cover(q, make(q))
            out = io.BytesIO()
            write_affine(r.group, r.f, out)
            assert out.getvalue().decode() == format_quandle(r.cover.quandle)
