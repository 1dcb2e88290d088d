"""The mesh layer checks each axiom over one disjoint-union layout; it must
agree with the per-cell loops (tests/oracles.py) in result, or in the
exception type, witness and message of the first failure."""

import itertools
import tracemalloc

import numpy as np
import pytest

from quandles import core
from quandles.core import CHUNK_ENTRIES, validate_quandle
from quandles.errors import (
    InvalidParams,
    M1Violation,
    M2Violation,
    M3Violation,
    M4Violation,
    NotAHomomorphism,
    QuandleError,
)
from quandles.groups import make_cyclic_product
from quandles.mesh import (
    coset_criterion,
    generate_max_mesh,
    is_indecomposable,
    mesh_sum,
    semiregular_extension_form,
    validate_mesh,
)

import corpus
from oracles import (
    loop_coset_criterion,
    loop_is_indecomposable,
    loop_mesh_sum,
    loop_semiregular_extension_form,
    loop_validate_mesh,
)


def _outcome(validate, groups, phi, c):
    try:
        m = validate(groups, phi, c)
    except QuandleError as exc:
        return type(exc), getattr(exc, "witness", getattr(exc, "i", None)), str(exc)
    return "mesh", [[p.tolist() for p in row] for row in m.phi], m.c


def _agree(groups, phi, c):
    """Both validations give the same outcome; returns its kind."""
    expected = _outcome(loop_validate_mesh, groups, phi, c)
    assert _outcome(validate_mesh, groups, phi, c) == expected
    return expected[0]


def _same_verdicts(m):
    assert np.array_equal(mesh_sum(m).array, loop_mesh_sum(m).array)
    assert coset_criterion(m) == loop_coset_criterion(m)
    assert is_indecomposable(m) == loop_is_indecomposable(m)
    assert semiregular_extension_form(m) == loop_semiregular_extension_form(m)


@pytest.fixture(scope="module")
def raw_corpus():
    return corpus.small_mesh_corpus()


def test_every_corpus_mesh_agrees(raw_corpus, monkeypatch):
    # coset_criterion also at chunk 1, its pairwise sums one row of the
    # shifted set a chunk (three in four corpus meshes are no coset)
    for tup, phi, c in raw_corpus:
        groups = [corpus.group_for(m) for m in tup]
        phi = [[np.asarray(p, dtype=np.int32) for p in row] for row in phi]
        assert _agree(groups, phi, c) == "mesh"
        m = validate_mesh(groups, phi, c)
        _same_verdicts(m)
        with monkeypatch.context() as patch:
            patch.setattr(core, "CHUNK_ENTRIES", 1)
            assert coset_criterion(m) == loop_coset_criterion(m)


@pytest.mark.parametrize("n,k", [(4, 1), (8, 2), (16, 3), (32, 4), (64, 5)])
def test_worst_case_family_agrees(n, k):
    # the family is built unvalidated: validate_mesh must accept it, and
    # it must be indecomposable
    m = generate_max_mesh(n, k)
    assert _agree(m.groups, m.phi, m.c) == "mesh"
    assert is_indecomposable(m)
    _same_verdicts(m)


def _mutants(raw, rng):
    """(kind, groups, phi, c): one copy of the mesh per way to break it."""
    tup, phi0, c0 = raw
    k = len(tup)
    groups = [corpus.group_for(m) for m in tup]
    orders = [g.order for g in groups]
    i, j = (int(x) for x in rng.integers(k, size=2))
    big = [x for x in range(k) if orders[x] > 1]

    def copy():
        return [[list(p) for p in row] for row in phi0], [list(r) for r in c0]

    phi, c = copy()
    phi[i][j] = phi[i][j] + [0]
    yield "phi-length", groups, phi, c
    phi, c = copy()
    phi[i][j][int(rng.integers(orders[i]))] = int(rng.choice([-1, orders[j], 2**40]))
    yield "phi-range", groups, phi, c
    phi, c = copy()
    c[i][j] = int(rng.choice([-1, orders[j], 2**70]))
    yield "c-range", groups, phi, c
    phi, c = copy()
    phi[i][j][int(rng.integers(orders[i]))] = int(rng.integers(orders[j]))
    yield "homomorphism", groups, phi, c
    if big:
        x = int(rng.choice(big))
        phi, c = copy()
        phi[x][x] = list(range(orders[x]))  # 1 - identity is the zero map
        yield "M1", groups, phi, c
        phi, c = copy()
        c[x][x] = int(rng.integers(1, orders[x]))
        yield "M2", groups, phi, c
    phi, c = copy()
    homs = corpus.homs_between(tup[i], tup[j])
    phi[i][j] = list(homs[int(rng.integers(len(homs)))])
    yield "M3", groups, phi, c
    phi, c = copy()
    c[i][j] = int(rng.integers(orders[j]))
    yield "M4", groups, phi, c


@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_mutants_fail_with_the_same_witness(raw_corpus, monkeypatch, chunk):
    # chunk 1 and 5 split every check, and every witness search, into runs
    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(7)
    seen = set()
    for raw in raw_corpus[::8]:
        for _, groups, phi, c in _mutants(raw, rng):
            seen.add(_agree(groups, phi, c))
    assert {InvalidParams, NotAHomomorphism, M1Violation, M2Violation,
            M3Violation, M4Violation, "mesh"} <= seen


@pytest.mark.parametrize("homs", [False, True])
@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_several_broken_cells_give_the_first_witness(raw_corpus, monkeypatch, chunk, homs):
    # three maps (any maps, or homomorphisms so that (M1)-(M4) fail) and
    # two constants redrawn at once: several checks fail, and the first in
    # the loops' order must be reported
    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(11)
    seen = set()
    for tup, phi0, c0 in raw_corpus[3::16]:
        groups = [corpus.group_for(m) for m in tup]
        orders = [g.order for g in groups]
        k = len(tup)
        phi = [[list(p) for p in row] for row in phi0]
        c = [list(r) for r in c0]
        for _ in range(3):
            i, j = (int(x) for x in rng.integers(k, size=2))
            if homs:
                maps = corpus.homs_between(tup[i], tup[j])
                phi[i][j] = list(maps[int(rng.integers(len(maps)))])
            else:
                phi[i][j] = [int(x) for x in rng.integers(orders[j], size=orders[i])]
        for _ in range(2):
            i, j = (int(x) for x in rng.integers(k, size=2))
            c[i][j] = int(rng.integers(orders[j]))
        seen.add(_agree(groups, phi, c))
    expected = {M1Violation, M2Violation, M3Violation, M4Violation} if homs else {NotAHomomorphism}
    assert expected <= seen


def test_homomorphism_witness_takes_the_first_target():
    # on Z_4, phi[0][0] first fails at (1,2) and phi[0][1] at (1,1): the
    # witness is the first target that fails, then its first pair
    g = make_cyclic_product((4,))
    zero = [0, 0, 0, 0]
    phi = [[[0, 0, 0, 1], [0, 1, 0, 0]], [zero, zero]]
    assert _agree([g, g], phi, [[0, 0], [0, 0]]) is NotAHomomorphism
    with pytest.raises(NotAHomomorphism) as exc:
        validate_mesh([g, g], phi, [[0, 0], [0, 0]])
    assert exc.value.witness == (0, 0, 1, 2)


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("cell", ["Z4 to Z4", "Z2xZ2 to Z2xZ2", "Z2xZ2 to Z4"])
def test_every_map_of_a_small_cell_agrees(monkeypatch, chunk, cell):
    # all 256 maps: Z_4 has one generator, Z2xZ2 two (a fiber padded by
    # its last generator when another has more); as phi[0][0] of a
    # one-index mesh, or phi[0][1] of a two-index mesh, zero elsewhere
    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    z4, v4 = make_cyclic_product((4,)), make_cyclic_product((2, 2))
    zero = np.zeros(4, dtype=np.int32)
    seen = set()
    for images in itertools.product(range(4), repeat=4):
        f = np.array(images, dtype=np.int32)
        if cell == "Z2xZ2 to Z4":
            seen.add(_agree([v4, z4], [[zero, f], [zero, zero]], [[0, 0], [0, 0]]))
        else:
            seen.add(_agree([z4 if cell == "Z4 to Z4" else v4], [[f]], [[0]]))
    assert NotAHomomorphism in seen and "mesh" in seen


@pytest.mark.parametrize("image", [2**32, -2**32 + 1, 2**31])
def test_images_int32_cannot_hold_are_refused(image):
    # np.array([0, 2**32]) would wrap to the zero map of Z_2
    with pytest.raises(InvalidParams):
        validate_mesh([make_cyclic_product((2,))], [[np.array([0, image])]], [[0]])


def _z2_identity_mutant(m, i, j):
    phi = [list(row) for row in m.phi]
    phi[i][j] = np.array([0, 1], dtype=np.int32)
    return m.groups, phi, m.c


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_worst_case_mutants_agree(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    m = generate_max_mesh(32, 4)
    # an identity Z2 -> Z2 off the diagonal breaks (M4) at the first row
    # whose constant in its source column is 1
    assert _agree(*_z2_identity_mutant(m, 0, 1)) is M4Violation
    # two chained identities break (M3), and on the diagonal (M1)
    groups, phi, c = _z2_identity_mutant(m, 2, 3)
    phi[3][1] = np.array([0, 1], dtype=np.int32)
    assert _agree(groups, phi, c) is M3Violation
    assert _agree(*_z2_identity_mutant(m, 3, 3)) is M1Violation
    phi = [list(row) for row in m.phi]
    phi[30][2] = np.array([1], dtype=np.int32)  # Z1 -> Z2 must send 0 to 0
    assert _agree(m.groups, phi, m.c) is NotAHomomorphism
    phi[30][2] = np.array([0, 0], dtype=np.int32)
    assert _agree(m.groups, phi, m.c) is InvalidParams


def test_large_group_checks_run_in_chunks():
    # Z_2048 has one generator, so the homomorphism check is 2048 sums in
    # one chunk, and the witness scan of the broken map, core._hom_failure
    # over 2048^2 pairs, spans four; x -> 1024x has two images, so the sum
    # has two distinct rows to check
    g = make_cyclic_product((2048,))
    phi = (1024 * np.arange(2048, dtype=np.int32)) % 2048
    assert _agree([g], [[phi]], [[0]]) == "mesh"
    m = validate_mesh([g], [[phi]], [[0]])
    assert np.array_equal(mesh_sum(m).array, loop_mesh_sum(m).array)
    # the rows are {0, 1024}, a subgroup that does not generate Z_2048 (the
    # set loops of the reference would take 2048^2 steps)
    assert coset_criterion(m) and not is_indecomposable(m)
    bad = phi.copy()
    bad[1500] = 1
    assert _agree([g], [[bad]], [[0]]) is NotAHomomorphism



@pytest.mark.parametrize("seed", range(8))
def test_coset_codes_in_stages_when_the_product_overflows(seed):
    # sixteen copies of Z_16 (product 2^64, beyond int64) with zero maps:
    # every mesh with a zero diagonal of constants is valid, and row i of
    # the coset test is c[i] = t_i * v for v of order 4; t_0 = 0 since
    # v_0 = 4, so the rows form a coset iff the t_i form a subgroup of Z_4;
    # no single integer code of a row would fit int64
    rng = np.random.default_rng(seed)
    g = make_cyclic_product((16,))
    zero = np.zeros(16, dtype=np.int32)
    v = 4 * rng.integers(4, size=16)
    v[0] = 4
    t = [int(rng.choice([s for s in range(4) if s * v[i] % 16 == 0])) for i in range(16)]
    m = validate_mesh([g] * 16, [[zero] * 16] * 16, (np.outer(t, v) % 16).tolist())
    expected = set(t) in ({0}, {0, 2}, {0, 1, 2, 3})
    assert coset_criterion(m) == loop_coset_criterion(m) == expected

# One chunk of int64 indices: every temporary of the mesh layer holds at
# most CHUNK_ENTRIES entries.
CHUNK_BYTES = 8 * CHUNK_ENTRIES


def _peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _one_index_2048():
    g = make_cyclic_product((2048,))
    g.add   # built on first read: here, before validate_mesh reads it in place
    return [g], [[(1024 * np.arange(2048, dtype=np.int32)) % 2048]], [[0]]


def _worst_128_6():
    m = generate_max_mesh(128, 6)
    return m.groups, m.phi, m.c


@pytest.mark.parametrize("make", [_worst_128_6, _one_index_2048])
def test_mesh_layer_memory_stays_within_a_few_chunks(make):
    # validate_mesh: the layout arrays the mesh keeps besides the tables,
    # plus at most four chunks (the worst-case family's tables have 146
    # entries, and one group's table is read in place, not copied);
    # mesh_sum: the table plus what validate_quandle needs to check it,
    # plus two chunks
    groups, phi, c = make()
    m, peak = _peak(lambda: validate_mesh(groups, phi, c))
    kept = sum(a.nbytes for name, a in vars(m).items()
               if isinstance(a, np.ndarray) and name != "flat")
    assert peak <= kept + 4 * CHUNK_BYTES
    q, peak = _peak(lambda: mesh_sum(m))
    _, check = _peak(lambda: validate_quandle(np.array(q.array)))
    assert peak <= q.array.nbytes + check + 2 * CHUNK_BYTES

