"""Mesh validation, sums, coset criterion, worst-case generator."""

import numpy as np
import pytest

from quandles import groups
from quandles.core import Partition
from quandles.errors import (
    InvalidParams,
    M1Violation,
    M2Violation,
    M4Violation,
    NotAHomomorphism,
    TooLarge,
)
from quandles.groups import make_cyclic_product
from quandles.iofmt import format_mesh, parse_mesh
from quandles.mesh import (
    coset_criterion,
    generate_max_mesh,
    is_indecomposable,
    mesh_sum,
    semiregular_extension_form,
    validate_mesh,
)
from quandles.perms import cayley_kernel, displacement_group, is_semiregular, orbits

from conftest import zero_phi_mesh
from oracles import left_division


def test_single_index_mesh_is_affine_table():
    # With a single fiber, a*b = phi(a) + (1-phi)(b), i.e. Aff(A, 1-phi).
    g = make_cyclic_product((8,))
    phi = [[np.array([(4 * a) % 8 for a in range(8)], dtype=np.int32)]]
    m = validate_mesh([g], phi, [[0]])
    t = mesh_sum(m).array.tolist()
    assert all(
        t[a][b] == (4 * a + 5 * b) % 8 for a in range(8) for b in range(8)
    )


def test_mesh_keeps_no_reference_to_the_callers_maps():
    # Aff(Z_3, -1) as the one-index mesh phi = 2x; the caller then turns
    # its array into the identity, which would break (M1)
    images = np.array([0, 2, 1], dtype=np.int32)
    m = validate_mesh([make_cyclic_product((3,))], [[images]], [[0]])
    text, table = format_mesh(m), mesh_sum(m).array
    images[:] = [0, 1, 2]
    assert format_mesh(m) == text
    assert format_mesh(parse_mesh(format_mesh(m))) == text
    assert np.array_equal(mesh_sum(m).array, table)
    arrays = [a for a in vars(m).values() if isinstance(a, np.ndarray)]
    arrays += [p for row in m.phi for p in row]
    assert len(arrays) > 8 and not any(a.flags.writeable for a in arrays)


def test_example_meshes_validate(mesh_three_z2, mesh_two_z3, mesh_z2_z1):
    assert mesh_three_z2.total_size == 6
    assert mesh_two_z3.total_size == 6
    assert mesh_z2_z1.total_size == 3
    for m in (mesh_three_z2, mesh_two_z3, mesh_z2_z1):
        assert is_indecomposable(m)


def _fibers(mesh):
    o = mesh.offsets.tolist()
    return Partition.from_blocks(range(o[i], o[i + 1]) for i in range(mesh.k))


def test_fibers_are_orbits_when_indecomposable(mesh_three_z2, sum_three_z2):
    assert orbits(sum_three_z2) == _fibers(mesh_three_z2)
    assert orbits(sum_three_z2).sizes() == (2, 2, 2)


def test_indecomposable_fibres_are_orbits_over_corpus(small_corpus):
    checked = 0
    for mesh, q in small_corpus:
        if is_indecomposable(mesh):
            assert orbits(q) == _fibers(mesh)
            checked += 1
    assert checked > 100


def test_mesh_sum_table_of_z2_z1(sum_z2_z1):
    # Fibers {0,1} (Z2) and {2} (Z1); constants c[1][0] = 1 couple them.
    assert sum_z2_z1.array.tolist() == [
        [0, 1, 2],
        [0, 1, 2],
        [1, 0, 2],
    ]


def test_m2_violation():
    g = make_cyclic_product((2,))
    phi = [[np.zeros(2, dtype=np.int32)]]
    with pytest.raises(M2Violation):
        validate_mesh([g], phi, [[1]])


def test_m1_violation():
    g = make_cyclic_product((2,))
    # phi = identity makes 1 - phi the zero map.
    phi = [[np.array([0, 1], dtype=np.int32)]]
    with pytest.raises(M1Violation):
        validate_mesh([g], phi, [[0]])


def test_m4_violation():
    # Zero maps make (M4) vacuous; an identity off-diagonal map with a
    # nonzero constant in its source column breaks it.
    g = make_cyclic_product((2,))
    zero = np.zeros(2, dtype=np.int32)
    ident = np.array([0, 1], dtype=np.int32)
    with pytest.raises(M4Violation) as exc:
        validate_mesh([g, g], [[zero, ident], [zero, zero]], [[0, 0], [1, 0]])
    assert exc.value.witness == (1, 0, 1)


def test_not_a_homomorphism():
    g = make_cyclic_product((3,))
    bad = np.array([0, 1, 1], dtype=np.int32)
    with pytest.raises(NotAHomomorphism):
        validate_mesh([g], [[bad]], [[0]])


def test_empty_mesh_rejected():
    with pytest.raises(InvalidParams):
        validate_mesh([], [], [])


def test_misshapen_cells_rejected():
    # phi and c must each be k rows of k cells
    g = make_cyclic_product((2,))
    z = np.zeros(2, dtype=np.int32)
    with pytest.raises(InvalidParams, match="c needs 2 rows of 2 cells"):
        validate_mesh([g, g], [[z, z], [z, z]], [[0]])
    with pytest.raises(InvalidParams, match="phi needs 2 rows of 2 cells"):
        validate_mesh([g, g], [[z, z]], [[0, 0], [0, 0]])


def test_coset_criterion_verdicts(mesh_three_z2, mesh_two_z3, mesh_z2_z1):
    assert coset_criterion(mesh_three_z2)
    assert not coset_criterion(mesh_two_z3)
    assert coset_criterion(mesh_z2_z1)


def test_semiregular_extension_form(mesh_three_z2, mesh_two_z3, mesh_z2_z1):
    assert semiregular_extension_form(mesh_three_z2)
    assert not semiregular_extension_form(mesh_z2_z1)  # unequal fibers
    assert not semiregular_extension_form(mesh_two_z3)  # c[0][1] != -c[1][0] shape


def test_semiregular_form_predicts_semiregular_displacement(sum_three_z2, sum_z2_z1):
    assert is_semiregular(displacement_group(sum_three_z2))
    assert not is_semiregular(displacement_group(sum_z2_z1))


def test_mesh_sum_left_division_closed_form(mesh_three_z2):
    # b = a \ c solves c = c[i][j] + phi[i][j](a) + (1 - phi[j][j])(b);
    # with zero maps b = c - c[i][j] inside the fiber of c.
    q = mesh_sum(mesh_three_z2)
    m = mesh_three_z2
    ldiv = left_division(q).tolist()
    for a in range(q.n):
        for target in range(q.n):
            b = ldiv[a][target]
            i, j = m.fiber[a], m.fiber[target]
            gj = m.groups[j]
            expect = gj.add[target - m.offsets[j], gj.neg[m.c[i][j]]] + m.offsets[j]
            assert b == expect


def test_genmax_rejects_bad_params():
    with pytest.raises(InvalidParams):
        generate_max_mesh(4, 2)  # needs 2^k < n
    with pytest.raises(InvalidParams):
        generate_max_mesh(8, 0)


def test_genmax_takes_integers_of_any_type_and_refuses_the_rest():
    same = generate_max_mesh(np.int64(16), np.int32(3))
    assert format_mesh(same) == format_mesh(generate_max_mesh(16, 3))
    for n, k in (("16", 3), (16.0, 3), (16, "3"), (None, 3)):
        with pytest.raises(InvalidParams, match="must be integers"):
            generate_max_mesh(n, k)


@pytest.mark.parametrize("n,k", [(4, 1), (8, 2), (16, 3)])
def test_genmax_structure(n, k):
    m = generate_max_mesh(n, k)
    q = mesh_sum(m)
    assert q.n == n + k
    kernel = cayley_kernel(q)
    assert len(kernel.blocks) == 2 ** k
    assert max(kernel.sizes()) == n - 2 ** k + 1
    assert coset_criterion(m)
    assert is_indecomposable(m)


def test_genmax_arrays_over_the_table_limit_are_refused(monkeypatch):
    # n = 8, k = 2: P is 10 x 8 int32 (320 bytes), C 8 x 8 int64 (512), the
    # sizes parse_mesh checks on the mesh's file
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 319)
    with pytest.raises(TooLarge, match="mesh size 10 needs a 320-byte map matrix"):
        generate_max_mesh(8, 2)
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 511)
    with pytest.raises(TooLarge, match="mesh index count 8 needs a 512-byte constant matrix"):
        generate_max_mesh(8, 2)
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 512)
    assert generate_max_mesh(8, 2).C.shape == (8, 8)


def test_mesh_sum_over_the_table_limit_is_refused(monkeypatch, mesh_three_z2):
    # 6 elements: a 144-byte table
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 143)
    with pytest.raises(TooLarge, match="mesh sum of order 6"):
        mesh_sum(mesh_three_z2)
    monkeypatch.setattr(groups, "_TABLE_LIMIT_BYTES", 144)
    assert mesh_sum(mesh_three_z2).n == 6
