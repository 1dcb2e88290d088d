"""Shared fixtures: three worked example meshes, affine helpers, corpus tiers."""

from __future__ import annotations

import numpy as np
import pytest

from quandles.affine import make_affine
from quandles.groups import make_cyclic_product, multiplication_automorphism
from quandles.mesh import AffineMesh, mesh_sum, validate_mesh

import corpus


def zero_phi_mesh(moduli_list, c) -> AffineMesh:
    """Mesh with all-zero homomorphisms over cyclic factors."""
    groups = [make_cyclic_product(m) for m in moduli_list]
    phi = [
        [np.zeros(g.order, dtype=np.int32) for _ in groups]
        for g in groups
    ]
    return validate_mesh(groups, phi, c)


def aff(m: int, u: int):
    g = make_cyclic_product((m,))
    return make_affine(g, multiplication_automorphism(g, u % m))


@pytest.fixture(scope="session")
def mesh_three_z2() -> AffineMesh:
    # Three copies of Z2, zero maps, constants coupling the third fiber.
    return zero_phi_mesh(
        [(2,), (2,), (2,)],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    )


@pytest.fixture(scope="session")
def mesh_two_z3() -> AffineMesh:
    return zero_phi_mesh([(3,), (3,)], [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def mesh_z2_z1() -> AffineMesh:
    return zero_phi_mesh([(2,), (1,)], [[0, 0], [1, 0]])


@pytest.fixture(scope="session")
def sum_three_z2(mesh_three_z2):
    return mesh_sum(mesh_three_z2)


@pytest.fixture(scope="session")
def sum_two_z3(mesh_two_z3):
    return mesh_sum(mesh_two_z3)


@pytest.fixture(scope="session")
def sum_z2_z1(mesh_z2_z1):
    return mesh_sum(mesh_z2_z1)


@pytest.fixture(scope="session")
def small_corpus():
    """Deduplicated (mesh, quandle) pairs for the property tier."""
    seen = set()
    out = []
    for raw in corpus.small_mesh_corpus():
        mesh = corpus.build_mesh(raw)
        q = mesh_sum(mesh)
        if q not in seen:
            seen.add(q)
            out.append((mesh, q))
    return out


@pytest.fixture(scope="session")
def affine_corpus():
    return [(m, u, aff(m, u)) for m, u in corpus.affine_family(12)]


# One human-readable line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
