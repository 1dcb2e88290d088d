"""Cover files written by the CLI, pinned by their sha256 digests.

The digests were taken from the nested-tuple table representation; any
change of representation must leave every written byte as it was.
"""

import hashlib

import pytest

from quandles.cli import main

PINNED = {
    "affine 16:mul:5": (
        "57d5ae1ef38731402d4c0556b8110348a5e265d8d7dbc07a332c0b80a799c802",
        "ef4952cce94aad349f7e5d0d2c8bc44fed76bdaeade5943a8eaa7b9cc1f429eb",
    ),
    "genmax 8 2": (
        "57bf6c48094d000d82a15cc41d04d74d89446e2745bda0d1f3923f8a11cc6f3d",
        "0e06832268729b50bb53ff9c283c2e3925309fd02f41d2e1089708598cc83877",
    ),
    "genmax 16 3": (
        "3a90eae5f17ac0edbd8ed356ee858ec1d4d89334af8e53b1e162870f71e266f0",
        "e50883798f6773fc4ad569c86cf9d7047808cc16b71cc2e902c3bd42006d1f3d",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("source", sorted(PINNED))
def test_cover_files_are_byte_identical(tmp_path, capsys, source):
    table = tmp_path / "q.quandle"
    kind, *args = source.split()
    if kind == "affine":
        assert main(["affine", *args, "--out", str(table)]) == 0
    else:
        mesh = tmp_path / "q.mesh"
        assert main(["mesh", "genmax", *args, "--out", str(mesh)]) == 0
        assert main(["mesh", "sum", str(mesh), "--out", str(table)]) == 0
    assert main(["cover", str(table), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    digests = (
        _sha256(tmp_path / "out" / "q.cover.quandle"),
        _sha256(tmp_path / "out" / "q.cover.sidecar"),
    )
    assert digests == PINNED[source]
