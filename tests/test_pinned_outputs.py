"""Cover files and tables written by the CLI, pinned by their sha256 digests.

The cover digests were taken from the nested-tuple table representation,
the table digests from the writer that formatted every entry with str;
any change of representation or writer must leave every byte as it was.
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


TABLES = {
    "affine 16:mul:5": "e0f0f4be1bb3757464435c03a39a07e4b48af7ed3d96cbab581b7635cac2566f",
    # 1,023 distinct rows: no line is a repeat
    "affine 1023:mul:2": "4eb4d5d0b23000d2f0dde30860aece0a16fa7d5cb317849f1f1cf73520aea31e",
    "mesh sum of genmax 8 2": "e809ea84a152c1e3eed0c37acb4919a6e5de404f63d1a3091392aaa8ad93d8b1",
    "quotient of Aff(Z_64, 5) mod 8": "914954effcb1ba2503d8e5b439d0a50f1b9d419054e3918b384acb27cc0900cb",
}


@pytest.mark.parametrize("source", sorted(TABLES))
def test_written_tables_are_byte_identical(tmp_path, capsys, source):
    table = tmp_path / "q.quandle"
    if source.startswith("affine"):
        assert main(["affine", source.split()[1], "--out", str(table)]) == 0
        data = table.read_bytes()
    elif source.startswith("mesh"):
        mesh = tmp_path / "q.mesh"
        assert main(["mesh", "genmax", "8", "2", "--out", str(mesh)]) == 0
        capsys.readouterr()
        assert main(["mesh", "sum", str(mesh)]) == 0
        data = capsys.readouterr().out.encode()
    else:
        partition = tmp_path / "mod8.partition"
        partition.write_text("".join(
            " ".join(map(str, range(r, 64, 8))) + "\n" for r in range(8)))
        assert main(["affine", "64:mul:5", "--out", str(table)]) == 0
        capsys.readouterr()
        assert main(["quotient", str(table), str(partition)]) == 0
        data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == TABLES[source]
