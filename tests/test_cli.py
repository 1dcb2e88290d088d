"""Command-line behavior: output keys, files written, exit codes."""

import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from quandles import core, cover, groups, perms
from quandles.cli import analysis_report, main
from quandles.iofmt import format_mesh, format_quandle, parse_quandle

import corpus
from conftest import aff
from oracles import loop_is_medial
from test_perms import transposition_conjugation_quandle

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


@pytest.fixture()
def q1_file(tmp_path, sum_three_z2):
    p = tmp_path / "q1.quandle"
    p.write_text(format_quandle(sum_three_z2))
    return p


@pytest.fixture()
def q2_file(tmp_path, sum_two_z3):
    p = tmp_path / "q2.quandle"
    p.write_text(format_quandle(sum_two_z3))
    return p


def test_analyze_positive(capsys, q1_file):
    code, out, _ = run(capsys, "analyze", str(q1_file))
    assert code == 0
    pairs = kv(out)
    assert pairs["n"] == "6"
    assert pairs["orbits"] == "3"
    assert pairs["orbit_sizes"] == "2,2,2"
    assert pairs["dis_order"] == "2"
    assert pairs["cayley_blocks"] == "2"
    assert pairs["medial"] == "true"
    assert pairs["dis_semiregular"] == "true"
    assert pairs["dis_tiny"] == "true"
    assert pairs["embeds_into_affine"] == "true"
    assert pairs["homim_of_affine"] == "true"


def test_analyze_negative_verdicts(capsys, q2_file):
    code, out, _ = run(capsys, "analyze", str(q2_file))
    assert code == 0  # analysis itself succeeds; verdicts are just false
    pairs = kv(out)
    assert pairs["dis_order"] == "3"
    assert pairs["dis_tiny"] == "false"
    assert pairs["dis_semiregular"] == "true"
    assert pairs["homim_of_affine"] == "false"
    assert pairs["embeds_into_affine"] == "true"


def test_cover_writes_table_and_sidecar(capsys, tmp_path, q1_file):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "cover", str(q1_file), "--out", str(out_dir)
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["A_order"] == "8"
    assert pairs["T_size"] == "4"
    assert pairs["kappa"] == "2"
    assert pairs["psi_bijective"] == "false"
    table = parse_quandle((out_dir / "q1.cover.quandle").read_text())
    assert table.n == 8
    sidecar = (out_dir / "q1.cover.sidecar").read_text()
    assert len([l for l in sidecar.splitlines() if not l.startswith("#")]) == 8


def test_cover_simple_transversal(capsys, tmp_path, q1_file):
    code, out, _ = run(
        capsys, "cover", str(q1_file), "--transversal", "simple",
        "--out", str(tmp_path / "out2"),
    )
    assert code == 0
    assert kv(out)["A_order"] == "16"


def test_cover_negative_exit_code(capsys, tmp_path, q2_file):
    code, _, err = run(
        capsys, "cover", str(q2_file), "--out", str(tmp_path / "o")
    )
    assert code == 4
    assert "error=" in err


@pytest.mark.parametrize(
    "text",
    ["2\n0 1\n", "2\n0 5\n0 1\n", "2\n0 1\n-1 1\n"],
    ids=["missing-row", "entry-too-large", "negative-entry"],
)
def test_parse_error_exit_code(capsys, tmp_path, text):
    bad = tmp_path / "bad.quandle"
    bad.write_text(text)
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error=" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "analyze", str(tmp_path / "nope"))
    assert code == 2


@pytest.mark.parametrize(
    "reader, data",
    [
        ("quandle", b"2\n0 1\n\xff 1\n"),
        ("partition", b"0\n\xff1\n"),
        ("mesh", b"mesh 1\ngroup 0 \xff2\n"),
    ],
)
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, reader, data):
    q = tmp_path / "q.quandle"
    q.write_text("2\n0 1\n0 1\n")
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    argv = {
        "quandle": ["analyze", str(bad)],
        "partition": ["quotient", str(q), str(bad)],
        "mesh": ["mesh", "validate", str(bad)],
    }[reader]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error={bad} is not UTF-8 text: invalid start byte")


def test_invalid_algebra_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.quandle"
    # Idempotent, bijective rows, but not left distributive.
    bad.write_text("4\n0 2 1 3\n2 1 3 0\n3 0 2 1\n2 0 1 3\n")
    code, _, _ = run(capsys, "analyze", str(bad))
    assert code == 3


def test_mesh_validate_and_coset(capsys, tmp_path, mesh_three_z2, mesh_two_z3):
    m1 = tmp_path / "m1.mesh"
    m1.write_text(format_mesh(mesh_three_z2))
    code, out, _ = run(capsys, "mesh", "validate", str(m1))
    assert code == 0
    pairs = kv(out)
    assert pairs["valid"] == "true"
    assert pairs["indices"] == "3"
    assert pairs["sum_size"] == "6"
    assert pairs["indecomposable"] == "true"

    code, out, _ = run(capsys, "mesh", "coset", str(m1))
    assert code == 0 and kv(out)["coset"] == "true"

    m2 = tmp_path / "m2.mesh"
    m2.write_text(format_mesh(mesh_two_z3))
    code, out, _ = run(capsys, "mesh", "coset", str(m2))
    assert code == 0 and kv(out)["coset"] == "false"


def test_mesh_semireg(capsys, tmp_path, mesh_three_z2):
    m1 = tmp_path / "m1.mesh"
    m1.write_text(format_mesh(mesh_three_z2))
    code, out, _ = run(capsys, "mesh", "semireg", str(m1))
    assert code == 0 and kv(out)["semireg_form"] == "true"


def test_mesh_invalid_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_text("mesh 1\ngroup 0 2\nc 0 0 1\n")  # violates diagonal-zero
    code, _, _ = run(capsys, "mesh", "validate", str(bad))
    assert code == 3


def test_mesh_sum_to_file_then_analyze(capsys, tmp_path, mesh_z2_z1):
    m = tmp_path / "m3.mesh"
    m.write_text(format_mesh(mesh_z2_z1))
    out_file = tmp_path / "m3.quandle"
    code, out, _ = run(capsys, "mesh", "sum", str(m), "--out", str(out_file))
    assert code == 0
    assert kv(out)["n"] == "3"
    code, out, _ = run(capsys, "analyze", str(out_file))
    assert code == 0
    assert kv(out)["dis_semiregular"] == "false"


def test_mesh_genmax(capsys, tmp_path):
    out_file = tmp_path / "g.mesh"
    code, out, _ = run(capsys, "mesh", "genmax", "8", "2", "--out", str(out_file))
    assert code == 0
    assert kv(out)["sum_size"] == "10"
    code, out, _ = run(capsys, "mesh", "validate", str(out_file))
    assert code == 0
    assert kv(out)["sum_size"] == "10"


def test_quotient_command(capsys, tmp_path):
    qf = tmp_path / "q.quandle"
    run_code = main(["affine", "4:mul:3", "--out", str(qf)])
    capsys.readouterr()
    assert run_code == 0
    pf = tmp_path / "p.partition"
    pf.write_text("0 2\n1 3\n")
    code, out, _ = run(capsys, "quotient", str(qf), str(pf))
    assert code == 0
    assert parse_quandle(out).n == 2


def test_quotient_non_congruence_exit_code(capsys, tmp_path):
    qf = tmp_path / "q.quandle"
    main(["affine", "4:mul:3", "--out", str(qf)])
    capsys.readouterr()
    pf = tmp_path / "p.partition"
    pf.write_text("0 1\n2 3\n")
    code, _, _ = run(capsys, "quotient", str(qf), str(pf))
    assert code == 3


def test_quotient_repeated_element_exit_code(capsys, tmp_path):
    qf = tmp_path / "proj.quandle"
    qf.write_text("3\n0 1 2\n0 1 2\n0 1 2\n")
    pf = tmp_path / "dup.part"
    pf.write_text("0 0\n1\n")
    code, out, err = run(capsys, "quotient", str(qf), str(pf))
    assert code == 2
    assert out == "" and err.startswith("error=")


def test_iso_command(capsys, tmp_path, sum_z2_z1):
    a = tmp_path / "a.quandle"
    b = tmp_path / "b.quandle"
    a.write_text(format_quandle(sum_z2_z1))
    # The same quandle relabeled by 0->2, 1->0, 2->1.
    b.write_text("3\n0 1 2\n2 1 0\n0 1 2\n")
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    assert out.startswith("isomorphic")
    # Not isomorphic to the 3-element projection.
    b.write_text("3\n0 1 2\n0 1 2\n0 1 2\n")
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    assert out.strip() == "not isomorphic"


def test_affine_command_prints_table(capsys):
    code, out, _ = run(capsys, "affine", "3:mul:2")
    assert code == 0
    q = parse_quandle(out)
    assert q.array.tolist() == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_analysis_verdict_matches_decision(small_corpus):
    for _, q in small_corpus:
        report = dict(analysis_report(q))
        assert report["homim_of_affine"] == cover.is_homim_of_affine(q)


def test_cover_command_verifies_once(capsys, tmp_path, q1_file, monkeypatch):
    calls = []
    real = cover.verify_cover

    def counted(result, q):
        calls.append(result.group.order)
        return real(result, q)

    monkeypatch.setattr(cover, "verify_cover", counted)
    code, _, _ = run(capsys, "cover", str(q1_file), "--out", str(tmp_path / "o"))
    assert code == 0
    assert calls == [8]


def test_one_translation_set_per_command(capsys, tmp_path, q1_file, monkeypatch):
    built = []
    real_init = perms.Translations.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(perms.Translations, "__init__", counted_init)
    for argv in (["analyze", str(q1_file)],
                 ["cover", str(q1_file), "--out", str(tmp_path / "o")]):
        built.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(built) == 1, argv


def test_rows_numbered_once_per_command(capsys, tmp_path, monkeypatch):
    shapes = []
    real_init = core.RowSet.__init__

    def counted_init(self, rows, classes=None):   # the shape of the rows sorted
        shapes.append(rows.shape if classes is None else (len(classes[0]), rows.shape[1]))
        real_init(self, rows, classes)

    monkeypatch.setattr(core.RowSet, "__init__", counted_init)
    table = tmp_path / "aff256.quandle"
    code, _, _ = run(capsys, "affine", "256:mul:65", "--out", str(table))
    assert code == 0 and shapes == []               # written from (A, f)
    shapes.clear()
    code, _, _ = run(capsys, "cover", str(table), "--out", str(tmp_path / "o"))
    # Quandle.rows, read by verify_cover too, sorts the 4 distinct lines
    assert code == 0 and shapes == [(4, 256)]


def test_affine_command_builds_no_group_table(capsys, tmp_path):
    # Aff(Z_1024, 257) is written from its 4 distinct rows, summed through
    # Z_1024's plus: no 1024^2 table of the group or of the quandle
    table = tmp_path / "aff1024.quandle"
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "affine", "1024:mul:257", "--out", str(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 4 * 1024 ** 2
    assert parse_quandle(table.read_text()) == aff(1024, 257).quandle


def test_group_axioms_checked_once_per_cover_factor(capsys, tmp_path, q1_file,
                                                     monkeypatch):
    orders = []
    real = groups.check_abelian_table

    def counted(g):
        orders.append(g.order)
        return real(g)

    monkeypatch.setattr(groups, "check_abelian_table", counted)
    monkeypatch.setattr(cover, "check_abelian_table", counted)
    code, _, _ = run(capsys, "cover", str(q1_file), "--out", str(tmp_path / "o"))
    assert code == 0 and orders == [2, 2]      # Dis(Q), then Z_kappa
    orders.clear()
    code, _, _ = run(capsys, "affine", "12:mul:5")
    assert code == 0 and orders == []          # Z_12 is a group as built


def _separate_report(q):
    """analysis_report from one computation per entry: the Cayley kernel,
    is_tiny, and mediality by the quadruple loop."""
    orbit_partition = perms.orbits(q)
    dis = perms.displacement_group(q)
    abelian = perms.is_abelian(dis)
    semiregular = perms.is_semiregular(dis)
    tiny = perms.is_tiny(q)
    return [
        ("n", q.n),
        ("orbits", len(orbit_partition.blocks)),
        ("orbit_sizes", orbit_partition.sizes()),
        ("lmlt_order", perms.multiplication_group(q).order),
        ("dis_order", dis.order),
        ("cayley_blocks", len(perms.cayley_kernel(q).blocks)),
        ("medial", loop_is_medial(q)),
        ("dis_abelian", abelian),
        ("dis_semiregular", semiregular),
        ("dis_tiny", tiny),
        ("embeds_into_affine", abelian and semiregular),
        ("homim_of_affine", abelian and tiny),
    ]


def test_analysis_report_matches_separate_computations(small_corpus):
    cases = [q for _, q in small_corpus]
    cases += [transposition_conjugation_quandle(k) for k in (4, 5, 6)]
    cases += [aff(m, u).quandle for m, u in corpus.affine_family(16)]
    for q in cases:
        assert analysis_report(q) == _separate_report(q)


HUGE = "99999999999999999999999"


@pytest.mark.parametrize(
    "argv, mesh_text",
    [
        (["affine", "99999999999999999999:mul:3"], None),
        (["affine", f"4x{HUGE}:1,2"], None),
        (["affine", f"3:1,2,{HUGE}"], None),
        (["mesh", "validate"], f"mesh 1\ngroup 0 {HUGE}\n"),
        (["mesh", "validate"], f"mesh 1\ngroup 0 2\nphi 0 0 0 {HUGE}\n"),
        (["mesh", "genmax", "99999999999999999999", "2"], None),
    ],
    ids=["group-order", "moduli-product", "image", "mesh-group", "mesh-phi", "genmax-n"],
)
def test_oversized_integer_exits_invalid(capsys, tmp_path, argv, mesh_text):
    if mesh_text is not None:
        path = tmp_path / "big.mesh"
        path.write_text(mesh_text)
        argv = argv + [str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error=") and err.count("\n") == 1


def _cap_address_space():
    limit = 4 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_oversized_affine_exits_invalid():
    # the table alone would need 10^12 entries; the address-space cap makes
    # the allocation fail at once even where the host overcommits memory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "affine", "1000000:mul:3"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error=")
    assert "Traceback" not in proc.stderr


def test_oversized_mesh_is_refused_before_its_arrays(tmp_path):
    # 20,000 trivial groups in about 300 KB: P would take 1.6 GB and C
    # 3.2 GB, so the file is refused before either is allocated
    path = tmp_path / "big.mesh"
    path.write_text("mesh 20000\n" + "".join(f"group {i} 1\n" for i in range(20000)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "mesh", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error=mesh size 20000 needs a 1600000000-byte map matrix")
    assert "table limit" in proc.stderr and proc.stderr.count("\n") == 1


def test_oversized_mesh_tables_are_refused_before_any_is_built(tmp_path):
    # ten groups Z_16000: each addition table (1.02 GB) is under the table
    # limit and P takes 6.4 MB, but the tables side by side would take
    # 10.2 GB, so the file is refused before any group's table is built
    # (run only in a child with its address space capped)
    path = tmp_path / "wide.mesh"
    path.write_text("mesh 10\n" + "".join(f"group {i} 16000\n" for i in range(10)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "mesh", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error=mesh addition entries 2560000000 needs a "
                                  "10240000000-byte table of the groups' sums")
    assert "table limit" in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n, size", [(1_000_000, 4_000_000_000_000), (20_000, 1_600_000_000)])
def test_oversized_quandle_is_refused_before_its_table(tmp_path, n, size):
    # n rows of "0" (2 MB at n = 10^6): the table is refused for its size,
    # whatever n is, before it is allocated and before any row is read
    # (run only in a child with its address space capped)
    path = tmp_path / "big.quandle"
    path.write_bytes(b"%d\n" % n + b"0\n" * n)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error=quandle order {n} needs a {size}-byte table")
    assert "table limit" in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n, refusal", [
    (20_000, "mesh size 20003 needs a 1600240000-byte map matrix"),
    (12_000, "mesh index count 12000 needs a 1152000000-byte constant matrix"),
])
def test_oversized_genmax_is_refused_before_its_arrays(n, refusal):
    # P is (n + 3) x n int32 and C n x n int64, as parse_mesh counts them:
    # at n = 12,000 only C is over the limit (run only in a child with its
    # address space capped)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "mesh", "genmax", str(n), "3"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error={refusal}")
    assert "table limit" in proc.stderr and proc.stderr.count("\n") == 1


def _cap_file_size():
    limit = 64 << 20
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


@pytest.mark.parametrize("spec, transversal, order", [
    ("512:mul:3", "optimized", "of at least 65536"),
    ("256:mul:3", "simple", "32768"),
], ids=["D-squared", "D-times-T"])
def test_oversized_cover_exits_invalid(capsys, tmp_path, spec, transversal, order):
    # Aff(Z_512, 3) has |D| = 256, so |A| = |D| |T| >= 65,536.  Aff(Z_256, 3)
    # has |D| = 128, and the simple transversal takes |T| = 256.  Either
    # cover table is over the limit, so the command is refused before D's
    # table is built, and writes nothing (the file size cap stops a run
    # that writes anyway).
    table = tmp_path / "aff.quandle"
    code, _, _ = run(capsys, "affine", spec, "--out", str(table))
    assert code == 0
    out = tmp_path / "o"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "cover", str(table),
         "--transversal", transversal, "--out", str(out)],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_file_size,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error=cover group order {order} needs")
    assert "table limit" in proc.stderr
    assert not out.exists()
    assert time.perf_counter() - start < 20


def _fresh_process(*argv, flags=()):
    """Exit code, stdout and stderr of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "quandles.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_iso_search_deeper_than_the_recursion_limit(tmp_path):
    # The backtracking keeps its own stack, one level per generator, so
    # the trivial quandle of order 300 needs no Python recursion.
    n = 300
    path = tmp_path / "trivial.quandle"
    row = " ".join(map(str, range(n)))
    path.write_text(f"{n}\n" + f"{row}\n" * n)
    script = ("import sys; from quandles.cli import main; "
              "sys.setrecursionlimit(120); sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "iso", str(path), str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"isomorphic {row}\n"


def test_non_distributive_witness_without_asserts(tmp_path):
    # the 4x4 table of test_core.py: idempotent, rows bijective, not left
    # distributive; python -O strips asserts and must not change the error
    path = tmp_path / "bad.quandle"
    path.write_text("4\n0 2 1 3\n2 1 3 0\n3 0 2 1\n2 0 1 3\n")
    errors = []
    for flags in ([], ["-O"]):
        code, _, err = _fresh_process("analyze", str(path), flags=flags)
        assert code == 3
        assert err.startswith("error=") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert "(0,1,0)" in errors[1]


# One mesh file per way validate_mesh can fail, with its error line.
BAD_MESHES = {
    "phi-length": ("mesh 1\ngroup 0 2\nphi 0 0 0\n",
                   "phi[0][0] has the wrong length"),
    "phi-range": ("mesh 1\ngroup 0 2\nphi 0 0 0 5\n",
                  "phi[0][0] maps outside the target group"),
    "c-range": ("mesh 2\ngroup 0 2\ngroup 1 2\nc 0 1 7\n",
                "c[0][1] is not an element of the target group"),
    "c-huge": ("mesh 2\ngroup 0 2\ngroup 1 2\nc 0 1 1180591620717411303424\n",
               "c[0][1] is not an element of the target group"),
    "homomorphism": ("mesh 1\ngroup 0 3\nphi 0 0 0 1 1\n",
                     "phi[0][0] is not a homomorphism: fails at (1,1)"),
    "M1": ("mesh 1\ngroup 0 2\nphi 0 0 0 1\n",
           "(M1) fails: 1-phi[0][0] is not an automorphism"),
    "M2": ("mesh 1\ngroup 0 2\nc 0 0 1\n", "(M2) fails: c[0][0] != 0"),
    "M3": ("mesh 2\ngroup 0 3\ngroup 1 3\nphi 0 1 0 1 2\nphi 1 1 0 2 1\n",
           "(M3) fails at (i,j,j',k)=(0,0,1,1)"),
    "M4": ("mesh 2\ngroup 0 2\ngroup 1 2\nphi 0 1 0 1\nc 1 0 1\n",
           "(M4) fails at (i,j,k)=(1,0,1)"),
}


@pytest.mark.parametrize("kind", sorted(BAD_MESHES))
def test_mesh_failure_without_asserts(tmp_path, kind):
    # every mesh check raises without an assert: python -O prints the same
    text, message = BAD_MESHES[kind]
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    expected = (3, "", f"error={message}\n")
    assert _fresh_process("mesh", "validate", str(path)) == expected
    assert _fresh_process("mesh", "validate", str(path), flags=["-O"]) == expected


def test_consecutive_main_calls_match_fresh_processes(capsys, tmp_path):
    # main reuses one parser; an error exit must leave nothing behind for
    # the calls after it
    bad = tmp_path / "bad.mesh"
    bad.write_text(BAD_MESHES["M4"][0])
    calls = [
        ["mesh", "validate"],  # usage error: argparse exits with 2
        ["mesh", "genmax", "8", "2"],
        ["affine", "5:mul:2"],
        ["mesh", "validate", str(bad)],
        ["mesh", "nosuch"],
        ["mesh", "genmax", "8", "2"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(*argv), argv
