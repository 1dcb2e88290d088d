"""The four benchmark workloads.

Each ``setup_*`` builds, from the seed, the items of one round and returns
a ``Plan``: the items, the function that runs one item (the timed part)
and the function that checks its output against ``checks``.  Library calls
go through module attributes (``mesh.mesh_sum``), so that a traced run
sees the wrappers installed on those modules.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from quandles import cli, cover, groups, mesh

import checks
import meshgen
from checks import require


@dataclass
class Plan:
    """``items`` are timed; ``untimed`` ones run after them in every round.
    An untimed item may raise one of ``fault``, a known fault of the
    program; it then counts as failed."""

    items: list
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    untimed: list = field(default_factory=list)
    fault: tuple[type[BaseException], ...] = ()
    describe: Callable[[], str] = lambda: ""


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _check_result(result, q_table, rng) -> None:
    checks.check_cover(result.group.add, result.group.neg, result.f.images,
                       result.psi, result.cover.quandle.array, q_table, rng)


# -- mesh_sweep ---------------------------------------------------------------

# distinct meshes drawn from the corpus's 187,790
MESH_SAMPLE = {"full": 2500, "small": 40}


def setup_mesh_sweep(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    check_rng = np.random.default_rng(seed)
    tables = meshgen.GroupTables()
    group_of = {}
    items = []
    for raw in meshgen.sample_meshes(MESH_SAMPLE[size], rng, tables):
        tup, phi, c = raw
        for m in tup:
            if m not in group_of:
                group_of[m] = groups.make_cyclic_product(m)
        gs = [group_of[m] for m in tup]
        arrays = [[np.asarray(p, dtype=np.int32) for p in row] for row in phi]
        items.append(((gs, arrays, c), np.array(meshgen.sum_table(raw, tables))))
    rng.shuffle(items)
    verdicts = []

    def run(item):
        m = mesh.validate_mesh(*item[0])
        q = mesh.mesh_sum(m)
        coset = mesh.coset_criterion(m)
        verdict = cover.is_homim_of_affine(q)
        result = None
        if verdict:
            result = cover.build_cover(q, cover.optimized_multitransversal(q))
        return q, coset, verdict, result

    def check(item, out):
        q, coset, verdict, result = out
        table = item[1]
        require(np.array_equal(q.array, table), "mesh sum differs from the fiber formula")
        verdicts.append(verdict)
        require(verdict == coset, "verdict differs from the coset criterion")
        require(
            verdict == checks.translations_commute_and_close(table),
            "verdict differs from the translation-set test",
        )
        if result is not None:
            _check_result(result, table, check_rng)

    def describe():
        share = sum(verdicts) / max(len(verdicts), 1)
        return f"{len(items)} distinct meshes, {100 * share:.2f} % of verdicts positive"

    return Plan(items, run, check, describe=describe)


# -- worst_cover --------------------------------------------------------------

# The family up to (32, 4); (16, 3) runs 32 times a round, on both sides
# of (32, 4), so that the median latency rests on many samples of one size
# taken over seconds rather than on a single item.
FAMILY = {
    "full": [(4, 1), (8, 2)] + [(16, 3)] * 16 + [(32, 4)] + [(16, 3)] * 16,
    "small": [(4, 1), (8, 2)],
}


def setup_worst_cover(seed: int, size: str, workdir: Path) -> Plan:
    items = FAMILY[size]
    check_rng = np.random.default_rng(seed)

    def run(item):
        q = mesh.mesh_sum(mesh.generate_max_mesh(*item))
        return q, cover.build_cover(q, cover.optimized_multitransversal(q))

    def check(item, out):
        n, k = item
        q, result = out
        d, t = 2 ** k, 2 ** k * (n - 2 ** k + 1)
        require(q.n == n + k, f"|Q|={q.n}, expected {n + k}")
        require(len(result.dis) == d, f"|D|={len(result.dis)}, expected {d}")
        require(result.transversal.size == t, f"|T|={result.transversal.size}, expected {t}")
        require(result.group.order == d * t, f"|A|={result.group.order}, expected {d * t}")
        _check_result(result, q.array, check_rng)

    return Plan(items, run, check)


# -- analyze_cli --------------------------------------------------------------

# Transposition quandles of S_n for n >= 4 are non-medial (S_3's is
# Aff(Z_3, 2)).  S_7 runs eleven times a round, spread over it, with three
# smaller items and five larger ones, so that the median latency is a
# closure-bound S_7 item near the middle of its samples.  The affine items
# are Aff(Z_m, u) with u drawn for each item among the units of the same
# order and the same gcd(u-1, m) as the listed one, so that every seed does
# the same work; half run before the transpositions and half after.
TRANSPOSITIONS = {"full": [7, 4, 7, 5, 7, 6, 7, 7, 8, 7, 7, 7, 7, 7, 7], "small": [4, 5]}
AFFINE_ANALYZE = {"full": [(96, 5)] * 4, "small": [(9, 2)]}


def _same_work_multipliers(m: int, u: int) -> list[int]:
    key = (checks.multiplicative_order(u, m), math.gcd(u - 1, m))
    return [
        v for v in range(2, m)
        if math.gcd(v, m) == 1
        and (checks.multiplicative_order(v, m), math.gcd(v - 1, m)) == key
    ]


def setup_analyze_cli(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    transposition_of = {}
    for n in sorted(set(TRANSPOSITIONS[size])):
        path = workdir / f"transpositions_S{n}.quandle"
        _write_table(path, checks.transposition_table(n))
        transposition_of[n] = (str(path), checks.expected_transposition_analysis(n), False)
    transpositions = [transposition_of[n] for n in TRANSPOSITIONS[size]]
    affine = []
    for m, u in AFFINE_ANALYZE[size]:
        u = rng.choice(_same_work_multipliers(m, u))
        path = workdir / f"aff_{m}_{u}.quandle"
        _write_table(path, checks.affine_table(m, u))
        affine.append((str(path), checks.expected_affine_analysis(m, u), True))
    half = len(affine) // 2
    items = affine[:half] + transpositions + affine[half:]

    def run(item):
        return _cli(["analyze", item[0]])

    def check(item, out):
        rc, text = out
        require(rc == 0, f"analyze exited with {rc}")
        checks.check_analysis(_key_values(text), item[1], item[2])

    return Plan(items, run, check)


def _write_table(path: Path, table: np.ndarray) -> None:
    lines = [str(len(table))] + [" ".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n")


# -- affine_roundtrip ---------------------------------------------------------

# m on both sides of FULL_VALIDATE_LIMIT (512); u = 1 + j*m/4 with odd j
# keeps |Dis| = 4 and |A| = m whatever j the seed picks.  m = 256 runs five
# times a round, spread over it, with two smaller items and two larger
# ones, so that the median latency is the middle one of those five.
ROUNDTRIP = {"full": [256, 128, 256, 1024, 256, 640, 256, 128, 256], "small": [16, 32]}
# Aff(Z_1000000, 3): the table alone would need 10^12 entries, so the
# command must be refused with exit code 3; today it escapes as a numpy
# MemoryError.  It runs untimed, once a round.
OVERSIZED = "1000000:mul:3"


def setup_affine_roundtrip(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    items = [(m, 1 + rng.choice((1, 3)) * m // 4) for m in ROUNDTRIP[size]]

    def run(item):
        if item is None:
            return _cli(["affine", OVERSIZED]), None
        m, u = item
        path = workdir / f"aff_{m}.quandle"
        made = _cli(["affine", f"{m}:mul:{u}", "--out", str(path)])
        return made, _cli(["cover", str(path), "--out", str(workdir / "cover")])

    def check(item, out):
        made, covered = out
        if item is None:
            require(made[0] == 3, f"oversized affine exited with {made[0]}")
            return
        m, u = item
        require(made[0] == 0 and covered[0] == 0, f"exit codes {made[0]}, {covered[0]}")
        q_table = checks.read_table((workdir / f"aff_{m}.quandle").read_text())
        require(np.array_equal(q_table, checks.affine_table(m, u)),
                "written table is not (1-u)a + ub mod m")
        _check_written_cover(workdir / "cover" / f"aff_{m}", q_table, _key_values(covered[1]))

    return Plan(items, run, check, untimed=[None], fault=(MemoryError,))


def _check_written_cover(stem: Path, q_table: np.ndarray, report: dict[str, str]) -> None:
    cover_table = checks.read_table(Path(str(stem) + ".cover.quandle").read_text())
    side = np.array(
        [line.split() for line in Path(str(stem) + ".cover.sidecar").read_text().splitlines()
         if not line.startswith("#")],
        dtype=np.int64,
    )
    require(int(report["A_order"]) == len(cover_table), "|A| differs between outputs")
    require(int(report["T_size"]) == int(side[:, 2].max()) + 1, "|T| differs between outputs")
    checks.check_written_cover(cover_table, side, int(report["kappa"]), q_table)


WORKLOADS = {
    "mesh_sweep": setup_mesh_sweep,
    "worst_cover": setup_worst_cover,
    "analyze_cli": setup_analyze_cli,
    "affine_roundtrip": setup_affine_roundtrip,
}
