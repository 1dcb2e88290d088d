#!/usr/bin/env python3
"""Reference figures quoted in README.md, each measured afresh by one command.

    python3 perfbench/reference.py build_cover 32 4
    python3 perfbench/reference.py corpus 60000 65000
    python3 perfbench/reference.py analyze 8
    python3 perfbench/reference.py medial 128 5
    python3 perfbench/reference.py parse 1024 257
    python3 perfbench/reference.py meshset

Run from the root of a checkout.  ``corpus`` walks the acceptance corpus
from tests/corpus.py, and ``meshset`` compares it with the set meshgen.py
samples from, so both need the tests directory; the others need only
src/.  These are single measurements for orientation, not benchmark
metrics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import meshgen  # noqa: E402
from quandles import cli, cover, iofmt, mesh, perms  # noqa: E402


def peak_rss_gb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e9


def build_cover(n: str, k: str) -> None:
    q = mesh.mesh_sum(mesh.generate_max_mesh(int(n), int(k)))
    t = cover.optimized_multitransversal(q)
    t0 = time.perf_counter()
    result = cover.build_cover(q, t)
    print(f"build_cover({n},{k}): {time.perf_counter() - t0:.3f} s, "
          f"|A|={result.group.order}, peak RSS {peak_rss_gb():.2f} GB")


def corpus(start: str, stop: str) -> None:
    import corpus as corpus_mod

    lat, positives = [], 0
    raws = itertools.islice(corpus_mod.big_mesh_corpus_iter(), int(start), int(stop))
    t0 = time.perf_counter()
    for raw in raws:
        s = time.perf_counter()
        m = corpus_mod.build_mesh(raw)
        q = mesh.mesh_sum(m)
        mesh.coset_criterion(m)
        if cover.is_homim_of_affine(q):
            positives += 1
            cover.build_cover(q, cover.optimized_multitransversal(q))
        lat.append((time.perf_counter() - s) * 1e3)
    total = time.perf_counter() - t0
    p99 = statistics.quantiles(lat, n=100)[98]
    print(f"corpus[{start}:{stop}]: {len(lat)} meshes in {total:.2f} s (corpus "
          f"walk included), p50 {statistics.median(lat):.2f} ms, p99 {p99:.2f} ms, "
          f"{positives} positives")


def analyze(n: str) -> None:
    path = ROOT / "perfbench" / "_run" / f"transpositions_S{n}.quandle"
    path.parent.mkdir(parents=True, exist_ok=True)
    table = checks.transposition_table(int(n))
    path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, r)) for r in table.tolist()) + "\n")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["analyze", str(path)])
    print(f"analyze S_{n}: {time.perf_counter() - t0:.3f} s")
    path.unlink()


def medial(m: str, u: str) -> None:
    text = "\n".join(
        [m] + [" ".join(map(str, r)) for r in checks.affine_table(int(m), int(u)).tolist()]
    )
    q = iofmt.parse_quandle(text)
    t0 = time.perf_counter()
    perms.is_medial(q)
    t1 = time.perf_counter()
    perms.multiplication_group(q)
    t2 = time.perf_counter()
    print(f"Aff(Z_{m},{u}): is_medial {t1 - t0:.3f} s, LMlt closure {t2 - t1:.3f} s")


def parse(m: str, u: str) -> None:
    text = "\n".join(
        [m] + [" ".join(map(str, r)) for r in checks.affine_table(int(m), int(u)).tolist()]
    )
    t0 = time.perf_counter()
    iofmt.parse_quandle(text)
    print(f"parse_quandle Aff(Z_{m},{u}): {time.perf_counter() - t0:.3f} s")


def meshset() -> None:
    import corpus as corpus_mod

    t0 = time.perf_counter()
    meshes = meshgen.MeshSet(meshgen.GroupTables())
    t1 = time.perf_counter()
    ours = {meshes.mesh(p) for p in range(meshes.size)}
    theirs = set(corpus_mod.big_mesh_corpus_iter())
    print(f"meshgen: {meshes.size} meshes in {t1 - t0:.2f} s; acceptance corpus: "
          f"{len(theirs)} meshes; same set: {ours == theirs}")


if __name__ == "__main__":
    commands = {f.__name__: f for f in (build_cover, corpus, analyze, medial, parse, meshset)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    commands[sys.argv[1]](*sys.argv[2:])
