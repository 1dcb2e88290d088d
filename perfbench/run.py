#!/usr/bin/env python3
"""Benchmark of the quandles library: four workloads, end-to-end metrics,
and a traced run with per-layer metrics.

    python3 perfbench/run.py --workload mesh_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each in its own process
    python3 perfbench/run.py --smoke                      # smallest sizes, seconds

Run from the root of a checkout; the library is imported from ./src.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mesh_sweep", "worst_cover", "analyze_cli", "affine_roundtrip")
SETUP_REPEATS = 3  # before the timed phase, and again after it
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.unchecked_quandle.ms": "ms",
    "core.unchecked_quandle.calls": "count",
    "core.validate_quandle.ms": "ms",
    "core.validate_quandle.calls": "count",
    "groups.check_abelian_table.ms": "ms",
    "groups.check_abelian_table.calls": "count",
    "groups.AbelianGroup.ms": "ms",
    "groups.direct_product.ms": "ms",
    "groups.validate_automorphism.ms": "ms",
    "affine.make_affine.ms": "ms",
    "perms.is_medial.ms": "ms",
    "perms.orbits.ms": "ms",
    "perms.closure.ms": "ms",
    "perms.closure.calls": "count",
    "perms.closure.elements": "count",
    "perms.translation_set.calls": "count",
    "mesh.validate_mesh.ms": "ms",
    "mesh.mesh_sum.ms": "ms",
    "mesh.coset_criterion.ms": "ms",
    "mesh.generate_max_mesh.ms": "ms",
    "cover.translation_blocks.calls": "count",
    "cover.is_homim_of_affine.ms": "ms",
    "cover.build_oplus.ms": "ms",
    "cover.optimized_multitransversal.ms": "ms",
    "cover.build_cover.ms": "ms",
    "cover.verify_cover.ms": "ms",
    "cover.verify_cover.calls": "count",
    "cover.D_size": "count",
    "cover.T_size": "count",
    "cover.A_order": "count",
    "cover.A_table_mb": "MB",
    "iofmt.parse_quandle.ms": "ms",
    "iofmt.format_quandle.ms": "ms",
    "iofmt.format_cover_sidecar.ms": "ms",
    "iofmt.bytes_written": "bytes",
    "cli.main.ms": "ms",
    "trace.overhead_pct": "%",
}


class Phase:
    """What the calls of one phase of a run measured."""

    def __init__(self):
        self.latencies: list[int] = []
        self.busy_ns = self.attempted = self.failed = self.rounds = 0
        self.correct = True
        self.problems: list[str] = []

    def attempt(self, plan, item, timed: bool) -> None:
        """Run one item; only a timed item's call counts in the latencies
        and the busy time.  An untimed item that raises one of
        ``plan.fault`` is a known fault of the program: counted in
        ``failed``, not against ``correct``.  Any other exception, and any
        failed check, makes the phase incorrect."""
        from checks import CheckFailed

        self.attempted += 1
        out = error = None
        t0 = time.perf_counter_ns()
        try:
            out = plan.run(item)
        except Exception as exc:
            error = exc
        dt = time.perf_counter_ns() - t0
        if timed:
            self.busy_ns += dt
        if error is not None:
            self.failed += 1
            known = not timed and isinstance(error, plan.fault)
            self.correct = self.correct and known
            kind = "failed" if known else "unexpected"
            self.problems.append(f"{kind}: {type(error).__name__}: {error}"[:200])
            return
        if timed:
            self.latencies.append(dt)
        try:
            plan.check(item, out)
        except CheckFailed as exc:
            self.correct = False
            self.problems.append(f"check: {exc}")


def measure(plan, seconds: float, tracer=None) -> list[Phase]:
    """Closed loop: whole rounds of the plan's items, one after another,
    until ``seconds`` have passed; the checks, and the untimed items at
    the end of each round, run between the timed calls.  With a tracer,
    every item runs twice, untraced and traced, in turns that alternate
    from one item to the next, so that both phases see the host alike;
    the wrappers are installed only for the traced call."""
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    schedule = [(item, True) for item in plan.items] + [(item, False) for item in plan.untimed]
    start = time.perf_counter()
    while True:
        for k, (item, timed) in enumerate(schedule):
            turns = range(len(phases)) if k % 2 == 0 else reversed(range(len(phases)))
            for p in turns:
                if p == 1:
                    tracer.item = phases[1].attempted
                    tracer.install()
                try:
                    phases[p].attempt(plan, item, timed)
                finally:
                    if p == 1:
                        tracer.uninstall()
        for phase in phases:
            phase.rounds += 1
        if time.perf_counter() - start >= seconds:
            return phases


def end_to_end(m: Phase, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "items_per_s": len(m.latencies) / (m.busy_ns / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def p99_ms(m: Phase) -> float | None:
    """The 99th percentile latency, where ten samples or more lie beyond
    it; a run of fewer items has no tail to report."""
    if len(m.latencies) < 1000:
        return None
    return statistics.quantiles(m.latencies, n=100, method="inclusive")[98] / 1e6


def stamp() -> dict:
    """Where a run was made: versions, usable cores and src/ line count."""
    import numpy

    src = ROOT / "src" / "quandles"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
t0 = time.perf_counter()
import workloads, layertrace
print(time.perf_counter() - t0)
"""


def set_up(args, workdir: Path, paths: list[str]):
    """One set-up: import the library and the benchmark in a fresh
    interpreter, then build the workload's inputs.  Returns the plan and the
    seconds both took."""
    import workloads

    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *paths],
                          capture_output=True, text=True, check=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    s0 = time.perf_counter()
    plan = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    return plan, float(proc.stdout) + time.perf_counter() - s0


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "quandles" / "__init__.py").is_file():
        print(f"no quandles package under {src}; run from a checkout", file=sys.stderr)
        return 2
    paths = [str(src), str(HERE)]
    sys.path[:0] = paths
    from layertrace import Tracer

    if args.workload == "affine_roundtrip":
        # The oversized item must fail at once on a host that overcommits
        # memory too, so cap this process's address space.
        cap = 16 << 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    workdir = HERE / "_run" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            plan, seconds = set_up(args, workdir, paths)
            setup_times.append(seconds)
        if args.trace:
            tracer = Tracer()
            phases = measure(plan, args.seconds, tracer)
            untraced, traced = phases
            metrics = {name: 0 for name in PER_LAYER}
            layers = tracer.layer_metrics(traced.rounds)
            metrics.update((k, v) for k, v in layers.items() if k in PER_LAYER)
            per_item = lambda m: m.busy_ns / len(m.latencies)
            metrics["trace.overhead_pct"] = 100 * (per_item(traced) / per_item(untraced) - 1)
            out = HERE / "_run" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(out, {"per_round": layers, "rounds": traced.rounds,
                              "trace.overhead_pct": metrics["trace.overhead_pct"],
                              "stamp": stamp()})
            print(f"trace written to {out.relative_to(ROOT)}", file=sys.stderr)
            units = PER_LAYER
        else:
            phases = measure(plan, args.seconds)
            untraced = phases[0]
            described = plan.describe()
            # as many set-ups again after the timed phase, so that the
            # median spans the run and not only its first seconds
            del plan
            for _ in range(SETUP_REPEATS):
                setup_times.append(set_up(args, workdir, paths)[1])
            metrics = end_to_end(untraced, statistics.median(setup_times))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in dict.fromkeys(p for m in phases for p in m.problems):
        print(problem, file=sys.stderr)
    print(f"stamp {json.dumps(stamp())}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} items timed = {len(untraced.latencies)}")
        p50 = statistics.median(untraced.latencies) / 1e6
        print(f"{args.workload} item_p50_ms = {p50:.6g} ms")
        if described:
            print(f"{args.workload} inputs: {described}")
        if (p99 := p99_ms(untraced)) is not None:
            print(f"{args.workload} item_p99_ms = {p99:.6g} ms")
    print(json.dumps({
        "correct": all(m.correct for m in phases),
        "attempted": sum(m.attempted for m in phases),
        "failed": sum(m.failed for m in phases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_each(names, argv_tail) -> list[dict]:
    """Run each workload in its own process and collect its result line."""
    results = []
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, *argv_tail]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        results.append((name, json.loads(lines[-1])))
    return results


def combine(results) -> dict:
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at its smallest size, one round, untraced and traced")
    args = ap.parse_args(argv)

    if args.smoke:
        results = []
        for trace in (0, 1):
            tail = ["--seed", str(args.seed), "--seconds", "0", "--size", "small", "--trace", str(trace)]
            results += [(f"{n}.trace{trace}", r) for n, r in run_each(WORKLOAD_NAMES, tail)]
        summary = combine(results)
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    if args.workload == "all":
        tail = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--size", args.size, "--trace", str(args.trace)]
        print(json.dumps(combine(run_each(WORKLOAD_NAMES, tail))))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
