"""Batch command-line front end.

Commands: analyze, cover, mesh {validate,sum,coset,semireg,genmax},
quotient, iso, affine.  Machine-readable output is line oriented
key=value.  Exit codes: 0 ok, 2 parse error, 3 invalid algebra or
oversized input, 4 negative verdict where a construction was requested.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from pathlib import Path

from . import cover as cover_mod
from . import iofmt, mesh as mesh_mod, perms
from .core import Quandle, is_isomorphic, quotient
from .errors import NotHomImage, ParseError, QuandleError
from .groups import _check_table_limit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NEGATIVE = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


def analysis_report(q: Quandle) -> list[tuple[str, object]]:
    orbit_partition = perms.orbits(q)
    lmlt = perms.multiplication_group(q)
    tr = perms.Translations(q)   # one map in D per Cayley-kernel block
    dis = perms.closure(tr.d, q.n)   # Dis(Q) = <D>
    abelian = perms.is_abelian(dis)   # Q is medial iff Dis(Q) is abelian
    semiregular = perms.is_semiregular(dis)
    return [
        ("n", q.n),
        ("orbits", len(orbit_partition.blocks)),
        ("orbit_sizes", orbit_partition.sizes()),
        ("lmlt_order", lmlt.order),
        ("dis_order", dis.order),
        ("cayley_blocks", tr.m),
        ("medial", abelian),
        ("dis_abelian", abelian),
        ("dis_semiregular", semiregular),
        ("dis_tiny", tr.closed),
        ("embeds_into_affine", abelian and semiregular),
        ("homim_of_affine", tr.closed_abelian),
    ]


def _read(parse, path: str, *args):
    """parse(fh, *args), fh the file at path open for binary reading through
    a buffer of iofmt.READ_BLOCK_BYTES: the parsers read it line by line.  A
    file that is not UTF-8 is a ParseError.  The buffered reader is built
    as open builds it, so that it takes any size, where open would take 1
    for line buffering and use its default."""
    try:
        with io.BufferedReader(io.FileIO(path), iofmt.READ_BLOCK_BYTES) as fh:
            return parse(fh, *args)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc


def _read_quandle(path: str) -> Quandle:
    return _read(iofmt.parse_quandle, path)


def _write_to(path: str | Path | None, write, *args) -> None:
    """Stream write(*args, fh) to the file at path, open for binary writing,
    or without one to stdout's binary buffer, once its text is flushed."""
    if path:
        with Path(path).open("wb") as fh:
            write(*args, fh)
    else:
        sys.stdout.flush()
        write(*args, sys.stdout.buffer)


def cmd_analyze(args) -> int:
    q = _read_quandle(args.path)
    _emit(analysis_report(q))
    return EXIT_OK


def cmd_cover(args) -> int:
    q = _read_quandle(args.path)
    d = len(q.rows.first)
    # |A| = |D| |T| >= |D|^2: refuse an oversized cover before D's table
    _check_table_limit(d * d, "cover group order of at least", "cover table")
    if args.transversal == "simple":
        t = cover_mod.simple_multitransversal(q)
    else:
        t = cover_mod.optimized_multitransversal(q)
    _check_table_limit(d * t.size, "cover group order", "cover table")
    result = cover_mod.build_cover(q, t)  # verified inside
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.path).stem
    table_path = out / f"{stem}.cover.quandle"
    sidecar_path = out / f"{stem}.cover.sidecar"
    _write_to(table_path, iofmt.write_affine, result.group, result.f)
    sidecar_path.write_bytes(iofmt.format_cover_sidecar(result).encode())
    _emit([
        ("A_order", result.group.order),
        ("T_size", result.transversal.size),
        ("kappa", result.transversal.kappa),
        ("psi_bijective", result.psi_bijective),
        ("table_file", table_path),
        ("sidecar_file", sidecar_path),
    ])
    return EXIT_OK


def _read_mesh(path: str) -> mesh_mod.AffineMesh:
    return _read(iofmt.parse_mesh, path)


def cmd_mesh(args) -> int:
    if args.mesh_cmd == "genmax":
        m = mesh_mod.generate_max_mesh(args.n, args.k)
        text = iofmt.format_mesh(m)
        if args.out:
            Path(args.out).write_text(text)
            _emit([("sum_size", m.total_size), ("file", args.out)])
        else:
            print(text, end="")
        return EXIT_OK
    m = _read_mesh(args.path)
    if args.mesh_cmd == "validate":
        _emit([
            ("valid", True),
            ("indices", m.k),
            ("sum_size", m.total_size),
            ("indecomposable", mesh_mod.is_indecomposable(m)),
        ])
    elif args.mesh_cmd == "sum":
        q = mesh_mod.mesh_sum(m)
        _write_to(args.out, iofmt.write_quandle, q)
        if args.out:
            _emit([("n", q.n), ("file", args.out)])
    elif args.mesh_cmd == "coset":
        _emit([("coset", mesh_mod.coset_criterion(m))])
    elif args.mesh_cmd == "semireg":
        _emit([("semireg_form", mesh_mod.semiregular_extension_form(m))])
    return EXIT_OK


def cmd_quotient(args) -> int:
    q = _read_quandle(args.path)
    p = _read(iofmt.parse_partition, args.partition, q.n)
    _write_to(None, iofmt.write_quandle, quotient(q, p))
    return EXIT_OK


def cmd_iso(args) -> int:
    q1 = _read_quandle(args.path1)
    q2 = _read_quandle(args.path2)
    sigma = is_isomorphic(q1, q2)
    if sigma is None:
        print("not isomorphic")
    else:
        print("isomorphic " + " ".join(map(str, sigma)))
    return EXIT_OK


def cmd_affine(args) -> int:
    group, f = iofmt.parse_affine_spec(args.spec)
    _write_to(args.out, iofmt.write_affine, group, f)
    if args.out:
        _emit([("n", group.order), ("file", args.out)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Finite quandle analysis and affine cover construction.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="invariants and affinity verdicts")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cover", help="construct the covering affine quandle")
    p.add_argument("path")
    p.add_argument(
        "--transversal", choices=["simple", "optimized"], default="optimized"
    )
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("mesh", help="affine mesh operations")
    msub = p.add_subparsers(dest="mesh_cmd", required=True)
    for name in ("validate", "sum", "coset", "semireg"):
        mp = msub.add_parser(name)
        mp.add_argument("path")
        if name == "sum":
            mp.add_argument("--out")
        mp.set_defaults(func=cmd_mesh)
    mp = msub.add_parser("genmax")
    mp.add_argument("n", type=int)
    mp.add_argument("k", type=int)
    mp.add_argument("--out")
    mp.set_defaults(func=cmd_mesh)

    p = sub.add_parser("quotient", help="quandle modulo a congruence file")
    p.add_argument("path")
    p.add_argument("partition")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("iso", help="isomorphism test for two table files")
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("affine", help="build Aff(A,f) from a spec string")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=cmd_affine)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotHomImage as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ParseError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuandleError as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error=out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
