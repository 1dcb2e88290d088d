"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (set fixpoints, quadruple loops,
plain modular arithmetic, backtracking) so that agreement with the
library is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from quandles.core import (
    Partition,
    Quandle,
    _check_table,
    _chunks,
    _hom_failure,
    validate_quandle,
)
from quandles import perms
from quandles.cover import Multitransversal, _homim_translations
from quandles.errors import (
    DegreeMismatch,
    InvalidParams,
    M1Violation,
    M2Violation,
    M3Violation,
    M4Violation,
    NotACongruence,
    NotAHomomorphism,
    NotHomImage,
    NotLeftDistributive,
    ParseError,
    RowNotBijective,
)
from quandles.groups import (
    AbelianGroup,
    _check_table_limit,
    check_abelian_table,
    generating_indices,
    make_cyclic_product,
)
from quandles.iofmt import _ints, parse_quandle
from quandles.mesh import AffineMesh
from quandles.perms import Translations, cayley_kernel


def as_tuples(rows) -> tuple[tuple[int, ...], ...]:
    """The rows of an int array as a tuple of tuples: a quandle table,
    a permutation group's elements or generators, or D."""
    return tuple(map(tuple, np.asarray(rows).tolist()))


def left_division(q: Quandle) -> np.ndarray:
    """ldiv[a, c] = the unique b with a*b = c: each row of the table inverted."""
    return np.argsort(q.array, axis=1)


# -- reference tuple permutations: p[i] is the image of i, maps act on the left

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def swap_labels(q: Quandle, a: int, b: int) -> Quandle:
    """Q relabeled by the transposition s = (a b): x *' y = s(s(x) * s(y)).
    D at base point a of Q, conjugated by s, is D at base point b of it."""
    s = list(range(q.n))
    s[a], s[b] = b, a
    t = q.array.tolist()
    return validate_quandle([[s[t[x][y]] for y in s] for x in s])


class FifoGroup(NamedTuple):
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]


def fifo_closure(generators, degree: int | None = None) -> FifoGroup:
    """BFS multiplication closure from the identity, generators in order,
    one element at a time through a FIFO queue of tuples."""
    gens = tuple(tuple(g) for g in generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch(degree, len(g))
    ident = identity_perm(degree)
    elements = [ident]
    seen = {ident}
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            r = compose(g, p)
            if r not in seen:
                seen.add(r)
                elements.append(r)
                queue.append(r)
    return FifoGroup(degree, gens, tuple(elements))


def affine_table_mod(m: int, u: int) -> list[list[int]]:
    """a*b = (1-u)a + ub over Z_m, straight modular arithmetic."""
    return [[((1 - u) * a + u * b) % m for b in range(m)] for a in range(m)]


def naive_closure(perms: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Set fixpoint under composition; no ordering, no group structure."""
    n = len(perms[0])
    elems = {tuple(range(n))} | set(perms)
    while True:
        new = {
            tuple(p[q[i]] for i in range(n))
            for p in elems
            for q in elems
        }
        if new <= elems:
            return elems
        elems |= new


def naive_orbits(gens, n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by the permutations gens, each a set
    fixpoint from its least point, listed by least point."""
    out: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for x in range(n):
        if x in seen:
            continue
        orbit = {x}
        while True:
            grown = orbit | {g[y] for g in gens for y in orbit}
            if grown == orbit:
                break
            orbit = grown
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def naive_left_translations(table) -> list[tuple[int, ...]]:
    return [tuple(row) for row in table]


def naive_is_medial(table) -> bool:
    n = len(table)
    t = table
    return all(
        t[t[x][y]][t[u][v]] == t[t[x][u]][t[y][v]]
        for x in range(n)
        for y in range(n)
        for u in range(n)
        for v in range(n)
    )


def loop_is_medial(q: Quandle) -> bool:
    """(x*y)*(u*v) == (x*u)*(y*v) for all quadruples, one x at a time
    (O(n^3) memory); the library reads mediality as "Dis(Q) is abelian"."""
    t = q.array
    uv = t[None, :, :]                      # (u,v)
    for x in range(q.n):
        lhs = t[t[x][:, None, None], uv]    # (y,u,v)
        rhs = t[t[x][None, :, None], t[:, None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def naive_is_quandle(table) -> bool:
    n = len(table)
    t = table
    if any(t[a][a] != a for a in range(n)):
        return False
    if any(sorted(t[a]) != list(range(n)) for a in range(n)):
        return False
    return all(
        t[a][t[b][c]] == t[t[a][b]][t[a][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _check_rows_bijective(arr: np.ndarray) -> None:
    """Raise RowNotBijective at the first row of arr that is not a bijection."""
    n = len(arr)
    for start, stop in _chunks(0, n, n):  # rows sorted per chunk
        block = np.sort(arr[start:stop], axis=1)
        wrong = np.flatnonzero((block != np.arange(n)).any(axis=1))
        if wrong.size:
            raise RowNotBijective(start + int(wrong[0]))


def lexicographic_validate(table) -> Quandle:
    """validate_quandle as it was before distinct rows were checked once:
    the quadratic table checks, the bijectivity of every row in order,
    then a scan of every a in order, raising at the lexicographically
    first (a, b, c) that breaks distributivity."""
    arr = _check_table(table)
    _check_rows_bijective(arr)
    for a in range(len(arr)):
        # a*(b*c) == (a*b)*(a*c), vectorized over (b,c)
        lhs = arr[a][arr]
        lrow = arr[a]
        rhs = arr[np.ix_(lrow, lrow)]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise NotLeftDistributive(a, b, c)
    return Quandle(arr)


def distinct_row_validate(table) -> Quandle:
    """validate_quandle as it was before distributivity ran over row
    classes: the checks of lexicographic_validate, then _hom_failure (n^2
    products) on the first row a of each distinct row, ascending, raising
    at the first failing a with its first (b, c)."""
    q = Quandle(_check_table(table))
    _check_rows_bijective(q.array)
    for a in q.rows.first.tolist():
        failure = _hom_failure(q.array[a], q.array, q.array)
        if failure is not None:
            raise NotLeftDistributive(a, *failure)
    return q


# -- the quandle file parser as it was before distinct lines were converted
#    once each: every line through the per-token loop

def _data_lines(text: str) -> list[str]:
    """The lines of the whole text by one str.splitlines, stripped, less
    blank lines and '#' comments."""
    lines = (raw.strip() for raw in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


# A plain table row as the parser first tested for it, by a backtracking
# regular expression: ASCII decimal tokens of 1 to 9 digits, one space
# between two of them, at most a closing "\r".
PLAIN_ROW = re.compile(r"[0-9]{1,9}(?: [0-9]{1,9})*\r?")


def read_then_parse_quandle(path) -> Quandle:
    """A quandle file read as the command line read it before it streamed
    the file: the whole text at once (universal newlines), a file that is
    not UTF-8 refused with the offset of its first bad byte, then parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_quandle(text)


def loop_parse_quandle(text: str) -> Quandle:
    """Line 1: n; then n rows of n entries (row a = a*b for b = 0..n-1).

    Each row goes straight into a preallocated int32 table, so only one
    row is held as Python ints at a time."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty quandle file")
    header = _ints(lines[0])
    if len(header) != 1 or header[0] < 1:
        raise ParseError(f"bad size line {lines[0]!r}")
    n = header[0]
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, got {len(lines) - 1}")
    table = np.empty((n, n), dtype=np.int32)
    out_of_range = None  # a ragged row anywhere is reported first
    for a, line in enumerate(lines[1:]):
        row = _ints(line)
        if len(row) != n:
            raise ParseError(f"row {line!r} has {len(row)} entries, expected {n}")
        if out_of_range is not None:
            continue
        if 0 <= min(row) and max(row) < n:
            table[a] = row
        else:
            x = next(x for x in row if not 0 <= x < n)
            out_of_range = f"entry {x} in row {a} out of range 0..{n - 1}"
    if out_of_range is not None:
        raise ParseError(out_of_range)
    return validate_quandle(table)


# -- quotient, induced subquandle and subquandle closure as loops over the
#    tuple table, as the library had them before it gathered from q.array

def loop_quotient(q: Quandle, p: Partition) -> Quandle:
    """Quandle on the blocks of a congruence, labeled by block order."""
    table = as_tuples(q.array)
    block_of = p.block_of
    # congruence check, lexicographic first witness
    for bi in p.blocks:
        for a in bi:
            for a2 in bi:
                for bj in p.blocks:
                    for b in bj:
                        for b2 in bj:
                            if block_of[table[a][b]] != block_of[table[a2][b2]]:
                                raise NotACongruence(a, a2, b, b2)
    reps = [b[0] for b in p.blocks]
    return validate_quandle(np.asarray(block_of)[q.array[np.ix_(reps, reps)]])


def loop_induced_subquandle(q: Quandle, subset) -> Quandle:
    """Restrict to a subset closed under * (relabeled in ascending order)."""
    q_table = as_tuples(q.array)
    elems = sorted(set(subset))
    index = {x: i for i, x in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            z = q_table[x][y]
            if z not in index:
                raise ValueError(f"subset not closed: {x}*{y} = {z}")
            table[i][j] = index[z]
    return validate_quandle(table)


def loop_subquandle_closure(q: Quandle, subset) -> tuple[int, ...]:
    """Smallest superset of the subset closed under * and left division."""
    table, ldiv = as_tuples(q.array), as_tuples(left_division(q))
    elems = set(int(x) for x in subset)
    if not elems:
        raise ValueError("subset must be nonempty")
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in list(elems):
            for b in list(elems):
                for c in (table[a][b], ldiv[a][b]):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(elems))


def exhaustive_verify_cover(result, q: Quandle) -> tuple[str, ...]:
    """verify_cover as it was before the cover was kept as its factors:
    the group axioms on A's whole |A|^2 table, f additive on every pair,
    and psi a homomorphism on every pair of the cover table, which is
    built here from (1-f)(u) + f(v) and not through make_affine."""
    failures: list[str] = []
    add, neg = result.group.add, result.group.neg
    witness = check_abelian_table(AbelianGroup(add, neg))
    if witness is not None:
        failures.append(f"A is not an abelian group: {witness}")
    im = result.f.images
    n = len(add)
    if not np.array_equal(np.sort(im), np.arange(n)):
        failures.append("f is not bijective")
    else:
        lhs = im[add]
        rhs = add[np.ix_(im, im)]
        if not np.array_equal(lhs, rhs):
            u, v = map(int, np.argwhere(lhs != rhs)[0])
            failures.append(f"f is not additive at ({u},{v})")
    psi = result.psi
    ct = add[np.ix_(add[np.arange(n), neg[im]], im)]     # (1-f)(u) + f(v)
    qt = q.array
    if psi.shape != (n,) or psi.min() < 0 or psi.max() >= q.n:
        failures.append("psi is not a map into Q")
    else:
        lhs = psi[ct]
        rhs = qt[np.ix_(psi, psi)]
        if not np.array_equal(lhs, rhs):
            u, v = map(int, np.argwhere(lhs != rhs)[0])
            failures.append(
                f"psi is not a homomorphism at ({u},{v}): "
                f"psi(u*v)={int(lhs[u][v])} but psi(u)*psi(v)={int(rhs[u][v])}"
            )
        if set(psi.tolist()) != set(range(q.n)):
            failures.append("psi is not surjective")
    return tuple(failures)


def exhaustive_additivity_witness(group: AbelianGroup, images) -> tuple[int, int] | None:
    """The first (a, b) in row-major order with f(a+b) != f(a)+f(b), read
    off the two whole n^2 tables f(a+b) and f(a)+f(b), or None."""
    im = np.asarray(images)
    bad = np.argwhere(im[group.add] != group.add[np.ix_(im, im)])
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def int64_cyclic_product(moduli) -> tuple[np.ndarray, np.ndarray]:
    """Addition table and negation of Z_{m1} x ... x Z_{mr} by the int64
    mixed-radix formula that make_cyclic_product used before it built its
    table in int32 one factor at a time."""
    moduli = tuple(moduli)
    n = int(np.prod(moduli))
    coords = np.stack(np.unravel_index(np.arange(n), moduli), axis=1).astype(np.int64)
    weights = np.ones(len(moduli), dtype=np.int64)
    for i in range(len(moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    mods = np.asarray(moduli, dtype=np.int64)
    summed = (coords[:, None, :] + coords[None, :, :]) % mods
    add = (summed @ weights).astype(np.int32)
    return add, (((-coords) % mods) @ weights).astype(np.int32)


def enumerate_homomorphism_images(src: AbelianGroup, dst: AbelianGroup) -> list[np.ndarray]:
    """All additive maps src -> dst, as image arrays (brute force, tiny sizes)."""
    gens = generating_indices(src.add)
    if not gens:
        return [np.zeros(src.order, dtype=np.int32)]
    out = []
    choices = [range(dst.order)] * len(gens)
    for picks in itertools.product(*choices):
        im = np.full(src.order, -1, dtype=np.int32)
        im[0] = 0
        ok = True
        # close the partial map under addition
        frontier = [0]
        assigned = {0}
        for g, v in zip(gens, picks):
            if im[g] not in (-1, v):
                ok = False
                break
            im[g] = v
            assigned.add(g)
        if not ok:
            continue
        changed = True
        while changed and ok:
            changed = False
            for a in list(assigned):
                for b in list(assigned):
                    s = int(src.add[a, b])
                    v = int(dst.add[im[a], im[b]])
                    if im[s] == -1:
                        im[s] = v
                        assigned.add(s)
                        changed = True
                    elif im[s] != v:
                        ok = False
                        break
                if not ok:
                    break
        if not ok or -1 in im:
            continue
        if np.array_equal(im[src.add], dst.add[np.ix_(im, im)]):
            out.append(im)
    # dedupe (different generator picks can induce the same map)
    seen = set()
    uniq = []
    for im in out:
        key = im.tobytes()
        if key not in seen:
            seen.add(key)
            uniq.append(im)
    return uniq


# Every abelian group of order <= 9, as moduli of a cyclic product.
ABELIAN_MODULI_UPTO_9 = [
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,),
    (8,), (2, 4), (2, 2, 2), (9,), (3, 3),
]


@lru_cache(maxsize=None)
def _group(moduli: tuple[int, ...]) -> AbelianGroup:
    return make_cyclic_product(moduli)


@lru_cache(maxsize=None)
def all_automorphism_images(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    g = _group(moduli)
    out = []
    for im in enumerate_homomorphism_images(g, g):
        vals = tuple(int(x) for x in im)
        if len(set(vals)) == g.order:
            out.append(vals)
    return tuple(out)


def all_affine_tables_upto(max_order: int):
    """Yield the multiplication table of every Aff(A, f) with |A| <= max_order."""
    for moduli in ABELIAN_MODULI_UPTO_9:
        g = _group(moduli)
        if g.order > max_order:
            continue
        add = np.asarray(g.add)
        for images in all_automorphism_images(moduli):
            f = list(images)
            table = [
                [int(add[add[a, g.neg[f[a]]], f[b]]) for b in range(g.order)]
                for a in range(g.order)
            ]
            yield moduli, images, table


def exists_surjective_hom(src_table, dst_table) -> bool:
    """Backtracking search for a surjective quandle homomorphism."""
    n, m = len(src_table), len(dst_table)
    if m > n:
        return False
    # Constraint h[t[i][j]] == dst[h[i]][h[j]] is checked as soon as the
    # largest of the three indices gets assigned.
    by_max: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            p = src_table[i][j]
            by_max[max(i, j, p)].append((i, j, p))

    h = [-1] * n

    def extend(pos: int, seen: int) -> bool:
        if pos == n:
            return seen == (1 << m) - 1
        # Surjectivity pruning: remaining slots must cover missing values.
        if m - bin(seen).count("1") > n - pos:
            return False
        for v in range(m):
            h[pos] = v
            if all(
                h[p] == dst_table[h[i]][h[j]] for i, j, p in by_max[pos]
            ):
                if extend(pos + 1, seen | (1 << v)):
                    return True
        h[pos] = -1
        return False

    return extend(0, 0)


def covered_by_some_affine(dst_table, max_order: int = 9) -> bool:
    return any(
        exists_surjective_hom(src, dst_table)
        for _, _, src in all_affine_tables_upto(max_order)
    )


def all_orbit_transversal_kappas(blocks, orbit_list):
    """For each way of picking one element per orbit, the max number of
    picks landing in a single kernel block; used to audit the
    multitransversal size lower bound exhaustively."""
    block_of = {}
    for bi, b in enumerate(blocks):
        for x in b:
            block_of[x] = bi
    kappas = []
    for choice in itertools.product(*orbit_list):
        loads = [0] * len(blocks)
        for x in choice:
            loads[block_of[x]] += 1
        kappas.append(max(loads))
    return kappas


def loop_optimized_multitransversal(q: Quandle) -> Multitransversal:
    """cover.optimized_multitransversal with its explicit base point e:
    the orbit of e is forced to take e, the other orbits go most
    constrained first, and e is then moved to the front of its block."""
    tr = Translations(q)
    if not (tr.closed and np.array_equal(tr.table, tr.table.T)):
        raise NotHomImage()
    blocks = [list(b) for b in cayley_kernel(q).blocks]
    m = len(blocks)
    block_of = tr.block_of.tolist()
    orbit_list = [list(b) for b in perms.orbits(q).blocks]
    loads = [0] * m
    chosen: list[list[int]] = [[] for _ in range(m)]

    def take(orbit: list[int], forced: int | None = None) -> None:
        if forced is not None:
            b = block_of[forced]
            chosen[b].append(forced)
            loads[b] += 1
            return
        cands = sorted({block_of[x] for x in orbit})
        b = min(cands, key=lambda i: (loads[i], i))
        x = min(x for x in orbit if block_of[x] == b)
        chosen[b].append(x)
        loads[b] += 1

    e = 0
    rest = []
    for orbit in orbit_list:
        if e in orbit:
            take(orbit, forced=e)
        else:
            rest.append(orbit)
    rest.sort(key=lambda orbit: (len({block_of[x] for x in orbit}), min(orbit)))
    for orbit in rest:
        take(orbit)

    kappa = max(loads)
    elems: list[int] = []
    for i, b in enumerate(blocks):
        entries = sorted(chosen[i])
        if i == 0:
            entries.remove(e)
            entries.insert(0, e)
        unused = [x for x in b if x not in entries]
        filler = itertools.cycle(b)
        while len(entries) < kappa:
            entries.append(unused.pop(0) if unused else next(filler))
        elems.extend(entries)
    return Multitransversal(tuple(elems), kappa, tr)



# -- cover.simple_multitransversal and cover.optimized_multitransversal as
# loops over the orbit and Cayley-kernel Partitions, one element at a time

def element_loop_simple_multitransversal(q: Quandle) -> Multitransversal:
    """All of Q, cycled per block up to the largest block size."""
    tr = _homim_translations(q)
    return _element_loop_padded(tr, [[]] * tr.m, int(np.bincount(tr.block_of).max()))


def element_loop_optimized_multitransversal(q: Quandle) -> Multitransversal:
    """Greedy transversal keeping the per-block multiplicity low.

    Picks one element per orbit, the orbit of 0 first and then the
    most constrained first (fewest candidate blocks, then least element):
    each orbit takes the smallest of its elements in its least-loaded
    candidate block.  The orbit of 0 thus takes 0 into block 0, as the
    first and least entry.  Blocks are then padded to the maximum load.
    An orbit is ascending, so its first element is its least.
    """
    tr = _homim_translations(q)
    block_of = tr.block_of.tolist()
    loads = [0] * tr.m
    chosen: list[list[int]] = [[] for _ in range(tr.m)]
    orbits = [(orbit, {block_of[x] for x in orbit}) for orbit in perms.orbits(q).blocks]
    orbits.sort(key=lambda ob: (ob[0][0] != 0, len(ob[1]), ob[0][0]))
    for orbit, cands in orbits:
        b = min(cands, key=lambda i: (loads[i], i))
        chosen[b].append(next(x for x in orbit if block_of[x] == b))
        loads[b] += 1
    return _element_loop_padded(tr, chosen, max(loads))


def _element_loop_padded(tr: Translations, chosen: list[list[int]], kappa: int) -> Multitransversal:
    """kappa entries per Cayley-kernel block, block-major: the block's
    chosen entries ascending, then its unused elements, then the block
    again in turn from its start."""
    elems: list[int] = []
    for picks, b in zip(chosen, perms.cayley_kernel(tr.q).blocks):
        taken = set(picks)
        entries = sorted(picks) + [x for x in b if x not in taken]
        entries += [b[j % len(b)] for j in range(kappa - len(entries))]
        elems.extend(entries[:kappa])
    return Multitransversal(tuple(elems), kappa, tr)

# -- the mesh layer as per-cell loops: the library lays the groups out in one
# index space and checks each axiom with a few gathers

def loop_validate_mesh(groups, phi, c) -> AffineMesh:
    """Verify homomorphisms and (M1)-(M4) exhaustively, first witness each."""
    groups = tuple(groups)
    k = len(groups)
    if k == 0:
        raise InvalidParams("mesh needs at least one index")
    try:
        phi = tuple(
            tuple(np.asarray(phi[i][j], dtype=np.int32) for j in range(k))
            for i in range(k)
        )
    except OverflowError:  # an image no int32 holds is out of range
        raise InvalidParams("phi maps outside its target group") from None
    c = tuple(tuple(int(c[i][j]) for j in range(k)) for i in range(k))
    for i in range(k):
        for j in range(k):
            if phi[i][j].shape != (groups[i].order,):
                raise InvalidParams(f"phi[{i}][{j}] has the wrong length")
            if phi[i][j].min(initial=0) < 0 or phi[i][j].max(initial=0) >= groups[j].order:
                raise InvalidParams(f"phi[{i}][{j}] maps outside the target group")
            if not 0 <= c[i][j] < groups[j].order:
                raise InvalidParams(f"c[{i}][{j}] is not an element of the target group")
    for i in range(k):
        for j in range(k):
            m = phi[i][j]
            mapped_sum = m[groups[i].add]
            sum_mapped = groups[j].add[np.ix_(m, m)]
            if not np.array_equal(mapped_sum, sum_mapped):
                a, b = map(int, np.argwhere(mapped_sum != sum_mapped)[0])
                raise NotAHomomorphism(i, j, a, b)
    for i in range(k):
        gi = groups[i]
        one_minus = gi.add[np.arange(gi.order), gi.neg[phi[i][i]]]
        if len(set(one_minus.tolist())) != gi.order:
            raise M1Violation(i)
    for i in range(k):
        if c[i][i] != 0:
            raise M2Violation(i)
    for i, kk in itertools.product(range(k), repeat=2):
        # phi[j][kk] . phi[i][j] must not depend on j; compare all to j=0.
        ref = phi[0][kk][phi[i][0]]
        for j in range(1, k):
            if not np.array_equal(phi[j][kk][phi[i][j]], ref):
                raise M3Violation(i, 0, j, kk)
    for i, j, kk in itertools.product(range(k), repeat=3):
        lhs = int(phi[j][kk][c[i][j]])
        rhs = int(phi[kk][kk][groups[kk].add[c[i][kk], groups[kk].neg[c[j][kk]]]])
        if lhs != rhs:
            raise M4Violation(i, j, kk)
    P = np.concatenate([np.column_stack(row) for row in phi])
    return AffineMesh.from_arrays(groups, P, np.array(c, dtype=np.int64))


def loop_mesh_sum(mesh: AffineMesh) -> Quandle:
    """The quandle on the disjoint union, fibers concatenated in order."""
    n = mesh.total_size
    _check_table_limit(n, "mesh sum of order", "table")
    table = np.empty((n, n), dtype=np.int32)
    for j, gj in enumerate(mesh.groups):
        rng = np.arange(gj.order)
        one_minus = gj.add[rng, gj.neg[mesh.phi[j][j]]]
        for i in range(mesh.k):
            # c[i][j] + phi[i][j](a) + (1-phi[j][j])(b) inside A_j
            shifted = gj.add[mesh.c[i][j]][mesh.phi[i][j]]
            block = gj.add[np.ix_(shifted, one_minus)]
            table[
                mesh.offsets[i]:mesh.offsets[i + 1],
                mesh.offsets[j]:mesh.offsets[j + 1],
            ] = block + mesh.offsets[j]
    return validate_quandle(table)


def _loop_row_tuples(mesh: AffineMesh):
    """The tuples (phi[i][j](a) + c[i][j])_j over all i and a in A_i."""
    rows = []
    for i in range(mesh.k):
        for a in range(mesh.groups[i].order):
            rows.append(tuple(
                int(mesh.groups[j].add[mesh.phi[i][j][a], mesh.c[i][j]])
                for j in range(mesh.k)
            ))
    return rows


def loop_coset_criterion(mesh: AffineMesh) -> bool:
    """Is {(phi[i][j](a)+c[i][j])_j} a coset of a subgroup of the product?

    A subset X of a group is a coset iff -h+X is a subgroup for any single
    h in X, so one shift and a closure check suffice.
    """
    rows = _loop_row_tuples(mesh)
    h = rows[0]
    shifted = {
        tuple(int(mesh.groups[j].add[r[j], mesh.groups[j].neg[h[j]]]) for j in range(mesh.k))
        for r in rows
    }
    for x in shifted:
        for y in shifted:
            s = tuple(int(mesh.groups[j].add[x[j], y[j]]) for j in range(mesh.k))
            if s not in shifted:
                return False
    return True


def loop_is_indecomposable(mesh: AffineMesh) -> bool:
    """Each A_j generated by all constants c[i][j] and images phi[i][j](a),
    closing the seed set under pairwise sums."""
    for j, g in enumerate(mesh.groups):
        reached = {0} | {mesh.c[i][j] for i in range(mesh.k)}
        for i in range(mesh.k):
            reached.update(int(x) for x in mesh.phi[i][j])
        while True:
            more = reached | {int(g.add[a, b]) for a in reached for b in reached}
            if more == reached:
                break
            reached = more
        if len(reached) != g.order:
            return False
    return True


def loop_semiregular_extension_form(mesh: AffineMesh) -> bool:
    """Identical groups, one shared phi, c[i][j] = d_i - d_j."""
    g0 = mesh.groups[0]
    for g in mesh.groups[1:]:
        if g.moduli != g0.moduli or not np.array_equal(g.add, g0.add):
            return False
    shared = mesh.phi[0][0]
    for i in range(mesh.k):
        for j in range(mesh.k):
            if not np.array_equal(mesh.phi[i][j], shared):
                return False
    d = [mesh.c[i][0] for i in range(mesh.k)]
    return all(
        mesh.c[i][j] == g0.add[d[i], g0.neg[d[j]]]
        for i in range(mesh.k)
        for j in range(mesh.k)
    )


def _loop_cycle_type(images: list[int]) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation images."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def loop_profiles(q: Quandle, rows: list[list[int]]) -> list[tuple]:
    orb = perms.orbits(q)
    sizes = orb.sizes()
    return [
        (_loop_cycle_type(rows[a]), sizes[orb.block_of[a]])
        for a in range(q.n)
    ]


def loop_is_isomorphic(q1: Quandle, q2: Quandle) -> tuple[int, ...] | None:
    """Search for an element bijection preserving *, or return None.

    Plain backtracking, element by element, pruned by orbit sizes and
    translation cycle types: the reference for core.is_isomorphic, which
    extends sigma from generators.
    """
    if q1.n != q2.n:
        return None
    n = q1.n
    t1, t2 = q1.array.tolist(), q2.array.tolist()
    prof1, prof2 = loop_profiles(q1, t1), loop_profiles(q2, t2)
    if sorted(prof1) != sorted(prof2):
        return None
    candidates = [
        [b for b in range(n) if prof2[b] == prof1[a]] for a in range(n)
    ]
    order = sorted(range(n), key=lambda a: len(candidates[a]))
    sigma = [-1] * n
    used = [False] * n

    def fits(a: int, b: int) -> bool:
        """Does a -> b agree with sigma on every product with a mapped c?"""
        for c in range(n):
            sc = sigma[c]
            if sc < 0:
                continue
            im = sigma[t1[a][c]]
            if im >= 0 and im != t2[b][sc]:
                return False
            im = sigma[t1[c][a]]
            if im >= 0 and im != t2[sc][b]:
                return False
        return True

    # depth-first, with one iterator over the candidates of order[pos] per
    # mapped position pos, so that the depth is not bounded by Python's stack
    stack = [iter(candidates[order[0]])]
    while stack:
        a = order[len(stack) - 1]
        if sigma[a] >= 0:   # back at a: unmap it before its next candidate
            used[sigma[a]] = False
            sigma[a] = -1
        b = next((b for b in stack[-1] if not used[b] and fits(a, b)), None)
        if b is None:
            stack.pop()
            continue
        sigma[a] = b
        used[b] = True
        if len(stack) < n:
            stack.append(iter(candidates[order[len(stack)]]))
        # pairwise pruning does not see products landing on elements
        # mapped later, so confirm the full table once at the leaf
        elif _hom_failure(np.asarray(sigma), q1.array, q2.array) is None:
            return tuple(sigma)
    return None


def loop_format_mesh(mesh: AffineMesh) -> str:
    """A mesh file over cyclic groups, cell by cell through phi and c: the
    reference for iofmt.format_mesh, which reads P and C."""
    lines = [f"mesh {mesh.k}"]
    for i, g in enumerate(mesh.groups):
        lines.append(f"group {i} " + "x".join(map(str, g.moduli)))
    for i in range(mesh.k):
        for j in range(mesh.k):
            images = mesh.phi[i][j]
            if images.any():
                lines.append(
                    f"phi {i} {j} " + " ".join(str(int(x)) for x in images)
                )
    for i in range(mesh.k):
        for j in range(mesh.k):
            if mesh.c[i][j]:
                lines.append(f"c {i} {j} {mesh.c[i][j]}")
    return "\n".join(lines) + "\n"
