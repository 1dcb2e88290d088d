"""quotient, induced_subquandle and subquandle_closure work on q.array;
they must agree with the loops over the tuple table (tests/oracles.py) in
result, or in exception type and witness or message."""

import math
import random

import pytest

from quandles.affine import subquandle_closure
from quandles.core import Partition, induced_subquandle, quotient
from quandles.errors import NotACongruence, QuandleError
from quandles.perms import cayley_kernel, orbits

from conftest import aff
from oracles import loop_induced_subquandle, loop_quotient, loop_subquandle_closure
from test_perms import transposition_conjugation_quandle

PAIRS = (
    (quotient, loop_quotient),
    (induced_subquandle, loop_induced_subquandle),
    (subquandle_closure, loop_subquandle_closure),
)


def _outcome(fn, q, arg):
    try:
        out = fn(q, arg)
    except (ValueError, QuandleError) as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return "ok", out.array.tolist() if hasattr(out, "array") else out


def _agree(q, partitions, subsets):
    kinds = set()
    for fn, ref in PAIRS:
        for arg in partitions if fn is quotient else subsets:
            expected = _outcome(ref, q, arg)
            assert _outcome(fn, q, arg) == expected, (fn.__name__, arg)
            kinds.add((fn.__name__, expected[0]))
    return kinds


def _random_partition(rng, n):
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    return Partition.from_blocks(
        [x for x in range(n) if labels[x] == k] for k in set(labels)
    )


def _random_subsets(rng, n, count):
    return [rng.sample(range(n), rng.randint(0, min(n, 4))) for _ in range(count)]


def test_agree_on_small_corpus(small_corpus):
    rng = random.Random(7)
    kinds = set()
    for mesh, q in small_corpus:
        o = mesh.offsets.tolist()
        fibers = Partition.from_blocks(range(o[i], o[i + 1]) for i in range(mesh.k))
        partitions = [orbits(q), cayley_kernel(q), fibers, _random_partition(rng, q.n)]
        subsets = _random_subsets(rng, q.n, 2)
        subsets += [subquandle_closure(q, s) for s in subsets if s]
        kinds |= _agree(q, partitions, subsets)
    assert ("quotient", NotACongruence) in kinds and ("quotient", "ok") in kinds
    assert ("induced_subquandle", ValueError) in kinds
    assert ("induced_subquandle", "ok") in kinds


def test_agree_on_cyclic_affine_quandles():
    rng = random.Random(11)
    for m in range(2, 13):
        for u in (u for u in range(1, m) if math.gcd(u, m) == 1):
            q = aff(m, u).quandle
            cosets = [
                Partition.from_blocks(range(r, m, d) for r in range(d))
                for d in range(1, m + 1) if m % d == 0
            ]
            randoms = [_random_partition(rng, m) for _ in range(20)]
            _agree(q, cosets + randoms, _random_subsets(rng, m, 20))


def test_quotient_of_aff_256_by_parity():
    # The old loop is n^4, about 4e9 comparisons here.
    q = aff(256, 5).quandle
    parity = Partition.from_blocks([range(0, 256, 2), range(1, 256, 2)])
    assert quotient(q, parity).array.tolist() == [[0, 1], [0, 1]]


def test_quotient_rejects_partition_of_another_size():
    q = aff(4, 3).quandle
    for blocks in ([[0]], [[0, 1]]):
        with pytest.raises(ValueError, match="partition of 1|partition of 2"):
            quotient(q, Partition.from_blocks(blocks))


# Subsets that name no set of elements, with the refusal's message: out of
# range, beyond int32, and values that are not integers (a fraction is not
# truncated, a string not parsed).
NON_ELEMENTS = (
    ([0, -4], "outside 0..3"), ([1, 4], "outside 0..3"), ([2**40], "outside 0..3"),
    ([0.5], "0.5 is not an integer"), ([1, 0.7], "0.7 is not an integer"),
    (["1"], "1 is not an integer"), ([[0, 1]], "not a list of elements"),
)


def test_induced_subquandle_rejects_non_elements():
    q = aff(4, 3).quandle
    for subset, message in NON_ELEMENTS:
        with pytest.raises(ValueError, match=message):
            induced_subquandle(q, subset)
    assert induced_subquandle(q, [1.0]) == induced_subquandle(q, [1])


def test_subquandle_closure_rejects_non_elements():
    q = aff(4, 3).quandle
    for subset, message in NON_ELEMENTS + (([-1], "outside 0..3"), ([2, 9], "outside 0..3")):
        with pytest.raises(ValueError, match=message):
            subquandle_closure(q, subset)
    assert subquandle_closure(q, [0, 1.0]) == subquandle_closure(q, [0, 1])


def test_closure_matches_the_loop_on_larger_quandles():
    # The closure is the orbit of S under <L_s : s in S>; the loop closes
    # under * and left division directly.
    q = aff(1024, 3).quandle
    for subset in ([0, 1], [0, 2]):
        assert subquandle_closure(q, subset) == loop_subquandle_closure(q, subset)
    s8 = transposition_conjugation_quandle(8)
    for subset in ([0], [0, 1], [0, 27], [3, 10, 20]):
        assert subquandle_closure(s8, subset) == loop_subquandle_closure(s8, subset)
