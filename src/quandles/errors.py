"""Exception hierarchy. Every validation error carries the first witness found."""

from __future__ import annotations


class QuandleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QuandleError):
    """Malformed input file or specification string."""


class TooLarge(QuandleError):
    """A size the package refuses before allocating anything for it."""


# -- quandle table validation -------------------------------------------------

class NotIdempotent(QuandleError):
    def __init__(self, a: int):
        self.a = a
        super().__init__(f"not idempotent: {a}*{a} != {a}")


class RowNotBijective(QuandleError):
    def __init__(self, a: int):
        self.a = a
        super().__init__(f"left translation of {a} is not a bijection")


class NotLeftDistributive(QuandleError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"left self-distributivity fails at ({a},{b},{c})")


class NotACongruence(QuandleError):
    def __init__(self, a: int, a2: int, b: int, b2: int):
        self.witness = (a, a2, b, b2)
        super().__init__(
            f"partition is not a congruence: {a}~{a2}, {b}~{b2} "
            f"but the products fall in different blocks"
        )


# -- permutations -------------------------------------------------------------

class DegreeMismatch(QuandleError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"permutation degree mismatch: expected {expected}, got {got}")


# -- abelian groups and automorphisms ----------------------------------------

class EmptyModuli(QuandleError):
    def __init__(self):
        super().__init__("cyclic product needs at least one modulus")


class NotBijective(QuandleError):
    def __init__(self, detail: str = "map is not a bijection"):
        super().__init__(detail)


class NotAdditive(QuandleError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"map is not additive: fails at ({a},{b})")


# -- affine meshes ------------------------------------------------------------

class MeshError(QuandleError):
    pass


class NotAHomomorphism(MeshError):
    def __init__(self, i: int, j: int, a: int, b: int):
        self.witness = (i, j, a, b)
        super().__init__(f"phi[{i}][{j}] is not a homomorphism: fails at ({a},{b})")


class M1Violation(MeshError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"(M1) fails: 1-phi[{i}][{i}] is not an automorphism")


class M2Violation(MeshError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"(M2) fails: c[{i}][{i}] != 0")


class M3Violation(MeshError):
    def __init__(self, i: int, j: int, j2: int, k: int):
        self.witness = (i, j, j2, k)
        super().__init__(f"(M3) fails at (i,j,j',k)=({i},{j},{j2},{k})")


class M4Violation(MeshError):
    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"(M4) fails at (i,j,k)=({i},{j},{k})")


class InvalidParams(MeshError):
    pass


# -- covers -------------------------------------------------------------------

class NotHomImage(QuandleError):
    def __init__(self):
        super().__init__(
            "quandle is not a homomorphic image of an affine quandle "
            "(displacement group not abelian and tiny)"
        )


class OplusUndefined(QuandleError):
    def __init__(self, detail: str):
        super().__init__(f"transversal addition undefined: {detail}")


class InternalAssertionFailure(QuandleError):
    """A proof-backed invariant failed; indicates a bug, not a bad input."""
