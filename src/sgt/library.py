"""Built-in test semigroups used by the verification sweep and the test suite."""
from __future__ import annotations

from .core import FiniteSemigroup, Transformation, from_cayley, from_transformations


def trivial() -> FiniteSemigroup:
    return from_cayley(1, [[0]], labels=["e"])


def cyclic(n: int) -> FiniteSemigroup:
    r = tuple(range(n))
    table = [r[a:] + r[:a] for a in range(n)]  # (a + b) % n, sharing r's ints
    labels = ["e"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    return from_cayley(n, table, labels=labels[:n] if n > 1 else ["e"])


def chain(n: int) -> FiniteSemigroup:
    """Meet semilattice on 0 < 1 < ... < n-1; the top is the identity."""
    table = [[min(a, b) for b in range(n)] for a in range(n)]
    return from_cayley(n, table, labels=[str(k) for k in range(n)])


def left_zero(n: int) -> FiniteSemigroup:
    return from_cayley(n, [[a] * n for a in range(n)])


def right_zero(n: int) -> FiniteSemigroup:
    return from_cayley(n, [list(range(n)) for _ in range(n)])


def rectangular_band(p: int, q: int) -> FiniteSemigroup:
    """(i, j)(k, l) = (i, l) on p*q points, indexed i*q + j."""
    size = p * q
    table = [[(a // q) * q + (b % q) for b in range(size)] for a in range(size)]
    labels = [f"({a // q},{a % q})" for a in range(size)]
    return from_cayley(size, table, labels=labels)


def nilpotent_n3() -> FiniteSemigroup:
    """{a, a^2, 0} with a^3 = 0."""
    table = [[1, 2, 2],
             [2, 2, 2],
             [2, 2, 2]]
    return from_cayley(3, table, labels=["a", "a2", "0"])


def t2() -> FiniteSemigroup:
    """Full transformation monoid on two points, generated by swap and const0."""
    swap = Transformation(2, (1, 0))
    const0 = Transformation(2, (0, 0))
    return from_transformations(2, [swap, const0])


def library() -> dict[str, FiniteSemigroup]:
    """The named test instances; insertion order is part of the contract."""
    return {
        "trivial": trivial(),
        "z2": cyclic(2),
        "z3": cyclic(3),
        "z4": cyclic(4),
        "z5": cyclic(5),
        "z6": cyclic(6),
        "chain2": chain(2),
        "chain3": chain(3),
        "lz2": left_zero(2),
        "lz3": left_zero(3),
        "lz4": left_zero(4),
        "rz2": right_zero(2),
        "rz3": right_zero(3),
        "rz4": right_zero(4),
        "rb22": rectangular_band(2, 2),
        "n3": nilpotent_n3(),
        "t2": t2(),
    }
