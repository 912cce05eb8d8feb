"""Exact scalars: the rationals and prime fields F_p.

Elements are plain Python values (``fractions.Fraction`` over Q, ints in
``[0, p)`` over F_p); the field objects carry the arithmetic. No floating
point anywhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction

DEFAULT_PRIME = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; elements are Fraction."""

    characteristic = 0

    def element(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / self.element(a)

    def div(self, a, b):
        return self.element(a) / b

    def is_zero(self, a):
        return a == 0

    def random(self, rng):
        # Small random rationals; integers suffice for genericity tests.
        return Fraction(rng.randint(-99, 99))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p for an odd prime p < 2^31; elements are ints in [0, p).

    The bound keeps every product of two elements below 2^62, which the
    int64 kernels in ``matrix`` rely on.
    """

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        if p >= 2**31:
            raise ValueError(f"modulus must be below 2^31, got {p}")
        self.p = p
        self.characteristic = p

    def element(self, x):
        return int(x) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def random(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()


@functools.lru_cache(maxsize=128)
def GF(p: int) -> PrimeField:
    """F_p, built once per modulus: the primality proof is not repeated."""
    return PrimeField(p)
