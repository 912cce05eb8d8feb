"""Exact scalars: the prime fields F_p, the one field of the package.

Elements are Python ints in ``[0, p)``. A field object names the field and
canonicalises scalars (``element``); arithmetic runs on whole arrays in
``matrix`` and ``poly``, where a matrix and a polynomial are each one int64
array of residues. No floating point anywhere.
"""

from __future__ import annotations

import functools
import operator

DEFAULT_PRIME = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def integer(x) -> int:
    """x as an int, for a Python or numpy integer; a float, a string or None
    is a ValueError, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(
            f"scalars must be integers, got {type(x).__name__} {x}") from None


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


class PrimeField:
    """The field F_p for an odd prime p < 2^31; elements are ints in [0, p).

    The bound keeps every product of two elements below 2^62, which the
    int64 kernels in ``matrix`` and ``poly`` rely on.
    """

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        if p >= 2**31:
            raise ValueError(f"modulus must be below 2^31, got {p}")
        self.p = p

    def element(self, x):
        return integer(x) % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


@functools.lru_cache(maxsize=128)
def GF(p: int) -> PrimeField:
    """F_p, built once per modulus: the primality proof is not repeated."""
    return PrimeField(p)
