"""Dense univariate polynomials over F_p: gcd, squarefreeness,
interpolation.

A polynomial is one int64 array of coefficients, low to high, with no
trailing zero: residues in [0, p), built by the same conversion as an
ExactMatrix. Division and gcd run on slices of that array (Cohen, A Course
in Computational Algebraic Number Theory, Ch. 3).

Restrictions of determinants to lines over F_p come from
LinearPencil.det_line, which saito.reducedness_test turns into a
UnivariatePoly. interpolate (Newton divided differences on scalars, sharing
no code with det_line) has no caller in the package: the tests use it as
the reference for det_line, and the benchmark's tracer names it.

Squarefreeness is tested via gcd(a, a'); in characteristic p this is only
valid when p exceeds the degree (PrimeTooSmall otherwise).
"""

from __future__ import annotations

import numpy as np

from .errors import PrimeTooSmall
from .matrix import _entries


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its trailing zeros."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _divmod(a: np.ndarray, b: np.ndarray, p: int):
    """Quotient and remainder arrays mod p of a by b (b nonzero). Each
    product of two residues is below 2^62."""
    d = len(b) - 1
    rem = a.copy()
    quot = np.empty(max(0, len(a) - d), dtype=np.int64)  # every entry is set below
    inv = pow(int(b[-1]), -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        c = int(rem[i]) * inv % p
        quot[i - d] = c
        rem[i - d:i + 1] = (rem[i - d:i + 1] - c * b) % p
    return quot, _trim(rem[:d])


class UnivariatePoly:
    """A polynomial over F_p held as one read-only int64 coefficient array `a`."""

    __slots__ = ("field", "a")

    def __init__(self, field, coeffs):
        a = _entries(field, coeffs)
        if a.ndim != 1:
            raise ValueError(f"expected coefficients, got an array of shape {a.shape}")
        a = _trim(a)
        a.flags.writeable = False
        self.field = field
        self.a = a

    @classmethod
    def _of(cls, field, a):
        """Wrap canonical coefficients without trailing zeros, without a copy."""
        a.flags.writeable = False
        poly = cls.__new__(cls)
        poly.field = field
        poly.a = a
        return poly

    @property
    def coeffs(self):
        """The coefficients, low to high, as a fresh list."""
        return self.a.tolist()

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.a) - 1

    def is_zero(self) -> bool:
        return not self.a.size

    def is_constant(self) -> bool:
        return len(self.a) <= 1

    def __eq__(self, other):
        return (isinstance(other, UnivariatePoly) and other.field == self.field
                and np.array_equal(other.a, self.a))

    def __repr__(self):
        return f"UnivariatePoly({self.field}, {self.coeffs})"

    def derivative(self):
        d = self.a[1:] * np.arange(1, len(self.a))
        return self._of(self.field, _trim(d % self.field.p))

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        p = self.field.p
        a, b = self.a, other.a
        while b.size:
            a, b = b, _divmod(a, b, p)[1]
        if a.size:
            a = a * pow(int(a[-1]), -1, p) % p
        return self._of(self.field, a)

    def is_squarefree(self) -> bool:
        """gcd(a, a') is constant.

        Valid only when p > degree (the derivative may otherwise kill
        genuine repeated factors).
        """
        if self.is_zero():
            return False
        if self.is_constant():
            return True
        p = self.field.p
        if p <= self.degree:
            raise PrimeTooSmall(
                f"squarefreeness over GF({p}) needs p > degree {self.degree}")
        return self.gcd(self.derivative()).is_constant()


def interpolate(field, points) -> UnivariatePoly:
    """Unique polynomial of degree < len(points) through (x, y) pairs.

    Newton divided differences on scalars; interpolation nodes must be
    distinct.
    """
    pts = [(field.element(x), field.element(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    p = field.p
    n = len(pts)
    coef = [y for _, y in pts]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            den = xs[i] - xs[i - j]
            coef[i] = field.element((coef[i] - coef[i - 1]) * pow(den, -1, p))
    # Horner on the Newton form: poly <- coef[k] + (t - x_k) poly
    poly = []
    for k in reversed(range(n)):
        poly = [field.element(c - xs[k] * h)
                for c, h in zip([coef[k]] + poly, poly + [0])]
    return UnivariatePoly(field, poly)
