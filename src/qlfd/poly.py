"""Dense univariate polynomials over an exact field: gcd, squarefreeness,
interpolation.

A polynomial is one numpy array of coefficients, low to high, with no
trailing zero: int64 residues in [0, p) over F_p, Fraction objects over Q,
built by the same conversion as an ExactMatrix. Division and gcd run on
slices of that array, with one branch between the two fields as in
matrix._rref (Cohen, A Course in Computational Algebraic Number Theory,
Ch. 3).

Restrictions of determinants to lines over F_p come from
LinearPencil.det_line. interpolate is its independent test reference:
Newton divided differences on scalars, sharing no code with the kernel.

Squarefreeness is tested via gcd(a, a'); in characteristic p this is only
valid when p exceeds the degree, which callers must guarantee (PrimeTooSmall
otherwise).
"""

from __future__ import annotations

import numpy as np

from .errors import PrimeTooSmall
from .matrix import _entries, _modulus


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its trailing zeros."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _divmod(a: np.ndarray, b: np.ndarray, p=None):
    """Quotient and remainder arrays of a by b (b nonzero): mod p, or over Q
    when p is None. Each product of two residues is below 2^62."""
    d = len(b) - 1
    rem = a.copy()
    quot = np.empty(max(0, len(a) - d), dtype=a.dtype)  # every entry is set below
    inv = 1 / b[-1] if p is None else pow(int(b[-1]), -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        c = rem[i] * inv if p is None else int(rem[i]) * inv % p
        quot[i - d] = c
        upd = rem[i - d:i + 1] - c * b
        rem[i - d:i + 1] = upd if p is None else upd % p
    return quot, _trim(rem[:d])


class UnivariatePoly:
    """A polynomial over Q or F_p held as one read-only coefficient array `a`."""

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

    def evaluate(self, x):
        f = self.field
        x = f.element(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.element(acc * x + c)
        return acc

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod(self.a, other.a, _modulus(self.field))
        return self._of(self.field, quot), self._of(self.field, rem)

    def derivative(self):
        p = _modulus(self.field)
        d = self.a[1:] * np.arange(1, len(self.a))
        return self._of(self.field, _trim(d if p is None else d % p))

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        p = _modulus(self.field)
        a, b = self.a, other.a
        while b.size:
            a, b = b, _divmod(a, b, p)[1]
        if a.size:
            a = a / a[-1] if p is None else a * pow(int(a[-1]), -1, p) % p
        return self._of(self.field, a)

    def is_squarefree(self) -> bool:
        """gcd(a, a') is constant.

        Valid over Q, and over F_p only when p > degree (the derivative may
        otherwise kill genuine repeated factors).
        """
        if self.is_zero():
            return False
        if self.is_constant():
            return True
        p = _modulus(self.field)
        if p is not None and p <= self.degree:
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
    p = _modulus(field)
    n = len(pts)
    coef = [y for _, y in pts]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            den = xs[i] - xs[i - j]
            inv = 1 / den if p is None else pow(den, -1, p)
            coef[i] = field.element((coef[i] - coef[i - 1]) * inv)
    # Horner on the Newton form: poly <- coef[k] + (t - x_k) poly
    poly = []
    for k in reversed(range(n)):
        poly = [field.element(c - xs[k] * h)
                for c, h in zip([coef[k]] + poly, poly + [0])]
    return UnivariatePoly(field, poly)
