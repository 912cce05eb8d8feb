"""Dense univariate polynomials over an exact field: gcd, squarefreeness,
interpolation.

Restrictions of determinants to lines over F_p come from
AffinePencil.det_line; interpolation serves only the characteristic
polynomial of the Cartan matrix over Q, in graph classification.

Squarefreeness is tested via gcd(a, a'); in characteristic p this is only
valid when p exceeds the degree, which callers must guarantee (PrimeTooSmall
otherwise).
"""

from __future__ import annotations

from .errors import PrimeTooSmall
from .fields import PrimeField


class UnivariatePoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.element(c) for c in coeffs]
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other):
        return (isinstance(other, UnivariatePoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __repr__(self):
        return f"UnivariatePoly({self.field}, {self.coeffs})"

    def evaluate(self, x):
        f = self.field
        x = f.element(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def add(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [f.zero] * n
        for i, c in enumerate(self.coeffs):
            out[i] = f.add(out[i], c)
        for i, c in enumerate(other.coeffs):
            out[i] = f.add(out[i], c)
        return UnivariatePoly(f, out)

    def scale(self, c):
        f = self.field
        return UnivariatePoly(f, [f.mul(c, x) for x in self.coeffs])

    def mul(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return UnivariatePoly.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UnivariatePoly(f, out)

    def divmod(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quot = [f.zero] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = f.mul(rem[i], lead_inv)
            if f.is_zero(c):
                continue
            quot[i - d] = c
            for j in range(d + 1):
                rem[i - d + j] = f.sub(rem[i - d + j], f.mul(c, other.coeffs[j]))
        return UnivariatePoly(f, quot), UnivariatePoly(f, rem)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def derivative(self):
        f = self.field
        return UnivariatePoly(
            f, [f.mul(f.element(i), c) for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def is_squarefree(self) -> bool:
        """gcd(a, a') is constant.

        Valid over Q, and over F_p only when p > degree (the derivative may
        otherwise kill genuine repeated factors).
        """
        if self.is_zero():
            return False
        if self.is_constant():
            return True
        f = self.field
        if isinstance(f, PrimeField) and f.p <= self.degree:
            raise PrimeTooSmall(
                f"squarefreeness over GF({f.p}) needs p > degree {self.degree}")
        g = self.gcd(self.derivative())
        return g.is_constant()


def interpolate(field, points) -> UnivariatePoly:
    """Unique polynomial of degree < len(points) through (x, y) pairs.

    Newton divided differences; interpolation nodes must be distinct.
    """
    pts = [(field.element(x), field.element(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(pts)
    coef = [y for _, y in pts]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num = field.sub(coef[i], coef[i - 1])
            den = field.sub(xs[i], xs[i - j])
            coef[i] = field.div(num, den)
    # Expand the Newton form sum coef[k] * prod_{i<k} (t - x_i).
    poly = UnivariatePoly.zero(field)
    basis = UnivariatePoly.constant(field, field.one)
    for k in range(n):
        poly = poly.add(basis.scale(coef[k]))
        basis = basis.mul(UnivariatePoly(field, [field.neg(xs[k]), field.one]))
    return poly
