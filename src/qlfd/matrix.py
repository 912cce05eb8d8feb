"""Dense exact matrices over Q or F_p: rank, nullspace, determinant, and
matrices affine in a coordinate vector.

A matrix is one numpy array: int64 entries in [0, p) over F_p, Fraction
objects over Q. Every product of two residues stays below 2^62 for any
modulus < 2^31, so the F_p kernels are exact in int64. Rank and nullspace
come from one Gauss-Jordan elimination for both fields; the determinant is
fraction-free (Bareiss) over Q and Gaussian elimination mod p over F_p.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import PrimeField

_to_int = np.frompyfunc(int, 1, 1)
_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _modulus(field):
    return field.p if isinstance(field, PrimeField) else None


def _entries(field, values, shape=None) -> np.ndarray:
    """values (an array or nested lists) as a canonical array of the field.

    Exact for integers outside int64 and for strings such as "1/2", as the
    scalar conversions int(x) % p and Fraction(x) are.
    """
    a = np.asarray(values)  # ValueError on ragged rows
    if a.dtype.kind == "f" and not isinstance(values, np.ndarray):
        a = np.array(values, dtype=object)  # mixed ints beyond int64, or floats
    if shape is not None:
        a = a.reshape(shape)
    p = _modulus(field)
    if p is None:
        return _to_fraction(a)
    if a.dtype.kind not in "biu":
        a = _to_int(a)
    return (a % p).astype(np.int64, copy=False)


class ExactMatrix:
    """A matrix over Q or F_p held as one read-only array `a`."""

    __slots__ = ("field", "a")

    def __init__(self, field, rows, shape=None):
        a = _entries(field, rows, shape)
        if a.ndim == 1 and a.size == 0:
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
        a.flags.writeable = False
        self.field = field
        self.a = a

    @classmethod
    def _of(cls, field, a):
        """Wrap an array that already holds canonical entries, without a copy."""
        a.flags.writeable = False
        m = cls.__new__(cls)
        m.field = field
        m.a = a
        return m

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def nrows(self):
        return self.a.shape[0]

    @property
    def ncols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    @property
    def rows(self):
        """The entries as a fresh list of lists; writes to it are lost."""
        return self.a.tolist()

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and other.field == self.field
                and np.array_equal(other.a, self.a))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        return ExactMatrix._of(self.field, self.a.T)

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product: Python-int (or Fraction) sums, reduced once mod p."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        p = _modulus(self.field)
        prod = self.a.astype(object) @ other.a.astype(object)
        return ExactMatrix(self.field, prod if p is None else prod % p)

    def matvec(self, vec):
        col = ExactMatrix(self.field, [[x] for x in vec], shape=(len(vec), 1))
        return self.mul(col).a[:, 0].tolist()

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form. Returns (matrix, pivot column list)."""
        r, piv = _rref(self.a.copy(), _modulus(self.field))
        return ExactMatrix._of(self.field, r), piv

    def rank(self) -> int:
        p = _modulus(self.field)
        if p is not None:
            return gf_rank(self.a, p)
        return len(self.rref()[1])

    def nullspace(self) -> "ExactMatrix":
        """Kernel basis as matrix columns, pivot-ordered (deterministic)."""
        r, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = np.zeros((self.ncols, len(free)), dtype=self.a.dtype)
        basis[free, range(len(free))] = 1
        basis[piv] = -r.a[:len(piv)][:, free]
        return ExactMatrix(self.field, basis)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return self.field.one
        p = _modulus(self.field)
        if p is not None:
            return int(_gf_det(self.a, p))
        return _bareiss_det_q(self.a.tolist())


class AffinePencil:
    """A matrix affine in a coordinate vector: M(x) = C + sum_k x_k E_k.

    C is an int64 array (an object array over Q). The E_k are kept together
    as rows (row, col, coord, coeff) of one int64 array of terms: cell
    (row, col) gains coeff * x[coord]. A cell may hold several coordinates.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const, terms=None):
        self.const = const
        self.terms = (np.zeros((0, 4), dtype=np.int64) if terms is None
                      else np.asarray(terms, dtype=np.int64).reshape(-1, 4))

    @property
    def shape(self):
        return self.const.shape

    def at(self, xvec, field) -> np.ndarray:
        """M(x): a reduced int64 array over F_p, an object array over Q."""
        rows, cols, coords, coeffs = self.terms.T
        x = _entries(field, xvec)
        m = self.const.astype(x.dtype)
        np.add.at(m, (rows, cols), coeffs.astype(x.dtype) * x[coords])
        p = _modulus(field)
        return m if p is None else m % p

    def det(self, xvec, field):
        m = self.at(xvec, field)
        p = _modulus(field)
        if p is not None:
            return _gf_det(m, p)
        return ExactMatrix(field, m).det()


def _bareiss_det_q(rows) -> Fraction:
    """Fraction-free determinant: scale rows to integers, run Bareiss."""
    n = len(rows)
    scale = Fraction(1)
    m = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row)) if row else 1
        scale *= den
        m.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return Fraction(0)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


# -- F_p kernels on int64 arrays ---------------------------------------------


def _gf_det(a: np.ndarray, p: int) -> int:
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            det = -det % p
        pivot = int(a[c, c])
        det = det * pivot % p
        if c + 1 < n:
            inv = pow(pivot, p - 2, p)
            factors = a[c + 1:, c] * inv % p
            a[c + 1:, c:] = (a[c + 1:, c:] - np.outer(factors, a[c, c:])) % p
    return det


def _rref(a: np.ndarray, p=None):
    """Gauss-Jordan elimination in place on canonical entries: mod p, or
    over Q (an array of Fractions) when p is None."""
    nr, nc = a.shape
    piv = []
    for c in range(nc):
        r = len(piv)
        if r == nr:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if p is None:
            a[r] = a[r] / a[r, c]
        else:
            a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = np.flatnonzero(col)
        if mask.size:
            upd = a[mask] - np.outer(col[mask], a[r])
            a[mask] = upd if p is None else upd % p
        piv.append(c)
    return a, piv


def gf_rank(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix mod p, without the ExactMatrix wrapper."""
    if a.size == 0:
        return 0
    return len(_rref(np.asarray(a, dtype=np.int64) % p, p)[1])
