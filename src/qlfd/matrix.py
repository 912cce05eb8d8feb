"""Dense exact matrices over Q or F_p: rank, nullspace, determinant, and
matrices affine in a coordinate vector.

Over Q the determinant uses fraction-free (Bareiss) elimination to contain
coefficient growth; rank and nullspace use rational Gauss-Jordan. Over F_p
everything runs on int64 numpy arrays (products stay below 2^62 for any
modulus < 2^31, so the arithmetic is exact).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import PrimeField


class ExactMatrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, shape=None):
        self.field = field
        rows = [[field.element(x) for x in row] for row in rows]
        if shape is not None:
            nr, nc = shape
        else:
            nr = len(rows)
            nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        self.nrows = nr
        self.ncols = nc
        self.rows = rows

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], shape=(nrows, ncols))

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_numpy(cls, field, arr):
        return cls(field, arr.tolist(), shape=arr.shape)

    def copy(self):
        return ExactMatrix(self.field, [list(r) for r in self.rows],
                           shape=(self.nrows, self.ncols))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and other.field == self.field
                and other.rows == self.rows and other.shape == self.shape)

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"

    def to_numpy(self) -> np.ndarray:
        """Entries as an int64 array over F_p, an object array over Q."""
        dtype = np.int64 if isinstance(self.field, PrimeField) else object
        return np.array(self.rows, dtype=dtype).reshape(self.nrows, self.ncols)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        t = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return ExactMatrix(self.field, t, shape=(self.ncols, self.nrows))

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        if isinstance(f, PrimeField):
            prod = (self.to_numpy() @ other.to_numpy()) % f.p
            return ExactMatrix.from_numpy(f, prod)
        out = ExactMatrix.zeros(f, self.nrows, other.ncols)
        for i in range(self.nrows):
            for k in range(self.ncols):
                a = self.rows[i][k]
                if a == 0:
                    continue
                row = out.rows[i]
                orow = other.rows[k]
                for j in range(other.ncols):
                    row[j] += a * orow[j]
        return out

    def matvec(self, vec):
        f = self.field
        vec = [f.element(x) for x in vec]
        return [sum((self.rows[i][j] * vec[j] for j in range(self.ncols)), f.zero)
                for i in range(self.nrows)]

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form. Returns (matrix, pivot column list)."""
        f = self.field
        if isinstance(f, PrimeField):
            r, piv = _gf_rref(self.to_numpy(), f.p)
            return ExactMatrix.from_numpy(f, r), piv
        m = [list(r) for r in self.rows]
        piv = []
        r = 0
        for c in range(self.ncols):
            pr = next((i for i in range(r, self.nrows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    a = m[i][c]
                    m[i] = [x - a * y for x, y in zip(m[i], m[r])]
            piv.append(c)
            r += 1
            if r == self.nrows:
                break
        return ExactMatrix(f, m, shape=self.shape), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "ExactMatrix":
        """Kernel basis as matrix columns, pivot-ordered (deterministic)."""
        f = self.field
        r, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = ExactMatrix.zeros(f, self.ncols, len(free))
        for k, fc in enumerate(free):
            basis.rows[fc][k] = f.one
            for i, pc in enumerate(piv):
                basis.rows[pc][k] = f.neg(r.rows[i][fc])
        return basis

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return self.field.one
        f = self.field
        if isinstance(f, PrimeField):
            return int(_gf_det(self.to_numpy(), f.p))
        return _bareiss_det_q(self.rows)


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
        if isinstance(field, PrimeField):
            p = field.p
            x = np.array([int(v) % p for v in xvec], dtype=np.int64)
            m = self.const % p
            np.add.at(m, (rows, cols), coeffs * x[coords])
            return m % p
        x = np.array([field.element(v) for v in xvec], dtype=object)
        m = self.const.astype(object)
        np.add.at(m, (rows, cols), coeffs.astype(object) * x[coords])
        return m

    def det(self, xvec, field):
        m = self.at(xvec, field)
        if isinstance(field, PrimeField):
            return _gf_det(m, field.p)
        return ExactMatrix.from_numpy(field, m).det()


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


def _gf_rref(a: np.ndarray, p: int):
    a = np.array(a, dtype=np.int64) % p
    nr, nc = a.shape
    piv = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        piv.append(c)
        r += 1
    return a, piv


def gf_rank(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix mod p, without the ExactMatrix wrapper."""
    if a.size == 0:
        return 0
    return len(_gf_rref(a, p)[1])
