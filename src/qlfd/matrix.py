"""Dense exact matrices over F_p: rank, nullspace, determinant, and
matrices linear in a coordinate vector.

A matrix is one int64 array of residues in [0, p). Every product of two
residues stays below 2^62 for any modulus < 2^31, so the kernels are exact
in int64. One Gauss-Jordan elimination, _rref, serves rank, nullspace and
det_line: rank and nullspace read its pivot columns, det_line its scale, the
product of the pivots with the sign of the row swaps. A determinant alone
needs no reduced form: _det eliminates forward only, with _rref's pivot
rule, and stops at the first column without a pivot.

LinearPencil.det_line turns the determinant of an n x n pencil along a
line into its polynomial over F_p in one O(n^3) pass: one Gauss-Jordan
elimination of [A | B], then the characteristic polynomial of A^-1 B by
Danilevsky's method, one similarity step per row. A singular start point
is moved along the line at most min(n + 1, p) times; anchored_det_line
also returns how far, so the caller knows a point where the pencil is
nonsingular.
"""

from __future__ import annotations

import numpy as np

from .fields import integer

_to_int = np.frompyfunc(integer, 1, 1)


def _entries(field, values, shape=None) -> np.ndarray:
    """values (an array or nested lists of integers) as an int64 array of
    residues mod p.

    Exact for integers outside int64, as int(x) % p is. Any other entry, a
    float or a string among them, raises ValueError; an integer array skips
    that check.
    """
    a = np.asarray(values)  # ValueError on ragged rows
    if a.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # numpy reads a list mixing ints with 2^63 or more as float64
        a = np.array(values, dtype=object)
    if shape is not None:
        a = a.reshape(shape)
    if a.dtype.kind not in "biu":
        a = _to_int(a)
    return (a % field.p).astype(np.int64, copy=False)


class ExactMatrix:
    """A matrix over F_p held as one read-only int64 array `a`."""

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

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form. Returns (matrix, pivot column list)."""
        r, piv, _ = _rref(self.a.copy(), self.field.p)
        return ExactMatrix._of(self.field, r), piv

    def rank(self) -> int:
        return gf_rank(self.a, self.field.p)

    def nullspace(self) -> "ExactMatrix":
        """Kernel basis as matrix columns, pivot-ordered (deterministic)."""
        r, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = np.zeros((self.ncols, len(free)), dtype=np.int64)
        basis[free, range(len(free))] = 1
        basis[piv] = -r.a[:len(piv)][:, free]
        return ExactMatrix(self.field, basis)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.a.copy(), self.field.p)


class LinearPencil:
    """An n x n matrix linear in a coordinate vector: M(x) = sum_k x_k E_k.

    The E_k are kept together as rows (row, col, coord, coeff) of one int64
    array of terms: cell (row, col) gains coeff * x[coord]. A cell may hold
    several coordinates.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        self.n = n
        self.terms = np.asarray(terms, dtype=np.int64).reshape(-1, 4)

    def at(self, xvec, field) -> np.ndarray:
        """M(x) as a reduced int64 array."""
        rows, cols, coords, coeffs = self.terms.T
        x = _entries(field, xvec)
        m = np.zeros((self.n, self.n), dtype=np.int64)
        np.add.at(m, (rows, cols), coeffs * x[coords])
        return m % field.p

    def det(self, x, field):
        """det M(x) at the point x."""
        return _det(self.at(x, field), field.p)

    def det_line(self, a, b, field):
        """Coefficients, low to high, of t -> det M(a + t b) over F_p, or None
        when every anchor is singular (see anchored_det_line)."""
        found = self.anchored_det_line(a, b, field)
        return None if found is None else found[1]

    def anchored_det_line(self, a, b, field):
        """(s, coefficients low to high of t -> det M(a + t b)) over F_p, where
        M(a + s b) is the nonsingular anchor the polynomial was read at, or
        None.

        M(a + t b) = A + t B with A = M(a) and B = M(b). When A is
        invertible, det(A + t B) = det A * det(I + t K) with K = A^-1 B, and
        det(I + t K) is the characteristic polynomial of -K read backwards.
        One elimination of [A | B] gives det A and K. When A is singular the
        line is anchored at a + s b instead, for s = 1, 2, ... below
        min(n + 1, p), and the result is shifted back by s. None means every
        anchor was singular; for p > n that holds exactly when the
        restriction is identically zero.
        """
        p = field.p
        base = self.at(a, field)
        slope = self.at(b, field)
        n = self.n
        for s in range(min(n + 1, p)):
            red, piv, det = _rref(np.hstack(((base + s * slope) % p, slope)), p)
            if piv[:n] != list(range(n)):
                continue
            chi = _gf_charpoly(-red[:, n:] % p, p)
            coeffs = [det * c % p for c in reversed(chi)]
            return s, (_taylor_shift(coeffs, -s, p) if s else coeffs)
        return None


# -- array kernels -----------------------------------------------------------


def _rref(a: np.ndarray, p: int):
    """Gauss-Jordan elimination mod p in place on residues. The pivot of a
    column is its entry in the next pivot row when that is nonzero, else the
    first nonzero entry below it; only rows with a nonzero entry in the
    pivot column are updated.

    Returns (a, pivot columns, scale), where scale is the product of the
    pivots with the sign of the row swaps: the determinant of the square
    left block when the pivots are its columns.
    """
    nr, nc = a.shape
    piv = []
    scale = 1
    for c in range(nc):
        r = len(piv)
        if r == nr:
            break
        if not a[r, c]:
            nz = a[r + 1:, c].nonzero()[0]
            if nz.size == 0:
                continue
            pr = r + 1 + int(nz[0])
            a[[r, pr]] = a[[pr, r]]
            scale = -scale
        pivot = int(a[r, c])
        scale = scale * pivot % p
        a[r] = a[r] * pow(pivot, -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col.nonzero()[0]
        if mask.size:
            # row r is zero left of column c, so those columns stay as they are
            a[mask, c:] = (a[mask, c:] - col[mask, None] * a[r, c:]) % p
        piv.append(c)
    return a, piv, scale


def _det(a: np.ndarray, p: int) -> int:
    """Determinant mod p of a square array of residues (1 for a 0 x 0
    array), by forward elimination in place.

    The pivot of column c is a[c, c] when that is nonzero, else the first
    nonzero entry below it, swapped up; a column without one makes the
    determinant 0. Only the rows below the pivot with a nonzero entry in its
    column are updated, and only right of it; the pivot row is not
    normalised. Row i gains (p - a[i, c] / pivot) times the pivot row, so
    every operand of % is non-negative.
    """
    n = a.shape[0]
    det = 1
    for c in range(n):
        pivot = int(a[c, c])
        if not pivot:
            nz = a[c + 1:, c].nonzero()[0]
            if nz.size == 0:
                return 0
            r = c + 1 + int(nz[0])
            a[[c, r]] = a[[r, c]]
            det = -det
            pivot = int(a[c, c])
        det = det * pivot % p
        col = a[c + 1:, c]
        rows = col.nonzero()[0]
        if rows.size:
            g = col[rows] * (p - pow(pivot, -1, p)) % p
            rows += c + 1
            a[rows, c + 1:] = (a[rows, c + 1:] + g[:, None] * a[c, c + 1:]) % p
    return det


def _gf_charpoly(h: np.ndarray, p: int) -> list:
    """Coefficients, low to high, of det(x I - h) mod p.

    Danilevsky's method (Danilevsky 1937; Faddeev and Faddeeva,
    Computational Methods of Linear Algebra): similarity steps from the
    bottom row up turn a copy of h into companion blocks, exactly over F_p.
    At row k the pivot h[k, k-1] is made 1 and the rest of row k 0 by one
    rank-1 update of the columns on rows <= k, and the inverse step replaces
    row k-1 by a combination of rows. The rows below k are unit vectors by
    then and no step touches them. A zero pivot is exchanged for a nonzero
    entry left of it in row k by swapping a row and the column of the same
    index; when there is none, the trailing block is companion already, its
    polynomial splits off, and the leading block carries on. A product of
    two residues plus one residue stays below 2^63, and every product is
    reduced before it enters a longer sum, so int64 never overflows.
    """
    h = np.array(h, dtype=np.int64)
    # high to low, as Python ints: the product of the blocks split off so far
    chi = np.ones(1, dtype=object)
    m = h.shape[0]
    while m:
        a = h[:m, :m]  # the leading block still to reduce
        k = m - 1
        while k:
            row = a[k].copy()
            if not row[k - 1]:
                nz = row[:k - 1].nonzero()[0]
                if nz.size == 0:
                    break  # a[k:, :k] is zero: the block below splits off
                j = int(nz[0])
                a[[j, k - 1]] = a[[k - 1, j]]
                a[:, [j, k - 1]] = a[:, [k - 1, j]]
                row = a[k].copy()
            inv = pow(int(row[k - 1]), -1, p)
            # columns: c_j -= row[j] / pivot * c_{k-1} for j != k-1, and
            # c_{k-1} += (1 / pivot - 1) * c_{k-1}, which divides it by the
            # pivot; this leaves row k as the unit vector e_{k-1}
            g = row * (p - inv) % p
            g[k - 1] = (inv - 1) % p
            upd = np.multiply.outer(a[:k + 1, k - 1], g)
            upd += a[:k + 1]
            np.remainder(upd, p, out=a[:k + 1])
            # rows: row k-1 becomes sum_i row[i] * row i, where rows k and
            # below are unit vectors
            new = (row[:k + 1, None] * a[:k + 1] % p).sum(axis=0)
            new[k:m - 1] += row[k + 1:]
            np.remainder(new, p, out=a[k - 1])
            k -= 1
        # rows k+1 .. m-1 of the block are unit vectors below row k, so
        # det(x I - a[k:, k:]) = x^(m-k) - sum_i a[k, k+i] x^(m-k-1-i)
        block = np.array([1] + [-x % p for x in a[k, k:].tolist()], dtype=object)
        chi = np.convolve(chi, block) % p
        m = k
    return chi[::-1].tolist()


def _taylor_shift(coeffs: list, c: int, p: int) -> list:
    """Coefficients of g(t + c) mod p from those of g, low to high."""
    g = list(coeffs)
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] = (g[j] + c * g[j + 1]) % p
    return g


def gf_rank(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix mod p, without the ExactMatrix wrapper."""
    if a.size == 0:
        return 0
    return len(_rref(np.asarray(a, dtype=np.int64) % p, p)[1])
