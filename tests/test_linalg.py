import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qlfd
from qlfd import (ExactMatrix, GF, UnivariatePoly, build_saito_matrix,
                  interpolate, reducedness_test)
from qlfd.config import Config
from qlfd.errors import PrimeTooSmall
from qlfd.matrix import LinearPencil, _gf_charpoly, _rref
from qlfd.quiver import is_tree

from conftest import a2, d4_in
from oracle import bareiss_det, interpolate_q

F = GF(2**31 - 1)


def _oracle_det(rows, field):
    """det mod p of a square matrix of residues by the test oracle."""
    return int(bareiss_det(rows)) % field.p


def _matmul(a, b, p):
    """a @ b mod p on Python ints, so that no int64 sum overflows."""
    return a.astype(object) @ b.astype(object) % p


def test_identity_rank_det():
    m = ExactMatrix(F, np.eye(3, dtype=np.int64))
    assert m.rank() == 3
    assert m.det() == 1


def test_rank_one_nullspace():
    m = ExactMatrix(F, [[1, 2], [2, 4]])
    assert m.rank() == 1
    ns = m.nullspace()
    assert ns.ncols == 1
    v = [ns.rows[0][0], ns.rows[1][0]]
    # spanned by (-2, 1)
    assert v[0] == v[1] * -2 % F.p
    assert not _matmul(m.a, ns.a, F.p).any()


def test_kronecker_cartan_radical():
    m = ExactMatrix(F, [[2, -2], [-2, 2]])
    assert m.det() == 0
    ns = m.nullspace()
    assert ns.ncols == 1
    assert ns.rows[0][0] == ns.rows[1][0] != 0


@pytest.mark.parametrize("field", [GF(7), F, GF(101)])
def test_rank_nullity(field):
    rng = random.Random(3)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix(field, [[field.random(rng) for _ in range(nc)]
                                for _ in range(nr)])
        assert m.rank() + m.nullspace().ncols == nc
        assert not _matmul(m.a, m.nullspace().a, field.p).any()


@pytest.mark.parametrize("field", [GF(7), F])
def test_det_under_permutation(field):
    # Two independent elimination orders: compare det of the matrix with the
    # det after a random row/column shuffle, corrected by permutation signs.
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = ExactMatrix(field, [[field.random(rng) for _ in range(n)]
                                for _ in range(n)])
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = ExactMatrix(field, [[m.rows[i][j] for j in cols]
                                       for i in rows])
        sign = _perm_sign(rows) * _perm_sign(cols)
        lhs = m.det()
        rhs = shuffled.det()
        assert lhs == _oracle_det(m.a, field)
        assert lhs == sign * rhs % field.p


def _perm_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        sign *= (-1) ** (length - 1)
    return sign


def test_bareiss_matches_fraction_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    expected = Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
    assert bareiss_det(rows) == expected


def test_entries_exact_beyond_int64():
    m = ExactMatrix(F, [[-1, 2**63], [-2**70, 5]])
    assert m.rows == [[F.p - 1, 2**63 % F.p], [-2**70 % F.p, 5]]
    assert m.a.dtype.name == "int64"
    # numpy reads this list as float64; the entries are re-read as ints
    assert ExactMatrix(F, [[0, 2**63]]).rows == [[0, 2**63 % F.p]]
    big = ExactMatrix(F, np.array([[2**70, np.int64(3)]], dtype=object))
    assert big.rows == [[2**70 % F.p, 3]]
    with pytest.raises(ValueError):
        ExactMatrix(F, [[1, 2], [3]])


def test_entries_must_be_integers():
    # a float is never truncated, not even one with an integer value
    for bad in ([[1.5, 2]], [[2.0, 1]], [[2**70, 0.5]], [["3", 1]],
                np.array([[1.5, 2.0]]), np.array([[Fraction(1, 2), 1]], dtype=object)):
        with pytest.raises(ValueError, match="integers"):
            ExactMatrix(F, bad)
    with pytest.raises(ValueError):
        UnivariatePoly(F, [1, 0.5])


# -- differential tests of the array kernels -----------------------------------------

entries = st.integers(min_value=-9, max_value=9) | st.integers(min_value=-2**70,
                                                               max_value=2**70)


@st.composite
def int_matrices(draw, square=False):
    nr = draw(st.integers(min_value=1, max_value=5))
    nc = nr if square else draw(st.integers(min_value=1, max_value=5))
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))


@given(rows=int_matrices(square=True), p=st.sampled_from([101, 2**31 - 1]))
def test_fp_det_matches_bareiss(rows, p):
    q_det = bareiss_det(rows)
    assert q_det.denominator == 1
    assert ExactMatrix(GF(p), rows).det() == int(q_det) % p


@given(rows=int_matrices(), field=st.sampled_from([GF(101), GF(2**31 - 1)]))
def test_rank_nullspace_kernel(rows, field):
    m = ExactMatrix(field, rows)
    ker = m.nullspace()
    assert m.rank() + ker.ncols == m.ncols
    assert ker.nrows == m.ncols
    assert not _matmul(m.a, ker.a, field.p).any()


@given(rows=int_matrices(), field=st.sampled_from([GF(101), GF(2**31 - 1)]))
def test_rref_idempotent(rows, field):
    r, piv = ExactMatrix(field, rows).rref()
    again, piv_again = r.rref()
    assert again == r and piv_again == piv


# -- the determinant against the oracle ---------------------------------------------


@st.composite
def det_matrices(draw):
    """An n x n integer matrix, n <= 8: random, or one with a zero column, a
    repeated row, or a first pivot that is found only below the diagonal."""
    n = draw(st.integers(min_value=0, max_value=8))
    small = st.integers(min_value=-3, max_value=3)
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    m = np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)),
                 dtype=np.int64).reshape(n, n)
    kind = draw(st.sampled_from(["random", "zero column", "repeated row",
                                 "pivot below"]))
    if n == 0 or kind == "random":
        return m
    if kind == "zero column":
        m[:, draw(index)] = 0
    elif kind == "repeated row" and n > 1:
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        m[j] = m[i]
    elif kind == "pivot below":
        # zero diagonal, and column 0 nonzero only in the last row
        m[range(n), range(n)] = 0
        m[:, 0] = 0
        m[n - 1, 0] = draw(st.integers(min_value=1, max_value=3))
    return m


@settings(max_examples=300, deadline=None)
@given(m=det_matrices(), field=st.sampled_from([GF(7), GF(101), F]))
@example(m=np.zeros((0, 0), dtype=np.int64), field=GF(7))
# a zero leading pivot, found by a row swap
@example(m=np.array([[0, 2, 1], [1, 1, 0], [3, 0, 1]], dtype=np.int64), field=GF(7))
# singular, but the last column turns zero only at the last step
@example(m=np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.int64), field=F)
@example(m=np.zeros((1, 1), dtype=np.int64), field=GF(101))
def test_det_matches_oracle(m, field):
    matrix = ExactMatrix(field, m)
    expected = _oracle_det(matrix.a, field)
    assert matrix.det() == expected
    # the same matrix as a pencil with one coordinate per cell, at the point m
    n = m.shape[0]
    pencil = LinearPencil(n, [(i, j, i * n + j, 1) for i in range(n) for j in range(n)])
    assert pencil.det(m.reshape(-1).tolist(), field) == expected


@pytest.mark.parametrize("field", [F, GF(7)])
def test_det_is_the_rref_scale_on_saito_matrices(field):
    # forward elimination and Gauss-Jordan agree on every tree in tests/data
    rng = random.Random(11)
    trees = 0
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        q, d = qlfd.quiver_from_json(json.loads(path.read_text()))
        if not is_tree(q):
            continue
        trees += 1
        s = build_saito_matrix(q, d)
        a = s.pencil.at([field.random(rng) for _ in range(s.n)], field)
        _, piv, scale = _rref(a.copy(), field.p)
        assert ExactMatrix(field, a).det() == (scale if len(piv) == s.n else 0), path.name
    assert trees == 5  # a2, d4, dt4, e7, e8


def _stacked_cells_pencil():
    """A 4 x 4 pencil with one coordinate per cell, plus a 17th coordinate
    that every diagonal cell holds as well."""
    return LinearPencil(4, [(i, j, 4 * i + j, 1) for i in range(4) for j in range(4)]
                        + [(i, i, 16, 2) for i in range(4)])


@pytest.mark.parametrize("which", ["saito", "cells"])
@pytest.mark.parametrize("field", [F, GF(7), GF(101)])
def test_pencil_det_at_many_points(which, field):
    if which == "saito":
        pencil = build_saito_matrix(d4_in(), (1, 1, 1, 2)).pencil
    else:
        pencil = _stacked_cells_pencil()
    k = int(pencil.terms[:, 2].max()) + 1
    rng = random.Random(5)
    points = [[field.random(rng) for _ in range(k)] for _ in range(5)]
    points.insert(2, [0] * k)
    values = [pencil.det(x, field) for x in points]
    assert values == [_oracle_det(pencil.at(x, field), field) for x in points]
    assert [pencil.det(np.array(x, dtype=object), field) for x in points] == values
    assert values[2] == 0  # a linear pencil is singular at the origin


# -- the characteristic polynomial -------------------------------------------------


@st.composite
def charpoly_inputs(draw):
    """(h, p): an n x n matrix mod p, n <= 8, of a kind that makes Danilevsky's
    method swap rows and columns or split off companion blocks."""
    n = draw(st.integers(min_value=0, max_value=8))
    p = draw(st.sampled_from([3, 7, 101, 2**31 - 1]))
    entry = st.integers(min_value=0, max_value=p - 1)

    def matrix(size, entries):
        return np.array(draw(st.lists(entries, min_size=size * size,
                                      max_size=size * size)),
                        dtype=np.int64).reshape(size, size)

    kind = draw(st.sampled_from(["zero", "scalar", "shift", "blocks",
                                 "permutation", "sparse", "dense"]))
    perm = draw(st.permutations(range(n)))
    if kind == "zero":
        h = np.zeros((n, n), dtype=np.int64)
    elif kind == "scalar":
        h = draw(entry) * np.eye(n, dtype=np.int64)
    elif kind == "shift":
        h = np.eye(n, k=draw(st.sampled_from([1, -1])), dtype=np.int64)
    elif kind == "blocks":
        # one block repeated down the diagonal, conjugated by a permutation
        size = draw(st.integers(min_value=1, max_value=3))
        block = matrix(size, entry)
        h = np.diag(np.array(draw(st.lists(entry, min_size=n, max_size=n)),
                             dtype=np.int64).reshape(n))
        for i in range(0, n - size + 1, size):
            h[i:i + size, i:i + size] = block
        h = h[perm][:, perm]
    elif kind == "permutation":
        h = np.eye(n, dtype=np.int64)[perm]
    elif kind == "sparse":
        h = matrix(n, st.sampled_from([0, 0, 0]) | entry)
    else:
        h = matrix(n, entry)
    return h, p


def _charpoly_by_interpolation(h, p):
    """det(x I - h) mod p through n + 1 oracle determinants over Q on the
    integer lift of h, interpolated over Q and reduced mod p afterwards (the
    coefficients are integer polynomials in the entries)."""
    n = h.shape[0]
    nodes = range(n + 1)
    vals = [bareiss_det(x * np.eye(n, dtype=np.int64) - h) for x in nodes]
    return [int(c) % p for c in interpolate_q(zip(nodes, vals))]


@settings(max_examples=400, deadline=None)
@given(case=charpoly_inputs())
def test_charpoly_matches_interpolation(case):
    h, p = case
    before = h.copy()
    assert _gf_charpoly(h, p) == _charpoly_by_interpolation(h, p)
    assert np.array_equal(h, before)  # the input is left as it was


# -- det along a line --------------------------------------------------------------


@st.composite
def pencils(draw):
    """A random LinearPencil of size n in k + 1 coordinates, with a point a
    and a direction b. Coordinate k carries an affine part C: a_k = 1 and
    b_k = 0, so M(a + t b) = C + M'(a' + t b') in the other coordinates. C,
    a' and b' may each be zero."""
    n = draw(st.integers(min_value=0, max_value=8))
    k = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-3, max_value=3)
    const = np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)),
                     dtype=np.int64).reshape(n, n)
    if draw(st.booleans()):
        const[:] = 0
    coeffs = np.array(draw(st.lists(small, min_size=n * n * k, max_size=n * n * k)),
                      dtype=np.int64).reshape(n, n, k)
    coeffs = np.concatenate((coeffs, const[:, :, None]), axis=2)
    terms = [(*cell, c) for cell, c in np.ndenumerate(coeffs) if c]
    point = st.lists(st.integers(min_value=0, max_value=2**31), min_size=k, max_size=k)
    zero = [0] * k
    a = draw(st.sampled_from([zero]) | point) + [1]
    b = draw(st.sampled_from([zero]) | point) + [0]
    return LinearPencil(n, terms), a, b


def _evaluate(coeffs, t, p):
    """The polynomial with the given coefficients, low to high, at t mod p."""
    return sum(c * pow(t, i, p) for i, c in enumerate(coeffs)) % p


def _line_values(pencil, a, b, field, nodes):
    """det M(a + t b) at each node t, by the test oracle."""
    p = field.p
    points = ([(x + t * y) % p for x, y in zip(a, b)] for t in nodes)
    return [_oracle_det(pencil.at(x, field), field) for x in points]


def _check_det_line(pencil, a, b, field):
    """det_line is None exactly at a singular start. At the first
    nonsingular start a + s b, s < min(n + 1, p), it matches interpolation
    on n + 1 nodes (p > n) or the determinant at every t in F_p (p <= n)."""
    n, p = pencil.n, field.p
    for s in range(min(n + 1, p)):
        start = [(x + s * y) % p for x, y in zip(a, b)]
        coeffs = pencil.det_line(start, b, field)
        assert (coeffs is None) == (_oracle_det(pencil.at(start, field), field) == 0)
        if coeffs is not None:
            break
    else:
        return  # every start is singular
    nodes = range(n + 1) if p > n else range(p)
    vals = _line_values(pencil, start, b, field, nodes)
    if p > n:
        assert UnivariatePoly(field, coeffs) == interpolate(field, zip(nodes, vals))
    else:
        assert [_evaluate(coeffs, t, p) for t in nodes] == vals


@settings(max_examples=300, deadline=None)
@given(case=pencils(), p=st.sampled_from([7, 101, 2**31 - 1]))
def test_det_line_matches_interpolation(case, p):
    _check_det_line(*case, GF(p))


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
def test_det_line_singular_start_on_saito_pencil(p):
    # f vanishes at the origin, so the line from a = 0 has no polynomial
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    rng = random.Random(p)
    b = [0] * s.n
    while s.det_at(b, GF(p)) == 0:
        b = [rng.randrange(p) for _ in range(s.n)]
    assert s.det_at([0] * s.n, GF(p)) == 0
    assert s.pencil.det_line([0] * s.n, b, GF(p)) is None
    _check_det_line(s.pencil, [0] * s.n, b, GF(p))
    # f is homogeneous of degree n: from the next start b, f(b + t b) is
    # f(b) (1 + t)^n
    fb = s.det_at(b, GF(p))
    assert s.pencil.det_line(b, b, GF(p)) == [fb * math.comb(s.n, i) % p
                                              for i in range(s.n + 1)]


def test_det_line_of_the_empty_matrix():
    assert LinearPencil(0).det_line([1], [2], F) == [1]


def _writes_rows(target) -> bool:
    """True if an assignment target stores through an `.rows` attribute."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_rows(e) for e in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_rows(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "rows":
            return True
    return False


def _rows_writes(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found.extend(node.lineno for t in targets if _writes_rows(t))
    return found


def test_no_writes_through_rows():
    # ExactMatrix.rows is a fresh list copy, so a store through it is lost
    assert _rows_writes("m.rows[0][1] = 2\nm.rows[1] += [3]\nx, m.rows[2] = 1, 2") == [1, 2, 3]
    assert _rows_writes("x[m.rows[0][0]] = 1\nrows[0] = 1") == []
    package = Path(qlfd.__file__).parent
    offenders = {path.name: lines for path in sorted(package.glob("*.py"))
                 if (lines := _rows_writes(path.read_text()))}
    assert offenders == {}


# -- polynomials ---------------------------------------------------------------


def test_gcd_example():
    a = UnivariatePoly(F, [-1, 0, 1])   # t^2 - 1
    b = UnivariatePoly(F, [-2, 2])      # 2t - 2
    g = a.gcd(b)
    assert g.coeffs == [F.p - 1, 1]     # monic: t - 1


def test_squarefree():
    t2 = UnivariatePoly(F, [0, 0, 1])
    assert not t2.is_squarefree()
    t = UnivariatePoly(F, [0, 1])
    assert t.is_squarefree()
    assert UnivariatePoly(F, [-1, 0, 1]).is_squarefree()


def test_prime_too_small():
    p5 = GF(5)
    poly = UnivariatePoly(p5, [1, 1, 0, 0, 0, 0, 0, 1])  # degree 7 >= 5
    with pytest.raises(PrimeTooSmall):
        poly.is_squarefree()


def test_prime_must_fit_int64_kernels():
    # products of two residues must stay below 2^62
    assert GF(2**31 - 1).p == 2**31 - 1
    for p in (4294967311, 2**61 - 1):
        with pytest.raises(ValueError):
            GF(p)
        with pytest.raises(ValueError):
            Config(prime=p)
        with pytest.raises(ValueError):
            reducedness_test(build_saito_matrix(a2(), (1, 1)), primes=(p,))


def test_prime_field_is_built_once_per_modulus():
    assert GF(101) is GF(101) is Config(prime=101).field()
    for p in (9, 2**31):  # a rejected modulus is rejected every time
        for _ in range(2):
            with pytest.raises(ValueError):
                GF(p)


def test_field_element_takes_only_integers():
    assert GF(7).element(-1) == 6 and GF(7).element(np.int64(9)) == 2
    for bad in (2.7, 2.0, "2", None):
        with pytest.raises(ValueError, match="must be integers"):
            GF(7).element(bad)
    with pytest.raises(ValueError, match="must be integers"):
        interpolate(GF(7), [(0, 2.7), (1.5, 1)])


def test_interpolate_quadratic():
    p = interpolate(F, [(0, 1), (1, 2), (2, 5)])
    assert p.coeffs == [1, 0, 1]  # t^2 + 1


def test_interpolate_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate(F, [(1, 1), (1, 2)])
    with pytest.raises(ValueError):  # 8 = 1 mod 7
        interpolate(GF(7), [(1, 1), (8, 2)])


coeffs = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5)


def _remainder(a, b, p):
    """a mod b over F_p (b monic) by schoolbook long division on Python ints."""
    a = list(a)
    while len(a) >= len(b):
        c, shift = a.pop(), len(a) - len(b) + 1
        for i, x in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - c * x) % p
    return a


@given(a=coeffs, b=coeffs, field=st.sampled_from([GF(7), GF(101), F]))
def test_gcd_divides(a, b, field):
    pa = UnivariatePoly(field, a)
    pb = UnivariatePoly(field, b)
    g = pa.gcd(pb)
    if g.is_zero():
        assert pa.is_zero() and pb.is_zero()
    else:
        assert g.coeffs[-1] == 1
        assert not any(_remainder(pa.coeffs, g.coeffs, field.p))
        assert not any(_remainder(pb.coeffs, g.coeffs, field.p))


def _product_of_linear_factors(field, roots):
    """prod (t - r) over the roots, multiplied out by plain integer arithmetic."""
    out = [1]
    for r in roots:
        out = [a - r * b for a, b in zip([0] + out, out + [0])]
    return UnivariatePoly(field, out)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([101, 2**31 - 1]), data=st.data())
def test_squarefree_products_of_linear_factors(p, data):
    # degree <= 20 < p: distinct roots are squarefree, a repeated root is not
    field = GF(p)
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=20,
                               unique=True))
    assert _product_of_linear_factors(field, roots).is_squarefree()
    repeated = [data.draw(st.sampled_from(roots[:19]))] + roots[:19]
    assert not _product_of_linear_factors(field, repeated).is_squarefree()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_squarefree_answers_below_degree_p(p):
    field = GF(p)
    roots = list(range(1, p))  # degree p - 1: t^(p-1) - 1
    assert _product_of_linear_factors(field, roots).is_squarefree()
    assert not _product_of_linear_factors(field, roots[:-1] + [1]).is_squarefree()
    with pytest.raises(PrimeTooSmall):  # degree p: t^p - t
        _product_of_linear_factors(field, roots + [0]).is_squarefree()


@given(c=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
def test_interpolate_inverts_evaluation(c):
    poly = UnivariatePoly(F, c)
    pts = [(x, _evaluate(poly.coeffs, x, F.p)) for x in range(len(c))]
    assert interpolate(F, pts) == poly
