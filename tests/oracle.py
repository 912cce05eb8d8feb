"""The small-case symbolic oracle: sparse multivariate polynomials with
integer coefficients, the full expansion of a Saito determinant (gated to
low dimension), and an exact Gram-rank irreducibility certificate for
quadratics. The operation set is minimal: ring arithmetic and a memoized
determinant expansion. Also exact linear algebra over Q, independent of the
library's arithmetic mod p (a fraction-free determinant, a Gauss-Jordan
elimination and Newton interpolation on Fractions), the
characteristic-polynomial and nullspace reference for the Dynkin / tame /
wild split of a quiver, the degree of one relative invariant and the
component-degree search over the whole root box at once, the
single-coordinate shape of a Saito matrix, the line test of reducedness
through the line kernel alone, the real-root test by height
descent, the orthogonal-candidate probes through whole representations
and c-matrices, the positive real roots in a box as a plain reflection
closure, the tube search over every real root below delta, and the
three-stage homogeneity certificate from an ext table.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from qlfd.errors import PrimeTooSmall, QuiverInputError
from qlfd.fields import GF
from qlfd.poly import UnivariatePoly
from qlfd.quiver import (cartan_matrix, check_dim, classify_graph, euler_form,
                         euler_matrix, is_tree, rep_dimension, stages, tits_form,
                         topological_order)
from qlfd.reps import build_c_matrix, is_schur_root, perp_candidates, sample_representation
from qlfd.roots import Tube, coxeter_matrix, positive_real_roots
from qlfd.saito import HomogeneityCertificate, ReducednessVerdict


class MultiPoly:
    """terms: monomial exponent tuple -> nonzero integer coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def coordinate(cls, i, nvars, coeff=1):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def add(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(self.nvars, out)

    def neg(self):
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return MultiPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def mul(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def proportional_to(self, other) -> bool:
        """True iff self = c * other for a nonzero rational c."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.terms) != set(other.terms):
            return False
        m0 = next(iter(self.terms))
        ratio = Fraction(self.terms[m0], other.terms[m0])
        return all(Fraction(c, other.terms[m]) == ratio
                   for m, c in self.terms.items())


def product(polys, nvars):
    acc = MultiPoly.const(nvars, 1)
    for p in polys:
        acc = acc.mul(p)
    return acc


def sym_det(entries) -> MultiPoly:
    """Determinant of a square grid of MultiPoly entries.

    Laplace expansion along rows, memoized on the remaining column set;
    exponential in n but cheap for the gated sizes.
    """
    n = len(entries)
    if n == 0:
        return MultiPoly.const(0, 1)
    nvars = entries[0][0].nvars
    memo = {}

    def minor(cols):
        if not cols:
            return MultiPoly.const(nvars, 1)
        key = cols
        got = memo.get(key)
        if got is not None:
            return got
        row = n - len(cols)
        acc = MultiPoly.zero(nvars)
        for idx, c in enumerate(cols):
            e = entries[row][c]
            if e.is_zero():
                continue
            rest = cols[:idx] + cols[idx + 1:]
            term = e.mul(minor(rest))
            acc = acc.add(term if idx % 2 == 0 else term.neg())
        memo[key] = acc
        return acc

    return minor(tuple(range(n)))


def quadratic_gram_rank(p: MultiPoly) -> int:
    """Rank of the symmetric Gram matrix of a homogeneous quadratic.

    A quadratic form over C is irreducible iff its Gram rank is >= 3
    (rank 1: a square; rank 2: product of two distinct linear forms).
    """
    if p.total_degree() != 2 or not p.is_homogeneous():
        raise ValueError("expected a homogeneous quadratic")
    n = p.nvars
    g = np.zeros((n, n), dtype=object)
    for mono, c in p.terms.items():
        i, j = (i for i, e in enumerate(mono) for _ in range(e))
        g[i, j] = g[j, i] = Fraction(c, 1 if i == j else 2)
    return len(rref_q(g)[1])


def expand_f_symbolic(s, expand_limit: int = 8) -> MultiPoly:
    """Full symbolic expansion of det of a Saito matrix; gated to small sizes."""
    if s.n > expand_limit:
        raise ValueError(f"symbolic expansion gated to n <= {expand_limit}")
    nvars = s.n
    grid = [[MultiPoly.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
    for i, j, k, c in s.pencil.terms.tolist():
        grid[i][j] = grid[i][j].add(MultiPoly.coordinate(k, nvars, c))
    return sym_det(grid)


def bareiss_det(rows) -> Fraction:
    """Determinant over Q of a square matrix of integers or Fractions.

    The rows are scaled to integers, then eliminated fraction-free (Bareiss,
    Math. Comp. 22, 1968): every division by the previous pivot is exact.
    """
    n = len(rows)
    scale = Fraction(1)
    m = []
    for row in np.asarray(rows, dtype=object).tolist():
        row = [Fraction(x) for x in row]
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
    return Fraction(sign * m[n - 1][n - 1]) / scale if n else Fraction(1)


def rref_q(rows):
    """(reduced row echelon form, pivot columns) over Q of a matrix of
    integers or Fractions, by plain Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in np.asarray(rows, dtype=object).tolist()]
    piv = []
    for c in range(len(m[0]) if m else 0):
        r = len(piv)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[r])]
        piv.append(c)
    return m, piv


def interpolate_q(points):
    """Coefficients over Q, low to high, of the polynomial of degree
    < len(points) through the (x, y) pairs: Newton divided differences on
    Fractions, one coefficient per point."""
    points = list(points)
    xs = [Fraction(x) for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = []
    for k in reversed(range(n)):
        poly = [c - xs[k] * h for c, h in zip([coef[k]] + poly, poly + [0])]
    return poly


def char_poly_coeff_signs(c_rows):
    """Coefficients e_k (sums of k x k principal minors) of det(tI - C)."""
    n = len(c_rows)
    c = np.array(c_rows, dtype=object).reshape(n, n)
    pts = [(t, bareiss_det(t * np.eye(n, dtype=np.int64) - c)) for t in range(n + 1)]
    coeffs = interpolate_q(pts)
    # det(tI - C) = sum_k (-1)^k e_k t^(n-k)
    return [(-1) ** k * coeffs[n - k] for k in range(n + 1)]


def radical_generator(c_rows):
    """Primitive generator of a one-dimensional kernel with all entries > 0."""
    red, piv = rref_q(c_rows)
    free = [c for c in range(len(c_rows)) if c not in piv]
    if len(free) != 1:
        return None
    col = [Fraction(1) if c in free else Fraction(0) for c in range(len(c_rows))]
    for r, c in enumerate(piv):
        col[c] = -red[r][free[0]]
    den = math.lcm(*(x.denominator for x in col))
    ints = [int(x * den) for x in col]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        return None
    return tuple(ints)


def graph_kind_by_char_poly(q):
    """(kind, delta) of a connected quiver by the semidefiniteness test.

    Dynkin when the n leading minors of C are positive; tame when every e_k
    is >= 0 (C positive semidefinite) and the radical is spanned by a
    positive vector delta; wild otherwise.
    """
    c = cartan_matrix(q)
    n = len(c)
    if all(bareiss_det([row[:k] for row in c[:k]]) > 0 for k in range(1, n + 1)):
        return "dynkin", None
    if all(x >= 0 for x in char_poly_coeff_signs(c)):
        delta = radical_generator(c)
        if delta is not None:
            return "tame", delta
    return "wild", None


def full_box_degrees(q, d, config):
    """certified, side, degrees and vectors of the degrees report of a
    sincere pair (q, d) on a tree with q(d) = 1, from one plain search of
    the whole root box, and under "subsets" the vectors of every certified
    subset on that side, the reported one first.

    The brick is drawn as the report draws it. Every positive real root with
    entries <= config.entry_bound is tested, on the left side and then on the
    right; each subset of #vertices - 1 candidates, in lexicographic order of
    the candidates sorted by (-degree, vector), is certified when its degrees
    sum to dim Rep and its characters to chi_f(i) = sum_{j->i} d_j -
    sum_{i->j} d_j. The character of e is sum_{j->i} e_j - e_i on the left
    and e_i - sum_{i->j} e_j on the right.
    """
    field, rng = config.field(), config.rng()
    schur = is_schur_root(q, d, config.trials, field, rng)
    if schur.value != "yes":
        return {"certified": False}
    arrows = q.arrow_indices()
    size = q.n_vertices

    def inflow(v, i):
        return sum(v[s] for s, t in arrows if t == i)

    def outflow(v, i):
        return sum(v[t] for s, t in arrows if s == i)

    def character(e, side):
        if side == "left":
            return [inflow(e, i) - e[i] for i in range(size)]
        return [e[i] - outflow(e, i) for i in range(size)]

    chi_f = [inflow(d, i) - outflow(d, i) for i in range(size)]
    roots = positive_real_roots(q, config.entry_bound)
    for side in ("left", "right"):
        cands = perp_candidates(q, d, roots, side, schur.witness, config.trials,
                                field, rng)
        scored = sorted((-component_degree(q, d, e, side), e) for e in cands)
        certified = [
            subset for subset in itertools.combinations(scored, size - 1)
            if -sum(deg for deg, _ in subset) == rep_dimension(q, d)
            and [sum(col) for col in zip(*(character(e, side) for _, e in subset))]
            == chi_f]
        if certified:
            return {"certified": True, "side": side,
                    "degrees": sorted(-deg for deg, _ in certified[0]),
                    "vectors": sorted(list(e) for _, e in certified[0]),
                    "subsets": [sorted(list(e) for _, e in subset)
                                for subset in certified]}
    return {"certified": False}


def perp_candidates_reference(q, d, roots, side, brick, trials, field, rng, probes=None):
    """perp_candidates root by root through the Representation layer: each
    probe is a sample_representation, its c-matrix against the brick a
    build_c_matrix, and the test its det(). The Euler pairing is taken per
    root by euler_form. When a list `probes` is given, each probe appends
    its trial number, counted from 0, so a retry shows as a number above 0.
    """
    out = []
    for e in roots:
        pairing = euler_form(q, e, d) if side == "left" else euler_form(q, d, e)
        if pairing or e == d or not any(e):
            continue
        for trial in range(trials):
            if probes is not None:
                probes.append(trial)
            probe = sample_representation(q, e, field, rng)
            pair = (probe, brick) if side == "left" else (brick, probe)
            if build_c_matrix(*pair).det() != 0:
                out.append(e)
                break
    return out


def component_degree(q, d, m, side):
    """Degree of the relative invariant c^m of Rep(q, d) attached to a vector
    m orthogonal to d on the given side: its character chi (E m on the
    right, -E^t m on the left) paired with the stage grading h through d,
    sum_i h(i) d_i chi_i. The grading is shift-invariant exactly under that
    orthogonality, which is checked."""
    d = check_dim(q, d)
    m = check_dim(q, m)
    if not is_tree(q):
        raise QuiverInputError("component degrees need a tree quiver")
    if side == "right":
        if euler_form(q, d, m) != 0:
            raise QuiverInputError("<d, m> must vanish for a right invariant")
    elif side == "left":
        if euler_form(q, m, d) != 0:
            raise QuiverInputError("<m, d> must vanish for a left invariant")
    else:
        raise QuiverInputError("side must be 'left' or 'right'")
    e = euler_matrix(q)
    n = q.n_vertices
    if side == "right":
        chi = [sum(e[i][j] * m[j] for j in range(n)) for i in range(n)]
    else:
        chi = [-sum(e[j][i] * m[j] for j in range(n)) for i in range(n)]
    h = stages(q).h
    return sum(h[v] * d[i] * chi[i] for i, v in enumerate(q.vertices))


def single_coordinate_basis_check(s) -> bool:
    """Every entry of the Saito matrix s is a scalar multiple of one
    coordinate, and no coordinate repeats within a row."""
    rows, cols, coords, _ = s.pencil.terms.T
    return (len(set(zip(rows, cols))) == len(rows)
            and len(set(zip(rows, coords))) == len(rows))


def reducedness_reference(s, trials: int = 3, primes=None,
                          seed: int = 12345) -> ReducednessVerdict:
    """The random-line test of saito.reducedness_test on every pencil: each
    line read by LinearPencil.det_line and UnivariatePoly.is_squarefree.
    reducedness_test decides a column-scaled pencil exactly from det N
    instead, so there it certifies wherever this does, at a trial no later,
    and also where every line here missed."""
    primes = (2**31 - 1,) if primes is None else tuple(primes)
    n = s.n
    rng = random.Random(seed)
    anchor_trial = anchor = None
    for trial in range(trials):
        p = primes[trial % len(primes)]
        if p <= n:
            raise PrimeTooSmall(f"prime {p} <= degree {n}")
        fld = GF(p)
        if n == 0:
            return ReducednessVerdict("reduced", trial + 1, primes, seed,
                                      witness_prime=p, degree=0,
                                      anchor_trial=1, anchor=())
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        if all(x == 0 for x in b):
            b[0] = 1
        for shift in range(n + 1):
            start = tuple((x + shift * y) % p for x, y in zip(a, b))
            coeffs = s.pencil.det_line(start, b, fld)
            if coeffs is not None:
                break
        else:
            continue
        if anchor_trial is None:
            anchor_trial, anchor = trial + 1, start
        poly = UnivariatePoly(fld, coeffs)
        if poly.degree == n and poly.is_squarefree():
            return ReducednessVerdict("reduced", trial + 1, primes, seed,
                                      witness_prime=p, degree=n,
                                      anchor_trial=anchor_trial, anchor=anchor)
    if anchor_trial is None:
        return ReducednessVerdict("identically_zero", trials, primes, seed)
    return ReducednessVerdict("not_reduced", trials, primes, seed,
                              anchor_trial=anchor_trial, anchor=anchor)


def is_real_root(q, d, depth_bound: int = 10**6) -> str:
    """'yes' / 'no' / 'inconclusive'.

    A positive vector with q_Q = 1 is a real root iff some sequence of
    simple reflections takes it to a unit vector. Height-descent decides
    this: while v is not a unit, reflect at the first loop-free k with
    (v, e_k)_Q > 0; the height strictly drops, and a mixed-sign result
    certifies 'no' (orbits of roots never leave +/-). The bound caps total
    descent.
    """
    d = check_dim(q, d)
    if tits_form(q, d) != 1 or any(x < 0 for x in d):
        return "no"
    c = cartan_matrix(q)
    free = [j for j in range(q.n_vertices) if c[j][j] == 2]
    v = d
    spent = 0
    while sum(v) != 1:
        for j in free:
            pairing = sum(a * x for a, x in zip(c[j], v))
            if pairing > 0:
                break
        else:
            return "no"
        w = v[:j] + (v[j] - pairing,) + v[j + 1:]
        if w[j] < 0:
            return "no"
        spent += pairing
        if spent > depth_bound:
            return "inconclusive"
        v = w
    return "yes"


def reflection_closure_layers(q, box):
    """The positive real roots in a per-vertex box, grouped as root_layers
    yields them: the unit vectors at loop-free vertices closed under every
    simple reflection r_j(v) = v - (Cv)_j e_j at a loop-free j, raising or
    lowering, that keeps v inside [0, box]."""
    n = q.n_vertices
    c = cartan_matrix(q)
    free = [j for j in range(n) if c[j][j] == 2]
    found = {tuple(int(i == j) for i in range(n)) for j in free if box[j] >= 1}
    frontier = list(found)
    while frontier:
        v = frontier.pop()
        for j in free:
            w = list(v)
            w[j] -= sum(c[j][k] * v[k] for k in range(n))
            w = tuple(w)
            if w not in found and all(0 <= x <= b for x, b in zip(w, box)):
                found.add(w)
                frontier.append(w)
    return [sorted(r for r in found if max(r) == b) for b in range(1, max(box, default=0) + 1)]


def tubes_from_every_root(q):
    """The exceptional tubes of a tame acyclic quiver, from every real root
    below delta: the roots of defect 0 are grouped into Coxeter orbits, an
    orbit that leaves that set is dropped, and the orbits whose members sum
    to delta are the tubes, sorted as find_tubes sorts them."""
    delta = classify_graph(q).delta
    n = q.n_vertices
    e_delta = [sum(a * x for a, x in zip(row, delta)) for row in euler_matrix(q)]
    cands = {e for e in positive_real_roots(q, delta)
             if sum(a * x for a, x in zip(e, e_delta)) == 0}
    cox = coxeter_matrix(q)
    tubes = []
    unvisited = set(cands)
    while unvisited:
        start = min(unvisited)
        orbit = [start]
        cur = cox.apply(start)
        while cur != start:
            if cur not in cands:
                orbit = None
                break
            orbit.append(cur)
            cur = cox.apply(cur)
            if len(orbit) > len(cands):
                raise RuntimeError("Coxeter orbit failed to close")
        if orbit is None:
            unvisited.discard(start)
            continue
        unvisited.difference_update(orbit)
        if tuple(sum(v[i] for v in orbit) for i in range(n)) == delta:
            lo = orbit.index(min(orbit))
            tubes.append(Tube(tuple(orbit[lo:] + orbit[:lo]), len(orbit)))
    tubes.sort(key=lambda t: (-t.period, t.simples[0]))
    return tubes


def ext_digraph_certificate(ext, route):
    """The homogeneity certificate from a pairwise ext-nonvanishing table in
    three stages: a topological order of the ext digraph (quasihomogeneous
    when the parts are rigid, on the concrete route), else its first sink
    as the second group, else a scan of all 2-groupings for
    ext(G2, G1) = 0."""
    k = len(ext)
    rigid = not any(ext[i][i] for i in range(k))
    # Topological order of "i must come after j when ext[i][j] != 0".
    order = topological_order([[j for j in range(k) if j != i and ext[i][j]]
                               for i in range(k)])
    acyclic = order is not None
    if acyclic and rigid and route == "concrete":
        return HomogeneityCertificate("quasihomogeneous", ordering=tuple(order),
                                      route=route)
    if acyclic:
        # A sink of the ext digraph has no nonzero ext into the rest.
        for i in range(k):
            if not any(ext[i][j] for j in range(k) if j != i):
                rest = tuple(j for j in range(k) if j != i)
                return HomogeneityCertificate("weakly", grouping=(rest, (i,)),
                                              route=route)
    # Last resort: scan all 2-groupings for ext(G2, G1) = 0.
    return weak_grouping_scan(ext, route)


def weak_grouping_scan(ext, route):
    """saito._weak_grouping by a scan of all 2^k bitmasks of G2: the first
    2-grouping (G1, G2) with ext(G2, G1) = 0, or none_found."""
    k = len(ext)
    for mask in range(1, 2 ** k - 1):
        g2 = [i for i in range(k) if mask >> i & 1]
        g1 = [i for i in range(k) if not mask >> i & 1]
        if not any(ext[b][a] for b in g2 for a in g1):
            return HomogeneityCertificate("weakly", grouping=(tuple(g1), tuple(g2)),
                                          route=route)
    return HomogeneityCertificate("none_found", route=route)
