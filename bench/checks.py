"""Output checks that do not copy the program's output.

Everything in the first half is the benchmark's own arithmetic: integer
forms of a quiver given as vertex-index arrows, a Saito matrix assembled
from its definition, determinants, interpolation and a squarefree test
over F_p. The checkers in the second half hold each workload's output to
those computations, to properties fixed in advance (degree = dim Rep for
Dynkin roots, tube periods by affine type), or to the program's answer at a
second prime with a fresh seed. A checker raises Mismatch on a wrong output.
"""

from __future__ import annotations

import json

# A prime below 2^31 other than the program's default 2^31 - 1.
SECOND_PRIME = 2147483629


class Mismatch(AssertionError):
    """An output that contradicts the benchmark's own computation."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# -- integer forms on vertex-index arrows --------------------------------------------


def euler_form(arrows, m, n) -> int:
    return (sum(a * b for a, b in zip(m, n))
            - sum(m[s] * n[t] for s, t in arrows))


def tits(arrows, d) -> int:
    return euler_form(arrows, d, d)


def rep_dim(arrows, d) -> int:
    return sum(d[s] * d[t] for s, t in arrows)


def kills_cartan(arrows, delta) -> bool:
    """(delta, e_i) = 0 for every vertex i, i.e. delta spans the radical."""
    return all(euler_form(arrows, delta, e) + euler_form(arrows, e, delta) == 0
               for e in _units(len(delta)))


def _units(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def reflect_dim(arrows, k, d):
    """r_k(d): d_k becomes the sum over arrows at k of the far end, minus d_k."""
    far = sum(d[t if s == k else s] for s, t in arrows if k in (s, t))
    return tuple(far - x if i == k else x for i, x in enumerate(d))


def stage_count(n_vertices, arrows) -> int:
    """Levels of the grading h(target) = h(source) + 1 on a connected tree."""
    h = {0: 0}
    work = [0]
    while work:
        v = work.pop()
        for s, t in arrows:
            for a, b, step in ((s, t, 1), (t, s, -1)):
                if a == v and b not in h:
                    h[b] = h[v] + step
                    work.append(b)
    if len(h) != n_vertices:
        raise Mismatch("quiver is not connected")
    if any(h[t] != h[s] + 1 for s, t in arrows):
        raise Mismatch("no arrow-increasing grading")
    return max(h.values()) - min(h.values()) + 1


def real_roots(n_vertices, arrows, box):
    """Positive real roots with entries <= box: units closed under reflections."""
    units = _units(n_vertices)
    found = set(units)
    frontier = list(found)
    while frontier:
        v = frontier.pop()
        for k, e in enumerate(units):
            pairing = euler_form(arrows, v, e) + euler_form(arrows, e, v)
            w = tuple(x - pairing * (i == k) for i, x in enumerate(v))
            if w not in found and all(0 <= x <= box for x in w):
                found.add(w)
                frontier.append(w)
    return sorted(found)


# -- arithmetic over F_p ---------------------------------------------------------------


def det_mod(rows, p) -> int:
    """Determinant mod p by Gaussian elimination on a copy of the rows."""
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                row_c = m[c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], row_c)]
    return det % p


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def lagrange(xs, ys, p):
    """Coefficients (low to high) of the polynomial through (xs, ys) mod p."""
    n = len(xs)
    master = [1]
    for x in xs:  # prod (t - x)
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - x * c) % p
        master = nxt
    out = [0] * n
    for xi, yi in zip(xs, ys):
        # master / (t - xi) by synthetic division, high to low
        quot = [0] * n
        carry = 0
        for i in range(n, 0, -1):
            carry = (master[i] + carry * xi) % p
            quot[i - 1] = carry
        denom = 1
        for xj in xs:
            if xj != xi:
                denom = denom * (xi - xj) % p
        scale = yi * pow(denom, p - 2, p) % p
        for i in range(n):
            out[i] = (out[i] + scale * quot[i]) % p
    return _trim(out)


def _poly_mod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        _trim(a)
    return a


def is_squarefree_mod(coeffs, p) -> bool:
    """gcd(f, f') is a constant; needs p > deg f."""
    f = _trim(list(coeffs))
    if len(f) <= 2:
        return bool(f)
    if p <= len(f) - 1:
        raise ValueError("prime too small for the derivative test")
    a, b = f, _trim([i * c % p for i, c in enumerate(f)][1:])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return len(a) == 1


# -- the Saito matrix from its definition --------------------------------------------------


def saito_rows(n_vertices, arrows, d, x):
    """Numeric Saito matrix at the point x (one d_t x d_s matrix per arrow).

    Row for the matrix unit E_rc at vertex v: the coordinates of
    (A_t x_a - x_a A_s)_a with A = E_rc at v and 0 elsewhere, each block
    flattened column-major. The scalars act trivially, so one diagonal unit
    is dropped; this drops the first one of the first vertex, where the
    program drops the last one of the last vertex, and orders rows its own
    way: the two determinants differ by a nonzero constant factor.
    """
    rows = []
    for v in range(n_vertices):
        for r0 in range(d[v]):
            for c0 in range(d[v]):
                if v == 0 and r0 == c0 == 0:
                    continue
                row = []
                for (s, t), xa in zip(arrows, x):
                    for c in range(d[s]):
                        for r in range(d[t]):
                            val = 0
                            if t == v and r == r0:
                                val += xa[c0][c]
                            if s == v and c == c0:
                                val -= xa[r][r0]
                            row.append(val)
                rows.append(row)
    return rows


def _point(arrows, d, coords):
    """Split a flat coordinate vector into arrow matrices, column-major."""
    out, pos = [], 0
    for s, t in arrows:
        rows, cols = d[t], d[s]
        mat = [[0] * cols for _ in range(rows)]
        for c in range(cols):
            for r in range(rows):
                mat[r][c] = coords[pos]
                pos += 1
        out.append(mat)
    return out


def saito_line_poly(n_vertices, arrows, d, p, rng):
    """f restricted to a random line a + t b, recovered from n + 1 values."""
    n = rep_dim(arrows, d)
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    xs = list(range(n + 1))
    ys = []
    for t in xs:
        coords = [(ai + t * bi) % p for ai, bi in zip(a, b)]
        ys.append(det_mod(saito_rows(n_vertices, arrows, d,
                                     _point(arrows, d, coords)), p))
    return lagrange(xs, ys, p)


def support(arrows, d):
    """The full subquiver on the vertices where d is nonzero, reindexed."""
    keep = [i for i, x in enumerate(d) if x]
    index = {v: i for i, v in enumerate(keep)}
    return ([(index[s], index[t]) for s, t in arrows if s in index and t in index],
            tuple(d[v] for v in keep))


def own_reducedness(arrows, d, p, rng):
    """(degree, squarefree) of f on a random line, all in this module."""
    arrows, d = support(arrows, d)
    f = saito_line_poly(len(d), arrows, d, p, rng)
    return len(f) - 1, is_squarefree_mod(f, p)


# -- checkers ------------------------------------------------------------------------------


def check_linear_free(pair, summary):
    """A Dynkin root (or a pair known to be linear free): verdict and degree."""
    verdict, degree, q_value, dim_rep, _ = summary
    n = rep_dim(pair.arrows, pair.d)
    expect(n == sum(x * x for x in pair.d) - 1, f"{pair.label}: not square")
    expect(verdict == "linear_free", f"{pair.label}: verdict {verdict}")
    expect(degree == n and dim_rep == n, f"{pair.label}: degree {degree} != {n}")
    expect(q_value == tits(pair.arrows, pair.d) == 1, f"{pair.label}: q_value {q_value}")


def check_not_reduced(pair, summary, recheck):
    """A pair with a non-reduced Saito determinant, confirmed at a second prime.

    recheck(prime, seed) runs the verdict again. The answer is known in
    advance: a leaf whose dimension k >= 2 equals its neighbour's lacks the
    dimension-one shape a degenerate vertex of a linear free pair must have.
    """
    verdict, _, q_value, _, reasons = summary
    expect(verdict == "not_linear_free", f"{pair.label}: verdict {verdict}")
    expect(q_value == tits(pair.arrows, pair.d) == 1, f"{pair.label}: q_value {q_value}")
    expect(any("not reduced" in r for r in reasons), f"{pair.label}: reasons {reasons}")
    again = recheck(SECOND_PRIME, pair.seed + 1)
    expect(again == "not_linear_free", f"{pair.label}: {again} at {SECOND_PRIME}")


def check_own_verdict(pair, verdict, rng):
    """The benchmark's own Saito determinant on a line at a second prime."""
    n = rep_dim(pair.arrows, pair.d)
    degree, squarefree = own_reducedness(pair.arrows, pair.d, SECOND_PRIME, rng)
    expect(degree == n, f"{pair.label}: own line degree {degree} != {n}")
    mine = "linear_free" if squarefree else "not_linear_free"
    expect(mine == verdict, f"{pair.label}: own test says {mine}, program {verdict}")


def check_degrees(pair, report, probe):
    """Component degrees: count, sum, per-invariant degree and product = f.

    probe(vectors, side, top_degree) evaluates, at a second prime, each
    relative invariant on a fresh line and returns the measured degrees,
    then the product of the invariants and f at fresh points.
    """
    expect(report.get("certified") is True, f"{pair.label}: not certified")
    degrees = report["degrees"]
    vectors = [tuple(v) for v in report["vectors"]]
    k = len(pair.d) - 1
    n = rep_dim(pair.arrows, pair.d)
    expect(len(degrees) == k, f"{pair.label}: {len(degrees)} degrees, want {k}")
    expect(sum(degrees) == n, f"{pair.label}: degrees sum {sum(degrees)} != {n}")
    side = report["side"]
    for m in vectors:
        pairing = (euler_form(pair.arrows, m, pair.d) if side == "left"
                   else euler_form(pair.arrows, pair.d, m))
        expect(pairing == 0, f"{pair.label}: {m} not orthogonal on the {side}")
    measured, products, fvalues = probe(vectors, side, max(degrees))
    # report["degrees"] is sorted; pair each vector with its own degree.
    expect(sorted(measured) == sorted(degrees),
           f"{pair.label}: line degrees {sorted(measured)} != {degrees}")
    p = SECOND_PRIME
    expect(all(products) and all(fvalues), f"{pair.label}: a zero at a fresh point")
    expect(all(fvalues[0] * pj % p == fj * products[0] % p
               for pj, fj in zip(products, fvalues)),
           f"{pair.label}: product of invariants not proportional to f")
    if pair.expect is not None:
        expect(degrees == pair.expect, f"{pair.label}: degrees {degrees} != {pair.expect}")


def check_cli(inv, out):
    """One CLI invocation, (exit code, stdout, stderr), against properties
    recomputed here."""
    code, stdout, stderr = out
    report = json.loads(stdout) if stdout.strip() else None
    label = inv.label
    if inv.command == "error":
        expect(code == 1 and report is None, f"{label}: exit {code}")
        line = stderr.strip().splitlines()
        expect(len(line) == 1 and "error" in json.loads(line[0]),
               f"{label}: stderr {stderr!r}")
        return
    expect(code == 0, f"{label}: exit {code}")
    arrows, d = inv.arrows, inv.d
    if inv.command == "analyze":
        expect(report["graph_class"]["kind"] == inv.kind, f"{label}: class")
        if d is not None:
            expect(report["q_value"] == tits(arrows, d), f"{label}: q_value")
            expect(report["dim_rep"] == rep_dim(arrows, d), f"{label}: dim_rep")
        if inv.kind == "tame":
            expect(tuple(report["delta"]) == inv.delta, f"{label}: delta")
            expect(kills_cartan(arrows, inv.delta), f"{label}: delta not radical")
    elif inv.command == "tubes":
        periods = report["periods"]
        expect(sorted(periods, reverse=True) == list(inv.periods),
               f"{label}: periods {periods} != {list(inv.periods)}")
        expect(sum(x - 1 for x in periods) == len(inv.delta) - 2,
               f"{label}: sum of (period - 1)")
        for tube in report["tubes"]:
            total = tuple(map(sum, zip(*tube["simples"])))
            expect(total == inv.delta, f"{label}: simples sum {total}")
            expect(len(tube["simples"]) == tube["period"], f"{label}: tube size")
    elif inv.command == "normal-form":
        after = report["after"]
        a_arrows, a_d = _index_form(after)
        expect(stage_count(len(a_d), a_arrows) <= 2, f"{label}: more than 2 stages")
        expect(report["stage_count"] <= 2, f"{label}: stage_count")
        expect(tits(a_arrows, a_d) == tits(arrows, d), f"{label}: Tits value moved")
    elif inv.command == "reflect":
        a_arrows, a_d = _index_form(report["after"])
        k = inv.vertex
        expect(a_d == reflect_dim(arrows, k, d), f"{label}: reflected dim {a_d}")
        flipped = [(t, s) if k in (s, t) else (s, t) for s, t in arrows]
        expect(a_arrows == flipped, f"{label}: arrows at the vertex not reversed")
        expect(tits(a_arrows, a_d) == tits(arrows, d), f"{label}: Tits value moved")
    elif inv.command == "split":
        m, n = inv.split
        want = euler_form(arrows, m, n) != euler_form(arrows, n, m)
        expect(report["euler_witness"] is want, f"{label}: euler_witness")
    elif inv.command == "parts":
        expect(tuple(map(sum, zip(*inv.parts))) == d, f"{label}: parts sum")
        expect(report["certificate"] == "weakly" and report["route"] == "tube",
               f"{label}: certificate {report.get('certificate')}")
        groups = report["grouping"]
        expect(sorted(i for g in groups for i in g) == list(range(len(inv.parts)))
               and all(groups), f"{label}: grouping {groups}")
    else:
        raise Mismatch(f"{label}: unknown command {inv.command}")


def _index_form(qjson):
    index = {v: i for i, v in enumerate(qjson["vertices"])}
    arrows = [(index[s], index[t]) for s, t in qjson["arrows"]]
    d = tuple(qjson["dim"][v] for v in qjson["vertices"])
    return arrows, d
