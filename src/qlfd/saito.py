"""The discriminant machinery.

The square matrix of linear forms induced by the infinitesimal group action
on the representation space ("Saito matrix"): its determinant cuts out the
discriminant, and the divisor is linear free exactly when that determinant
is reduced of degree equal to the ambient dimension. This module builds the
matrix, evaluates and line-restricts the determinant over prime fields,
tests reducedness (exactly from det N when the matrix is N diag(x), as for
a thin dimension vector, else on random lines), derives component degrees
from characters against the stage grading, and issues homogeneity
certificates.

f is only defined up to a nonzero scalar (any complement of the scalars in
the product of general linear algebras works). Component degrees never
compare f with products of relative invariants as polynomials: f and each
invariant are semi-invariants, fixed up to a scalar by their characters, so
a product is certified against f by an exact sum of integer characters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import Config
from .errors import (DisconnectedQuiver, NonSquare, NotSincere,
                     PrimeTooSmall, QuiverInputError)
from .fields import GF
from .matrix import LinearPencil
from .poly import UnivariatePoly
from .quiver import (Quiver, check_dim, classify_graph, euler_form,
                     euler_matrix, is_positive, is_sincere, is_tree,
                     rep_dimension, stages, support_pair, tits_form,
                     topological_order)
from .reps import (Representation, SchurVerdict, build_c_matrix, coord_offsets,
                   coords_from_rep, hom_ext, is_schur_root, perp_candidates)


# -- the Saito matrix ------------------------------------------------------------------


class SaitoMatrix:
    """Rows: matrix-unit basis of gl(Q,d) modulo scalars; columns: coordinates.

    Entry (A, j) is the j-th coordinate of the linear vector field induced
    by the basis element A, i.e. of x -> (A_t x_a - x_a A_s)_a, so the matrix
    is a linear pencil in the coordinates: M(x) is c(x, x) transposed,
    without the row of the dropped basis element (see reps.build_c_matrix).
    The dropped basis element is the last diagonal unit of the last vertex;
    any other complement of the scalars changes the determinant by a
    nonzero constant.
    """

    def __init__(self, quiver, dim, row_labels, pencil: LinearPencil):
        self.quiver = quiver
        self.dim = dim
        self.row_labels = row_labels
        self.pencil = pencil
        self.n = pencil.n

    def det_at(self, xvec, field):
        if len(xvec) != self.n:
            raise QuiverInputError("coordinate vector has wrong length")
        return self.pencil.det(xvec, field)


def build_saito_matrix(q: Quiver, d) -> SaitoMatrix:
    """Saito matrix of (q, d); square requires q_Q(d) = 1, d sincere."""
    d = check_dim(q, d)
    if not q.is_connected():
        raise DisconnectedQuiver("Saito matrix needs a connected quiver")
    if not is_sincere(d):
        raise NotSincere("dimension vector must be sincere")
    n_rep = rep_dimension(q, d)
    n_pgl = sum(x * x for x in d) - 1
    if n_rep != n_pgl:
        raise NonSquare(
            f"dim Rep = {n_rep} but dim pgl = {n_pgl}; q_Q(d) = {tits_form(q, d)} != 1")
    offs, total = coord_offsets(q, d)
    labels = []
    for vi, v in enumerate(q.vertices):
        for c0 in range(d[vi]):
            for r0 in range(d[vi]):
                labels.append((v, r0, c0))
    labels.pop()  # drop the last diagonal unit of the last vertex
    arrows = q.arrow_indices()
    terms = {}  # (row, col, coord) -> coefficient
    for i, (v, r0, c0) in enumerate(labels):
        vi = q.vertex_index(v)
        for ai, (s, t) in enumerate(arrows):
            off = offs[ai]
            if t == vi:
                for c in range(d[s]):
                    key = (i, off + c * d[t] + r0, off + c * d[t] + c0)
                    terms[key] = terms.get(key, 0) + 1
            if s == vi:
                for r in range(d[t]):
                    key = (i, off + c0 * d[t] + r, off + r0 * d[t] + r)
                    terms[key] = terms.get(key, 0) - 1
    pencil = LinearPencil(total, [(*key, c) for key, c in sorted(terms.items()) if c])
    return SaitoMatrix(q, d, tuple(labels), pencil)


def evaluate_f(s: SaitoMatrix, point):
    """Exact determinant of the Saito matrix at a representation point."""
    if isinstance(point, Representation):
        if point.quiver != s.quiver or point.dim != s.dim:
            raise QuiverInputError("point does not match the Saito matrix shape")
        xvec = coords_from_rep(point)
        return s.det_at(xvec, point.field)
    raise QuiverInputError("expected a Representation")


# -- reducedness ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReducednessVerdict:
    value: str          # "reduced" | "not_reduced" | "identically_zero"
    trials: int
    primes: tuple
    seed: int
    witness_prime: int = None
    degree: int = None
    anchor_trial: int = None  # 1-based trial with the first nonsingular anchor
    anchor: tuple = None      # that anchor a + s b mod the trial's prime;
                              # (1, ..., 1) on a column-scaled pencil

    def to_json(self):
        out = {"verdict": self.value, "trials": self.trials,
               "primes": list(self.primes), "seed": self.seed}
        if self.witness_prime is not None:
            out["witness_prime"] = self.witness_prime
        if self.degree is not None:
            out["degree"] = self.degree
        return out


def reducedness_test(s: SaitoMatrix, trials: int = 3, primes=None,
                     seed: int = 12345) -> ReducednessVerdict:
    """Probabilistic reducedness of f via random affine lines over F_p,
    exact on column-scaled pencils.

    Each trial draws a line a + t b and reads the restriction of f to it off
    one start point in one pass (LinearPencil.det_line: one elimination and
    a Danilevsky characteristic polynomial mod p), then tests degree-n
    squarefreeness. The determinant has integer coefficients, so a single
    squarefree degree-n restriction is a sound certificate of reducedness.
    The verdict is not_reduced when no trial certifies, and
    identically_zero when the restriction vanished identically in every
    trial.

    det_line needs a start where M is nonsingular, so the start moves along
    the line to a + s b for s = 0 ... n until M(a + s b) is nonsingular. The
    restriction read from there is g(t + s) for the restriction g read from
    a, which has the same degree and is squarefree exactly when g is. As
    p > n, a restriction that is not identically zero is nonzero at one of
    the n + 1 starts. The first nonsingular start is reported with its
    trial as the anchor. M(x) has sum d_i^2 - 1 rows and rank
    sum d_i^2 - dim End(x): its rows are the images A.x of a basis of gl(d)
    without one diagonal unit, and that unit's image is minus the sum of
    the other diagonal units' images, as the identity lies in End(x). So
    the anchor is a brick over F_p: a nonzero determinant mod p makes f
    nonzero over the integers, and d a Schur root.

    A pencil whose every term sits in its own coordinate's column is
    column-scaled: M(x) = N diag(x) with N = M(1, ..., 1), so
    f = det N * prod_j x_j. The Saito pencil of a thin d (every entry of the
    support 1, as for the normal crossing divisor) is one, since every
    arrow block is 1 x 1; so is the empty pencil, with det N = 1. Such a
    pencil draws no line: each trial takes det N mod p. N has integer
    entries, so det N != 0 mod p proves det N != 0, and f, a nonzero
    integer times n distinct coordinates, is reduced of degree n. As
    M(1, ..., 1) = N is then nonsingular mod p, (1, ..., 1) is the anchor,
    at that trial. When p divides det N, f and every line vanish mod p,
    and the next trial runs.
    """
    if primes is None:
        primes = (2**31 - 1,)
    primes = tuple(primes)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not primes:
        raise ValueError("primes must not be empty")
    n = s.n
    terms = s.pencil.terms
    scaled = bool((terms[:, 1] == terms[:, 2]).all())
    rng = random.Random(seed)
    anchor_trial = anchor = None
    for trial in range(trials):
        p = primes[trial % len(primes)]
        if p <= n:
            raise PrimeTooSmall(f"prime {p} <= degree {n}")
        fld = GF(p)
        if scaled:
            if s.pencil.det((1,) * n, fld):
                return ReducednessVerdict("reduced", trial + 1, primes, seed,
                                          witness_prime=p, degree=n,
                                          anchor_trial=trial + 1, anchor=(1,) * n)
            continue
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


# -- relative invariants and component degrees ----------------------------------------


def _weights(q: Quiver, d, vectors, side: str):
    """Characters and degrees of the relative invariants c^m, one row per m.

    The character is E m (right side) or -E^t m (left side); pairing it
    against the stage grading h (normalized to min 0) through the dimension
    vector gives the degree: sum_i h(i) d_i chi_i.
    """
    e = np.array(euler_matrix(q), dtype=np.int64)
    m = np.array(vectors, dtype=np.int64).reshape(len(vectors), q.n_vertices)
    chi = m @ e.T if side == "right" else -(m @ e)
    h = stages(q).h
    grading = np.array([h[v] * d[i] for i, v in enumerate(q.vertices)],
                       dtype=np.int64)
    return chi, chi @ grading


def relative_invariant_det(q: Quiver, d, m_rep: Representation, side: str):
    """Evaluator x -> det c(x, m_rep) (right side) or det c(m_rep, x) (left
    side) at points x of Rep(q, d); its degree is read off _weights.

    The c-matrix is square exactly under the Euler orthogonality of the
    side, which is checked.
    """
    d = check_dim(q, d)
    if m_rep.quiver != q:
        raise QuiverInputError("representations live on different quivers")
    m = m_rep.dim
    if side == "right":
        if euler_form(q, d, m) != 0:
            raise NonSquare("<d, dim M> must vanish for the right invariant")
    elif side == "left":
        if euler_form(q, m, d) != 0:
            raise NonSquare("<dim M, d> must vanish for the left invariant")
    else:
        raise QuiverInputError("side must be 'left' or 'right'")

    def evaluator(point: Representation):
        if point.quiver != q or point.dim != d or point.field != m_rep.field:
            raise QuiverInputError("point does not match the invariant's shape")
        pair = (point, m_rep) if side == "right" else (m_rep, point)
        return build_c_matrix(*pair).det()

    return evaluator


def degree_sum_check(degrees, subset_size: int, target: int, limit: int = 100000):
    """Index subsets of the given size whose degrees sum to the target.

    Depth-first over the degrees in descending order, taking each before
    skipping it; an explicit stack keeps long candidate lists clear of the
    recursion limit. At most `limit` subsets are returned.
    """
    order = sorted(range(len(degrees)), key=lambda i: -degrees[i])
    vals = [degrees[i] for i in order]
    n = len(vals)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[i]
    out = []
    stack = [(0, (), 0)]
    while stack and len(out) < limit:
        i, chosen, acc = stack.pop()
        need = subset_size - len(chosen)
        if need == 0:
            if acc == target:
                out.append(tuple(sorted(order[j] for j in chosen)))
            continue
        # the `need` largest and the `need` smallest remaining values bound
        # every completion
        if (n - i < need or acc + suffix[i] - suffix[i + need] < target
                or acc + suffix[n - need] > target):
            continue
        stack.append((i + 1, chosen, acc))
        stack.append((i + 1, chosen + (i,), acc + vals[i]))
    return out


def component_degrees_report(q: Quiver, d, config: Config) -> dict:
    """Certified component degrees of the discriminant of (q, d).

    Pipeline: sample a brick x of dimension d with is_schur_root (so
    f(x) != 0 and Rep(q, d) is prehomogeneous; no Saito matrix is built),
    take orthogonal real-root candidates e, each with a nonzero relative
    invariant c^e (perp_candidates), and attach to each its character chi_e
    and degree (_weights). Then search
    (#vertices - 1)-subsets whose degrees sum to dim Rep, and certify a
    subset exactly when its characters sum to chi_f = (E - E^t) d, the
    character of the Saito determinant f. The semi-invariants of one
    character on a prehomogeneous space span at most one dimension (Sato
    and Kimura 1977), so the product of the subset's invariants is a
    nonzero multiple of f. Distinct candidates have distinct characters,
    since det E = 1, and positive degrees, since a nonzero semi-invariant
    of nonzero character is a nonconstant homogeneous polynomial.
    Non-unique certified degree multisets are flagged. With one vertex
    (d = (1), f = 1) there is no component: the empty subset certifies, as
    the empty product is 1 and chi_f = 0.

    The certificate does not depend on where the candidates came from, so
    the root box grows: on the left side, then on the right, for
    b = 1 ... entry_bound the roots whose largest entry is b are tested,
    and the search stops at the first box b that certifies, reported as
    `search_bound`. The left side is searched through the whole box before
    the right side is tried. `candidates_considered` and
    `subsets_certified` count only the certified side within box b. When f
    is reduced, its components are the only certified subset, so the report
    is that of a search of the whole box; on a non-reduced f a larger box
    can certify further subsets.
    """
    d = check_dim(q, d)
    report = {"certified": False, "provenance": config.provenance()}
    if not is_sincere(d):
        q, d = support_pair(q, d)
        report["support_restricted"] = True
    if not is_tree(q):
        report["reason"] = "component degrees need a connected tree quiver"
        return report
    qval = tits_form(q, d)
    if qval != 1:
        report["reason"] = f"q_Q(d) = {qval} != 1"
        return report
    field = config.field()
    rng = config.rng()
    n = rep_dimension(q, d)
    k_target = q.n_vertices - 1
    report["dim_rep"] = n
    report["expected_components"] = k_target

    schur = is_schur_root(q, d, config.trials, field, rng)
    if schur.value != "yes":
        report["reason"] = "Schur sampling inconclusive"
        return report

    from .roots import root_layers
    fresh = root_layers(q, config.entry_bound)
    layers = []  # listed once, on the left side, and reused on the right
    e = np.array(euler_matrix(q), dtype=np.int64)
    chi_f = (e - e.T) @ np.array(d, dtype=np.int64)

    for side in ("left", "right"):
        vectors = []
        for b in range(1, config.entry_bound + 1):
            if len(layers) < b:
                layers.append(next(fresh))
            found = perp_candidates(q, d, layers[b - 1], side, schur.witness,
                                    config.trials, field, rng)
            if not found and k_target:
                continue  # with no component to find, the empty subset certifies
            vectors = sorted(vectors + found)
            chi, degrees = _weights(q, d, vectors, side)
            degrees = degrees.tolist()
            certified = [ss for ss in degree_sum_check(degrees, k_target, n)
                         if (chi[list(ss)].sum(axis=0) == chi_f).all()]
            if certified:
                multisets = {tuple(sorted(degrees[i] for i in ss)) for ss in certified}
                first = certified[0]
                report.update({
                    "certified": True,
                    "side": side,
                    "degrees": sorted(degrees[i] for i in first),
                    "vectors": [list(vectors[i]) for i in first],
                    "subsets_certified": len(certified),
                    "unique_multiset": len(multisets) == 1,
                    "candidates_considered": len(vectors),
                    "search_bound": b,
                })
                return report
    report["reason"] = "no subset of candidate degrees certified against f"
    return report


# -- homogeneity certificates ----------------------------------------------------------


def euler_homogeneity_witness(q: Quiver, d, split) -> bool:
    """A split d = m + n with <m,n> != <n,m> witnesses an Euler vector field."""
    d = check_dim(q, d)
    m, n = split
    m = check_dim(q, m)
    n = check_dim(q, n)
    if tuple(a + b for a, b in zip(m, n)) != d:
        raise QuiverInputError("split does not sum to d")
    if not (is_positive(m) and is_positive(n)):
        raise QuiverInputError("both split parts must be positive")
    return euler_form(q, m, n) != euler_form(q, n, m)


@dataclass(frozen=True)
class HomogeneityCertificate:
    value: str  # "quasihomogeneous" | "weakly" | "none_found"
    ordering: tuple = None   # part indices, earliest first
    grouping: tuple = None   # (first group, second group) of part indices
    route: str = None        # "concrete" | "tube"
    note: str = None

    def to_json(self):
        out = {"certificate": self.value}
        if self.ordering is not None:
            out["ordering"] = list(self.ordering)
        if self.grouping is not None:
            out["grouping"] = [list(g) for g in self.grouping]
        if self.route:
            out["route"] = self.route
        if self.note:
            out["note"] = self.note
        return out


def _weak_grouping(ext, route) -> HomogeneityCertificate:
    """The first 2-grouping (G1, G2), in bitmask order of G2, with
    ext(G2, G1) = 0, where ext[i][j] says Ext(part i, part j) != 0.

    Such a G2 is closed under i -> j for ext[i][j], so with each of its
    parts it holds that part's closure, whose bitmask is no larger. The
    first G2 is thus the proper closure of one part with the smallest
    bitmask. On an acyclic ext digraph that is G2 = {s} for the lowest-index
    sink s.
    """
    k = len(ext)
    masks = []
    for i in range(k):
        closure, todo = {i}, [i]
        while todo:
            row = ext[todo.pop()]
            new = {j for j in range(k) if row[j]} - closure
            closure |= new
            todo += new
        if len(closure) < k:
            masks.append(sum(1 << j for j in closure))
    if not masks:
        return HomogeneityCertificate("none_found", route=route)
    mask = min(masks)
    g2 = tuple(i for i in range(k) if mask >> i & 1)
    g1 = tuple(i for i in range(k) if not mask >> i & 1)
    return HomogeneityCertificate("weakly", grouping=(g1, g2), route=route)


def quasihom_certificate(q: Quiver, d, parts,
                         part_reps=None) -> HomogeneityCertificate:
    """Quasihomogeneity certificate for a point with the given decomposition.

    Whether Ext(part i, part j) vanishes is read from concrete
    representations of the parts (exact Hom/Ext, route "concrete") or,
    without them, from the tube combinatorics of tame regular parts located
    inside the exceptional tubes (route "tube"). On the concrete route,
    rigid parts whose ext digraph (i -> j when Ext(part i, part j) != 0) is
    acyclic are certified quasihomogeneous by a topological order. Every
    other case gets the weak certificate of _weak_grouping: the first
    2-grouping (G1, G2), in bitmask order of G2, with ext(G2, G1) = 0. On an
    acyclic ext digraph that grouping has only the lowest-index sink in G2.
    """
    d = check_dim(q, d)
    parts = [check_dim(q, m) for m in parts]
    if not all(map(is_positive, parts)):
        raise QuiverInputError("every part must be positive")
    total = tuple(sum(m[i] for m in parts) for i in range(q.n_vertices))
    if total != d:
        raise QuiverInputError("parts do not sum to d")
    if len(parts) < 2:
        return HomogeneityCertificate("none_found",
                                      note="need at least two parts")
    k = len(parts)
    if part_reps is not None:
        if len(part_reps) != k or any(
                r.dim != m for r, m in zip(part_reps, parts)):
            raise QuiverInputError("part representations do not match parts")
        ext = [[hom_ext(part_reps[i], part_reps[j]).ext > 0 for j in range(k)]
               for i in range(k)]
        if not any(ext[i][i] for i in range(k)):
            # i must come after j when ext[i][j] != 0
            order = topological_order([[j for j in range(k) if j != i and ext[i][j]]
                                       for i in range(k)])
            if order is not None:
                return HomogeneityCertificate("quasihomogeneous",
                                              ordering=tuple(order), route="concrete")
        return _weak_grouping(ext, "concrete")

    # Tube route on dimension vectors.
    from .roots import _tubes, tube_ext_nonzero
    gc = classify_graph(q)
    if gc.kind != "tame":
        return HomogeneityCertificate(
            "none_found", note="no representations given and quiver not tame")
    tubes = _tubes(q, gc)
    located = []
    for m in parts:
        hits = []
        for ti, t in enumerate(tubes):
            for slot in range(t.period):
                for length in range(1, t.period):
                    if t.part_dim(slot, length) == m:
                        hits.append((ti, slot, length))
        if len(hits) != 1:
            return HomogeneityCertificate(
                "none_found",
                note=f"part {m} not uniquely a regular brick "
                     f"({len(hits)} tube matches)")
        located.append(hits[0])
    ext = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            ti, si, ri = located[i]
            tj, sj, rj = located[j]
            if ti == tj:
                ext[i][j] = tube_ext_nonzero(tubes[ti], (si, ri), (sj, rj))
    return _weak_grouping(ext, "tube")


# -- the top-level verdict ---------------------------------------------------------------


@dataclass(frozen=True)
class LfdReport:
    verdict: str  # "linear_free" | "not_linear_free" | "inconclusive"
    q_value: int = None
    dim_rep: int = None
    degree: int = None
    schur: object = None
    reduced: object = None
    reasons: tuple = ()
    method: tuple = ()
    provenance: dict = dc_field(default_factory=dict)

    def to_json(self):
        out = {"verdict": self.verdict,
               "q_value": self.q_value,
               "dim_rep": self.dim_rep,
               "degree": self.degree,
               "reasons": list(self.reasons),
               "method": list(self.method),
               "provenance": dict(self.provenance)}
        out["schur"] = self.schur.to_json() if self.schur else None
        out["reduced"] = self.reduced.to_json() if self.reduced else None
        return out


def lfd_verdict(q: Quiver, d, config: Config = None) -> LfdReport:
    """Full decision pipeline: does (q, d) define a linear free divisor?

    Checks, in order: positivity, support restriction for non-sincere d,
    connectedness, the tree obstruction, q_Q(d) = 1 (squareness of the
    Saito matrix), then the line test of reducedness_test, which decides
    both remaining conditions. Its first nonsingular anchor is a brick, so
    the Schur verdict is "yes" with that anchor's trial as its trial count;
    when no line has a nonsingular anchor no brick was found, and the
    report is inconclusive with the whole trial budget spent. Otherwise f
    is nonzero and the verdict is whether a line certified it reduced. The
    minimal-degeneration condition is discharged through reducedness of f,
    never enumerated; reports record that method.
    """
    config = config or Config()
    d0 = check_dim(q, d)
    method = ["minimal_degenerations_via_reducedness"]
    reasons = []
    prov = config.provenance()
    if not is_positive(d0):
        return LfdReport("not_linear_free", reasons=("dimension vector not positive",),
                         provenance=prov)
    if not is_sincere(d0):
        q, d = support_pair(q, d0)
        method.append("support_restriction")
    else:
        d = d0
    if not q.is_connected():
        return LfdReport("not_linear_free",
                         reasons=("support of d is disconnected",),
                         method=tuple(method), provenance=prov)
    qval = tits_form(q, d)
    n = rep_dimension(q, d)
    tree = is_tree(q)
    if not tree:
        reasons.append("quiver has a cycle (not a tree)")
    if qval != 1:
        reasons.append(f"q_Q(d) = {qval} != 1 (Saito matrix not square)")
    if reasons:
        return LfdReport("not_linear_free", q_value=qval, dim_rep=n,
                         reasons=tuple(reasons), method=tuple(method),
                         provenance=prov)
    red = reducedness_test(build_saito_matrix(q, d), trials=config.trials,
                           primes=(config.prime,), seed=config.seed)
    if red.anchor_trial is None:
        return LfdReport("inconclusive", q_value=qval, dim_rep=n,
                         schur=SchurVerdict("inconclusive", config.trials),
                         reasons=("Schur sampling found no brick",),
                         method=tuple(method), provenance=prov)
    schur = SchurVerdict("yes", red.anchor_trial)
    method.append("reducedness_via_random_line_restriction")
    if red.value == "reduced":
        return LfdReport("linear_free", q_value=qval, dim_rep=n, degree=n,
                         schur=schur, reduced=red, method=tuple(method),
                         provenance=prov)
    return LfdReport("not_linear_free", q_value=qval, dim_rep=n, degree=n,
                     schur=schur, reduced=red,
                     reasons=("Saito determinant is not reduced",),
                     method=tuple(method), provenance=prov)
