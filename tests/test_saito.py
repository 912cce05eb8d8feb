import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlfd.saito
from qlfd import (GF, Quiver, build_saito_matrix, component_degrees_report, degree_sum_check,
                  euler_form, euler_homogeneity_witness, evaluate_f,
                  find_tubes, lfd_verdict, quiver_from_json,
                  quasihom_certificate, reducedness_test,
                  relative_invariant_det, sample_representation,
                  stages, tits_form)
from qlfd.config import Config
from qlfd.errors import NonSquare, NotSincere, PrimeTooSmall, QuiverInputError
from qlfd.matrix import LinearPencil
from qlfd.quiver import euler_matrix, rep_dimension
from qlfd.reps import (HomExtReport, Representation, SchurVerdict, build_c_matrix,
                       coords_from_rep, is_brick, rep_from_coords)
from qlfd.roots import positive_real_roots
from qlfd.saito import SaitoMatrix, _weak_grouping

from conftest import (E7_JSON, a2, a3, cycle, d4_in, d4_out, kronecker,
                      random_tree_quiver)
from oracle import (MultiPoly, bareiss_det, component_degree, expand_f_symbolic,
                    ext_digraph_certificate, full_box_degrees, product,
                    quadratic_gram_rank, reducedness_reference,
                    single_coordinate_basis_check)

F = GF(2**31 - 1)
CFG = Config()


def test_saito_a2():
    s = build_saito_matrix(a2(), (1, 1))
    assert s.n == 1
    assert len(s.pencil.terms) == 1
    row, col, idx, coeff = s.pencil.terms[0]
    assert (row, col, idx) == (0, 0, 0) and coeff in (1, -1)
    point = rep_from_coords(a2(), (1, 1), [5], F)
    assert evaluate_f(s, point) in (5, F.p - 5)


def test_saito_nonsquare_on_cycle():
    with pytest.raises(NonSquare):
        build_saito_matrix(cycle(3), (1, 1, 1))


def test_saito_not_sincere():
    with pytest.raises(NotSincere):
        build_saito_matrix(a2(), (1, 0))


def test_f_vanishes_at_origin():
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    origin = rep_from_coords(d4_in(), (1, 1, 1, 2), [0] * 6, F)
    assert evaluate_f(s, origin) == 0


def test_f_homogeneous_of_degree_n():
    rng = random.Random(0)
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    for _ in range(5):
        x = [rng.randrange(F.p) for _ in range(6)]
        lam = rng.randrange(2, F.p)
        lhs = s.det_at([lam * xi % F.p for xi in x], F)
        rhs = pow(lam, s.n, F.p) * s.det_at(x, F) % F.p
        assert lhs == rhs


def test_relative_invariance_of_f():
    # f(g.x) = unit(g) f(x): check with diagonal group elements at two points.
    rng = random.Random(1)
    q = d4_in()
    d = (1, 1, 1, 2)
    s = build_saito_matrix(q, d)
    gs = [[rng.randrange(1, F.p) for _ in range(k)] for k in d]

    def act(coords):
        rep = rep_from_coords(q, d, coords, F)
        out = []
        for ai, (si, ti) in enumerate(q.arrow_indices()):
            m = rep.mats[ai]
            for c in range(m.ncols):
                for r in range(m.nrows):
                    out.append(m.rows[r][c] * gs[ti][r] % F.p
                               * pow(gs[si][c], F.p - 2, F.p) % F.p)
        return out

    units = set()
    for _ in range(3):
        x = [rng.randrange(F.p) for _ in range(6)]
        fx = s.det_at(x, F)
        if fx == 0:
            continue
        units.add(s.det_at(act(x), F) * pow(fx, F.p - 2, F.p) % F.p)
    assert len(units) == 1


def test_reducedness_small_cases():
    assert reducedness_test(build_saito_matrix(a3(), (1, 1, 1)),
                            3, (CFG.prime,), 0).value == "reduced"
    assert reducedness_test(build_saito_matrix(d4_in(), (1, 1, 1, 2)),
                            3, (CFG.prime,), 0).value == "reduced"


def test_reducedness_negative_controls():
    # Square Schur cases on non-trees: the determinant exists but is not
    # reduced (tree obstruction seen analytically).
    for q, d in ((kronecker(), (2, 1)),
                 (Quiver(("1", "2"), (("1", "2"),) * 3), (3, 1))):
        assert tits_form(q, d) == 1
        s = build_saito_matrix(q, d)
        assert reducedness_test(s, 3, (CFG.prime,), 0).value == "not_reduced"


def test_reducedness_identically_zero():
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    terms = s.pencil.terms
    dead = SaitoMatrix(s.quiver, s.dim, s.row_labels,
                       LinearPencil(s.n, terms[terms[:, 0] != 0]))
    assert reducedness_test(dead, 3, (CFG.prime,), 0).value == "identically_zero"


def test_reducedness_rejects_an_empty_budget():
    # no verdict, identically_zero least of all, without one trial
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            reducedness_test(s, trials, (CFG.prime,), 0)
    with pytest.raises(ValueError, match="primes"):
        reducedness_test(s, 3, (), 0)
    assert reducedness_test(s, 1, None, 0).value == "reduced"


def test_single_coordinate_check():
    for q, d in ((a2(), (1, 1)), (d4_in(), (1, 1, 1, 2)),
                 (a3(), (1, 1, 1)), (d4_out(), (1, 1, 1, 2))):
        assert single_coordinate_basis_check(build_saito_matrix(q, d))
    s = build_saito_matrix(a3(), (1, 1, 1))
    terms = s.pencil.terms
    kept = terms[(terms[:, 0] != 0) | (terms[:, 1] != 0)]
    broken = SaitoMatrix(  # cell (0, 0) becomes x_0 + x_1
        s.quiver, s.dim, s.row_labels,
        LinearPencil(s.n, [(0, 0, 0, 1), (0, 0, 1, 1), *kept]))
    assert not single_coordinate_basis_check(broken)


def test_saito_loop_cells_hold_two_coordinates():
    # A3 with a loop at 2: q_Q(d) = 1, and some Saito cells sum two coordinates.
    q = Quiver(("1", "2", "3"), (("1", "2"), ("2", "2"), ("2", "3")))
    d = (2, 4, 5)
    s = build_saito_matrix(q, d)
    assert tits_form(q, d) == 1 and s.n == 44
    cells = Counter(map(tuple, s.pencil.terms[:, :2].tolist()))
    assert sorted(Counter(cells.values()).items()) == [(1, 320), (2, 12)]
    rng = random.Random(4)
    for _ in range(3):
        x = [rng.randrange(-50, 50) for _ in range(s.n)]
        over_z = np.zeros((s.n, s.n), dtype=object)
        for i, j, k, c in s.pencil.terms.tolist():
            over_z[i, j] += c * x[k]
        assert (s.pencil.at(x, F) == over_z % F.p).all()
        assert s.pencil.det(x, F) == int(bareiss_det(over_z)) % F.p
    assert reducedness_test(s, 3, (CFG.prime,), 0).value == "identically_zero"
    assert not single_coordinate_basis_check(s)


def _check_saito_is_transposed_c(q, d, field, rng):
    # M(x) is c(x, x) transposed, without the row of the dropped diagonal
    # unit: the identity behind the brick at the line test's anchor
    s = build_saito_matrix(q, d)
    for _ in range(3):
        x = sample_representation(q, d, field, rng)
        m = s.pencil.at(coords_from_rep(x), field)
        assert (m == build_c_matrix(x, x).a.T[:-1]).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       field=st.sampled_from([GF(7), F]))
def test_saito_matrix_is_transposed_c_on_trees(seed, field):
    rng = random.Random(seed)
    q, d = _sincere_root(rng, rng.randint(2, 5), 3)
    _check_saito_is_transposed_c(q, d, field, rng)


@pytest.mark.parametrize("field", [GF(7), F, GF(101)])
def test_saito_matrix_is_transposed_c_with_a_loop(field):
    q = Quiver(("1", "2", "3"), (("1", "2"), ("2", "2"), ("2", "3")))
    _check_saito_is_transposed_c(q, (2, 4, 5), field, random.Random(6))


def test_lfd_verdicts():
    assert lfd_verdict(a2(), (1, 1), CFG).verdict == "linear_free"
    assert lfd_verdict(a2(), (1, 1), CFG).degree == 1
    rep = lfd_verdict(cycle(3), (1, 1, 1), CFG)
    assert rep.verdict == "not_linear_free"
    assert any("tree" in r for r in rep.reasons)
    assert any("q_Q" in r for r in rep.reasons)


def test_lfd_support_restriction():
    # non-sincere root: the verdict restricts to the support subquiver
    rep = lfd_verdict(a3(), (1, 1, 0), CFG)
    assert rep.verdict == "linear_free"
    assert "support_restriction" in rep.method


def test_lfd_zero_dimension_vector():
    assert lfd_verdict(a3(), (0, 0, 0), CFG).to_json() == {
        "verdict": "not_linear_free", "q_value": None, "dim_rep": None,
        "degree": None, "reasons": ["dimension vector not positive"], "method": [],
        "provenance": CFG.provenance(), "schur": None, "reduced": None}


def test_lfd_report_provenance():
    rep = lfd_verdict(d4_in(), (1, 1, 1, 2), CFG)
    assert rep.verdict == "linear_free"
    assert rep.provenance == {"prime": CFG.prime, "seed": CFG.seed,
                              "trials": CFG.trials}
    data = rep.to_json()
    assert data["reduced"]["seed"] == CFG.seed
    assert data["schur"]["trials"] >= 1


# -- component degrees -----------------------------------------------------------


def test_component_degree_normal_crossing_chain():
    q = a3((1, 1))
    d = (1, 1, 1)
    # left-orthogonal unit vectors give coordinate hyperplanes of degree 1
    for e in ((1, 0, 0), (0, 1, 0)):
        if euler_form(q, e, d) == 0:
            assert component_degree(q, d, e, "left") == 1


def test_component_degree_orthogonality_enforced():
    with pytest.raises(QuiverInputError):
        component_degree(a2(), (1, 1), (1, 0), "right")


def test_component_degree_bipartite_reduction():
    # On a bipartite quiver the degree is the plain top-stage pairing.
    q = d4_in()
    d = (1, 1, 1, 2)
    st = stages(q)
    top = [q.vertex_index(v) for v in st.levels[1]]
    from qlfd.quiver import euler_matrix
    e = euler_matrix(q)
    for m in ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)):
        if euler_form(q, d, m) != 0:
            continue
        chi = [sum(e[i][j] * m[j] for j in range(4)) for i in range(4)]
        pairing = sum(d[i] * m[i] for i in top)
        assert component_degree(q, d, m, "right") == pairing
        assert pairing == sum(d[i] * chi[i] for i in top)


def test_degrees_report_restricts_to_the_support():
    assert component_degrees_report(a3((1, 1)), (1, 1, 0), CFG) == {
        "certified": True, "provenance": CFG.provenance(), "support_restricted": True,
        "dim_rep": 1, "expected_components": 1, "side": "left", "degrees": [1],
        "vectors": [[1, 0]], "subsets_certified": 1, "unique_multiset": True,
        "candidates_considered": 1, "search_bound": 1}


def test_degrees_report_needs_q_value_one():
    assert component_degrees_report(a3((1, 1)), (1, 2, 1), CFG) == {
        "certified": False, "provenance": CFG.provenance(),
        "reason": "q_Q(d) = 2 != 1"}


def test_degrees_report_without_a_brick():
    # a real root of this star that is not a Schur root: no sample is a brick
    q = Quiver(tuple("12345"), (("2", "1"), ("3", "2"), ("2", "4"), ("2", "5")))
    assert component_degrees_report(q, (2, 3, 1, 1, 1), CFG) == {
        "certified": False, "provenance": CFG.provenance(), "dim_rep": 15,
        "expected_components": 4, "reason": "Schur sampling inconclusive"}


def test_degrees_report_box_too_small():
    # the certified components need a root entry of 2
    q = Quiver(tuple("123456"), (("2", "1"), ("3", "2"), ("2", "4"), ("3", "5"),
                                 ("2", "6")))
    d = (1, 3, 1, 2, 1, 2)
    config = Config(entry_bound=1)
    assert component_degrees_report(q, d, config) == {
        "certified": False, "provenance": config.provenance(), "dim_rep": 19,
        "expected_components": 5,
        "reason": "no subset of candidate degrees certified against f"}
    assert component_degrees_report(q, d, Config(entry_bound=2))["certified"]


def test_degree_sum_check():
    assert degree_sum_check([1], 1, 1) == [(0,)]
    assert degree_sum_check([2, 2, 2], 3, 6) == [(0, 1, 2)]
    assert degree_sum_check([2, 2, 2], 3, 7) == []


def test_degree_sum_check_beyond_recursion_limit():
    # more candidates than the interpreter's recursion limit has frames
    n = sys.getrecursionlimit() + 10
    assert degree_sum_check([1] * n, 1, 1) == [(i,) for i in range(n)]
    assert degree_sum_check([1] * n, 1, 1, limit=5) == [(i,) for i in range(5)]
    assert degree_sum_check([2] * n + [1], 2, 3) == [(i, n) for i in range(n)]


def test_component_degrees_d4():
    report = component_degrees_report(d4_in(), (1, 1, 1, 2), CFG)
    assert report["certified"]
    assert report["degrees"] == [2, 2, 2]
    assert sum(report["degrees"]) == report["dim_rep"] == 6
    assert report["unique_multiset"]


def test_degrees_at_small_primes():
    # A4, d = (1, 1, 1, 1): f = x1 x2 x3. Characters are exact integers, so
    # the three degree-1 components are certified even at p = 3
    q = Quiver(("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4")))
    for prime in (3, 5):
        report = component_degrees_report(q, (1, 1, 1, 1), Config(prime=prime))
        assert report["certified"] and report["degrees"] == [1, 1, 1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_growing_box_matches_full_box_search(seed):
    # Left is searched through the whole box before right, so the side is
    # that of the full-box search, and the certified subset is one the full
    # box certifies too. When f is reduced its components are the only
    # certified subset, so the box the search stops at cannot change it.
    rng = random.Random(seed)
    q, d = _sincere_root(rng, rng.randint(2, 5), 3)
    config = Config(entry_bound=4)
    report = component_degrees_report(q, d, config)
    ref = full_box_degrees(q, d, config)
    assert report["certified"] == ref["certified"]
    if not ref["certified"]:
        return
    assert report["side"] == ref["side"]
    assert report["vectors"] in ref["subsets"]
    assert 1 <= report["search_bound"] <= config.entry_bound
    assert all(max(m) <= report["search_bound"] for m in report["vectors"])
    if lfd_verdict(q, d, config).verdict == "linear_free":
        assert len(ref["subsets"]) == 1
        assert report["degrees"] == ref["degrees"]
        assert report["vectors"] == ref["vectors"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_vertices=st.integers(min_value=1, max_value=8), data=st.data())
def test_weight_of_f_pairs_to_dim_rep(seed, n_vertices, data):
    # The identity the degree certificate rests on: the character of f,
    # chi_f(i) = sum_{j->i} d_j - sum_{i->j} d_j = ((E - E^t) d)_i, paired
    # with the stage grading through d gives deg f = dim Rep(d).
    q = random_tree_quiver(random.Random(seed), n_vertices)
    d = data.draw(st.lists(st.integers(min_value=1, max_value=5),
                           min_size=n_vertices, max_size=n_vertices))
    chi_f = [0] * n_vertices
    for src, tgt in q.arrow_indices():
        chi_f[tgt] += d[src]
        chi_f[src] -= d[tgt]
    e = euler_matrix(q)
    assert chi_f == [sum((e[i][j] - e[j][i]) * d[j] for j in range(n_vertices))
                     for i in range(n_vertices)]
    h = stages(q).h
    assert (sum(h[v] * d[i] * chi_f[i] for i, v in enumerate(q.vertices))
            == rep_dimension(q, d))


def test_relative_invariant_a2():
    rng = random.Random(2)
    q = a2()
    source_simple = rep_from_coords(
        Quiver(("1", "2"), (("1", "2"),)), (1, 0), [], F)
    ev = relative_invariant_det(q, (1, 1), source_simple, "left")
    for val in (3, 11):
        point = rep_from_coords(q, (1, 1), [val], F)
        assert ev(point) in (val, F.p - val)


def test_relative_invariant_nonsquare():
    sink_simple = rep_from_coords(a2(), (0, 1), [], F)
    with pytest.raises(NonSquare):
        relative_invariant_det(a2(), (1, 1), sink_simple, "left")


PRODUCT_CASES = {
    "d4": lambda: (d4_in(), (1, 1, 1, 2)),
    "e7": lambda: quiver_from_json(E7_JSON),
    # q = 1 pairs on random trees: D5, E6, and a tame D~5 and a wild tree
    # whose f is not reduced; the character identity holds all the same
    "tree-0-5": lambda: _sincere_root(random.Random(0), 5, 3),
    "tree-8-6": lambda: _sincere_root(random.Random(8), 6, 3),
    "tree-2-6": lambda: _sincere_root(random.Random(2), 6, 3),
    "tree-0-6": lambda: _sincere_root(random.Random(0), 6, 3),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_relative_invariant_product_matches_f(case):
    # The degrees report certifies its vectors by characters alone; their
    # invariants, sampled afresh at a second prime, multiply to f up to a
    # unit at fresh points.
    q, d = PRODUCT_CASES[case]()
    report = component_degrees_report(q, d, CFG)
    assert report["certified"]
    field = GF(2147483629)
    rng = random.Random(3)
    evs = [relative_invariant_det(q, d, sample_representation(q, tuple(m), field, rng),
                                  report["side"])
           for m in report["vectors"]]
    s = build_saito_matrix(q, d)
    n = rep_dimension(q, d)
    units = set()
    for _ in range(4):
        coords = [rng.randrange(field.p) for _ in range(n)]
        point = rep_from_coords(q, d, coords, field)
        fx = s.det_at(coords, field)
        px = 1
        for ev in evs:
            px = px * ev(point) % field.p
        assert fx != 0 and px != 0
        units.add(px * pow(fx, -1, field.p) % field.p)
    assert len(units) == 1


def test_invariant_pencil_matches_c_matrix():
    # the relative invariant at x equals the oracle's det c(x, M) (right) or
    # det c(M, x) (left), mod p.
    rng = random.Random(5)
    q = d4_in()
    d = (1, 1, 1, 2)
    for field in (F, GF(7)):
        for side in ("left", "right"):
            # the orthogonal roots of d on that side
            vectors = {"left": ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)),
                       "right": ((0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1))}[side]
            for m in vectors:
                m_rep = sample_representation(q, m, field, rng)
                ev = relative_invariant_det(q, d, m_rep, side)
                for _ in range(4):
                    x = [field.random(rng) for _ in range(6)]
                    point = rep_from_coords(q, d, x, field)
                    pair = (point, m_rep) if side == "right" else (m_rep, point)
                    det = bareiss_det(build_c_matrix(*pair).a)
                    assert ev(point) == int(det) % field.p


# -- symbolic oracle ---------------------------------------------------------------


def minor(i, j, k, l, n):
    a = MultiPoly.coordinate(i, n).mul(MultiPoly.coordinate(l, n))
    b = MultiPoly.coordinate(j, n).mul(MultiPoly.coordinate(k, n))
    return a.sub(b)


def test_d4_symbolic_factorization():
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    f = expand_f_symbolic(s)
    assert f.total_degree() == 6 and f.is_homogeneous()
    factors = [minor(0, 1, 2, 3, 6), minor(0, 1, 4, 5, 6), minor(2, 3, 4, 5, 6)]
    assert f.proportional_to(product(factors, 6))
    for fac in factors:
        assert quadratic_gram_rank(fac) >= 3  # irreducible quadratics
    # pairwise non-proportional, so the product is squarefree
    for i in range(3):
        for j in range(i + 1, 3):
            assert not factors[i].proportional_to(factors[j])


def test_expand_gate():
    e7 = Quiver(("1", "2", "3", "4", "5", "6", "7", "8"),
                (("1", "2"), ("2", "3"), ("3", "4"), ("5", "4"),
                 ("6", "5"), ("7", "6"), ("8", "4")))
    s = build_saito_matrix(e7, (1, 2, 2, 3, 2, 2, 1, 1))
    with pytest.raises(ValueError):
        expand_f_symbolic(s, expand_limit=8)


# -- homogeneity --------------------------------------------------------------------


def test_euler_witness_a2():
    assert euler_homogeneity_witness(a2(), (1, 1), ((1, 0), (0, 1)))


def test_euler_witness_symmetric_split_false():
    q = kronecker()
    assert not euler_homogeneity_witness(q, (2, 2), ((1, 1), (1, 1)))


def test_euler_witness_swap_symmetric():
    q = d4_in()
    d = (1, 1, 1, 2)
    m, n = (1, 0, 0, 1), (0, 1, 1, 1)
    assert (euler_homogeneity_witness(q, d, (m, n))
            == euler_homogeneity_witness(q, d, (n, m)))


def test_euler_witness_bad_split():
    with pytest.raises(QuiverInputError):
        euler_homogeneity_witness(a2(), (1, 1), ((1, 0), (1, 0)))


def test_quasihom_concrete_dynkin():
    # zero point of A2 decomposes into the two simples; ordering certifies
    q = a2()
    s1 = rep_from_coords(q, (1, 0), [], F)
    s2 = rep_from_coords(q, (0, 1), [], F)
    cert = quasihom_certificate(q, (1, 1), [(1, 0), (0, 1)],
                                part_reps=[s1, s2])
    # S2 must come before S1 in the ordering (ext(S1, S2) is nonzero)
    assert cert.to_json() == {"certificate": "quasihomogeneous", "ordering": [1, 0],
                              "route": "concrete"}


def test_quasihom_single_part():
    cert = quasihom_certificate(a2(), (1, 1), [(1, 1)])
    assert cert.value == "none_found"


def test_quasihom_concrete_three_parts():
    # the zero point of the A3 chain splits into the three simples; the
    # depth ordering S3, S2, S1 kills all non-inverted extensions
    q = a3((1, 1))
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    reps = [rep_from_coords(q, u, [0] * sum(u[s] * u[t]
                                            for s, t in q.arrow_indices()), F)
            for u in units]
    cert = quasihom_certificate(q, (1, 1, 1), units, part_reps=reps)
    assert cert.value == "quasihomogeneous"
    assert cert.ordering == (2, 1, 0)


def test_reducedness_prime_too_small():
    from qlfd.errors import PrimeTooSmall
    s = build_saito_matrix(d4_in(), (1, 1, 1, 2))
    with pytest.raises(PrimeTooSmall):
        reducedness_test(s, 1, (5,), 0)


def test_quasihom_tube_route(e7_pair):
    q7, d7 = e7_pair
    t3 = next(t for t in find_tubes(q7) if t.period == 3)
    # d7 is the sum of two consecutive simples in the period-3 tube
    found = None
    for slot in range(3):
        part_a = t3.part_dim(slot, 1)
        part_b = t3.part_dim((slot + 1) % 3, 1)
        if tuple(x + y for x, y in zip(part_a, part_b)) == d7:
            found = (part_a, part_b)
            break
    assert found is not None
    cert = quasihom_certificate(q7, d7, list(found))
    assert cert.value == "weakly"
    assert cert.route == "tube"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_weak_grouping_matches_three_stage_oracle(data):
    k = data.draw(st.integers(min_value=2, max_value=6))
    ext = data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                             min_size=k, max_size=k))
    if data.draw(st.booleans()):
        # keep only the edges i -> j with i after j in a random order: acyclic
        rank = {v: r for r, v in enumerate(data.draw(st.permutations(range(k))))}
        ext = [[x and (i == j or rank[i] > rank[j]) for j, x in enumerate(row)]
               for i, row in enumerate(ext)]
    assert _weak_grouping(ext, "tube") == ext_digraph_certificate(ext, "tube")
    # the concrete route, with Ext read off the table
    q = Quiver(("1",), ())
    reps = [Representation(q, (1,), (), F) for _ in range(k)]
    index = {id(r): i for i, r in enumerate(reps)}

    def table_hom_ext(m, n):
        return HomExtReport(0, int(ext[index[id(m)]][index[id(n)]]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlfd.saito, "hom_ext", table_hom_ext)
        cert = quasihom_certificate(q, (k,), [(1,)] * k, part_reps=reps)
    assert cert == ext_digraph_certificate(ext, "concrete")


def test_quasihom_parts_mismatch():
    with pytest.raises(QuiverInputError):
        quasihom_certificate(a2(), (1, 1), [(1, 0), (1, 0)])


# -- the Schur test on the Saito matrix ------------------------------------------------


def _sincere_root(rng, n_vertices, bound):
    """A random tree quiver and a sincere positive real root on it. The
    all-ones vector is always one: q(1, ..., 1) = #vertices - #arrows = 1."""
    q = random_tree_quiver(rng, n_vertices)
    roots = sorted(e for e in positive_real_roots(q, bound) if all(e))
    return q, rng.choice(roots)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.sampled_from([3, 5, 2**31 - 1]))
def test_brick_iff_saito_det_nonzero(seed, p):
    # rank M(x) = sum d_i^2 - dim End(x), so x is a brick iff det M(x) != 0
    rng = random.Random(seed)
    q, d = _sincere_root(rng, rng.randint(2, 5), 3)
    s = build_saito_matrix(q, d)
    field = GF(p)
    for _ in range(8):
        rep = sample_representation(q, d, field, rng)
        assert is_brick(rep) == (s.det_at(coords_from_rep(rep), field) != 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       trials=st.integers(min_value=1, max_value=4))
def test_schur_trials_match_brick_loop_at_p3(seed, trials):
    rng = random.Random(seed)
    q, d = _sincere_root(rng, rng.randint(2, 4), 2)
    config = Config(prime=3, seed=seed, trials=trials)
    if rep_dimension(q, d) >= 3:
        # the line test needs p > dim Rep, whatever the Schur draws would say
        with pytest.raises(PrimeTooSmall):
            lfd_verdict(q, d, config)
        return
    report = lfd_verdict(q, d, config)
    if report.reduced is None:  # no line had a nonsingular anchor
        assert report.schur == SchurVerdict("inconclusive", trials)
    else:
        assert report.schur == SchurVerdict("yes", report.reduced.anchor_trial)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.sampled_from([5, 101, 2**31 - 1]),
       trials=st.integers(min_value=1, max_value=4))
def test_line_anchor_is_a_brick(seed, p, trials):
    # rank M(x) = sum d_i^2 - dim End(x): the nonsingular anchor of the line
    # test is a brick, the Schur witness that lfd reports
    rng = random.Random(seed)
    q = random_tree_quiver(rng, rng.randint(2, 5))
    # the all-ones root has dim Rep = #vertices - 1 < 5
    roots = sorted(e for e in positive_real_roots(q, 3)
                   if all(e) and rep_dimension(q, e) < p)
    d = rng.choice(roots)
    s = build_saito_matrix(q, d)
    field = GF(p)
    red = reducedness_test(s, trials=trials, primes=(p,), seed=seed)
    if red.anchor_trial is None:
        assert red.value == "identically_zero" and red.anchor is None
        return
    assert 1 <= red.anchor_trial <= red.trials
    assert all(0 <= x < p for x in red.anchor)
    assert is_brick(rep_from_coords(q, d, red.anchor, field))
    assert s.det_at(red.anchor, field) != 0
    # replaying the line draws, the anchor is the first start a + s b,
    # s <= n, where M is nonsingular, on the first line that has one
    draw = random.Random(seed)
    firsts = []
    for _ in range(red.anchor_trial):
        a = [draw.randrange(p) for _ in range(s.n)]
        b = [draw.randrange(p) for _ in range(s.n)]
        if not any(b):
            b[0] = 1
        starts = (tuple((x + k * y) % p for x, y in zip(a, b)) for k in range(s.n + 1))
        firsts.append(next((x for x in starts if s.det_at(x, field)), None))
    assert firsts == [None] * (red.anchor_trial - 1) + [red.anchor]


def _column_scaled_pencil(rng, n, p):
    """A random pencil N diag(x) on n coordinates. Some coefficients are
    multiples of p, and some cells hold their coordinate twice, so det N is
    often 0 mod p; every cell sum stays within int64 for p < 2^31."""
    coeffs = (-2, -1, 1, 2, p, -p)
    terms = [(r, c, c, rng.choice(coeffs)) for r in range(n) for c in range(n)
             if rng.random() < 0.6]
    terms += [(r, c, c, rng.choice(coeffs)) for r, c, _, _ in
              rng.sample(terms, min(len(terms), 2))]
    return SaitoMatrix(None, None, (), LinearPencil(n, terms))


def _line_branches(s, red):
    """What decided each line that the line test read, replayed from its
    draws with det N taken over the integers."""
    n = s.n
    ones = np.zeros((n, n), dtype=object)
    for i, j, _, c in s.pencil.terms.tolist():
        ones[i, j] += c
    det_n = int(bareiss_det(ones.tolist()))
    draw = random.Random(red.seed)
    for trial in range(red.trials):
        p = red.primes[trial % len(red.primes)]
        a = [draw.randrange(p) for _ in range(n)]
        b = [draw.randrange(p) for _ in range(n)]
        if not any(b):
            b[0] = 1
        if det_n % p == 0:
            yield "det N = 0"
        elif not any(all((x + k * y) % p for x, y in zip(a, b)) for k in range(n + 1)):
            yield "no nonsingular shift"
        elif not all(b):
            yield "zero b_j"
        elif len({x * pow(y, -1, p) % p for x, y in zip(a, b)}) < n:
            yield "repeated ratio"
        else:
            yield "certified"


def test_factored_lines_match_the_kernel_path():
    # on a column-scaled pencil every line is read off its linear factors;
    # the kernel path reaches the same verdict, trial count, witness prime,
    # degree and anchor, on every branch of the factored reading
    taken = Counter()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           primes=st.lists(st.sampled_from([3, 5, 7, 11, 13, 2**31 - 1]),
                           min_size=1, max_size=2),
           trials=st.integers(min_value=1, max_value=4),
           tree=st.booleans())
    def agree(seed, primes, trials, tree):
        rng = random.Random(seed)
        top = min(min(primes) - 1, 6)  # the line test needs p > n
        if tree:
            q = random_tree_quiver(rng, rng.randint(2, top + 1))
            s = build_saito_matrix(q, (1,) * q.n_vertices)
        else:
            s = _column_scaled_pencil(rng, rng.randint(1, top), primes[0])
        assert (s.pencil.terms[:, 1] == s.pencil.terms[:, 2]).all()
        red = reducedness_test(s, trials, primes, seed)
        assert red == reducedness_reference(s, trials, primes, seed)
        taken.update(_line_branches(s, red))

    agree()
    assert set(taken) == {"det N = 0", "no nonsingular shift", "zero b_j",
                          "repeated ratio", "certified"}, taken
