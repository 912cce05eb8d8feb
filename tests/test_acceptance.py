"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either frozen from an independent
oracle in this file or is an exact integer fixed in advance.
"""

import random
import time

from qlfd import (GF, Quiver, build_saito_matrix, classify_graph,
                  component_degrees_report, euler_form,
                  find_tubes, hom_ext, is_schur_root, lfd_verdict,
                  positive_real_roots, quiver_from_json, reducedness_test,
                  rep_dimension, sample_representation,
                  single_coordinate_basis_check, tits_form)
from qlfd.config import Config
from qlfd.reflections import reflect_pair
from qlfd.quiver import is_sincere

from conftest import (DYNKIN_SHAPES, E7_JSON, E8_JSON, a2, a3,
                      all_orientations, cycle, d4_in, d4_out, kronecker,
                      random_tree_quiver, small_lfd_corpus)
from oracle import MultiPoly, expand_f_symbolic, product, quadratic_gram_rank

CFG = Config()
F = GF(CFG.prime)


def passline(num, msg):
    print(f"ACCEPTANCE {num}: PASS - {msg}")


def test_acceptance_1_e7_example():
    t0 = time.time()
    q, d = quiver_from_json(E7_JSON)
    assert rep_dimension(q, d) == 27
    assert tits_form(q, d) == 1
    verdict = lfd_verdict(q, d, CFG)
    assert verdict.verdict == "linear_free"
    assert verdict.degree == 27
    report = component_degrees_report(q, d, CFG)
    assert report["certified"]
    assert report["degrees"] == [2, 2, 3, 3, 5, 5, 7]
    elapsed = time.time() - t0
    assert elapsed < 30
    passline(1, f"affine E7 pair: dim 27, q=1, linear_free, degrees "
                f"{report['degrees']} in {elapsed:.1f}s")


def test_acceptance_2_e8_example():
    t0 = time.time()
    q, d = quiver_from_json(E8_JSON)
    assert rep_dimension(q, d) == 87
    verdict = lfd_verdict(q, d, CFG)
    assert verdict.verdict == "linear_free"
    assert verdict.degree == 87
    report = component_degrees_report(q, d, CFG)
    assert report["certified"]
    assert report["degrees"] == sorted([4, 5, 11, 11, 13, 11, 14, 18])
    elapsed = time.time() - t0
    assert elapsed < 300
    passline(2, f"affine E8 pair: dim 87, linear_free, degrees "
                f"{report['degrees']} in {elapsed:.1f}s")


def test_acceptance_3_tube_periods():
    t0 = time.time()
    expected = {"e7": [4, 3, 2], "e8": [5, 3, 2]}
    for key, data in (("e7", E7_JSON), ("e8", E8_JSON)):
        q, _ = quiver_from_json(data)
        delta = classify_graph(q).delta
        tubes = find_tubes(q)
        assert [t.period for t in tubes] == expected[key]
        assert all(t.delta == delta for t in tubes)
    elapsed = time.time() - t0
    assert elapsed < 10
    passline(3, f"tube periods 4,3,2 and 5,3,2 with simple sums delta "
                f"in {elapsed:.1f}s")


def test_acceptance_4_dynkin_sweep():
    t0 = time.time()
    cases = 0
    for name, (vertices, edges) in DYNKIN_SHAPES.items():
        for q in all_orientations(vertices, edges):
            assert classify_graph(q).kind == "dynkin"
            for root in positive_real_roots(q, 6):
                assert tits_form(q, root) == 1
                verdict = lfd_verdict(q, root, CFG)
                assert verdict.verdict == "linear_free", (name, q.arrows, root)
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    passline(4, f"{cases} (orientation, root) Dynkin cases of rank <= 5 "
                f"all linear_free in {elapsed:.1f}s")


def test_acceptance_5_cycle_obstruction():
    corpus = [
        (cycle(3), (1, 1, 1)),
        (cycle(3), (1, 2, 1)),
        (cycle(4), (1, 1, 1, 1)),
        (cycle(4, oriented=False), (1, 2, 1, 2)),
        (kronecker(), (1, 1)),
        (kronecker(), (2, 1)),
        (Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3"))),
         (1, 1, 1)),
        (Quiver(("1", "2", "3", "4"),
                (("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"))),
         (1, 1, 1, 1)),
    ]
    for q, d in corpus:
        rep = lfd_verdict(q, d, CFG)
        assert rep.verdict == "not_linear_free"
        assert any("tree" in r or "q_Q" in r for r in rep.reasons)
    passline(5, f"{len(corpus)} cyclic pairs all not_linear_free with "
                f"tree or squareness reason")


def _coordinate(i):
    return lambda n: MultiPoly.coordinate(i, n)


def _minor(i, j, k, l):
    def build(n):
        a = MultiPoly.coordinate(i, n).mul(MultiPoly.coordinate(l, n))
        b = MultiPoly.coordinate(j, n).mul(MultiPoly.coordinate(k, n))
        return a.sub(b)
    return build


SMALL_CASES = [
    ("A2", a2(), (1, 1), [_coordinate(0)]),
    ("A3->->", a3((1, 1)), (1, 1, 1), [_coordinate(0), _coordinate(1)]),
    ("A3-><-", a3((1, 0)), (1, 1, 1), [_coordinate(0), _coordinate(1)]),
    ("A3<-->", a3((0, 1)), (1, 1, 1), [_coordinate(0), _coordinate(1)]),
    ("A3<-<-", a3((0, 0)), (1, 1, 1), [_coordinate(0), _coordinate(1)]),
    ("D4in", d4_in(), (1, 1, 1, 2),
     [_minor(0, 1, 2, 3), _minor(0, 1, 4, 5), _minor(2, 3, 4, 5)]),
    ("D4out", d4_out(), (1, 1, 1, 2),
     [_minor(0, 1, 2, 3), _minor(0, 1, 4, 5), _minor(2, 3, 4, 5)]),
]


def test_acceptance_6_small_case_oracle():
    for name, q, d, factor_builders in SMALL_CASES:
        s = build_saito_matrix(q, d)
        n = s.n
        assert n <= 8
        # Exact side: full expansion, verified factorization, exact
        # squarefreeness via distinct irreducible factors.
        f = expand_f_symbolic(s)
        factors = [build(n) for build in factor_builders]
        assert f.is_homogeneous() and f.total_degree() == n, name
        assert f.proportional_to(product(factors, n)), name
        for fac in factors:
            deg = fac.total_degree()
            assert deg in (1, 2)
            if deg == 2:
                assert quadratic_gram_rank(fac) >= 3, name
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert not factors[i].proportional_to(factors[j]), name
        exact_degrees = sorted(fac.total_degree() for fac in factors)
        # Probabilistic side must agree exactly.
        red = reducedness_test(s, CFG.trials, (CFG.prime,), CFG.seed)
        assert red.value == "reduced", name
        report = component_degrees_report(q, d, CFG)
        assert report["certified"], name
        assert report["degrees"] == exact_degrees, name
    passline(6, f"{len(SMALL_CASES)} small cases: probabilistic verdicts "
                f"match full symbolic expansion and factorization")


def _random_schur_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        q = random_tree_quiver(rng, rng.randint(3, 5))
        roots = [r for r in positive_real_roots(q, 3)
                 if is_sincere(r) and sum(r) > q.n_vertices - 1]
        rng.shuffle(roots)
        for root in roots[:2]:
            if is_schur_root(q, root, 3, F, rng).value == "yes":
                pairs.append((q, root))
                if len(pairs) >= count:
                    break
    return pairs


def test_acceptance_7_reflection_invariance():
    t0 = time.time()
    rng = random.Random(CFG.seed)
    pairs = _random_schur_pairs(rng, 50)
    checked = 0
    for q, d in pairs:
        base = lfd_verdict(q, d, CFG)
        assert tits_form(q, d) == 1
        for k in q.vertices:
            outgoing, incoming = q.outgoing(k), q.incoming(k)
            if outgoing and incoming:
                continue
            arrows_at = outgoing or incoming
            if not arrows_at:
                continue
            ki = q.vertex_index(k)
            neighbor_sum = sum(
                d[q.vertex_index(t if s == k else s)]
                for s, t in (q.arrows[i] for i in arrows_at))
            if d[ki] >= neighbor_sum:
                continue  # only strict admissible reflections
            q2, d2 = reflect_pair(q, k, d)
            assert tits_form(q2, d2) == tits_form(q, d) == 1
            other = lfd_verdict(q2, d2, CFG)
            assert other.verdict == base.verdict, (q.arrows, d, k)
            checked += 1
    elapsed = time.time() - t0
    passline(7, f"50 random (tree, Schur root) pairs, {checked} admissible "
                f"reflections, verdicts invariant in {elapsed:.1f}s")


def test_acceptance_8_hom_ext_euler_identity():
    rng = random.Random(CFG.seed + 8)
    quivers = [a2(), a3(), d4_in(), kronecker(), cycle(3),
               Quiver(("1",), (("1", "1"),)),
               Quiver(("1", "2"), (("1", "2"), ("2", "1")))]
    done = 0
    while done < 1000:
        q = rng.choice(quivers)
        dm = tuple(rng.randint(0, 3) for _ in q.vertices)
        dn = tuple(rng.randint(0, 3) for _ in q.vertices)
        m = sample_representation(q, dm, F, rng)
        n = sample_representation(q, dn, F, rng)
        he = hom_ext(m, n)
        assert he.hom - he.ext == euler_form(q, dm, dn)
        done += 1
    passline(8, "hom - ext equals the Euler form on 1000 random pairs")


def _root_decompositions(q, d, limit=4000):
    roots = [r for r in positive_real_roots(q, max(d))
             if all(x <= y for x, y in zip(r, d))]
    roots.sort(reverse=True)
    out = []

    def rec(remaining, start, acc):
        if len(out) >= limit:
            return
        if not any(remaining):
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for i in range(start, len(roots)):
            r = roots[i]
            if all(a <= b for a, b in zip(r, remaining)):
                acc.append(r)
                rec(tuple(b - a for a, b in zip(r, remaining)), i, acc)
                acc.pop()

    rec(d, 0, [])
    return out


def test_acceptance_9_euler_homogeneity_witness():
    corpus = small_lfd_corpus(CFG)
    assert len(corpus) >= 6
    patterns = 0
    for q, d in corpus:
        assert q.n_vertices <= 5
        for parts in _root_decompositions(q, d):
            k = len(parts)
            found = False
            for bits in range(2 ** (k - 1)):
                mask = [bool(bits >> i & 1) for i in range(k - 1)] + [True]
                m = tuple(sum(p[i] for p, b in zip(parts, mask) if b)
                          for i in range(q.n_vertices))
                n = tuple(x - y for x, y in zip(d, m))
                if not any(n):
                    continue
                if euler_form(q, m, n) != euler_form(q, n, m):
                    found = True
                    break
            assert found, (q.arrows, d, parts)
            patterns += 1
    passline(9, f"witness found for all {patterns} root-decomposition "
                f"patterns over {len(corpus)} small linear-free pairs")


def test_acceptance_10_single_coordinate_basis():
    corpus = small_lfd_corpus(CFG)
    mats = [build_saito_matrix(q, d) for q, d in corpus]
    for data in (E7_JSON, E8_JSON):
        mats.append(build_saito_matrix(*quiver_from_json(data)))
    for s in mats:
        assert single_coordinate_basis_check(s)
    passline(10, f"single-coordinate Saito basis holds for all "
                 f"{len(mats)} tree-quiver matrices in the corpus")
