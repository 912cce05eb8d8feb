import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlfd import (ExactMatrix, GF, build_c_matrix, end_dim, euler_form,
                  hom_ext, is_brick, is_schur_root, perp_candidates,
                  sample_representation, tits_form)
from qlfd.errors import QuiverInputError
from qlfd.quiver import Quiver
from qlfd.reps import Representation, coords_from_rep, rep_from_coords
from qlfd.roots import positive_real_roots

from conftest import a2, a3, d4_in, kronecker, random_tree_quiver
from oracle import perp_candidates_reference

F = GF(2**31 - 1)


def rep_a2(value, field=F):
    q = a2()
    return Representation(q, (1, 1),
                          (ExactMatrix(field, [[value]]),), field)


def test_c_matrix_a2_identity_map():
    c = build_c_matrix(rep_a2(1), rep_a2(1))
    # phi_2 f - f phi_1 with vertex blocks (phi_1, phi_2) in quiver order
    assert c.shape == (1, 2)
    assert c.rows[0] == [F.p - 1, 1]


def test_c_matrix_a2_zero_map():
    c = build_c_matrix(rep_a2(0), rep_a2(0))
    assert c.rows[0] == [0, 0]


def test_c_matrix_shapes():
    rng = random.Random(0)
    q = d4_in()
    m = sample_representation(q, (1, 2, 1, 2), F, rng)
    n = sample_representation(q, (2, 1, 1, 3), F, rng)
    c = build_c_matrix(m, n)
    assert c.ncols == sum(a * b for a, b in zip(m.dim, n.dim))
    assert c.nrows == sum(m.dim[s] * n.dim[t] for s, t in q.arrow_indices())


def _c_matrix_by_loops(m, n):
    """Entrywise reference for build_c_matrix: phi_t f - g phi_s, block by block."""
    q, md, nd, field = m.quiver, m.dim, n.dim, m.field
    col_off = [sum(md[j] * nd[j] for j in range(i)) for i in range(q.n_vertices + 1)]
    nrows = sum(md[s] * nd[t] for s, t in q.arrow_indices())
    out = [[0] * col_off[-1] for _ in range(nrows)]
    r0 = 0
    for ai, (s, t) in enumerate(q.arrow_indices()):
        f, g = m.mats[ai].rows, n.mats[ai].rows
        for c in range(md[s]):
            for r in range(nd[t]):
                row = out[r0 + c * nd[t] + r]
                for k in range(md[t]):
                    col = col_off[t] + k * nd[t] + r
                    row[col] = field.element(row[col] + f[k][c])
                for k in range(nd[s]):
                    col = col_off[s] + c * nd[s] + k
                    row[col] = field.element(row[col] - g[r][k])
        r0 += md[s] * nd[t]
    return out


def test_c_matrix_matches_loop_reference():
    rng = random.Random(3)
    loop = Quiver(("1", "2", "3"), (("1", "2"), ("2", "2"), ("2", "3")))
    for q, md, nd in ((d4_in(), (1, 2, 1, 2), (2, 1, 1, 3)),
                      (loop, (2, 3, 1), (1, 2, 2)), (a3(), (0, 1, 2), (1, 0, 1))):
        for field in (F, GF(7)):
            m = sample_representation(q, md, field, rng)
            n = sample_representation(q, nd, field, rng)
            assert build_c_matrix(m, n).rows == _c_matrix_by_loops(m, n)


def test_c_matrix_quiver_mismatch():
    with pytest.raises(QuiverInputError):
        build_c_matrix(rep_a2(1),
                       sample_representation(a3(), (1, 1, 1), F,
                                             random.Random(0)))


def test_hom_ext_a2_generic_and_zero():
    generic = hom_ext(rep_a2(1), rep_a2(1))
    assert (generic.hom, generic.ext) == (1, 0)
    zero = hom_ext(rep_a2(0), rep_a2(0))
    assert (zero.hom, zero.ext) == (2, 1)
    assert is_brick(rep_a2(1)) and not is_brick(rep_a2(0))


def test_hom_ext_euler_identity_exact():
    rng = random.Random(1)
    quivers = [a2(), a3(), d4_in(), kronecker(),
               Quiver(("1", "2"), (("1", "2"), ("2", "1"))),
               Quiver(("1",), (("1", "1"),))]
    for q in quivers:
        for _ in range(20):
            dm = tuple(rng.randint(0, 3) for _ in q.vertices)
            dn = tuple(rng.randint(0, 3) for _ in q.vertices)
            m = sample_representation(q, dm, F, rng)
            n = sample_representation(q, dn, F, rng)
            he = hom_ext(m, n)
            assert he.hom - he.ext == euler_form(q, dm, dn)


def test_end_invariant_under_base_change():
    rng = random.Random(2)
    q = d4_in()
    d = (1, 1, 1, 2)
    m = sample_representation(q, d, F, rng)
    probe = sample_representation(q, (1, 2, 1, 1), F, rng)
    base = hom_ext(m, probe)
    # conjugate by random invertible block scalars/matrices
    for _ in range(5):
        gs = []
        for size in d:
            while True:
                g = ExactMatrix(F, [[F.random(rng) for _ in range(size)]
                                    for _ in range(size)])
                if g.rank() == size:
                    gs.append(g)
                    break
        mats = []
        for ai, (s, t) in enumerate(q.arrow_indices()):
            gt = gs[t]
            gsrc_inv = _gf_inverse(gs[s])
            mats.append(ExactMatrix(F, gt.a.astype(object) @ m.mats[ai].a.astype(object)
                                    @ gsrc_inv.a.astype(object) % F.p))
        conj = Representation(q, d, tuple(mats), F)
        assert end_dim(conj) == end_dim(m)
        he = hom_ext(conj, probe)
        assert (he.hom, he.ext) == (base.hom, base.ext)


def _gf_inverse(m):
    n = m.nrows
    aug = ExactMatrix(F, np.hstack((m.a, np.eye(n, dtype=np.int64))))
    red, piv = aug.rref()
    assert piv == list(range(n))
    return ExactMatrix(F, [[red.rows[i][n + j] for j in range(n)]
                           for i in range(n)])


def test_brick_ext_identity_tame():
    # For a brick, self-extensions have dimension 1 - q_Q(dim).
    rng = random.Random(3)
    q = kronecker()
    d = (1, 1)
    assert tits_form(q, d) == 0
    for _ in range(10):
        m = sample_representation(q, d, F, rng)
        if is_brick(m):
            he = hom_ext(m, m)
            assert he.ext == 1 - tits_form(q, d)
            break
    else:
        pytest.fail("no brick sampled on the Kronecker quiver")


def test_is_schur_root():
    rng = random.Random(4)
    assert is_schur_root(a2(), (1, 1), 3, F, rng).value == "yes"
    assert is_schur_root(d4_in(), (1, 1, 1, 2), 3, F, rng).value == "yes"
    verdict = is_schur_root(a2(), (2, 2), 5, F, rng)
    assert verdict.value == "inconclusive"  # never 'no': one-sided test


def test_perp_candidates_a2():
    rng = random.Random(5)
    brick = is_schur_root(a2(), (1, 1), 3, F, rng).witness
    roots = positive_real_roots(a2(), 2)
    # <e, d> = 0 only for the source simple, <d, e> = 0 only for the sink one
    assert perp_candidates(a2(), (1, 1), roots, "left", brick, 3, F, rng) == [(1, 0)]
    assert perp_candidates(a2(), (1, 1), roots, "right", brick, 3, F, rng) == [(0, 1)]
    with pytest.raises(QuiverInputError):
        perp_candidates(a2(), (1, 1), roots, "both", brick, 3, F, rng)
    # the brick must have the quiver, the dimension vector and the field of the call
    for q, d, field in ((a3(), (1, 1, 1), F), (a2(), (1, 2), F), (a2(), (1, 1), GF(7))):
        with pytest.raises(QuiverInputError):
            perp_candidates(q, d, positive_real_roots(q, 2), "left", brick, 3, field, rng)


def test_perp_candidates_match_the_per_root_reference():
    # p = 3 makes zero determinants, and so retries, common
    retried = []

    @settings(max_examples=60, deadline=None)
    @given(tree_seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
           pick=st.integers(0, 10**6), side=st.sampled_from(["left", "right"]),
           p=st.sampled_from([3, 7, 2**31 - 1]), trials=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1))
    def check(tree_seed, n, pick, side, p, trials, seed):
        q = random_tree_quiver(random.Random(tree_seed), n)
        roots = positive_real_roots(q, 3)
        sincere = [r for r in roots if all(r)]  # (1, ..., 1) is one on a tree
        d = sincere[pick % len(sincere)]
        field = GF(p)
        brick = sample_representation(q, d, field, random.Random(seed + 1))
        rng, ref_rng = random.Random(seed), random.Random(seed)
        probes = []
        got = perp_candidates(q, d, roots, side, brick, trials, field, rng)
        want = perp_candidates_reference(q, d, roots, side, brick, trials, field,
                                         ref_rng, probes)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()
        retried.append(any(probes))

    check()
    assert any(retried)


@pytest.mark.parametrize("field", [F, GF(7), GF(101)])
def test_sample_draws_arrow_by_arrow_row_major(field):
    # one vector draw split by reshapes gives the per-arrow, per-row draw
    q = d4_in()
    d = (1, 2, 3, 2)
    got = sample_representation(q, d, field, random.Random(4))
    rng = random.Random(4)
    want = [ExactMatrix(field, [[field.random(rng) for _ in range(d[s])]
                                for _ in range(d[t])], shape=(d[t], d[s]))
            for s, t in q.arrow_indices()]
    assert list(got.mats) == want


def test_coords_roundtrip():
    rng = random.Random(7)
    # a quiver without arrows has the empty coordinate vector
    for q, d in ((d4_in(), (2, 1, 2, 3)), (Quiver(("1",), ()), (2,))):
        m = sample_representation(q, d, F, rng)
        coords = coords_from_rep(m)
        assert coords.dtype == np.int64
        again = rep_from_coords(q, m.dim, coords, F)
        assert again.mats == m.mats
        # entrywise reference: arrow by arrow, column-major within each block
        assert coords.tolist() == [mat.rows[r][c] for mat in m.mats
                                   for c in range(mat.ncols) for r in range(mat.nrows)]
        assert rep_from_coords(q, m.dim, coords.tolist(), F).mats == m.mats
