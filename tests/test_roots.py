import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qlfd import (classify_graph, coxeter_matrix, defect, euler_matrix,
                  find_tubes, is_real_root, positive_real_roots, reflect,
                  tau_dim, tits_form, tube_chain_acyclic, tube_ext_nonzero)
from qlfd import quiver
from qlfd.errors import CyclicQuiver, NotTame, QuiverInputError
from qlfd.quiver import Quiver, cartan_matrix
from qlfd.roots import root_layers, topological_order

from conftest import a2, a3, cycle, d4_in, kronecker, random_tree_quiver
from oracle import reflection_closure_layers, tubes_from_every_root


def test_reflect_examples():
    assert reflect(a2(), "1", (1, 1)) == (0, 1)
    assert reflect(d4_in(), "4", (1, 1, 1, 2)) == (1, 1, 1, 1)


@given(d=st.lists(st.integers(min_value=-3, max_value=3), min_size=4,
                  max_size=4).map(tuple),
       k=st.sampled_from(["1", "2", "3", "4"]))
def test_reflect_involution(d, k):
    q = d4_in()
    assert reflect(q, k, reflect(q, k, d)) == d


def test_reflect_loop_rejected():
    q = Quiver(("1",), (("1", "1"),))
    with pytest.raises(QuiverInputError):
        reflect(q, "1", (1,))


def test_is_real_root():
    assert is_real_root(a2(), (1, 1)) == "yes"
    assert is_real_root(a2(), (2, 2)) == "no"
    assert is_real_root(kronecker(), (1, 1)) == "no"  # q = 0
    assert is_real_root(kronecker(), (2, 1)) == "yes"
    # q = 1, but the descent leaves the positive orthant
    triple = Quiver(("1", "2", "3"), (("1", "2"),) * 3 + (("2", "3"),))
    assert tits_form(triple, (1, 1, 2)) == tits_form(triple, (2, 1, 2)) == 1
    assert is_real_root(triple, (1, 1, 2)) == "no"
    assert is_real_root(triple, (2, 1, 2)) == "no"
    assert is_real_root(triple, (3, 1, 0)) == "yes"


def test_coxeter_fixes_delta_on_tame():
    for q in (kronecker(), cycle(4, oriented=False)):
        gc = classify_graph(q)
        if gc.kind != "tame" or not q.is_acyclic():
            continue
        cm = coxeter_matrix(q)
        assert cm.apply(gc.delta) == gc.delta


def test_coxeter_cyclic_rejected():
    with pytest.raises(CyclicQuiver):
        coxeter_matrix(cycle(3))


def test_coxeter_dynkin_orbit_leaves_positive_orthant():
    q = a2()
    v = (1, 1)
    for _ in range(10):
        v = tau_dim(q, v, 1)
        if any(x < 0 for x in v):
            break
    else:
        pytest.fail("Coxeter orbit of a Dynkin root stayed positive")


def test_coxeter_orbit_on_e7_vector(e7_pair):
    q7, d7 = e7_pair
    v = d7
    for _ in range(12):
        v = tau_dim(q7, v, 1)
        assert all(x >= 0 for x in v)
        assert tits_form(q7, v) == 1
    assert tau_dim(q7, d7, 3) == d7  # regular of tube period 3


def test_coxeter_preserves_defect(e7_pair):
    q7, _ = e7_pair
    rng = random.Random(5)
    cm = coxeter_matrix(q7)
    for _ in range(25):
        d = tuple(rng.randint(0, 4) for _ in range(q7.n_vertices))
        assert defect(q7, cm.apply(d)) == defect(q7, d)


def test_defect_examples(e7_pair):
    q7, d7 = e7_pair
    gc = classify_graph(q7)
    assert defect(q7, gc.delta) == 0
    assert defect(q7, d7) == 0
    src = "1"  # a source of the E7~ orientation
    e = tuple(1 if v == src else 0 for v in q7.vertices)
    assert defect(q7, e) != 0


def test_defect_needs_tame():
    with pytest.raises(NotTame):
        defect(a2(), (1, 1))


def test_positive_real_roots_a2():
    roots = positive_real_roots(a2(), 2)
    assert set(roots) == {(1, 0), (0, 1), (1, 1)}


def test_positive_real_roots_skip_loop_vertices():
    q = Quiver(("1", "2"), (("1", "1"), ("1", "2")))
    assert positive_real_roots(q, 3) == [(0, 1)]
    assert is_real_root(q, (0, 1)) == "yes"


def _dynkin_edges(name):
    """Edges of a Dynkin diagram: a path, with the last vertex of D and E moved
    to branch off the second-to-last (D) or the third (E) path vertex."""
    kind, n = name[0], int(name[1:])
    path = [(i, i + 1) for i in range(1, n - 1)]
    if kind == "A":
        return path + [(n - 1, n)] if n > 1 else []
    return path + [(n - 2 if kind == "D" else 3, n)]


DYNKIN_ROOT_COUNTS = dict(
    [(f"A{n}", n * (n + 1) // 2) for n in range(1, 9)]
    + [(f"D{n}", n * (n - 1)) for n in range(4, 9)]
    + [("E6", 36), ("E7", 63), ("E8", 120)])


@pytest.mark.parametrize("name", sorted(DYNKIN_ROOT_COUNTS))
def test_dynkin_positive_root_counts(name):
    rng = random.Random(name)
    n = int(name[1:])
    vs = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple((str(u), str(v)) if rng.random() < 0.5 else (str(v), str(u))
                   for u, v in _dynkin_edges(name))
    q = Quiver(vs, arrows)
    assert classify_graph(q).name == name
    roots = positive_real_roots(q, 6)
    assert len(roots) == DYNKIN_ROOT_COUNTS[name]
    assert all(tits_form(q, r) == 1 for r in roots)


def _affine_edges(name):
    """Edges of an extended Dynkin diagram: A~n is a cycle on n + 1 vertices,
    D~n a path on n - 1 vertices with one more leaf at its second and at its
    second-to-last vertex, E~n a star with arms of lengths (2, 2, 2),
    (3, 3, 1) or (5, 2, 1) for n = 6, 7, 8."""
    kind, n = name[0], int(name[2:])
    if kind == "A":
        return [(i, i % (n + 1) + 1) for i in range(1, n + 2)]
    if kind == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(2, n), (n - 2, n + 1)]
    edges, top = [], 1
    for arm in {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}[n]:
        edges += [(1 if i == 0 else top + i, top + i + 1) for i in range(arm)]
        top += arm
    return edges


LAYER_SHAPES = ([f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)]
                + ["E6", "E7", "E8"] + [f"A~{n}" for n in range(1, 9)]
                + [f"D~{n}" for n in range(4, 9)] + ["E~6", "E~7", "E~8"])


@pytest.mark.parametrize("name", LAYER_SHAPES)
def test_root_layers_join_to_the_root_box(name):
    rng = random.Random(name)
    affine = "~" in name
    n = int(name[2:]) + 1 if affine else int(name[1:])
    arrows = tuple((str(u), str(v)) if rng.random() < 0.5 else (str(v), str(u))
                   for u, v in (_affine_edges if affine else _dynkin_edges)(name))
    q = Quiver(tuple(str(i) for i in range(1, n + 1)), arrows)
    assert classify_graph(q).name == name
    widest = positive_real_roots(q, 6)
    for b in range(1, 7):
        layers = list(root_layers(q, b))
        assert len(layers) == b
        assert all(layer == sorted(set(layer)) and all(max(r) == k for r in layer)
                   for k, layer in enumerate(layers, 1))
        joined = sorted(r for layer in layers for r in layer)
        assert joined == positive_real_roots(q, b)
        assert joined == [r for r in widest if max(r) <= b]
    # a per-vertex box, as find_tubes passes delta, with some zero entries
    box = tuple(classify_graph(q).delta) if affine else tuple(
        rng.randrange(5) for _ in range(n))
    layers = list(root_layers(q, box))
    assert len(layers) == max(box)
    assert all(max(r) == k for k, layer in enumerate(layers, 1) for r in layer)
    joined = sorted(r for layer in layers for r in layer)
    assert joined == positive_real_roots(q, box)
    assert joined == [r for r in widest if all(x <= y for x, y in zip(r, box))]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=1, max_value=8),
       loops=st.integers(min_value=0, max_value=2))
def test_root_layers_match_the_reflection_closure(seed, n, loops):
    # a random tree with up to two loops added, in a per-vertex box whose
    # entries run from 0 to 4; the pairing walk must find what plain
    # reflection finds
    rng = random.Random(seed)
    tree = random_tree_quiver(rng, n)
    looped = tuple((v, v) for v in rng.sample(tree.vertices, min(loops, n)))
    q = Quiver(tree.vertices, tree.arrows + looped)
    box = tuple(rng.randrange(5) for _ in range(n))
    assert list(root_layers(q, box)) == reflection_closure_layers(q, box)
    assert list(root_layers(q, 3)) == reflection_closure_layers(q, (3,) * n)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=1, max_value=7))
def test_real_root_descent_matches_root_search(seed, n):
    # from 7 vertices on, trees have vectors with q = 1 that are not roots
    q = random_tree_quiver(random.Random(seed), n)
    box = [v for v in itertools.product(range(4), repeat=n)
           if tits_form(q, v) == 1]
    accepted = [v for v in box if is_real_root(q, v) == "yes"]
    assert accepted == positive_real_roots(q, 3)


@st.composite
def acyclic_quivers(draw, max_vertices=6):
    """Arrows go up a random vertex order, up to two of them per pair."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rank = draw(st.permutations(range(n)))
    arrows = []
    for i, j in itertools.combinations(range(n), 2):
        lo, hi = sorted((rank[i], rank[j]))
        arrows += [(str(lo), str(hi))] * draw(st.integers(min_value=0, max_value=2))
    return Quiver(tuple(str(i) for i in range(n)), tuple(arrows))


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@given(q=acyclic_quivers())
def test_coxeter_matrix_from_path_counts(q):
    n = q.n_vertices
    e = euler_matrix(q)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    adj = [[int(i == j) - e[i][j] for j in range(n)] for i in range(n)]
    # E^{-1} = sum_{k<n} A^k: entry (i, j) counts the paths i -> j
    paths, power = ident, ident
    for _ in range(n - 1):
        power = _mat_mul(power, adj)
        paths = [[x + y for x, y in zip(r, s)] for r, s in zip(paths, power)]
    assert _mat_mul(e, paths) == ident
    et = [list(col) for col in zip(*e)]
    pt = [list(col) for col in zip(*paths)]
    cm = coxeter_matrix(q)
    assert [list(r) for r in cm.phi] == [[-x for x in r] for r in _mat_mul(paths, et)]
    assert [list(r) for r in cm.phi_inv] == [[-x for x in r] for r in _mat_mul(pt, e)]
    # the form I - PC, with C = E + E^t
    c = cartan_matrix(q)
    for p, m in ((paths, cm.phi), (pt, cm.phi_inv)):
        assert [list(r) for r in m] == [[int(i == j) - x for j, x in enumerate(r)]
                                        for i, r in enumerate(_mat_mul(p, c))]
    assert _mat_mul(cm.phi, cm.phi_inv) == ident
    assert all(type(x) is int for r in cm.phi + cm.phi_inv for x in r)


def test_tubes_sum_to_delta(e7_pair):
    q7, _ = e7_pair
    gc = classify_graph(q7)
    tubes = find_tubes(q7)
    assert [t.period for t in tubes] == [4, 3, 2]
    for t in tubes:
        assert t.delta == gc.delta
        # the period is exact: no smaller power of the translate fixes a simple
        cm = coxeter_matrix(q7)
        for s in t.simples:
            v = s
            for step in range(1, t.period):
                v = cm.apply(v)
                assert v != s
            assert cm.apply(v) == s


def _relabelled(rng, n, edges):
    """The graph on vertices 1..n with edges given as pairs, each oriented at
    random, the vertex labels shuffled and the vertex and arrow order too."""
    label = dict(zip(range(1, n + 1), rng.sample([f"v{i}" for i in range(n)], n)))
    arrows = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
              for u, v in edges]
    rng.shuffle(arrows)
    return Quiver(tuple(rng.sample(sorted(label.values()), n)), tuple(arrows))


def _tube_test_quivers():
    # every acyclic orientation of the cycles on 2-7 vertices
    for n in range(2, 8):
        edges = _affine_edges(f"A~{n - 1}")
        for bits in itertools.product((0, 1), repeat=n):
            arrows = tuple((str(v), str(u)) if flip else (str(u), str(v))
                           for (u, v), flip in zip(edges, bits))
            q = Quiver(tuple(str(i) for i in range(1, n + 1)), arrows)
            if q.is_acyclic():
                yield q
    # random orientations and labellings of the other Euclidean trees
    rng = random.Random(17)
    for name in [f"D~{n}" for n in range(4, 9)] + ["E~6", "E~7", "E~8"]:
        for _ in range(12):
            yield _relabelled(rng, int(name[2:]) + 1, _affine_edges(name))


def test_find_tubes_matches_the_search_over_every_root():
    quivers = list(_tube_test_quivers())
    assert len(quivers) == 336
    for q in quivers:
        tubes = find_tubes(q)
        assert tubes == tubes_from_every_root(q)
        assert sum(t.period - 1 for t in tubes) == q.n_vertices - 2


@pytest.mark.parametrize("name", [s for s in LAYER_SHAPES if "~" in s])
def test_tube_starts_are_the_roots_of_the_dynkin_part(name):
    # with the entry at an extending vertex v (delta_v = 1) set to 0, the box
    # delta holds exactly the positive roots of the Dynkin diagram Q minus v
    rng = random.Random(name)
    n = int(name[2:]) + 1
    q = _relabelled(rng, n, _affine_edges(name))
    delta = classify_graph(q).delta
    extending = [v for v in range(n) if delta[v] == 1]
    assert extending
    for v in extending:
        box = delta[:v] + (0,) + delta[v + 1:]
        assert len(positive_real_roots(q, box)) == DYNKIN_ROOT_COUNTS[f"{name[0]}{n - 1}"]


def test_find_tubes_needs_tame():
    with pytest.raises(NotTame):
        find_tubes(a3())


def test_tube_ext_slot_arithmetic(e7_pair):
    q7, _ = e7_pair
    t3 = next(t for t in find_tubes(q7) if t.period == 3)
    # consecutive simples extend, equal ones do not
    assert tube_ext_nonzero(t3, (0, 1), (1, 1))
    assert not tube_ext_nonzero(t3, (0, 1), (0, 1))
    # brute force over the defining conditions agrees
    for a1 in range(3):
        for a2_ in range(3):
            for r1 in range(1, 3):
                for r2 in range(1, 3):
                    expect = any(
                        1 <= a <= r1 and 1 <= (a + r2 - r1) <= r2
                        and (a1 + a) % 3 == a2_ % 3
                        for a in range(1, r1 + 1))
                    assert tube_ext_nonzero(t3, (a1, r1), (a2_, r2)) == expect


def test_tube_bricks_are_rigid(e8_pair):
    q8, _ = e8_pair
    for t in find_tubes(q8):
        for slot in range(t.period):
            for r in range(1, t.period):
                assert not tube_ext_nonzero(t, (slot, r), (slot, r))


def test_tube_length_bound(e7_pair):
    q7, _ = e7_pair
    t = find_tubes(q7)[0]
    with pytest.raises(QuiverInputError):
        tube_ext_nonzero(t, (0, t.period + 1), (0, 1))


def test_tube_chain_single_part(e7_pair):
    q7, _ = e7_pair
    t = next(t for t in find_tubes(q7) if t.period == 4)
    assert tube_chain_acyclic(t, [(0, 1)])


def test_tube_no_mutual_ext_below_delta(e8_pair):
    # Exhaustive over all part pairs in every tube of period <= 5: under the
    # dimension bound there is never ext in both directions.
    q8, _ = e8_pair
    for t in find_tubes(q8):
        delta = t.delta
        parts = [(s, r) for s in range(t.period) for r in range(1, t.period)]
        for x1 in parts:
            for x2 in parts:
                dim = [a + b for a, b in zip(t.part_dim(*x1), t.part_dim(*x2))]
                if not (all(x <= y for x, y in zip(dim, delta))
                        and tuple(dim) != delta):
                    continue
                assert not (tube_ext_nonzero(t, x1, x2)
                            and tube_ext_nonzero(t, x2, x1))


def test_tube_chain_lemma_hypotheses(e8_pair):
    # Chains with consecutive nonzero ext below delta close acyclically:
    # ext from the last part back to the first vanishes.
    q8, _ = e8_pair
    t = next(t for t in find_tubes(q8) if t.period == 5)
    chain = [(0, 1), (1, 1), (2, 1)]
    for i in range(len(chain) - 1):
        assert tube_ext_nonzero(t, chain[i], chain[i + 1])
    assert not tube_ext_nonzero(t, chain[-1], chain[0])
    assert tube_chain_acyclic(t, chain)


def test_tube_chain_dimension_guard(e7_pair):
    q7, _ = e7_pair
    t = next(t for t in find_tubes(q7) if t.period == 2)
    with pytest.raises(QuiverInputError):
        tube_chain_acyclic(t, [(0, 1), (1, 1)])  # sums to delta exactly


def test_topological_order():
    # successors come first; a directed cycle gives None
    assert topological_order([[1], [2], []]) == [2, 1, 0]
    assert topological_order([[], [0], [0, 1]]) == [0, 1, 2]
    assert topological_order([[1], [2], [0]]) is None
    assert topological_order([]) == []
    chain = [[i + 1] for i in range(4999)] + [[]]  # deeper than recursion allows
    assert topological_order(chain) == list(range(4999, -1, -1))
    assert topological_order is quiver.topological_order


def test_is_acyclic():
    assert a3().is_acyclic() and kronecker().is_acyclic()
    assert not cycle(3).is_acyclic()
    assert not Quiver(("1", "2"), (("1", "2"), ("2", "2"))).is_acyclic()
