import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlfd import (Quiver, cartan_matrix, classify_graph, euler_form,
                  euler_matrix, is_tree, lfd_verdict, quiver_from_json,
                  quiver_to_json, rep_dimension, sinks, sources, stages,
                  sym_form, tits_form)
from qlfd.errors import CyclicQuiver, QuiverInputError
from qlfd.quiver import check_dim
from qlfd.roots import reflect

from conftest import E7_JSON, a2, a3, cycle, d4_in, kronecker
from oracle import graph_kind_by_char_poly


def test_euler_matrix_a2():
    assert euler_matrix(a2()) == [[1, -1], [0, 1]]


def test_euler_matrix_single_vertex():
    assert euler_matrix(Quiver(("v",), ())) == [[1]]


def test_euler_matrix_d4():
    e = euler_matrix(d4_in())
    expect = [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1], [0, 0, 0, 1]]
    assert e == expect


def test_euler_form_examples(e7_pair):
    assert euler_form(a2(), (1, 1), (1, 1)) == 1
    assert euler_form(kronecker(), (1, 1), (1, 1)) == 0
    q7, d7 = e7_pair
    assert euler_form(q7, d7, d7) == 1


def test_euler_form_length_mismatch():
    with pytest.raises(QuiverInputError):
        euler_form(a2(), (1, 1, 1), (1, 1))


def test_cartan_and_tits():
    assert cartan_matrix(a2()) == [[2, -1], [-1, 2]]
    assert tits_form(kronecker(), (1, 1)) == 0
    assert tits_form(d4_in(), (1, 1, 1, 2)) == 1


def test_classify_dynkin_and_tame():
    assert classify_graph(a3()).kind == "dynkin"
    assert classify_graph(a3()).name == "A3"
    gk = classify_graph(kronecker())
    assert gk.kind == "tame" and gk.delta == (1, 1)


def test_classify_e8_delta(e8_pair):
    q8, _ = e8_pair
    gc = classify_graph(q8)
    assert gc.kind == "tame" and gc.name == "E~8"
    assert tits_form(q8, gc.delta) == 0
    # delta is the standard affine E8 imaginary root for this labelling
    assert gc.delta == (2, 4, 6, 5, 4, 3, 2, 1, 3)


def test_classify_wild():
    triple = Quiver(("1", "2"), (("1", "2"),) * 3)
    assert classify_graph(triple).kind == "wild"


def test_classify_affine_cycle():
    gc = classify_graph(cycle(3))
    assert gc.kind == "tame" and gc.name == "A~2" and gc.delta == (1, 1, 1)


@pytest.mark.parametrize("q, kind, delta", [
    # the second pivot of C is 0
    (kronecker(), "tame", (1, 1)),
    (cycle(4, oriented=False), "tame", (1, 1, 1, 1)),
    # C_11 = 0, so the first pivot is 0
    (Quiver(("1", "2"), (("1", "1"), ("1", "2"))), "wild", None),
    # the five leaves give pivots 2, then the centre's pivot is 2 - 5/2 < 0
    (Quiver(("1", "2", "3", "4", "5", "6"),
            tuple((leaf, "6") for leaf in "12345")), "wild", None),
])
def test_classify_at_a_pivot_that_is_not_positive(q, kind, delta):
    gc = classify_graph(q)
    assert (gc.kind, gc.delta) == (kind, delta)
    assert (kind, delta) == graph_kind_by_char_poly(q)


def _star(*arms):
    """A star: centre 0 and one path of each given number of vertices."""
    edges, top = [], 0
    for length in arms:
        prev = 0
        for _ in range(length):
            top += 1
            edges.append((prev, top))
            prev = top
    return top + 1, edges


def _affine_d(n):
    """D~n on n + 1 vertices: a path 0 ... n - 2 with one more leaf at 1 and
    at n - 3."""
    return n + 1, [(i, i + 1) for i in range(n - 2)] + [(1, n - 1), (n - 3, n)]


def _cycle(n):
    """A~(n-1): n vertices round a cycle, a loop when n = 1."""
    return n, [(i, (i + 1) % n) for i in range(n)]


NAMED_SHAPES = (
    [(f"A{n}", (n, [(i, i + 1) for i in range(n - 1)])) for n in range(1, 10)]
    + [(f"D{n}", _star(1, 1, n - 3)) for n in range(4, 10)]
    + [(f"E{n}", _star(1, 2, n - 4)) for n in (6, 7, 8)]
    + [(f"A~{n}", _cycle(n + 1)) for n in range(8)]
    + [("D~4", _star(1, 1, 1, 1))] + [(f"D~{n}", _affine_d(n)) for n in range(5, 10)]
    + [("E~6", _star(2, 2, 2)), ("E~7", _star(1, 3, 3)), ("E~8", _star(1, 2, 5))]
    # near misses: each contains a Euclidean diagram properly
    + [("wild", _star(1, 2, 6)), ("wild", _star(2, 2, 3)), ("wild", _star(1, 3, 4)),
       ("wild", _star(1, 1, 1, 2)),
       ("wild", (8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (6, 7)]))])


@pytest.mark.parametrize("name, shape", NAMED_SHAPES,
                         ids=[f"{name}-{n}" for name, (n, _) in NAMED_SHAPES])
def test_classify_named_shapes(name, shape):
    # vertex order, arrow order and orientation do not change the class
    n, edges = shape
    rng = random.Random(f"{name}-{n}")
    labels = [str(i + 1) for i in range(n)]
    rng.shuffle(labels)
    arrows = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
              for u, v in edges]
    rng.shuffle(arrows)
    q = Quiver(tuple(str(i + 1) for i in range(n)), tuple(arrows))
    gc = classify_graph(q)
    assert gc.name == name
    assert gc.kind == ("wild" if name == "wild" else "tame" if "~" in name else "dynkin")
    assert (gc.kind, gc.delta) == graph_kind_by_char_poly(q)


def test_classify_and_stages_reject_a_quiver_without_vertices():
    empty = Quiver((), ())
    with pytest.raises(QuiverInputError):
        classify_graph(empty)
    with pytest.raises(QuiverInputError):
        stages(empty)


def test_check_dim_takes_integers_only():
    q = a2()
    assert check_dim(q, (np.int64(2), 1)) == (2, 1)
    assert all(type(x) is int for x in check_dim(q, np.array([2, 1])))
    for d in ((1.7, 1), (1.0, 1), ("1", 1), "11", (np.float64(1), 1), 3):
        with pytest.raises(QuiverInputError):
            check_dim(q, d)
    with pytest.raises(QuiverInputError):
        lfd_verdict(q, (1.7, 1))


@st.composite
def connected_quivers(draw, max_vertices=10):
    """A random spanning tree plus a few extra arrows, loops allowed."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vs = tuple(str(i + 1) for i in range(n))
    arrows = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        arrows.append((vs[i], vs[j]) if draw(st.booleans()) else (vs[j], vs[i]))
    extra = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    arrows += draw(st.lists(extra, max_size=2))
    return Quiver(vs, tuple(arrows))


@settings(max_examples=500)
@given(q=connected_quivers())
def test_classify_matches_char_poly_rule(q):
    gc = classify_graph(q)
    assert (gc.kind, gc.delta) == graph_kind_by_char_poly(q)


def test_tree_sources_sinks():
    q = a3((1, 1))
    assert is_tree(q)
    assert sources(q) == ["1"] and sinks(q) == ["3"]
    assert not is_tree(cycle(3))
    assert not is_tree(kronecker())


def test_stages_path():
    st = stages(a3((1, 1)))
    assert st.levels == (("1",), ("2",), ("3",))
    assert min(st.h.values()) == 0


def test_stages_cycle_fails():
    with pytest.raises(CyclicQuiver):
        stages(cycle(3))


def test_stages_d4_bipartite():
    st = stages(d4_in())
    assert st.levels == (("1", "2", "3"), ("4",))
    assert st.top == 1


small_dims = st.lists(st.integers(min_value=-4, max_value=4), min_size=2,
                      max_size=2).map(tuple)


@given(m=small_dims, n=small_dims)
def test_bilinear_identity(m, n):
    q = kronecker()
    assert euler_form(q, m, n) + euler_form(q, n, m) == sym_form(q, m, n)


@given(d=st.lists(st.integers(min_value=-3, max_value=3), min_size=4,
                  max_size=4).map(tuple),
       k=st.sampled_from(["1", "2", "3", "4"]))
def test_weyl_invariance_of_tits_form(d, k):
    q = d4_in()
    assert tits_form(q, reflect(q, k, d)) == tits_form(q, d)


def test_tree_iff_edge_count():
    for q in (a2(), a3(), d4_in(), cycle(3), cycle(4)):
        if q.is_connected():
            assert is_tree(q) == (q.n_arrows == q.n_vertices - 1)


def test_tame_delta_radical(e7_pair):
    q7, _ = e7_pair
    gc = classify_graph(q7)
    assert tits_form(q7, gc.delta) == 0
    n = q7.n_vertices
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        assert sym_form(q7, gc.delta, e) == 0


def test_rep_dimension(e7_pair, e8_pair):
    assert rep_dimension(*e7_pair) == 27
    assert rep_dimension(*e8_pair) == 87


def test_json_roundtrip():
    q, d = quiver_from_json(E7_JSON)
    again = quiver_to_json(q, d)
    assert again["vertices"] == E7_JSON["vertices"]
    assert again["arrows"] == E7_JSON["arrows"]
    assert again["dim"] == E7_JSON["dim"]


def test_json_errors():
    with pytest.raises(QuiverInputError):
        quiver_from_json({"vertices": ["1"], "arrows": [["1", "2"]]})
    with pytest.raises(QuiverInputError):
        quiver_from_json({"vertices": ["1", "1"], "arrows": []})
    with pytest.raises(QuiverInputError):
        quiver_from_json({"vertices": ["1", "2"], "arrows": [["1", "2"]],
                          "dim": {"1": 1}})
    with pytest.raises(QuiverInputError):
        quiver_from_json({"vertices": [], "arrows": [], "dim": {}})


def test_json_takes_only_arrays():
    # a string is not read as its characters, nor an arrow as its letters
    for vertices, arrows in (("12", [["1", "2"]]), ({"1": 0, "2": 0}, [["1", "2"]]),
                             (["1", "2"], ["12"]), (["1", "2"], [["1", "2", "2"]]),
                             (["1", "2"], [["1"]]), (["1", "2"], "12"),
                             (["1", "2"], [("1", "2")])):
        with pytest.raises(QuiverInputError):
            quiver_from_json({"vertices": vertices, "arrows": arrows,
                              "dim": {"1": 1, "2": 1}})
