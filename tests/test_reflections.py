import random

import pytest

from qlfd import (GF, Quiver, bipartite_normal_form, end_dim, hom_ext,
                  prune_degenerate_arrow, reflect, reflect_quiver,
                  reflect_representation, sample_representation, stages,
                  tits_form)
from qlfd.errors import NotInRepPrime, NotLfdShape, QuiverInputError
from qlfd.reflections import reflect_pair
from qlfd.reps import rep_from_coords

from conftest import a2, a3, d4_in

F = GF(2**31 - 1)


def test_reflect_quiver_a2():
    q = reflect_quiver(a2(), "1")
    assert q.arrows == (("2", "1"),)


def test_reflect_quiver_d4_center():
    q = reflect_quiver(d4_in(), "4")
    assert q.arrows == (("4", "1"), ("4", "2"), ("4", "3"))
    assert reflect_quiver(q, "4") == d4_in()


def test_reflect_quiver_rejects_middle_vertex():
    with pytest.raises(QuiverInputError):
        reflect_quiver(a3((1, 1)), "2")


def test_reflect_pair_rejects_a_negative_entry():
    assert reflect_pair(a2(), "1", (1, 1)) == (reflect_quiver(a2(), "1"), (0, 1))
    # an isolated vertex is a source and a sink; r_1(1, 1) = (-1, 1)
    with pytest.raises(QuiverInputError, match=r"vertex '1' .*\(-1\)"):
        reflect_pair(Quiver(("1", "2"), ()), "1", (1, 1))
    # r_2(0, 1) = (0, -1) at the sink of 1 -> 2
    with pytest.raises(QuiverInputError, match=r"vertex '2' .*\(-1\)"):
        reflect_pair(a2(), "2", (0, 1))


def test_reflect_representation_a2_source():
    m = rep_from_coords(a2(), (1, 1), [1], F)
    out = reflect_representation(m, "1")
    assert out.dim == (0, 1)
    assert out.quiver.arrows == (("2", "1"),)


def test_reflect_representation_d4_sink():
    rng = random.Random(0)
    m = sample_representation(d4_in(), (1, 1, 1, 2), F, rng)
    assert end_dim(m) == 1
    out = reflect_representation(m, "4")
    assert out.dim == (1, 1, 1, 1)
    assert out.dim == reflect(d4_in(), "4", (1, 1, 1, 2))
    assert end_dim(out) == 1


def test_reflect_representation_not_in_rep_prime():
    m = rep_from_coords(a2(), (1, 1), [0], F)
    with pytest.raises(NotInRepPrime):
        reflect_representation(m, "1")


def test_reflect_round_trip_preserves_hom_reports():
    rng = random.Random(1)
    q = d4_in()
    d = (1, 1, 1, 2)
    m = sample_representation(q, d, F, rng)
    back = reflect_representation(reflect_representation(m, "4"), "4")
    assert back.quiver == q and back.dim == d
    for _ in range(5):
        dt = tuple(rng.randint(1, 2) for _ in range(4))
        probe = sample_representation(q, dt, F, rng)
        a = hom_ext(m, probe)
        b = hom_ext(back, probe)
        assert (a.hom, a.ext) == (b.hom, b.ext)
        a = hom_ext(probe, m)
        b = hom_ext(probe, back)
        assert (a.hom, a.ext) == (b.hom, b.ext)


def test_prune_a2():
    result = prune_degenerate_arrow(a2(), (1, 1))
    assert result is not None
    q_new, d_new, step = result
    assert q_new.vertices == ("2",) and d_new == (1,)
    assert step.kind == "prune" and step.vertex == "1"


def test_prune_none_on_d4():
    assert prune_degenerate_arrow(d4_in(), (1, 1, 1, 2)) is None


def test_prune_not_lfd_shape():
    q = d4_in()
    with pytest.raises(NotLfdShape):
        prune_degenerate_arrow(q, (1, 1, 1, 3))


def test_normal_form_a3_equioriented():
    q_new, d_new, trace = bipartite_normal_form(a3((1, 1)), (1, 1, 1))
    assert stages(q_new).top <= 1
    assert len(trace) <= 2
    assert tits_form(q_new, d_new) == 1


def test_normal_form_already_bipartite():
    q_new, d_new, trace = bipartite_normal_form(d4_in(), (1, 1, 1, 2))
    assert trace == []
    assert (q_new, d_new) == (d4_in(), (1, 1, 1, 2))


def test_normal_form_e7(e7_pair):
    q7, d7 = e7_pair
    q_new, d_new, trace = bipartite_normal_form(q7, d7)
    assert stages(q_new).top <= 1
    for step in trace:
        qq, dd = step.after
        assert tits_form(qq, dd) == 1
    assert tits_form(q_new, d_new) == 1


def test_normal_form_needs_tree():
    from conftest import cycle
    with pytest.raises(QuiverInputError):
        bipartite_normal_form(cycle(3), (1, 1, 1))
