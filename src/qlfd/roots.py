"""Reflections, real-root search, the Coxeter transformation on dimension
vectors, defect, and tube combinatorics on tame quivers.

Convention fixed here once: the Coxeter matrix is Phi = -E^{-1} E^t acting on
column vectors. Among the four sign/side candidates this is the one that
(a) fixes delta on tame quivers, (b) preserves the defect pairing, and
(c) reproduces the exceptional tube periods on the affine E7/E8 test data;
the validation lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CyclicQuiver, NotTame, QuiverInputError
from .quiver import (Quiver, cartan_matrix, check_dim, classify_graph,
                     euler_form, euler_matrix, tits_form, topological_order)


def _reflect(c_row, j, v):
    """r_j(v) = v - (Cv)_j e_j, from the row C_j of the Cartan matrix (C_jj = 2)."""
    pairing = sum(a * x for a, x in zip(c_row, v))
    return v[:j] + (v[j] - pairing,) + v[j + 1:]


def reflect(q: Quiver, k, d):
    """Simple reflection r_k(d) = d - (d, e_k)_Q e_k at a loop-free vertex."""
    d = check_dim(q, d)
    if q.has_loop(k):
        raise QuiverInputError(f"cannot reflect at vertex {k!r}: loop present")
    ki = q.vertex_index(k)
    return _reflect(cartan_matrix(q)[ki], ki, d)


def is_real_root(q: Quiver, d, depth_bound: int = 10**6) -> str:
    """'yes' / 'no' / 'inconclusive'.

    A positive vector with q_Q = 1 is a real root iff some sequence of
    simple reflections takes it to a unit vector. Height-descent decides
    this: while v is not a unit, reflect at the first loop-free k with
    (v, e_k)_Q > 0; the height strictly drops, and a mixed-sign result
    certifies 'no' (orbits of roots never leave +/-). The bound caps total
    descent.
    """
    d = check_dim(q, d)
    if tits_form(q, d) != 1:
        return "no"
    if any(x < 0 for x in d):
        return "no"
    c = cartan_matrix(q)
    free = [j for j in range(q.n_vertices) if c[j][j] == 2]
    v = d
    spent = 0
    while sum(v) != 1:
        for j in free:
            w = _reflect(c[j], j, v)
            if w[j] < v[j]:
                break
        else:
            return "no"
        if w[j] < 0:
            return "no"
        spent += v[j] - w[j]
        if spent > depth_bound:
            return "inconclusive"
        v = w
    return "yes"


def root_layers(q: Quiver, bound):
    """The positive real roots within the given box, one layer at a time.

    `bound` is an int or a per-vertex tuple. For b = 1 up to the largest
    entry of the box, yields the sorted list of roots whose largest entry is
    b. Found by closing the unit vectors at loop-free vertices (the units
    with q_Q = 1) under simple reflections inside the box; any positive real
    root in the box descends to a unit vector through the box, so this is
    exhaustive. Only the reflections that raise an entry are taken, as the
    reverse of a descent raises one entry per step; the pairing reads the
    nonzero entries of the Cartan row only. A raise never lowers the
    largest entry, so a vector that leaves box b waits for the layer of its
    largest entry, and each layer is complete when it is yielded.
    """
    n = q.n_vertices
    if isinstance(bound, int):
        box = (bound,) * n
    else:
        box = tuple(int(b) for b in bound)
    c = cartan_matrix(q)
    free = [(j, [(k, a) for k, a in enumerate(c[j]) if a])
            for j in range(n) if c[j][j] == 2]
    waiting = {1: {tuple(int(i == j) for i in range(n)) for j, _ in free if box[j] >= 1}}
    for b in range(1, max(box, default=0) + 1):
        layer = waiting.pop(b, set())
        frontier = list(layer)
        while frontier:
            v = frontier.pop()
            for j, row in free:
                x = v[j] - sum(a * v[k] for k, a in row)
                if v[j] < x <= box[j]:
                    w = v[:j] + (x,) + v[j + 1:]
                    if x > b:
                        waiting.setdefault(x, set()).add(w)
                    elif w not in layer:
                        layer.add(w)
                        frontier.append(w)
        yield sorted(layer)


def positive_real_roots(q: Quiver, bound):
    """All positive real roots with entries within the given box, sorted:
    the layers of root_layers joined."""
    return sorted(r for layer in root_layers(q, bound) for r in layer)


# -- Coxeter transformation -------------------------------------------------------


@dataclass(frozen=True)
class CoxeterMatrix:
    phi: tuple      # row tuples, integer entries
    phi_inv: tuple

    def apply(self, d, steps: int = 1):
        m = self.phi if steps >= 0 else self.phi_inv
        v = list(d)
        for _ in range(abs(steps)):
            v = [sum(row[j] * v[j] for j in range(len(v))) for row in m]
        return tuple(v)


def coxeter_matrix(q: Quiver) -> CoxeterMatrix:
    """Phi = -E^{-1} E^t and its inverse, for an acyclic quiver.

    E = I - A with A nilpotent, so E^{-1} = sum_k A^k = P counts the paths
    i -> j (the trivial ones included). With E^t = C - E this gives
    Phi = I - P C and Phi^{-1} = -P^t E = I - P^t C, in exact integers.
    """
    n = q.n_vertices
    succ = q.successors()
    order = topological_order(succ)
    if order is None:
        raise CyclicQuiver("Coxeter matrix needs an acyclic quiver")
    paths = [None] * n
    for i in order:  # every successor's row is done first
        row = [int(i == j) for j in range(n)]
        for t in succ[i]:
            row = [x + y for x, y in zip(row, paths[t])]
        paths[i] = row
    c = cartan_matrix(q)

    def one_minus(p):
        return tuple(tuple(int(i == j) - sum(p[i][k] * c[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    return CoxeterMatrix(one_minus(paths), one_minus(list(zip(*paths))))


def tau_dim(q: Quiver, d, steps: int = 1):
    """Iterate the Coxeter transformation on a dimension vector."""
    d = check_dim(q, d)
    return coxeter_matrix(q).apply(d, steps)


def defect(q: Quiver, d) -> int:
    """<delta, d>_Q on a tame quiver; zero exactly on regular vectors."""
    d = check_dim(q, d)
    gc = classify_graph(q)
    if gc.kind != "tame":
        raise NotTame(f"defect needs a tame quiver, got {gc.kind}")
    return euler_form(q, gc.delta, d)


# -- tubes ------------------------------------------------------------------------


@dataclass(frozen=True)
class Tube:
    simples: tuple  # cyclic list of dimension vectors; Phi maps [i] to [i+1]
    period: int

    @property
    def delta(self):
        return tuple(sum(s[i] for s in self.simples)
                     for i in range(len(self.simples[0])))

    def part_dim(self, slot: int, length: int):
        """Dimension vector of the regular indecomposable at (slot, length)."""
        p = self.period
        acc = [0] * len(self.simples[0])
        for i in range(length):
            s = self.simples[(slot + i) % p]
            for j, x in enumerate(s):
                acc[j] += x
        return tuple(acc)

    def to_json(self):
        return {"period": self.period, "simples": [list(s) for s in self.simples]}


def find_tubes(q: Quiver):
    """Exceptional tubes of a tame acyclic quiver.

    Enumerates real roots e with 0 < e < delta and defect 0, groups them
    into Coxeter orbits, and keeps exactly the orbits whose members sum to
    delta: those are the regular-simple classes, and the orbit length is
    the tube period. Homogeneous (period-one) tubes are not enumerated.
    """
    return _tubes(q, classify_graph(q))


def _tubes(q: Quiver, gc):
    """find_tubes for a quiver whose graph class gc is already known."""
    if gc.kind != "tame":
        raise NotTame(f"tubes need a tame quiver, got {gc.kind}")
    if not q.is_acyclic():
        raise CyclicQuiver("tube search needs an acyclic quiver")
    delta = gc.delta
    n = q.n_vertices
    # regular simples are real roots below delta (which is imaginary, so not
    # among them) with <e, delta> = e . E delta = 0; that is <delta, e> = 0,
    # as delta is radical
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
        guard = 0
        while cur != start:
            if cur not in cands:
                # Orbit left the candidate set: not a regular class; drop it.
                orbit = None
                break
            orbit.append(cur)
            cur = cox.apply(cur)
            guard += 1
            if guard > 4 * len(cands) + 16:
                raise RuntimeError("Coxeter orbit failed to close")
        if orbit is None:
            unvisited.discard(start)
            continue
        unvisited.difference_update(orbit)
        total = tuple(sum(v[i] for v in orbit) for i in range(n))
        if total == delta:
            lo = orbit.index(min(orbit))
            rotated = tuple(orbit[(lo + i) % len(orbit)] for i in range(len(orbit)))
            tubes.append(Tube(rotated, len(orbit)))
    tubes.sort(key=lambda t: (-t.period, t.simples[0]))
    return tubes


def tube_ext_nonzero(t: Tube, x1, x2) -> bool:
    """Nonvanishing of extensions between two bricks in one tube.

    x1 = (slot a1, length r1), x2 = (slot a2, length r2) with lengths up to
    the period. True iff integers a in [1, r1], b in [1, r2] exist with
    a + r2 = b + r1 and slot2 = slot1 + a modulo the period (the companion
    slot congruence then holds automatically).
    """
    (a1, r1), (a2, r2) = x1, x2
    p = t.period
    if not (1 <= r1 <= p and 1 <= r2 <= p):
        raise QuiverInputError("tube part length exceeds the period")
    for a in range(1, r1 + 1):
        b = a + r2 - r1
        if not 1 <= b <= r2:
            continue
        if (a1 + a) % p == a2 % p and (a1 + r1 - 1 + b) % p == (a2 + r2 - 1) % p:
            return True
    return False


def tube_chain_acyclic(t: Tube, parts) -> bool:
    """No directed Ext-cycle among tube parts whose dimension sum is < delta."""
    delta = t.delta
    n = len(delta)
    total = [0] * n
    for slot, length in parts:
        pd = t.part_dim(slot, length)
        for i, x in enumerate(pd):
            total[i] += x
    if not (all(total[i] <= delta[i] for i in range(n)) and tuple(total) != delta):
        raise QuiverInputError("dimension sum of parts must be < delta")
    k = len(parts)
    return topological_order([[j for j in range(k) if j != i
                               and tube_ext_nonzero(t, parts[i], parts[j])]
                              for i in range(k)]) is not None
