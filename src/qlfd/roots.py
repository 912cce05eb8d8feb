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
from operator import mul

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
    reverse of a descent raises one entry per step. Each root travels with
    its pairing vector Cv: the raise at j takes v_j to v_j - (Cv)_j and Cv
    to Cv - (Cv)_j C e_j, so it reads one entry and updates only the
    nonzero entries of column j. A raise never lowers the largest entry, so
    a vector that leaves box b waits for the layer of its largest entry, and
    each layer is complete when it is yielded.
    """
    n = q.n_vertices
    if isinstance(bound, int):
        box = (bound,) * n
    else:
        box = tuple(int(b) for b in bound)
    c = cartan_matrix(q)  # symmetric: row j is column j
    free = [(j, [(k, a) for k, a in enumerate(c[j]) if a])
            for j in range(n) if c[j][j] == 2]
    waiting = {1: {tuple(int(i == j) for i in range(n)): tuple(c[j])
                   for j, _ in free if box[j] >= 1}}
    for b in range(1, max(box, default=0) + 1):
        layer = waiting.pop(b, {})
        frontier = list(layer.items())
        while frontier:
            v, cv = frontier.pop()
            for j, col in free:
                s = cv[j]
                x = v[j] - s
                if s < 0 and x <= box[j]:
                    w = v[:j] + (x,) + v[j + 1:]
                    found = layer if x <= b else waiting.setdefault(x, {})
                    if w not in found:
                        cw = list(cv)
                        for k, a in col:
                            cw[k] -= s * a
                        found[w] = cw = tuple(cw)
                        if x <= b:
                            frontier.append((w, cw))
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
            v = [sum(map(mul, row, v)) for row in m]
        return tuple(v)


def coxeter_matrix(q: Quiver) -> CoxeterMatrix:
    """Phi = -E^{-1} E^t and its inverse, for an acyclic quiver.

    E = I - A with A nilpotent, so E^{-1} = sum_k A^k = P counts the paths
    i -> j (the trivial ones included). Then Phi = -P E^t = P A^t - P and
    Phi^{-1} = -P^t E = P^t A - P^t: column k of Phi is minus column k of P
    plus column j of P for each arrow k -> j, and column k of Phi^{-1} is
    minus row k of P plus row i of P for each arrow i -> k. That is one
    vector sum per arrow, in exact integers.
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
    columns = list(zip(*paths))
    phi = [[-x for x in col] for col in columns]  # columns of Phi
    phi_inv = [[-x for x in row] for row in paths]  # columns of Phi^{-1}
    for s, t in q.arrow_indices():
        phi[s] = [x + y for x, y in zip(phi[s], columns[t])]
        phi_inv[t] = [x + y for x, y in zip(phi_inv[t], paths[s])]
    return CoxeterMatrix(tuple(zip(*phi)), tuple(zip(*phi_inv)))


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

    The regular simples of an exceptional tube of period p are real roots
    e < delta of defect 0 that the Coxeter matrix permutes cyclically, and
    they sum to delta (Dlab and Ringel, Mem. AMS 173, 1976). So at a vertex
    v with delta_v = 1, all but one of them have e_v = 0: they are roots of
    the Dynkin diagram Q minus v, whose highest root is delta - e_v. The
    search starts from the defect-zero roots in that box and follows each
    Coxeter orbit while it stays inside [0, delta]; Phi keeps real roots
    real and the defect fixed, so the orbits that close are those of the
    regular real roots below delta, and the ones whose members sum to delta
    are the tubes, the orbit length being the period. The periods p_i
    satisfy sum (p_i - 1) = n - 2, so no orbit is longer than n - 1 and a
    walk stops after n steps. Homogeneous (period-one) tubes are not
    enumerated.
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
    v = delta.index(1)
    # <e, delta> = e . E delta; it equals the defect <delta, e>, as delta
    # is radical
    e_delta = [sum(map(mul, row, delta)) for row in euler_matrix(q)]
    starts = [e for e in positive_real_roots(q, delta[:v] + (0,) + delta[v + 1:])
              if sum(map(mul, e, e_delta)) == 0]

    cox = coxeter_matrix(q)
    tubes = []
    seen = set()
    for start in starts:
        if start in seen:
            continue
        orbit = [start]
        cur = cox.apply(start)
        while (cur != start and len(orbit) < n
               and all(0 <= x <= y for x, y in zip(cur, delta))):
            orbit.append(cur)
            cur = cox.apply(cur)
        seen.update(orbit)
        if cur == start and tuple(map(sum, zip(*orbit))) == delta:
            lo = orbit.index(min(orbit))
            tubes.append(Tube(tuple(orbit[lo:] + orbit[:lo]), len(orbit)))
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
