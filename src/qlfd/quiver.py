"""Quiver data model and the integer bilinear-form layer.

Vertex and arrow order is the canonical coordinate order for everything
downstream (representation coordinates, Saito matrix columns), so both are
stored as tuples and never reordered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CyclicQuiver, DisconnectedQuiver, QuiverInputError
from .fields import QQ
from .matrix import ExactMatrix

DimVector = tuple  # integer entries, one per vertex, in Quiver.vertices order


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # of (source, target) vertex-id pairs

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverInputError("duplicate vertex ids")
        index = {v: i for i, v in enumerate(self.vertices)}
        for s, t in self.arrows:
            if s not in index or t not in index:
                raise QuiverInputError(f"arrow ({s},{t}) has undeclared endpoint")
        object.__setattr__(self, "_index", index)

    # -- basic structure -----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_arrows(self):
        return len(self.arrows)

    def vertex_index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise QuiverInputError(f"unknown vertex {v!r}") from None

    def arrow_indices(self):
        """Arrows as (source index, target index) pairs."""
        return [(self._index[s], self._index[t]) for s, t in self.arrows]

    def outgoing(self, v):
        return [i for i, (s, _) in enumerate(self.arrows) if s == v]

    def incoming(self, v):
        return [i for i, (_, t) in enumerate(self.arrows) if t == v]

    def has_loop(self, v) -> bool:
        return any(s == t == v for s, t in self.arrows)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        adj = {v: set() for v in self.vertices}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n_vertices

    def successors(self):
        """Target indices of the arrows out of each vertex, one list per vertex."""
        succ = [[] for _ in self.vertices]
        for s, t in self.arrow_indices():
            succ[s].append(t)
        return succ

    def is_acyclic(self) -> bool:
        """No directed cycles; a loop counts as one."""
        return topological_order(self.successors()) is not None


def topological_order(succ):
    """DFS post-order of the digraph i -> succ[i], or None on a directed cycle.

    Every vertex comes after all of its successors; vertices and successors
    are visited in the given order, so the result is deterministic. The
    search keeps its own stack, so path length is not bounded by recursion.
    """
    state = [0] * len(succ)  # 0 unseen, 1 on stack, 2 done
    order = []
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            i, rest = stack[-1]
            for j in rest:
                if state[j] == 1:
                    return None
                if state[j] == 0:
                    state[j] = 1
                    stack.append((j, iter(succ[j])))
                    break
            else:
                stack.pop()
                state[i] = 2
                order.append(i)
    return order


def sources(q: Quiver):
    return [v for v in q.vertices if not q.incoming(v)]


def sinks(q: Quiver):
    return [v for v in q.vertices if not q.outgoing(v)]


def is_tree(q: Quiver) -> bool:
    """Tree as an undirected multigraph: connected with #arrows = #vertices - 1."""
    return q.is_connected() and q.n_arrows == q.n_vertices - 1


# -- dimension vectors ---------------------------------------------------------


def check_dim(q: Quiver, d) -> DimVector:
    d = tuple(int(x) for x in d)
    if len(d) != q.n_vertices:
        raise QuiverInputError(
            f"dimension vector has length {len(d)}, expected {q.n_vertices}")
    return d


def is_positive(d) -> bool:
    return all(x >= 0 for x in d) and any(x > 0 for x in d)


def is_sincere(d) -> bool:
    return all(x >= 1 for x in d)


def support_pair(q: Quiver, d):
    """Restrict (q, d) to the full subquiver on the support of d."""
    d = check_dim(q, d)
    keep = [v for v, x in zip(q.vertices, d) if x > 0]
    keepset = set(keep)
    arrows = [(s, t) for s, t in q.arrows if s in keepset and t in keepset]
    sub = Quiver(tuple(keep), tuple(arrows))
    sd = tuple(x for x in d if x > 0)
    return sub, sd


def rep_dimension(q: Quiver, d) -> int:
    """dim of the representation space: sum over arrows of d_source * d_target."""
    d = check_dim(q, d)
    return sum(d[s] * d[t] for s, t in q.arrow_indices())


# -- bilinear forms -------------------------------------------------------------


def euler_matrix(q: Quiver):
    """E = I - A with A counting arrows i -> j."""
    n = q.n_vertices
    e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in q.arrow_indices():
        e[s][t] -= 1
    return e


def euler_form(q: Quiver, m, n) -> int:
    m = check_dim(q, m)
    n = check_dim(q, n)
    total = sum(a * b for a, b in zip(m, n))
    for s, t in q.arrow_indices():
        total -= m[s] * n[t]
    return total


def cartan_matrix(q: Quiver):
    e = euler_matrix(q)
    n = q.n_vertices
    return [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]


def sym_form(q: Quiver, m, n) -> int:
    return euler_form(q, m, n) + euler_form(q, n, m)


def tits_form(q: Quiver, d) -> int:
    return euler_form(q, d, d)


# -- graph classification --------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    kind: str          # "dynkin" | "tame" | "wild"
    name: str          # e.g. "A3", "D~4", "E~8"; "wild" otherwise
    delta: tuple = None  # primitive positive radical generator, tame only

    def to_json(self):
        out = {"kind": self.kind, "name": self.name}
        if self.delta is not None:
            out["delta"] = list(self.delta)
        return out


def _leading_minors_positive(c_rows) -> bool:
    """Sylvester's criterion: every leading principal minor D_k is > 0.

    Gaussian elimination without row exchanges leaves D_k / D_(k-1) as the
    k-th pivot, so the minors are all positive exactly when the pivots are,
    and the first pivot <= 0 ends the elimination.
    """
    n = len(c_rows)
    a = ExactMatrix(QQ, c_rows, shape=(n, n)).a.copy()
    for k in range(n):
        if a[k, k] <= 0:
            return False
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return True


def _radical_generator(c_rows):
    """Primitive generator of a one-dimensional kernel with all entries > 0."""
    ker = ExactMatrix(QQ, c_rows).nullspace()
    if ker.ncols != 1:
        return None
    col = ker.a[:, 0].tolist()
    den = 1
    for x in col:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in col]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        return None
    return tuple(ints)


def _arm_lengths(q: Quiver, center):
    """Lengths of the paths hanging off `center` in the underlying tree."""
    adj = {v: [] for v in q.vertices}
    for s, t in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    arms = []
    for w in adj[center]:
        length = 1
        prev, cur = center, w
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    return sorted(arms)


def _shape_name(q: Quiver, kind: str) -> str:
    n = q.n_vertices
    pair_counts = {}
    loops = 0
    for s, t in q.arrows:
        if s == t:
            loops += 1
        else:
            key = frozenset((s, t))
            pair_counts[key] = pair_counts.get(key, 0) + 1
    if loops:
        return "A~0" if (n == 1 and loops == 1 and kind == "tame") else kind
    if any(c > 1 for c in pair_counts.values()):
        return "A~1" if (n == 2 and q.n_arrows == 2 and kind == "tame") else kind
    degrees = {v: 0 for v in q.vertices}
    for s, t in q.arrows:
        degrees[s] += 1
        degrees[t] += 1
    if q.n_arrows == n and all(x == 2 for x in degrees.values()):
        return f"A~{n - 1}"
    if not is_tree(q):
        return kind
    branch = [v for v, x in degrees.items() if x >= 3]
    if not branch:
        return f"A{n}"
    if len(branch) == 1:
        v = branch[0]
        if degrees[v] == 4:
            return "D~4" if n == 5 and _arm_lengths(q, v) == [1, 1, 1, 1] else kind
        if degrees[v] > 4:
            return kind
        arms = _arm_lengths(q, v)
        table = {
            (1, 1, arms[2]): f"D{n}",
            (1, 2, 2): "E6",
            (1, 2, 3): "E7",
            (1, 2, 4): "E8",
            (2, 2, 2): "E~6",
            (1, 3, 3): "E~7",
            (1, 2, 5): "E~8",
        }
        return table.get(tuple(arms), kind)
    if len(branch) == 2 and all(degrees[v] == 3 for v in branch):
        if all(_arm_lengths(q, v)[:2] == [1, 1] for v in branch):
            return f"D~{n - 1}"
    return kind


def classify_graph(q: Quiver) -> GraphClass:
    """Dynkin / tame / wild by definiteness of the Cartan form.

    Dynkin: positive definite, read off the leading principal minors of C.
    Tame: positive semidefinite with a one-dimensional radical, whose
    primitive positive generator delta is returned. Everything else is wild.

    A radical generator u > 0 already makes C semidefinite: C is symmetric
    with C_ij <= 0 off the diagonal, and Cu = 0 gives

        x^T C x = 1/2 sum_{i != j} (-C_ij) u_i u_j (x_i/u_i - x_j/u_j)^2 >= 0.

    So tame means exactly that the kernel of C is spanned by a positive vector.
    """
    if not q.is_connected():
        raise DisconnectedQuiver("classification requires a connected quiver")
    c = cartan_matrix(q)
    if _leading_minors_positive(c):
        return GraphClass("dynkin", _shape_name(q, "dynkin"))
    delta = _radical_generator(c)
    if delta is not None:
        return GraphClass("tame", _shape_name(q, "tame"), delta)
    return GraphClass("wild", "wild")


# -- stage grading ---------------------------------------------------------------


@dataclass(frozen=True)
class Stages:
    h: dict      # vertex id -> level
    levels: tuple  # level sets, index 0 = lowest

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def to_json(self):
        return {"h": dict(self.h), "levels": [list(l) for l in self.levels]}


def stages(q: Quiver) -> Stages:
    """The grading h with h(target) - h(source) = 1 on every arrow, min h = 0.

    Unique up to a shift on each connected component; exists for any tree.
    Raises CyclicQuiver when the constraints are inconsistent.
    """
    if not q.is_connected():
        raise DisconnectedQuiver("stages requires a connected quiver")
    h = {q.vertices[0]: 0}
    work = [q.vertices[0]]
    while work:
        v = work.pop()
        for i in q.outgoing(v):
            t = q.arrows[i][1]
            want = h[v] + 1
            if t not in h:
                h[t] = want
                work.append(t)
            elif h[t] != want:
                raise CyclicQuiver("no arrow-increasing grading exists")
        for i in q.incoming(v):
            s = q.arrows[i][0]
            want = h[v] - 1
            if s not in h:
                h[s] = want
                work.append(s)
            elif h[s] != want:
                raise CyclicQuiver("no arrow-increasing grading exists")
    low = min(h.values())
    h = {v: x - low for v, x in h.items()}
    top = max(h.values())
    levels = tuple(tuple(v for v in q.vertices if h[v] == k) for k in range(top + 1))
    return Stages(h, levels)


# -- JSON interface ---------------------------------------------------------------


def quiver_to_json(q: Quiver, d=None) -> dict:
    out = {"vertices": list(q.vertices),
           "arrows": [[s, t] for s, t in q.arrows]}
    if d is not None:
        out["dim"] = {v: int(x) for v, x in zip(q.vertices, d)}
    return out


def quiver_from_json(data):
    """Parse {"vertices": [...], "arrows": [[s,t],...], "dim": {v: n}}.

    vertices must be an array, each arrow a two-element array and each dim
    entry an integer; nothing else is read as one of them.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vertices, arrows = data["vertices"], data["arrows"]
    except (KeyError, TypeError) as exc:
        raise QuiverInputError(f"malformed quiver JSON: {exc}") from exc
    if not isinstance(vertices, list):
        raise QuiverInputError("vertices must be an array")
    if not (isinstance(arrows, list)
            and all(isinstance(a, list) and len(a) == 2 for a in arrows)):
        raise QuiverInputError("arrows must be an array of [source, target] arrays")
    vertices = tuple(str(v) for v in vertices)
    arrows = tuple((str(s), str(t)) for s, t in arrows)
    q = Quiver(vertices, arrows)
    d = None
    if "dim" in data and data["dim"] is not None:
        dim = data["dim"]
        if not isinstance(dim, dict):
            raise QuiverInputError("dim must be an object {vertex: integer}")
        missing = [v for v in vertices if v not in dim]
        if missing:
            raise QuiverInputError(f"dim missing vertices {missing}")
        d = tuple(dim[v] for v in vertices)
        if not all(type(x) is int for x in d):
            raise QuiverInputError(f"dim entries must be integers, got {list(d)}")
        if any(x < 0 for x in d):
            raise QuiverInputError("negative dimension entry")
    return q, d
