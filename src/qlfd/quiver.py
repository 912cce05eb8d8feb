"""Quiver data model and the integer bilinear-form layer.

Vertex and arrow order is the canonical coordinate order for everything
downstream (representation coordinates, Saito matrix columns), so both are
stored as tuples and never reordered.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import CyclicQuiver, DisconnectedQuiver, QuiverInputError

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
    """d as a tuple of Python ints; its entries must be integers, not floats
    or strings, and there must be one per vertex."""
    try:
        d = tuple(map(operator.index, d))
    except TypeError as exc:
        raise QuiverInputError(f"dimension vector must hold integers: {exc}") from None
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


def classify_graph(q: Quiver) -> GraphClass:
    """Dynkin / tame / wild, read off the underlying graph of a connected quiver.

    The Tits form q(d) = sum d_i^2 - sum_{i->j} d_i d_j depends only on the
    underlying graph, and so does the answer:

    - Gabriel (Manuscripta Math. 6, 1972): the form is positive definite
      exactly when the graph is a Dynkin diagram A_n, D_n, E6, E7 or E8.
    - Dlab and Ringel (Mem. AMS 173, 1976): it is positive semidefinite, and
      not definite, exactly when the graph is a Euclidean diagram A~n, D~n,
      E~6, E~7 or E~8; its radical is then spanned by the standard delta.
      Every other connected graph contains a Euclidean diagram properly and
      is wild.

    One walk of the graph tells them apart. A loop is A~0 (delta = (1)) and
    a double edge A~1 (delta = (1, 1)) only when nothing else is there. A
    graph with as many edges as vertices is A~(n-1) when every vertex has
    degree 2, delta all ones. A tree with no branch vertex is A_n; with one,
    its sorted arm lengths, counted in vertices, decide:

        (1, 1, k) D_n     (1, 2, 2) E6     (1, 2, 3) E7     (1, 2, 4) E8
        (1, 1, 1, 1) D~4  (2, 2, 2) E~6    (1, 3, 3) E~7    (1, 2, 5) E~8

    On the Euclidean stars delta is 2, 3, 4 or 6 at the centre and drops by
    centre / (l + 1) at each step along an arm of l vertices, down to the
    leaf: (2; 1, 1, 1, 1), (3; 2 1, 2 1, 2 1), (4; 2, 3 2 1, 3 2 1) and
    (6; 3, 4 2, 5 4 3 2 1). A tree with two branch vertices, each of degree
    3 with two leaves as neighbours, is D~(n-1), delta 1 at the four leaves
    and 2 elsewhere. Everything else is wild.
    """
    n = q.n_vertices
    if not n:
        raise QuiverInputError("classification requires at least one vertex")
    if not q.is_connected():
        raise DisconnectedQuiver("classification requires a connected quiver")
    wild = GraphClass("wild", "wild")
    adj = [[] for _ in range(n)]
    loops = 0
    for s, t in q.arrow_indices():
        if s == t:
            loops += 1
        else:
            adj[s].append(t)
            adj[t].append(s)
    if loops:
        return GraphClass("tame", "A~0", (1,)) if n == q.n_arrows == 1 else wild
    if any(len(set(a)) < len(a) for a in adj):
        return GraphClass("tame", "A~1", (1, 1)) if n == q.n_arrows == 2 else wild
    if q.n_arrows >= n:
        if q.n_arrows == n and all(len(a) == 2 for a in adj):
            return GraphClass("tame", f"A~{n - 1}", (1,) * n)
        return wild
    branch = [v for v in range(n) if len(adj[v]) >= 3]
    if not branch:
        return GraphClass("dynkin", f"A{n}")
    if len(branch) == 1:
        centre = branch[0]
        arms = []
        for w in adj[centre]:
            arm, prev = [w], centre
            while len(adj[arm[-1]]) == 2:
                cur = arm[-1]
                arm.append(adj[cur][0] if adj[cur][0] != prev else adj[cur][1])
                prev = cur
            arms.append(arm)
        arms.sort(key=len)
        lengths = tuple(map(len, arms))
        if len(lengths) == 3 and lengths[:2] == (1, 1):
            return GraphClass("dynkin", f"D{n}")
        if lengths in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
            return GraphClass("dynkin", f"E{n}")
        euclidean = {(1, 1, 1, 1): ("D~4", 2), (2, 2, 2): ("E~6", 3),
                     (1, 3, 3): ("E~7", 4), (1, 2, 5): ("E~8", 6)}
        if lengths not in euclidean:
            return wild
        name, top = euclidean[lengths]
        delta = [top] * n
        for arm in arms:
            step = top // (len(arm) + 1)
            for i, v in enumerate(arm, 1):
                delta[v] = top - i * step
        return GraphClass("tame", name, tuple(delta))
    if len(branch) == 2 and all(
            len(adj[b]) == 3 and sum(len(adj[w]) == 1 for w in adj[b]) == 2
            for b in branch):
        return GraphClass("tame", f"D~{n - 1}",
                          tuple(1 if len(a) == 1 else 2 for a in adj))
    return wild


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
    if not q.n_vertices:
        raise QuiverInputError("stages requires at least one vertex")
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

    vertices must be a non-empty array, each arrow a two-element array and
    each dim entry an integer; nothing else is read as one of them.
    """
    try:
        vertices, arrows = data["vertices"], data["arrows"]
    except (KeyError, TypeError) as exc:
        raise QuiverInputError(f"malformed quiver JSON: {exc}") from exc
    if not isinstance(vertices, list) or not vertices:
        raise QuiverInputError("vertices must be a non-empty array")
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
