"""Reflection functors: arrow reversal at a source or sink, the induced
transformation of concrete representations (cokernel/kernel construction),
degenerate-arrow pruning, and iteration to a bipartite normal form.

Basis choices for the new vertex space come from the deterministic
reduced-echelon nullspace, so reflected representations are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInRepPrime, NotLfdShape, QuiverInputError, StepLimit
from .matrix import ExactMatrix
from .quiver import Quiver, check_dim, is_tree, is_sincere, quiver_to_json, stages
from .reps import Representation
from .roots import reflect


@dataclass(frozen=True)
class ReflectionStep:
    kind: str       # "reflect" | "prune"
    vertex: object
    direction: str  # "source_to_sink" | "sink_to_source" | "removed"
    before: tuple   # (Quiver, DimVector)
    after: tuple

    def to_json(self):
        return {
            "kind": self.kind,
            "vertex": self.vertex,
            "direction": self.direction,
            "before": quiver_to_json(self.before[0], self.before[1]),
            "after": quiver_to_json(self.after[0], self.after[1]),
        }


def reflect_quiver(q: Quiver, k) -> Quiver:
    """Reverse every arrow at a source or sink k; arrow order is preserved."""
    if q.has_loop(k):
        raise QuiverInputError(f"cannot reflect at {k!r}: loop present")
    q.vertex_index(k)
    outgoing = bool(q.outgoing(k))
    incoming = bool(q.incoming(k))
    if outgoing and incoming:
        raise QuiverInputError(f"vertex {k!r} is neither a source nor a sink")
    arrows = tuple((t, s) if k in (s, t) else (s, t) for s, t in q.arrows)
    return Quiver(q.vertices, arrows)


def reflect_pair(q: Quiver, k, d):
    """Reflect the quiver and the dimension vector at a source or sink k;
    a reflected vector with a negative entry is no dimension vector."""
    q_new = reflect_quiver(q, k)
    d_new = reflect(q, k, d)
    ki = q.vertex_index(k)
    if d_new[ki] < 0:
        raise QuiverInputError(
            f"reflected dimension at vertex {k!r} is negative ({d_new[ki]})")
    return q_new, d_new


def reflect_representation(m: Representation, k) -> Representation:
    """Apply the reflection functor at a source or sink k.

    At a source the combined outgoing map must be injective, at a sink the
    combined incoming map surjective (otherwise NotInRepPrime); the new
    vertex space is the cokernel resp. kernel, with the canonical maps, and
    nothing else changes. Hom and End dimensions against reflected test
    objects are preserved.
    """
    q = m.quiver
    d = m.dim
    field = m.field
    ki = q.vertex_index(k)
    out_arrows = q.outgoing(k)
    in_arrows = q.incoming(k)
    if out_arrows and in_arrows:
        raise QuiverInputError(f"vertex {k!r} is neither a source nor a sink")
    q_new = reflect_quiver(q, k)
    d_new = reflect(q, k, d)
    if d_new[ki] < 0:
        raise NotInRepPrime(
            f"reflected dimension at {k!r} is negative ({d_new[ki]})")

    if out_arrows:
        # Source: stack the maps f_{k -> i} into one column-block matrix.
        blocks = [(ai, m.mats[ai]) for ai in out_arrows]
        stacked = ExactMatrix(field, np.vstack([b.a for _, b in blocks]))
        if stacked.rank() != d[ki]:
            raise NotInRepPrime("combined outgoing map is not injective")
        # Cokernel model: rows spanning the left kernel of the stacked map.
        proj = stacked.transpose().nullspace().transpose()  # (big - d_k) x big
        new_mats = list(m.mats)
        r0 = 0
        for ai, b in blocks:
            new_mats[ai] = ExactMatrix(field, proj.a[:, r0:r0 + b.nrows])
            r0 += b.nrows
    else:
        # Sink: concatenate the maps f_{i -> k} into one row-block matrix.
        blocks = [(ai, m.mats[ai]) for ai in in_arrows]
        joined = ExactMatrix(field, np.hstack([b.a for _, b in blocks]))
        if joined.rank() != d[ki]:
            raise NotInRepPrime("combined incoming map is not surjective")
        kernel = joined.nullspace()  # big_cols x (big_cols - d_k)
        new_mats = list(m.mats)
        c0 = 0
        for ai, b in blocks:
            new_mats[ai] = ExactMatrix(field, kernel.a[c0:c0 + b.ncols])
            c0 += b.ncols
    return Representation(q_new, d_new, tuple(new_mats), field)


def prune_degenerate_arrow(q: Quiver, d):
    """Remove a source/sink where the dimension inequality is an equality.

    Such a vertex on a linear-free pair must carry a unique arrow with both
    endpoint dimensions 1; the vertex and arrow are then deleted. If the
    equality holds but the shape fails, NotLfdShape certifies that (q, d)
    does not define a linear free divisor. Returns None when no equality
    vertex exists.
    """
    d = check_dim(q, d)
    for v in q.vertices:
        out_arrows = q.outgoing(v)
        in_arrows = q.incoming(v)
        if out_arrows and in_arrows:
            continue
        arrows_at = out_arrows or in_arrows
        if not arrows_at:
            continue
        vi = q.vertex_index(v)
        neighbor_sum = 0
        for ai in arrows_at:
            s, t = q.arrows[ai]
            other = t if s == v else s
            neighbor_sum += d[q.vertex_index(other)]
        if d[vi] != neighbor_sum:
            continue
        if len(arrows_at) != 1 or d[vi] != 1:
            raise NotLfdShape(
                f"degenerate vertex {v!r}: equality without the "
                f"unique-arrow, dimension-one shape")
        ai = arrows_at[0]
        s, t = q.arrows[ai]
        other = t if s == v else s
        if d[q.vertex_index(other)] != 1:
            raise NotLfdShape(
                f"degenerate vertex {v!r}: partner dimension is not 1")
        vertices = tuple(w for w in q.vertices if w != v)
        arrows = tuple(a for i, a in enumerate(q.arrows) if i != ai)
        q_new = Quiver(vertices, arrows)
        d_new = tuple(x for w, x in zip(q.vertices, d) if w != v)
        step = ReflectionStep("prune", v, "removed", (q, d), (q_new, d_new))
        return q_new, d_new, step
    return None


def bipartite_normal_form(q: Quiver, d, max_steps: int = 64):
    """Reduce (q, d) to a two-stage (bipartite) pair by pruning and reflecting.

    Strategy: prune any degenerate vertex first; otherwise reflect the
    smallest-id sink on the top stage, which lowers the stage span by one
    once the top level is exhausted. Each step preserves the Tits value.
    """
    d = check_dim(q, d)
    if not is_tree(q):
        raise QuiverInputError("normal form needs a tree quiver")
    if not is_sincere(d):
        raise QuiverInputError("normal form needs a sincere dimension vector")
    if max_steps < 0:
        raise QuiverInputError(f"max_steps must be >= 0, got {max_steps}")
    trace = []
    while True:
        st = stages(q)
        if st.top <= 1:
            return q, d, trace
        if len(trace) == max_steps:
            raise StepLimit(f"no bipartite form within {max_steps} steps")
        pruned = prune_degenerate_arrow(q, d)
        if pruned is not None:
            q, d, step = pruned
            trace.append(step)
            continue
        top_level = st.levels[st.top]
        k = min(top_level, key=lambda v: q.vertices.index(v))
        q_new, d_new = reflect_pair(q, k, d)
        trace.append(ReflectionStep("reflect", k, "sink_to_source",
                                    (q, d), (q_new, d_new)))
        q, d = q_new, d_new
