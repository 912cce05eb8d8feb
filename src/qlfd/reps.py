"""Concrete quiver representations over F_p: points of the representation
space, Hom/Ext dimensions via the standard four-term exact sequence, brick
and Schur-root sampling, and orthogonal-category candidate search.

Flattening convention, fixed once: coordinates of the representation space
are ordered arrow by arrow (quiver arrow order), column-major within each
arrow block. The map c between two representations uses vertex blocks then
arrow blocks, column-major within each block; determinant signs and golden
values depend on this. _c_array is the one builder of c, on plain int64
arrays: build_c_matrix wraps it for Hom and Ext, the brick test and the
relative invariants, and the orthogonal-candidate probes call it directly.
c(x, x) transposed, without its last row, is the Saito matrix M(x). Random
points are drawn by _draw_mats alone, arrow by arrow, row by row within an
arrow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import QuiverInputError
from .matrix import ExactMatrix, _det
from .quiver import Quiver, check_dim, euler_matrix, is_positive


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    dim: tuple
    mats: tuple  # one ExactMatrix of shape d_target x d_source per arrow
    field: object

    def __post_init__(self):
        d = check_dim(self.quiver, self.dim)
        object.__setattr__(self, "dim", d)
        if len(self.mats) != self.quiver.n_arrows:
            raise QuiverInputError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrow_indices(), self.mats):
            if m.shape != (d[t], d[s]):
                raise QuiverInputError(
                    f"arrow matrix shape {m.shape} != ({d[t]}, {d[s]})")


# -- coordinates of the representation space ---------------------------------------


def coord_offsets(q: Quiver, d):
    """Per-arrow offsets into the flat coordinate vector, plus total length."""
    d = check_dim(q, d)
    offs = []
    total = 0
    for s, t in q.arrow_indices():
        offs.append(total)
        total += d[s] * d[t]
    return offs, total


def rep_from_coords(q: Quiver, d, coords, field) -> Representation:
    d = check_dim(q, d)
    offs, total = coord_offsets(q, d)
    if len(coords) != total:
        raise QuiverInputError(f"expected {total} coordinates, got {len(coords)}")
    x = ExactMatrix(field, [coords], shape=(1, total)).a[0]
    mats = tuple(ExactMatrix._of(field, x[off:off + d[s] * d[t]].reshape(d[s], d[t]).T)
                 for (s, t), off in zip(q.arrow_indices(), offs))
    return Representation(q, d, mats, field)


def coords_from_rep(m: Representation) -> np.ndarray:
    """The coordinate vector of m: its arrow blocks, each column-major, as
    one int64 array (empty when the quiver has no arrows)."""
    blocks = [mat.a.T.ravel() for mat in m.mats]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


def _draw_mats(arrows, dims, p, rng):
    """One uniform d_target x d_source int64 matrix of residues mod p per
    arrow, drawn arrow by arrow, row by row within an arrow."""
    sizes = [dims[s] * dims[t] for s, t in arrows]
    draw = rng.randrange
    x = np.array([draw(p) for _ in range(sum(sizes))], dtype=np.int64)
    return [x[off:off + size].reshape(dims[t], dims[s])
            for (s, t), off, size in zip(arrows, accumulate(sizes, initial=0), sizes)]


def sample_representation(q: Quiver, d, field, rng) -> Representation:
    """Uniform random point of the representation space over the field.

    Entries are drawn arrow by arrow, row by row within an arrow.
    """
    d = check_dim(q, d)
    mats = tuple(ExactMatrix._of(field, m)
                 for m in _draw_mats(q.arrow_indices(), d, field.p, rng))
    return Representation(q, d, mats, field)


# -- the Hom/Ext linear map ---------------------------------------------------------


def _view(c, offset, shape, strides):
    """A view of the C-contiguous int64 array c, offset and strides counted
    in entries."""
    return np.ndarray(shape, np.int64, c, 8 * offset, tuple(8 * x for x in strides))


def _c_array(arrows, n_vertices, md, nd, fs, gs, p):
    """c between the representations (f_a) of dimension md and (g_a) of
    dimension nd, given as int64 arrays of residues mod p, as a fresh
    reduced int64 array with the layout of build_c_matrix."""
    col_off = list(accumulate((md[i] * nd[i] for i in range(n_vertices)), initial=0))
    row_off = list(accumulate((md[s] * nd[t] for s, t in arrows), initial=0))
    width = col_off[-1]
    c = np.zeros((row_off[-1], width), dtype=np.int64)
    for (s, t), r0, f, g in zip(arrows, row_off, fs, gs):
        ms, nt, ns = md[s], nd[t], nd[s]
        if not ms * nt:
            continue  # an empty row block; its offsets may lie past the end of c
        # Row r0 + a nt + b is entry (b, a) of phi_t f - g phi_s, and column
        # col_off[i] + k nd_i + l is entry (l, k) of phi_i. Seen as
        # (md_s, nd_t, md_t, nd_t), the target block holds f[k, a] where its
        # two nd_t indices agree, a strided diagonal; seen as (md_s, nd_t,
        # md_s, nd_s), the source block holds -g[b, l] where its two md_s
        # indices agree. += keeps both terms when s = t.
        target = _view(c, r0 * width + col_off[t], (ms, md[t], nt),
                       (nt * width, nt, width + 1))
        target += f.T[:, :, None]
        source = _view(c, r0 * width + col_off[s], (ms, nt, ns),
                       (nt * width + ns, width, 1))
        source += p - g
    c %= p
    return c


def build_c_matrix(m: Representation, n: Representation) -> ExactMatrix:
    """The map (phi_i) -> (phi_{t a} f_a - g_a phi_{s a}) between the
    representations m = (f_a) and n = (g_a), built by _c_array.

    Domain: one block per vertex, Hom(V_i, W_i) flattened column-major.
    Codomain: one block per arrow, Hom(V_{s a}, W_{t a}) flattened
    column-major. Kernel dimension is Hom, cokernel dimension is Ext.
    """
    q, field = m.quiver, m.field
    if n.quiver != q:
        raise QuiverInputError("representations live on different quivers")
    if n.field != field:
        raise QuiverInputError("representations live over different fields")
    c = _c_array(q.arrow_indices(), q.n_vertices, m.dim, n.dim,
                 [f.a for f in m.mats], [g.a for g in n.mats], field.p)
    return ExactMatrix._of(field, c)


@dataclass(frozen=True)
class HomExtReport:
    hom: int
    ext: int


def hom_ext(m: Representation, n: Representation) -> HomExtReport:
    c = build_c_matrix(m, n)
    rk = c.rank()
    hom = c.ncols - rk
    ext = c.nrows - rk
    return HomExtReport(hom, ext)


def end_dim(m: Representation) -> int:
    return hom_ext(m, m).hom


def is_brick(m: Representation) -> bool:
    return end_dim(m) == 1


# -- Schur roots and orthogonal candidates -------------------------------------------


@dataclass(frozen=True)
class SchurVerdict:
    value: str          # "yes" | "inconclusive"
    trials: int
    witness: Representation = None

    def to_json(self):
        return {"verdict": self.value, "trials": self.trials}


def is_schur_root(q: Quiver, d, trials: int, field, rng, saito=None) -> SchurVerdict:
    """One-sided probabilistic Schur test.

    Bricks form an open subset of the representation space, so a single
    sampled brick is a proof; absence is never certified and the verdict
    degrades to 'inconclusive' after the trial budget.

    Each sample x is tested with is_brick, or, when the Saito matrix of
    (q, d) is given (d sincere on a connected quiver with q(d) = 1), by
    det M(x) != 0. The rows of M(x) are the images A.x of a basis of
    gl(d) without one diagonal unit; the identity lies in End(x), so that
    unit's image is minus the sum of the other diagonal units' images, and
    rank M(x) = sum d_i^2 - dim End(x). M(x) has sum d_i^2 - 1 rows, so x is
    a brick exactly when det M(x) != 0. Both tests see the same draws.

    The degrees report samples its brick here, since perp_candidates needs
    one as a Representation. The lfd verdict draws no Schur sample: it reads
    its brick off the first nonsingular anchor of the line test
    (saito.reducedness_test).
    """
    d = check_dim(q, d)
    if not is_positive(d):
        raise QuiverInputError("Schur test needs a positive dimension vector")
    for t in range(1, trials + 1):
        rep = sample_representation(q, d, field, rng)
        if (is_brick(rep) if saito is None
                else saito.det_at(coords_from_rep(rep), field) != 0):
            return SchurVerdict("yes", t, rep)
    return SchurVerdict("inconclusive", trials)


def perp_candidates(q: Quiver, d, roots, side: str, brick: Representation,
                    trials: int, field, rng):
    """Dimension vectors of candidate simple objects in one orthogonal
    category of the generic representation of dimension d: the left one
    (<e, d> = 0) or the right one (<d, e> = 0).

    A candidate e must be one of the given positive real roots (q_Q(e) = 1),
    Euler-orthogonal to d on the given side, and a sampled generic
    representation of dimension e must have Hom = Ext = 0 against the
    sampled brick of dimension d: the c-matrix between them is square by
    orthogonality, so this is a nonzero determinant, which proves the
    relative invariant c^e of Rep(q, d) nonzero. Each of the at most
    `trials` probes per root draws its matrices with _draw_mats, as
    sample_representation does, builds c with _c_array and takes _det, all
    on plain int64 arrays. Candidates are not certified simple; the degrees
    report certifies a subset of them by an exact sum of their characters.
    """
    d = check_dim(q, d)
    if side not in ("left", "right"):
        raise QuiverInputError("side must be 'left' or 'right'")
    if (brick.quiver, brick.dim, brick.field) != (q, d, field):
        raise QuiverInputError("the brick must be a representation of (q, d) over the field")
    # <e, d> = e . E d on the left and <d, e> = e . E^t d on the right
    e_mat = np.array(euler_matrix(q), dtype=np.int64)
    if side == "right":
        e_mat = e_mat.T
    pairings = (np.array(roots, dtype=np.int64).reshape(len(roots), q.n_vertices)
                @ (e_mat @ np.array(d, dtype=np.int64)))
    arrows, n_vertices, p = q.arrow_indices(), q.n_vertices, field.p
    brick_mats = [m.a for m in brick.mats]
    out = []
    for e, pairing in zip(roots, pairings.tolist()):
        if pairing or e == d or not any(e):
            continue
        for _ in range(trials):
            probe = _draw_mats(arrows, e, p, rng)
            if side == "left":
                c = _c_array(arrows, n_vertices, e, d, probe, brick_mats, p)
            else:
                c = _c_array(arrows, n_vertices, d, e, brick_mats, probe, p)
            if _det(c, p):
                out.append(e)
                break
    return out
