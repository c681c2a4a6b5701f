"""Small dense vectors with indefinite (Lorentzian) inner products.

Vectors are numpy arrays whose last axis is the coordinate axis; a metric is
its diagonal, weights ``(..., d)`` from the AmbientSpace that interprets the
vectors (both backends are diagonal at every point).  Every function here
also takes stacks of points: leading axes broadcast and the result gains the
same leading axes, so one call serves a whole grid.  d <= 8 throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "inner",
    "causal_character",
    "numeric_rank",
    "project_out_span",
]


def _col(x) -> np.ndarray:
    """Per-point scalars as a trailing column, to scale ``(..., d)`` vectors."""
    return np.asarray(x, dtype=float)[..., None]


def inner(u, v, g):
    """Indefinite inner product sum_i u_i g_i v_i, g the metric's diagonal.

    u, v and g must agree in the coordinate dimension, and g may not have
    more axes than u and v broadcast (a (d, d) matrix is refused).  A float
    for single vectors, an array over the broadcast leading axes otherwise.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    d = u.shape[-1:]
    if (u.ndim == 0 or v.shape[-1:] != d or g.shape[-1:] != d
            or g.ndim > max(u.ndim, v.ndim)):
        raise DimensionMismatchError(
            f"inner: shapes {u.shape}, {v.shape}, metric weights {g.shape}")
    out = (u * g * v).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def causal_character(v, g) -> str:
    """Classify v as 'spacelike', 'null' or 'timelike' by the sign of <v,v>.

    The null band is |<v,v>| < 1e-10 * max(1, v.v) so that near-null vectors
    of any magnitude are flagged; 'undefined' where <v,v> or v.v is inf/NaN.
    """
    s = inner(v, v, g)
    scale = np.maximum(1.0, np.sum(np.square(v), axis=-1))
    out = np.where(~(np.isfinite(s) & np.isfinite(scale)), "undefined",
                   np.where(np.abs(s) < 1e-10 * scale, "null",
                            np.where(s > 0, "spacelike", "timelike")))
    return str(out) if out.ndim == 0 else out


def project_out_span(x, basis, g):
    """Return x minus its g-orthogonal projection onto span(basis).

    Works for mildly non-orthogonal bases: the projection coefficients solve
    the Gram system exactly instead of assuming the basis orthonormal.
    """
    x = np.asarray(x, dtype=float)
    if not len(basis):
        return x.copy()
    B = np.stack(basis, axis=-1)
    BtG = np.stack(basis, axis=-2) * np.asarray(g)[..., None, :]
    coef = np.linalg.solve(BtG @ B, BtG @ x[..., None])
    return x - (B @ coef)[..., 0]


def numeric_rank(vectors, g, tol: float = 1e-8) -> int:
    """Rank of the Gram matrix of ``vectors`` under the metric weights g.

    Counts singular values above tol times the largest one.  An empty list or
    an all-zero Gram matrix has rank 0.
    """
    if tol <= 0:
        raise ValueError("numeric_rank: tol must be positive")
    if not len(vectors):
        return 0
    Bt = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-2)
    M = (Bt * np.asarray(g)[..., None, :]) @ np.swapaxes(Bt, -1, -2)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(sv > tol * sv[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank
