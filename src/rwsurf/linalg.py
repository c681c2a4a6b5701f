"""Small dense vectors and matrices with indefinite (Lorentzian) inner products.

Vectors are numpy arrays whose last axis is the coordinate axis; the ambient
backend that interprets them is carried by the AmbientSpace object that
produced the metric matrix.  Every function here also takes stacks of points:
leading axes broadcast (vectors ``(..., d)``, metrics ``(..., d, d)``) and
the result gains the same leading axes, so one call serves a whole grid.
All dimensions are tiny (d <= 8), so everything is dense.
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


def inner(u, v, G):
    """Indefinite inner product u^T G v.

    G must be the (symmetric) metric matrix at the evaluation point; u, v
    and G must agree in the coordinate dimension.  A float for single
    vectors, an array over the broadcast leading axes otherwise.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    G = np.asarray(G, dtype=float)
    d = u.shape[-1:]
    if u.ndim == 0 or v.shape[-1:] != d or G.shape[-2:] != d + d:
        raise DimensionMismatchError(
            f"inner: shapes {u.shape}, {v.shape}, metric {G.shape}")
    out = np.einsum("...i,...ij,...j->...", u, G, v)
    return float(out) if out.ndim == 0 else out


def causal_character(v, G) -> str:
    """Classify v as 'spacelike', 'null' or 'timelike' by the sign of <v,v>.

    The null band is |<v,v>| < 1e-10 * max(1, v.v) so that near-null vectors
    of any magnitude are flagged.
    """
    s = inner(v, v, G)
    scale = np.maximum(1.0, np.sum(np.square(v), axis=-1))
    out = np.where(np.abs(s) < 1e-10 * scale, "null",
                   np.where(s > 0, "spacelike", "timelike"))
    return str(out) if out.ndim == 0 else out


def project_out_span(x, basis, G):
    """Return x minus its G-orthogonal projection onto span(basis).

    Works for mildly non-orthogonal bases: the projection coefficients solve
    the Gram system exactly instead of assuming the basis orthonormal.
    """
    x = np.asarray(x, dtype=float)
    if not len(basis):
        return x.copy()
    B = np.stack(basis, axis=-1)
    BtG = np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float)
    coef = np.linalg.solve(BtG @ B, BtG @ x[..., None])
    return x - (B @ coef)[..., 0]


def numeric_rank(vectors, G, tol: float = 1e-8) -> int:
    """Rank of the Gram matrix of ``vectors`` under G.

    Counts singular values above tol times the largest one.  An empty list or
    an all-zero Gram matrix has rank 0.
    """
    if tol <= 0:
        raise ValueError("numeric_rank: tol must be positive")
    if not len(vectors):
        return 0
    B = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-1)
    M = np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float) @ B
    sv = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(sv > tol * sv[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank
