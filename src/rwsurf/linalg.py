"""Small dense vectors with indefinite (Lorentzian) inner products.

Vectors are numpy arrays whose last axis is the coordinate axis; a metric is
its diagonal, weights ``(..., d)`` from the AmbientSpace that interprets the
vectors (both backends are diagonal at every point).  Every function here
also takes stacks of points: leading axes broadcast and the result gains the
same leading axes, so one call serves a whole grid.  d <= 8 throughout.
Results take the dtype of the inputs (float64, complex128 or longdouble);
``numeric_rank``, which decides, reads the real part in float64, and
``project_out_span`` projects off a g-orthonormal span twice, without LAPACK.
``raise_where`` raises a check's failure at the points where it holds.
"""

from __future__ import annotations

import numpy as np

from . import _exports
from .errors import DimensionMismatchError

__all__ = _exports(__name__)

# numeric_rank counts the Gram eigenvalues above this share of the largest
_RANK_THRESHOLD = 1e-8


def _col(x) -> np.ndarray:
    """Per-point scalars as a trailing column, to scale ``(..., d)`` vectors."""
    return np.asarray(x)[..., None]


def _sum_last(p) -> np.ndarray:
    """``p.sum(-1)``, bitwise but for the sign and payload of a NaN.  numpy
    adds a last axis shorter than 8 left to right from +0.0 (a sum of -0.0s
    reads +0.0), 2-4x slower than the column additions here, which keep that
    order; from length 8 numpy sums pairwise, and ``p.sum(-1)`` runs."""
    n = p.shape[-1]
    if not 0 < n < 8:
        return p.sum(-1)
    out = p[..., 0] + 0.0
    for k in range(1, n):
        out += p[..., k]
    return out


def _all_last(mask) -> np.ndarray:
    """``mask.all(-1)`` for a non-empty last axis, by an ``&=`` sweep over
    its columns: numpy reduces a short axis strided across the array several
    times slower."""
    out = mask[..., 0].copy()
    for k in range(1, mask.shape[-1]):
        out &= mask[..., k]
    return out


def raise_where(exc_type, bad, message: str, *values):
    """Raise ``exc_type`` when ``bad`` (one point or an array over points)
    holds anywhere, with ``message`` formatted from the real parts of each
    failing point's ``values``.  ``where`` (the mask) and ``texts`` (the
    messages, in flat order) on the exception let a caller that evaluated
    many points at once record each failure and go on with the rest."""
    bad = np.asarray(bad, dtype=bool)
    if not bad.any():
        return
    cols = [np.broadcast_to(np.real(v), bad.shape)[bad] for v in values]
    texts = [message.format(*(c[k] for c in cols)) for k in range(bad.sum())]
    exc = exc_type(texts[0])
    exc.where, exc.texts = bad, texts
    raise exc


def inner(u, v, g):
    """Indefinite inner product sum_i u_i g_i v_i, g the metric's diagonal.

    u, v and g must agree in the coordinate dimension, and g may not have
    more axes than u and v broadcast (a (d, d) matrix is refused).  A scalar
    for single vectors, an array over the broadcast leading axes otherwise.
    """
    u, v, g = np.asarray(u), np.asarray(v), np.asarray(g)
    d = u.shape[-1:]
    if (u.ndim == 0 or v.shape[-1:] != d or g.shape[-1:] != d
            or g.ndim > max(u.ndim, v.ndim)):
        raise DimensionMismatchError(
            f"inner: shapes {u.shape}, {v.shape}, metric weights {g.shape}")
    out = _sum_last(u * g * v)
    return out.item() if out.ndim == 0 else out


def causal_character(v, g) -> str:
    """Classify v as 'spacelike', 'null' or 'timelike' by the sign of <v,v>.

    The null band is |<v,v>| < 1e-10 * max(1, v.v) so that near-null vectors
    of any magnitude are flagged; 'undefined' where <v,v> or v.v is inf/NaN.
    """
    s = inner(v, v, g)
    scale = np.maximum(1.0, _sum_last(np.square(v)))
    out = np.where(~(np.isfinite(s) & np.isfinite(scale)), "undefined",
                   np.where(np.abs(s) < 1e-10 * scale, "null",
                            np.where(s > 0, "spacelike", "timelike")))
    return str(out) if out.ndim == 0 else out


def project_out_span(x, basis, g):
    """Return x minus its g-orthogonal projection onto span(basis), for a
    g-orthonormal basis (a zero vector adds nothing): x - sum_k sign<b_k,b_k>
    <x,b_k> b_k, applied twice (Giraud, Langou and Rozloznik 2005)."""
    x = np.asarray(x)
    if not len(basis):
        return x.copy()
    B, gB = np.stack(basis, axis=-2), np.asarray(g)[..., None, :]
    signs = np.sign(inner(B, B, gB).real)
    for _ in range(2):
        coef = inner(x[..., None, :], B, gB) * signs
        for k in range(B.shape[-2]):
            x = x - _col(coef[..., k]) * B[..., k, :]
    return x


def numeric_rank(vectors, g) -> int:
    """Rank of the Gram matrix of ``vectors`` under the metric weights g.

    Counts the eigenvalues of the Gram matrix's real part whose absolute
    value exceeds _RANK_THRESHOLD (1e-8) times the largest absolute one (they
    are its singular values).  An empty list or an all-zero Gram matrix has
    rank 0.  A Gram matrix with an inf or NaN entry, an overflowing one
    included, raises LinAlgError naming it and, in a stack, its point.
    """
    if not len(vectors):
        return 0
    Bt = np.stack(vectors, axis=-2)
    with np.errstate(over="ignore", invalid="ignore"):
        M = (Bt * np.asarray(g)[..., None, :]) @ np.swapaxes(Bt, -1, -2)
    finite = np.isfinite(M).all(axis=(-2, -1))
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist()) if finite.ndim else ()
        raise np.linalg.LinAlgError(
            "numeric_rank: the Gram matrix" + (f" at point {at}" if at else "")
            + f" is not finite: {M[at].tolist()}")
    ev = np.abs(np.linalg.eigvalsh(M.real.astype(float)))
    rank = np.sum(ev > _RANK_THRESHOLD * ev.max(axis=-1, keepdims=True), axis=-1)
    return int(rank) if rank.ndim == 0 else rank
