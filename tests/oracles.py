"""Reference implementations the tests check the package against.

Each function restates, one point and one index at a time, a quantity that
``rwsurf`` computes in closed or batched form: the Christoffel tensor behind
``ambient_covariant_derivative``, the backend-aware curvature behind
``curvature_rw_values``, the closed form of the tangential curvature trace
behind ``curvature_trace_term``, the comoving split, signature-aware
Gram-Schmidt, and the dense-matrix forms of the inner product, projection
and rank that ``rwsurf.linalg`` computes from the metric's diagonal.  The
package never imports this module.
"""

from __future__ import annotations

import numpy as np

from rwsurf.ambient import AmbientSpace, curvature_rw_values, curvature_scalars
from rwsurf.errors import DegenerateFrameError, DimensionMismatchError
from rwsurf.linalg import inner, project_out_span


def dense_inner(u, v, G):
    """u^T G v with a full metric matrix G (..., d, d), as one three-operand
    einsum."""
    return np.einsum("...i,...ij,...j->...", np.asarray(u, dtype=float),
                     np.asarray(G, dtype=float), np.asarray(v, dtype=float))


def dense_project_out_span(x, basis, G):
    """``project_out_span`` with a full metric matrix G (..., d, d)."""
    x = np.asarray(x, dtype=float)
    B = np.stack(basis, axis=-1)
    BtG = np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float)
    coef = np.linalg.solve(BtG @ B, BtG @ x[..., None])
    return x - (B @ coef)[..., 0]


def dense_gram(vectors, G):
    """The Gram matrix ``numeric_rank`` ranks, with a full metric matrix G."""
    B = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-1)
    return np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float) @ B


def comoving_split(X, space: AmbientSpace, p=None):
    """Decompose X = X0 * dt + Xbar with X0 = -<dt, X> and fiber part Xbar."""
    X = space.check_vector(X)
    X0 = float(X[0])
    Xbar = X.copy()
    Xbar[0] = 0.0
    return X0, Xbar


def christoffel_at(space: AmbientSpace, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the warped-flat backend at p.

    Gamma^t_ij = f f' delta_ij and Gamma^i_tj = (f'/f) delta_ij; everything
    else vanishes.
    """
    if space.kind != "warped-flat":
        raise DimensionMismatchError(
            "christoffel_at applies to the warped-flat backend only")
    f, fp, _ = space.warp(float(np.asarray(p, dtype=float)[0]))
    n = space.n
    gamma = np.zeros((n, n, n))
    for i in range(1, n):
        gamma[0, i, i] = f * fp
        gamma[i, 0, i] = fp / f
        gamma[i, i, 0] = fp / f
    return gamma


def curvature_rw(space: AmbientSpace, X, Y, Z, p) -> np.ndarray:
    """Backend-aware curvature evaluation at p.

    On the product backend the inputs must be tangent to the product at p.
    """
    f, fp, fpp = space.warp_state(p)
    G = space.metric_at(p, (f, fp, fpp))
    return curvature_rw_values(space.check_vector(X), space.check_vector(Y),
                               space.check_vector(Z), G, f, fp, fpp,
                               float(space.c))


def curvature_trace_closed_form(frame, H, G, warp_state, c: float):
    """The tangential curvature trace (f''/f - (f'^2 + c)/f^2) <H, eta> T,
    the closed form of ``curvature_trace_term``'s direct contraction."""
    k1, k2 = curvature_scalars(*warp_state, c)
    return np.asarray((k1 - k2) * inner(H, frame.eta, G))[..., None] * frame.T


def orthonormalize_signature(vectors, G, tol: float = 1e-10,
                             timelike_index: int | None = None):
    """Signature-aware Gram-Schmidt.

    Returns (frame, signs): pairwise G-orthogonal vectors with |<f_i,f_i>| = 1
    and signs recording timelike (-1) versus space-like (+1) directions.
    Output i lies in the span of inputs 1..i and keeps a positive component
    along input i, which makes the result deterministic.

    When ``timelike_index`` is given, that candidate is processed first (the
    adapted-frame convention that stabilizes the sign of the timelike leg).

    Raises DegenerateFrameError when an intermediate vector is numerically
    null or dependent (|<w,w>| below tol relative to its Euclidean size).
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    order = list(range(len(vecs)))
    if timelike_index is not None:
        order.insert(0, order.pop(timelike_index))
    G = np.asarray(G, dtype=float)
    frame: list[np.ndarray] = []
    signs: list[int] = []
    for idx in order:
        w = project_out_span(vecs[idx], frame, G)
        s2 = inner(w, w, G)
        euclid = float(np.dot(w, w))
        v_euclid = float(np.dot(vecs[idx], vecs[idx]))
        if euclid < tol * max(v_euclid, 1e-300):
            raise DegenerateFrameError(
                f"candidate {idx} is linearly dependent on its predecessors")
        if abs(s2) < tol * max(euclid, 1e-300):
            raise DegenerateFrameError(
                f"candidate {idx} spans a null direction (<w,w> = {s2:.3e})")
        sign = 1 if s2 > 0 else -1
        frame.append(w / np.sqrt(abs(s2)))
        signs.append(sign)
    return frame, signs
