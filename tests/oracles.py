"""Reference implementations the tests check the package against.

Each function restates, one point and one index at a time, a quantity that
``rwsurf`` computes in closed or batched form: the Christoffel tensor behind
``ambient_covariant_derivative``, the backend-aware curvature behind
``curvature_rw_values``, the comoving split, signature-aware Gram-Schmidt and
the normal connection along a frame direction.  The package never imports
this module.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from rwsurf.ambient import AmbientSpace, curvature_rw_values
from rwsurf.errors import DegenerateFrameError, DimensionMismatchError
from rwsurf.linalg import inner, project_out_span
from rwsurf.shape import SurfaceGrid


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


def normal_connection_derivative(grid: SurfaceGrid, field: Callable,
                                 direction: int):
    """nabla^perp of a normal field along e_direction (1 or 2) at every node.

    ``field`` maps a PointData with leading axes to the normal vectors with
    the same leading axes; it must be evaluable on the stencil points.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    return grid.nabla_perp(field, direction - 1)
