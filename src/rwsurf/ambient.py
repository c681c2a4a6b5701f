"""Ambient geometry backends for Lorentzian warped products.

Two backends cover the classified cases:

* ``warped-flat``  -- L^n_1(f, 0) in comoving coordinates (t, x_1..x_{n-1})
  with metric diag(-1, f(t)^2, ..., f(t)^2); its Christoffel correction is
  written out in ``ambient_covariant_derivative``.
* ``product-space-form`` -- E^1_1 x S^{n-1} (c = +1) or E^1_1 x H^{n-1}
  (c = -1) realized inside flat (n+1)-space with metric
  diag(-1, c, 1, ..., 1); all derivatives are flat partials followed by an
  algebraic projection along the product normal.

The curvature tensor is evaluated algebraically from the comoving split and
the scalars f''/f and (f'^2 + c)/f^2, so it also covers warped metrics with
c != 0 that have no coordinate backend here.

Points, vectors and warp states may carry leading point axes; everything
but the warp itself then works on the whole stack at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ChartDomainError, DimensionMismatchError,
                     SingularWarpError, raise_where)
from .linalg import _col, inner

__all__ = [
    "WarpingFunction",
    "AmbientSpace",
    "ambient_covariant_derivative",
    "curvature_scalars",
    "curvature_rw_values",
    "is_constant_curvature",
]

_INTERVAL_SLACK = 1e-9


@dataclass(frozen=True)
class WarpingFunction:
    """Pointwise access to (f, f', f'') on a validity interval.

    f must not vanish on the interval and f, f', f'' must be finite;
    evaluation raises SingularWarpError otherwise.
    """

    fn: Callable[[float], tuple[float, float, float]]
    interval: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        finite = [abs(x) for x in self.interval if np.isfinite(x)]
        slack = _INTERVAL_SLACK * max([1.0, *finite])
        self.__dict__["_limits"] = (self.interval[0] - slack, self.interval[1] + slack)

    def __call__(self, t: float) -> tuple[float, float, float]:
        low, high = self._limits
        if not (low <= t <= high):
            lo, hi = self.interval
            raise ChartDomainError(
                f"warp evaluated at t={t} outside interval [{lo}, {hi}]")
        f, fp, fpp = self.fn(t)
        if not (math.isfinite(f) and math.isfinite(fp) and math.isfinite(fpp)):
            raise SingularWarpError(f"warping function is not finite at t={t}")
        if abs(f) < 1e-14:
            raise SingularWarpError(f"warping function vanishes at t={t}")
        return float(f), float(fp), float(fpp)

    # -- common closed forms ------------------------------------------------

    @staticmethod
    def constant(value: float = 1.0, interval=(-np.inf, np.inf)) -> "WarpingFunction":
        if value == 0.0:
            raise SingularWarpError("constant warp must be non-zero")
        return WarpingFunction(lambda t: (value, 0.0, 0.0), interval)

    @staticmethod
    def exponential(rate: float = 1.0, interval=(-np.inf, np.inf)) -> "WarpingFunction":
        def fn(t):
            e = np.exp(rate * t)
            return e, rate * e, rate * rate * e
        return WarpingFunction(fn, interval)

    @staticmethod
    def hyperbolic_cosine(interval=(-np.inf, np.inf)) -> "WarpingFunction":
        return WarpingFunction(
            lambda t: (np.cosh(t), np.sinh(t), np.cosh(t)), interval)

    @staticmethod
    def polynomial(coeffs, interval) -> "WarpingFunction":
        """Polynomial warp from ascending coefficients; interval required
        because positivity is the caller's responsibility."""
        c = np.asarray(coeffs, dtype=float)
        c1 = np.polyder(c[::-1])
        c2 = np.polyder(c1)

        def fn(t):
            return (float(np.polyval(c[::-1], t)), float(np.polyval(c1, t)),
                    float(np.polyval(c2, t)))

        return WarpingFunction(fn, tuple(interval))


@dataclass(frozen=True)
class AmbientSpace:
    """One of the two ambient backends.

    n is the manifold dimension of L^n_1; for the embedded product backend
    the coordinate (ambient) dimension is n + 1.
    """

    kind: str  # 'warped-flat' | 'product-space-form'
    n: int
    c: int
    warp: WarpingFunction = field(default_factory=WarpingFunction.constant)

    def __post_init__(self):
        if self.kind == "warped-flat":
            if self.c != 0:
                raise DimensionMismatchError("warped-flat backend requires c = 0")
        elif self.kind == "product-space-form":
            if self.c not in (-1, 1):
                raise DimensionMismatchError(
                    "product-space-form backend requires c in {-1, +1}")
            f, fp, fpp = self.warp.fn(0.0)
            if not (f == 1.0 and fp == 0.0 and fpp == 0.0):
                raise DimensionMismatchError(
                    "product-space-form backend requires f == 1")
        else:
            raise DimensionMismatchError(f"unknown backend kind {self.kind!r}")
        if self.n < 3:
            raise DimensionMismatchError("need n >= 3")

    @staticmethod
    def warped_flat(n: int, warp: WarpingFunction) -> "AmbientSpace":
        return AmbientSpace("warped-flat", n, 0, warp)

    @staticmethod
    def product_space_form(n: int, c: int) -> "AmbientSpace":
        return AmbientSpace("product-space-form", n, c,
                            WarpingFunction.constant(1.0))

    # -- coordinate layout ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind == "warped-flat" else self.n + 1

    @property
    def is_embedded(self) -> bool:
        return self.kind == "product-space-form"

    def dt_vector(self) -> np.ndarray:
        """The comoving observer direction as a coordinate vector."""
        v = np.zeros(self.ambient_dim)
        v[0] = 1.0
        return v

    def check_vector(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1:] != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"vector has shape {X.shape}, backend expects ({self.ambient_dim},)")
        return X

    def warp_state(self, p) -> tuple[float, float, float]:
        """(f, f', f'') at the time coordinate of one point p (identically
        (1,0,0) on the product backend)."""
        if self.is_embedded:
            return (1.0, 0.0, 0.0)
        return self.warp(float(p[0]))

    def product_normal(self, p) -> np.ndarray:
        """Unit normal of the product inside flat space: fiber position."""
        if not self.is_embedded:
            raise DimensionMismatchError("product normal exists only on the "
                                         "product-space-form backend")
        nu = np.array(p, dtype=float)
        nu[..., 0] = 0.0
        return nu

    # -- metric ---------------------------------------------------------------

    def metric_at(self, p, warp_state) -> np.ndarray:
        """The metric's diagonal at p, given the warp state (f, f', f'').

        Warped backend: (-1, f^2, ..., f^2).  Product backend: the constant
        flat weights (-1, c, 1, ..., 1); p must satisfy the space-form locus
        constraint <pbar,pbar>_c = c within 1e-10.  With leading point axes
        on p (and on the warp state) the result is a stack ``(..., d)``.
        """
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"point has shape {p.shape}, backend expects ({self.ambient_dim},)")
        if self.kind == "warped-flat":
            f = np.asarray(warp_state[0], dtype=float)
            g = np.empty(p.shape)
            g[..., 0] = -1.0
            g[..., 1:] = _col(f * f)
            return g
        g = np.ones(self.ambient_dim)
        g[0], g[1] = -1.0, float(self.c)
        fiber = p.copy()
        fiber[..., 0] = 0.0
        locus = np.asarray(inner(fiber, fiber, g)) - self.c
        raise_where(ChartDomainError, np.abs(locus) > 1e-10,
                    "point off the embedded space-form locus (residual {:.3e})",
                    locus)
        return np.broadcast_to(g, p.shape)


def ambient_covariant_derivative(space: AmbientSpace, p, x_vec, y_vec,
                                 dy_dx, G, warp_state) -> np.ndarray:
    """Covariant derivative of a field Y along X at p.

    ``dy_dx`` is the caller-supplied coordinate directional derivative of Y
    along X (from jets or finite differences); G is the metric's diagonal
    (``metric_at``) and warp_state (f, f', f'') at p.  The warped backend
    adds the Christoffel correction Gamma(X, Y); the product backend
    projects the flat derivative back onto the product's tangent space.
    This is the one implementation of the connection: chart second
    derivatives and grid stencils call it too.
    """
    x, y, dy = (space.check_vector(w) for w in (x_vec, y_vec, dy_dx))
    if space.kind == "warped-flat":
        f, fp, _ = (np.asarray(w, dtype=float) for w in warp_state)
        out = np.empty_like(dy)
        out[..., 0] = dy[..., 0] + f * fp * np.einsum("...i,...i->...",
                                                      x[..., 1:], y[..., 1:])
        out[..., 1:] = dy[..., 1:] + _col(fp / f) * (
            x[..., :1] * y[..., 1:] + y[..., :1] * x[..., 1:])
        return out
    nu = space.product_normal(p)
    return dy - space.c * _col(inner(dy, nu, G)) * nu


def curvature_scalars(f: float, fp: float, fpp: float,
                      c: float) -> tuple[float, float]:
    """(k1, k2) = (f''/f, (f'^2 + c)/f^2): the curvature of L^n_1(f, c) is
    algebraic in these two scalars, and it is constant exactly when they
    agree."""
    return fpp / f, (fp * fp + c) / (f * f)


def curvature_rw_values(X, Y, Z, G, f: float, fp: float, fpp: float,
                        c: float) -> np.ndarray:
    """R(X, Y)Z from the comoving split, valid for any (f, c).

    Purely algebraic in the scalars k1 = f''/f and k2 = (f'^2 + c)/f^2 and in
    fiber inner products taken with the supplied metric diagonal G.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    k1, k2 = (_col(k) for k in curvature_scalars(f, fp, fpp, c))
    X0, Y0, Z0 = X[..., :1], Y[..., :1], Z[..., :1]
    Xb = X.copy(); Xb[..., 0] = 0.0
    Yb = Y.copy(); Yb[..., 0] = 0.0
    Zb = Z.copy(); Zb[..., 0] = 0.0
    ip_yz = _col(inner(Yb, Zb, G))
    ip_xz = _col(inner(Xb, Zb, G))
    dt = np.zeros(X.shape[-1])
    dt[0] = 1.0
    return (k1 * (X0 * Z0 * Yb - Y0 * Z0 * Xb + (X0 * ip_yz - Y0 * ip_xz) * dt)
            + k2 * (ip_yz * Xb - ip_xz * Yb))


def is_constant_curvature(warp: WarpingFunction, c: float, interval,
                          tol: float = 1e-9, samples: int = 257):
    """Test f''/f == (f'^2 + c)/f^2 on ``interval``.

    Returns (flag, max_deviation) where the flag is True when the supremum of
    the defect over uniformly sampled points stays below tol.  A NaN defect
    at any sample makes the deviation NaN and the flag False.
    """
    ks = (curvature_scalars(*warp(float(t)), c)
          for t in np.linspace(*interval, samples))
    dev = float(np.max([abs(k1 - k2) for k1, k2 in ks]))
    return dev < tol, dev
