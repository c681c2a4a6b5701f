"""Ambient geometry of the Lorentzian warped products L^n_1(f, c).

An ambient space is the triple (n, c, warp) of L^n_1(f, c), with metric
-dt^2 + f(t)^2 g_c, and c fixes its coordinate layout:

* c = 0 -- comoving coordinates (t, x_1..x_{n-1}), metric
  diag(-1, f^2, ..., f^2);
* c = +-1 -- the hypersurface R x {<x, x>_c = c} of the (n+1)-space
  (t, x_1..x_n) with metric diag(-1, c f^2, f^2, ..., f^2), a warped
  S^{n-1} (c = +1) or H^{n-1} (c = -1) fiber: E^1_1 x S^{n-1} or
  E^1_1 x H^{n-1} at f = 1.

One connection serves both layouts: the warped Christoffel correction, then,
where c != 0, a projection along the product normal.  The curvature tensor
is algebraic in the comoving split and the scalars f''/f and (f'^2 + c)/f^2.

Points, vectors and warp states may carry leading point axes; everything
but the warp itself then works on the whole stack at once.  The warp is
read one time at a time, through the one sample a WarpingFunction builds
around its ``fn``, closed form and solved warp alike.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _exports
from .errors import ChartDomainError, DimensionMismatchError, SingularWarpError
from .linalg import _col, inner, raise_where

__all__ = _exports(__name__)

_INTERVAL_SLACK = 1e-12  # relative, as in the chart domains
# is_constant_curvature: the defect bound, and the number of uniform samples
_CONSTANT_CURVATURE_TOL = 1e-9
_CONSTANT_CURVATURE_SAMPLES = 257


def _widened(lo, hi) -> tuple[float, float]:
    """[lo, hi] widened at both ends by _INTERVAL_SLACK x max(1, |finite ends|)."""
    finite = [abs(x) for x in (lo, hi) if math.isfinite(x)]
    slack = _INTERVAL_SLACK * max([1.0, *finite])
    return lo - slack, hi + slack


@dataclass(frozen=True)
class WarpingFunction:
    """Pointwise access to (f, f', f'') on a validity interval.

    ``fn(t)`` starts with f, f', f''.  They must be finite and f non-zero on
    the interval; evaluation raises SingularWarpError otherwise, and also
    where ``fn`` raises an ArithmeticError or LinAlgError.  Every warp,
    closed form or solved, runs the one sample that __post_init__ builds
    around ``fn``: the interval test, ``fn(t)[:3]``, these checks, and
    (f, f', f'') as floats.
    """

    fn: Callable[[float], tuple[float, float, float]]
    interval: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        fn, (lo, hi) = self.fn, self.interval
        low, high = _widened(lo, hi)
        isfinite = math.isfinite

        def sample(t):
            if not (low <= t <= high):
                raise ChartDomainError(
                    f"warp evaluated at t={t} outside interval [{lo}, {hi}]")
            try:
                f, fp, fpp = fn(t)[:3]
            except (ArithmeticError, np.linalg.LinAlgError) as exc:  # overflow
                raise SingularWarpError(
                    f"warping function is not finite at t={t} "
                    f"({type(exc).__name__}: {exc})") from exc
            if not (isfinite(f) and isfinite(fp) and isfinite(fpp)):
                raise SingularWarpError(f"warping function is not finite at t={t}")
            if abs(f) < 1e-14:
                raise SingularWarpError(f"warping function vanishes at t={t}")
            return float(f), float(fp), float(fpp)

        self.__dict__["_sample"] = sample

    def __call__(self, t: float) -> tuple[float, float, float]:
        return self._sample(t)

    # -- closed forms on the whole line; WarpingFunction(w.fn, interval) bounds one.
    # Each overflows as a FloatingPointError, which the sample turns into a
    # SingularWarpError, not as a numpy warning.

    @staticmethod
    def constant(value: float = 1.0) -> "WarpingFunction":
        if value == 0.0:
            raise SingularWarpError("constant warp must be non-zero")
        return WarpingFunction(lambda t: (value, 0.0, 0.0))

    @staticmethod
    def exponential(rate: float = 1.0) -> "WarpingFunction":
        @np.errstate(over="raise", invalid="raise")
        def fn(t):
            e = np.exp(rate * t)
            return e, rate * e, rate * rate * e
        return WarpingFunction(fn)

    @staticmethod
    def hyperbolic_cosine() -> "WarpingFunction":
        return WarpingFunction(np.errstate(over="raise", invalid="raise")(
            lambda t: (np.cosh(t), np.sinh(t), np.cosh(t))))

    @staticmethod
    def polynomial(coeffs, interval) -> "WarpingFunction":
        """Polynomial warp from ascending coefficients; interval required
        because positivity is the caller's responsibility."""
        c = np.asarray(coeffs, dtype=float)
        c1 = np.polyder(c[::-1])
        c2 = np.polyder(c1)

        @np.errstate(over="raise", invalid="raise")
        def fn(t):
            return (float(np.polyval(c[::-1], t)), float(np.polyval(c1, t)),
                    float(np.polyval(c2, t)))

        return WarpingFunction(fn, tuple(interval))


_UNIT_WARP = WarpingFunction.constant()  # f = 1, the default warp


@dataclass(frozen=True)
class AmbientSpace:
    """L^n_1(f, c) for any warp f and c in {-1, 0, +1}, n its manifold
    dimension; n and c are integers, neither a bool.  The default warp is the
    unit warp ``_UNIT_WARP``, which makes c = +-1 the Lorentzian cylinder
    E^1_1 x S^{n-1} or E^1_1 x H^{n-1}."""

    n: int
    c: int
    warp: WarpingFunction = _UNIT_WARP

    def __post_init__(self):
        for name, value in (("n", self.n), ("c", self.c)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DimensionMismatchError(
                    f"{name} must be an integer, got {name} = {value!r}")
        if self.c not in (-1, 0, 1):
            raise DimensionMismatchError(f"c must be -1, 0 or +1, got c = {self.c}")
        if self.n < 4:  # the embedded layout's normal takes its extra slot
            raise DimensionMismatchError("need n >= 4 (the adapted frame needs "
                                         f"room for e4), got n = {self.n}")
        self.__dict__["_flat"] = np.array(  # flat weights (-1, c or 1, 1, ...)
            [-1.0, self.c or 1.0] + [1.0] * (self.ambient_dim - 2))

    # -- coordinate layout ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.n + 1 if self.is_embedded else self.n

    @property
    def is_embedded(self) -> bool:
        return self.c != 0

    def dt_vector(self) -> np.ndarray:
        """The comoving observer direction as a coordinate vector."""
        v = np.zeros(self.ambient_dim)
        v[0] = 1.0
        return v

    def check_vector(self, X) -> np.ndarray:
        X = np.asarray(X)
        if X.shape[-1:] != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"vector has shape {X.shape}, backend expects ({self.ambient_dim},)")
        return X

    def warp_state(self, p) -> tuple[float, float, float]:
        """(f, f', f'') at the time coordinate of one point p, for every c.
        The warp is read at real times: a time that does not convert to a
        float, such as a complex one, is a ChartDomainError naming it.  The
        unit warp ``_UNIT_WARP`` alone is (1, 0, 0) at any time."""
        if self.warp is _UNIT_WARP:
            return (1.0, 0.0, 0.0)
        try:
            t = float(p[0])
        except TypeError:
            raise ChartDomainError(
                f"warp state needs a real time, got t={p[0]}") from None
        return self.warp(t)

    def product_normal(self, p) -> np.ndarray:
        """The normal nu = (0, x) of the embedded layout's hypersurface at p,
        the fiber position: <nu, nu> = c f^2 under ``metric_at``'s weights."""
        if not self.is_embedded:
            raise DimensionMismatchError(
                "the product normal exists only where c != 0")
        nu = np.array(p)
        nu[..., 0] = 0.0
        return nu

    # -- metric ---------------------------------------------------------------

    def metric_at(self, p, warp_state) -> np.ndarray:
        """The metric's diagonal at p, given the warp state (f, f', f'').

        (-1, f^2, ..., f^2) on the comoving layout and (-1, c f^2, f^2, ...,
        f^2) on the embedded one, where p must also satisfy the locus
        constraint <pbar, pbar>_c = c under the flat weights (-1, c, 1, ...,
        1) within 1e-10, which a NaN point does not.  With leading point
        axes on p (and on the warp state) the result is a stack ``(..., d)``.
        """
        p = np.asarray(p)
        if p.shape[-1:] != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"point has shape {p.shape}, backend expects ({self.ambient_dim},)")
        f = np.asarray(warp_state[0])
        g = np.empty(p.shape, np.result_type(f, float))
        g[..., 1:] = _col(f * f) * self._flat[1:]
        g[..., 0] = -1.0
        if self.is_embedded:
            fiber = p.copy()
            fiber[..., 0] = 0.0
            locus = np.asarray(inner(fiber, fiber, self._flat)) - self.c
            raise_where(ChartDomainError, ~(np.abs(locus) <= 1e-10),
                        "point off the embedded space-form locus (residual {:.3e})",
                        locus)
        return g


def ambient_covariant_derivative(space: AmbientSpace, p, x_vec, y_vec,
                                 dy_dx, G, warp_state) -> np.ndarray:
    """Covariant derivative of a field Y along X at p.

    ``dy_dx`` is the caller-supplied coordinate directional derivative of Y
    along X (from jets or finite differences); G is the metric's diagonal
    (``metric_at``) and warp_state (f, f', f'') at p.  The warped
    Christoffel correction Gamma(X, Y) is added, its fiber product weighted
    (c, 1, ..., 1) on the embedded layout, which then projects the result V
    onto the product's tangent space: V - c <V, nu> nu / f^2.  This is the
    one implementation of the connection for every c: chart second
    derivatives and grid stencils call it too.
    """
    x, y, dy = (space.check_vector(w) for w in (x_vec, y_vec, dy_dx))
    f, fp, _ = warp_state
    # Gamma(X, Y) = (f f' <x, y>_fiber, (f'/f) (x_0 y + y_0 x)_fiber)
    V = _col(fp / f) * (x[..., :1] * y + y[..., :1] * x)
    V[..., 0] = f * fp * np.einsum("...i,...i->...", (x * space._flat)[..., 1:],
                                   y[..., 1:])
    V = dy + V
    if not space.is_embedded:
        return V
    nu = space.product_normal(p)
    return V - _col(inner(V, nu, G) / G[..., 1]) * nu  # <nu, nu> = c f^2 = G_1


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
    X, Y, Z = np.asarray(X), np.asarray(Y), np.asarray(Z)
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


def is_constant_curvature(warp: WarpingFunction, c: float, interval):
    """Test f''/f == (f'^2 + c)/f^2 on ``interval``.

    Returns (flag, max_deviation) where the flag is True when the supremum of
    the defect over 257 uniformly sampled points stays below 1e-9.  A NaN
    defect at any sample makes the deviation NaN and the flag False.
    ``interval`` must have finite ends.
    """
    if not all(map(math.isfinite, interval)):
        raise ValueError(f"interval must have finite ends, got {interval}")
    ks = (curvature_scalars(*warp(float(t)), c)
          for t in np.linspace(*interval, _CONSTANT_CURVATURE_SAMPLES))
    dev = float(np.max([abs(k1 - k2) for k1, k2 in ks]))
    return dev < _CONSTANT_CURVATURE_TOL, dev
