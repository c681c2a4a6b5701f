"""The classified surfaces as analytic 2-jet immersions and the
non-existence scans; the family table that builds them is
``families.FAMILIES``.

Each catalog surface owns hand-differentiated jet formulas in terms of
(f, f', f''), so warps sourced from dense ODE output plug in without any
extra numerical differentiation.  The evaluators are batched: one expression
per component serves one point (floats, computed with ``math``) or a stack
of points (arrays u, v, with numpy), the jet comes back as one array, and the
warp (the 5-dim chart's whole (f, y) state) is read once per distinct time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _exports
from .ambient import AmbientSpace, WarpingFunction
from .errors import ConstraintError, InapplicableError
from .immersion import Jet2Immersion
from .solvers import (ConstantsL4, ConstantsProduct, WarpSystemSolution,
                      _require_finite)

__all__ = _exports(__name__)


def default_warp_domain(warp: WarpingFunction):
    """The warp's validity interval shrunk by 5% of its length at each end,
    leaving stencil headroom for grid evaluation."""
    lo, hi = warp.interval
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConstraintError("warp interval must be finite for a default domain")
    span = hi - lo
    return (lo + 0.05 * span, hi - 0.05 * span)


def _at_times(fn, t):
    """``fn`` (a time to a tuple of floats) at a float t; at an array t,
    once per distinct value, as a tuple of arrays shaped like t."""
    if not isinstance(t, np.ndarray):
        return fn(t)
    times, inverse = np.unique(t, return_inverse=True)
    return tuple(np.array([fn(x) for x in times.tolist()])[inverse].T)


def _xp(u):
    """The module that computes at u: math at a float, numpy at an array."""
    return np if isinstance(u, np.ndarray) else math


def _jet(u, *rows):
    """The jet vectors from their components, one row of floats or arrays
    shaped like the 1-D point array u per vector: an ``(m, d)`` array at a
    float u, else ``(m, n, d)`` of u's dtype."""
    if not isinstance(u, np.ndarray):
        return np.array(rows, dtype=float)
    out = np.empty((len(rows),) + u.shape + (len(rows[0]),), u.dtype)
    for vec, row in zip(out, rows):
        for k, x in enumerate(row):
            vec[:, k] = x
    return out


def _reciprocal_jet(f, fp, fpp):
    """(w, w', w'') for w = 1 / f."""
    return 1.0 / f, -fp / f**2, (2.0 * fp * fp - f * fpp) / f**3


def _circle_jet(a, u, v, w, heights):
    """The jet of (u, w sin(a v) / a, w cos(a v) / a, *h): a circle of radius
    w / a over the time u, then height columns h of u alone.  w and each h
    come as (value, d/du, d^2/du^2)."""
    (w, wp, wpp), (h, hp, hpp) = w, zip(*heights)
    zero = (0.0,) * len(h)
    xp = _xp(v)
    s, c = xp.sin(a * v), xp.cos(a * v)
    return _jet(u, (u, w * s / a, w * c / a, *h),
                (1.0, wp * s / a, wp * c / a, *hp),
                (0.0, w * c, -w * s, *zero),
                (0.0, wpp * s / a, wpp * c / a, *hpp),
                (0.0, wp * c, -wp * s, *zero),
                (0.0, -a * w * s, -a * w * c, *zero))


def rotational_surface_l41(constants: ConstantsL4,
                           warp: WarpingFunction) -> Jet2Immersion:
    """The rotational surface in L^4_1(f, 0).

    phi(u, v) = (u, sin(a v)/(a f), cos(a v)/(a f), 2 H0 / (a^2 c2 f)); the
    spatial circle at fixed u has radius 1/(a f(u)) and the v-period is
    2 pi / a.
    """
    a, H0, c2 = constants.a, constants.H0, constants.c2
    k4 = 2.0 * H0 / (a * a * c2)
    space = AmbientSpace(4, 0, warp)

    def evaluator(u, v):
        w = _reciprocal_jet(*_at_times(warp, u))
        return _circle_jet(a, u, v, w, [tuple(k4 * x for x in w)])

    return Jet2Immersion(space, evaluator, default_warp_domain(warp),
                         (0.0, 2.0 * math.pi / abs(a)), name="rotational-l41",
                         batched=True)


def surface_l51(solution: WarpSystemSolution) -> Jet2Immersion:
    """The surface in L^5_1(f, 0) built from a coupled (f, y) trajectory.

    phi(u, v) = (u, sin(a v)/(a f), cos(a v)/(a f), y, z) with the last
    component solved from the plane constraint
    c2 y + c3 z - (2 H0 / a) x = 0, so that constraint holds to round-off by
    construction.
    """
    constants = solution.constants
    a, H0, c2, c3 = constants.a, constants.H0, constants.c2, constants.c3
    if abs(c3) < 1e-14:
        raise ConstraintError("c3 must be non-zero for the plane-solved chart")
    space = AmbientSpace(5, 0, solution.warp)

    def evaluator(u, v):
        f, fp, fpp, *y = _at_times(solution.state, u)
        w = _reciprocal_jet(f, fp, fpp)
        z = tuple((2.0 * H0 * wk / a**2 - c2 * yk) / c3 for wk, yk in zip(w, y))
        return _circle_jet(a, u, v, w, [y, z])

    return Jet2Immersion(space, evaluator, default_warp_domain(solution.warp),
                         (0.0, 2.0 * math.pi / abs(a)), name="surface-l51",
                         batched=True)


def product_surface_family(b1: float, b2: float, b3: float) -> Jet2Immersion:
    """The rotational family in E^1_1 x S^4 for arbitrary (b1, b2, b3) with
    b2^2 + b3^2 < 1.

    The image always lies on the unit-sphere fiber; the mean curvature vector
    is parallel exactly when b2^2 + b3^2 = 1/(b1^2 + 2), so unvalidated
    parameters give the natural negative control.
    """
    _require_finite(b1=b1, b2=b2, b3=b3)
    if b1 == 0.0 or b2 == 0.0 or b3 == 0.0:
        raise ConstraintError("b1, b2, b3 must be non-zero")
    r2 = b2 * b2 + b3 * b3
    if r2 >= 1.0:
        raise ConstraintError("b2^2 + b3^2 < 1 required for a real fiber radius")
    b0 = math.sqrt(1.0 - r2)
    ch = math.sqrt(1.0 + b1 * b1)  # cosh(theta0) with sinh(theta0) = b1
    lam = ch / b0
    space = AmbientSpace(5, 1)

    def evaluator(u, v):
        xp = _xp(u)
        cu, su = xp.cos(lam * u), xp.sin(lam * u)
        sv, cv = xp.sin(v / b3), xp.cos(v / b3)
        return _jet(u, (-b1 * u, b0 * cu, b0 * su, b2, b3 * sv, b3 * cv),
                    (-b1, -b0 * lam * su, b0 * lam * cu, 0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0, 0.0, cv, -sv),
                    (0.0, -b0 * lam**2 * cu, -b0 * lam**2 * su, 0.0, 0.0, 0.0),
                    (0.0,) * 6,
                    (0.0, 0.0, 0.0, 0.0, -sv / b3, -cv / b3))

    return Jet2Immersion(space, evaluator, (0.0, 2.0 * math.pi / lam),
                         (0.0, 2.0 * math.pi * abs(b3)), name="product-e11s4",
                         batched=True)


def product_surface_e11s4(constants: ConstantsProduct) -> Jet2Immersion:
    """The validated parallel-mean-curvature member of the product family."""
    return product_surface_family(constants.b1, constants.b2, constants.b3)


# ---------------------------------------------------------------------------
# non-existence scans


@dataclass(frozen=True)
class ScanResult:
    """Residual table of a non-existence scan."""

    thetas: np.ndarray
    taus: np.ndarray | None
    residuals: np.ndarray  # shape (n_theta, n_tau) or (n_theta,)
    min_abs: float
    lower_bound: float
    bound_holds: bool


def nonexistence_scan_e11h4(theta_grid, tau_grid) -> ScanResult:
    """Scan r(theta0, tau0) = sinh cosh + tau0^2 tanh over a grid.

    The obstruction factorizes as tanh(theta0) (cosh^2 + tau0^2), so
    |r| >= |tanh(theta0)| holds at every node; the scan verifies that bound
    and returns the global minimum of |r|.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    taus = np.asarray(tau_grid, dtype=float)
    if thetas.size == 0 or taus.size == 0:
        raise ConstraintError("scan grids must be non-empty")
    if np.any(thetas == 0.0):
        raise ConstraintError("theta grid must exclude the trivial value 0")
    th = thetas[:, None]
    tanh = np.tanh(th)
    r = taus[None, :]**2 * tanh
    r += np.sinh(th) * np.cosh(th)
    abs_r = np.abs(r)
    holds = bool(np.all(abs_r >= np.abs(tanh)))
    return ScanResult(thetas, taus, r, float(np.min(abs_r)),
                      float(np.min(np.abs(tanh))), holds)


def nonexistence_slice_scan(c: float, theta_grid) -> ScanResult:
    """Scan the codimension-1 obstruction |sinh cosh * c| over theta != 0.

    A positive minimum certifies non-existence in the 4-dimensional product
    away from the horizontal-slice case.  c = 0 (flat product) is
    inapplicable.
    """
    if c == 0:
        raise InapplicableError("slice scan needs a curved fiber (c = +-1)")
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0:
        raise ConstraintError("scan grid must be non-empty")
    if np.any(thetas == 0.0):
        raise ConstraintError("theta grid must exclude the trivial value 0")
    r = np.sinh(thetas) * np.cosh(thetas) * float(c)
    min_abs = float(np.min(np.abs(r)))
    return ScanResult(thetas, None, r, min_abs, min_abs, min_abs > 0.0)
