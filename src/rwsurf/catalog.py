"""The classified surfaces as analytic 2-jet immersions, plus the
non-existence residual scans.

Each catalog surface owns hand-differentiated jet formulas in terms of
(f, f', f''), so warps sourced from dense ODE output plug in without any
extra numerical differentiation.  The evaluators are batched: one expression
per component serves one point (floats) or a stack of points (arrays u, v),
and the warp is called once per distinct time coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientSpace, WarpingFunction
from .errors import ConstraintError, InapplicableError
from .immersion import Jet2Immersion
from .solvers import (ConstantsL4, ConstantsProduct, WarpSystemSolution,
                      _require_finite)

__all__ = [
    "default_warp_domain",
    "rotational_surface_l41",
    "surface_l51",
    "product_surface_e11s4",
    "product_surface_family",
    "ScanResult",
    "nonexistence_scan_e11h4",
    "nonexistence_slice_scan",
]


def default_warp_domain(warp: WarpingFunction, shrink: float = 0.05):
    """The warp's validity interval shrunk by ``shrink`` at each end, leaving
    stencil headroom for grid evaluation."""
    lo, hi = warp.interval
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConstraintError("warp interval must be finite for a default domain")
    span = hi - lo
    return (lo + shrink * span, hi - shrink * span)


def _at_times(fn, t):
    """``fn`` (a time to a tuple of floats) once per distinct value of t, as
    a tuple of arrays shaped like t."""
    times, inverse = np.unique(t, return_inverse=True)
    return tuple(np.array([fn(x) for x in times.tolist()])[inverse].T)


def _stack(u, *components):
    """Components (floats, or arrays shaped like the 1-D point array u) as
    columns; one vector at a float u."""
    if not isinstance(u, np.ndarray):
        return np.array(components)
    out = np.empty(u.shape + (len(components),))
    for k, x in enumerate(components):
        out[:, k] = x
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
    s, c = np.sin(a * v), np.cos(a * v)
    return (_stack(u, u, w * s / a, w * c / a, *h),
            _stack(u, 1.0, wp * s / a, wp * c / a, *hp),
            _stack(u, 0.0, w * c, -w * s, *zero),
            _stack(u, 0.0, wpp * s / a, wpp * c / a, *hpp),
            _stack(u, 0.0, wp * c, -wp * s, *zero),
            _stack(u, 0.0, -a * w * s, -a * w * c, *zero))


def rotational_surface_l41(constants: ConstantsL4, warp: WarpingFunction,
                           u_domain=None, v_domain=None) -> Jet2Immersion:
    """The rotational surface in L^4_1(f, 0).

    phi(u, v) = (u, sin(a v)/(a f), cos(a v)/(a f), 2 H0 / (a^2 c2 f)); the
    spatial circle at fixed u has radius 1/(a f(u)) and the v-period is
    2 pi / a.
    """
    a, H0, c2 = constants.a, constants.H0, constants.c2
    k4 = 2.0 * H0 / (a * a * c2)
    space = AmbientSpace.warped_flat(4, warp)
    if u_domain is None:
        u_domain = default_warp_domain(warp)
    if v_domain is None:
        v_domain = (0.0, 2.0 * math.pi / abs(a))

    def evaluator(u, v):
        w = _reciprocal_jet(*_at_times(warp, u))
        return _circle_jet(a, u, v, w, [tuple(k4 * x for x in w)])

    return Jet2Immersion(space, evaluator, tuple(u_domain), tuple(v_domain),
                         name="rotational-l41", batched=True)


def surface_l51(solution: WarpSystemSolution, u_domain=None,
                v_domain=None) -> Jet2Immersion:
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
    warp = solution.warp
    space = AmbientSpace.warped_flat(5, warp)
    if u_domain is None:
        u_domain = default_warp_domain(warp)
    if v_domain is None:
        v_domain = (0.0, 2.0 * math.pi / abs(a))

    def evaluator(u, v):
        w = _reciprocal_jet(*_at_times(warp, u))
        y = _at_times(solution.y_state, u)
        z = tuple((2.0 * H0 * wk / a**2 - c2 * yk) / c3 for wk, yk in zip(w, y))
        return _circle_jet(a, u, v, w, [y, z])

    return Jet2Immersion(space, evaluator, tuple(u_domain), tuple(v_domain),
                         name="surface-l51", batched=True)


def product_surface_family(b1: float, b2: float, b3: float, u_domain=None,
                           v_domain=None) -> Jet2Immersion:
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
    space = AmbientSpace.product_space_form(5, 1)
    if u_domain is None:
        u_domain = (0.0, 2.0 * math.pi / lam)
    if v_domain is None:
        v_domain = (0.0, 2.0 * math.pi * abs(b3))

    def evaluator(u, v):
        xp = np if isinstance(u, np.ndarray) else math  # floats: one point
        cu, su = xp.cos(lam * u), xp.sin(lam * u)
        sv, cv = xp.sin(v / b3), xp.cos(v / b3)
        return (_stack(u, -b1 * u, b0 * cu, b0 * su, b2, b3 * sv, b3 * cv),
                _stack(u, -b1, -b0 * lam * su, b0 * lam * cu, 0.0, 0.0, 0.0),
                _stack(u, 0.0, 0.0, 0.0, 0.0, cv, -sv),
                _stack(u, 0.0, -b0 * lam**2 * cu, -b0 * lam**2 * su, 0.0, 0.0,
                       0.0),
                _stack(u, *(0.0,) * 6),
                _stack(u, 0.0, 0.0, 0.0, 0.0, -sv / b3, -cv / b3))

    return Jet2Immersion(space, evaluator, tuple(u_domain), tuple(v_domain),
                         name="product-e11s4", batched=True)


def product_surface_e11s4(constants: ConstantsProduct, u_domain=None,
                          v_domain=None) -> Jet2Immersion:
    """The validated parallel-mean-curvature member of the product family."""
    return product_surface_family(constants.b1, constants.b2, constants.b3,
                                  u_domain, v_domain)


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

    def rows(self):
        """(theta, tau, residual) rows, tau None for a slice scan."""
        if self.taus is None:
            for i, th in enumerate(self.thetas):
                yield (float(th), None, float(self.residuals[i]))
        else:
            for i, th in enumerate(self.thetas):
                for j, ta in enumerate(self.taus):
                    yield (float(th), float(ta), float(self.residuals[i, j]))


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
    ta = taus[None, :]
    r = np.sinh(th) * np.cosh(th) + ta**2 * np.tanh(th)
    bound = np.abs(np.tanh(th)) * np.ones_like(ta)
    holds = bool(np.all(np.abs(r) >= bound))
    return ScanResult(thetas, taus, r, float(np.min(np.abs(r))),
                      float(np.min(np.abs(np.tanh(thetas)))), holds)


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
