"""ODE machinery: adaptive embedded Runge-Kutta with dense output, the scalar
warp ODE of the L^4_1 rotational family, the coupled (f, y) system of the
L^5_1 family, and constants validators.

The integrator is a Dormand-Prince 5(4) pair propagating the 5th-order
solution, with the standard free quartic interpolant for dense output.  No
stiff solver is provided: the warp ODE blows up in finite time for many
initial conditions, which is detected (step underflow) and reported rather
than integrated through.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ambient import WarpingFunction
from .errors import (AdmissibilityError, ChartDomainError, ConstraintError,
                     SingularWarpError)

__all__ = [
    "SolverConfig",
    "DenseOutput",
    "IntegrationResult",
    "rk_integrate",
    "ConstantsL4",
    "ConstantsL5",
    "ConstantsProduct",
    "validate_constants_l4",
    "validate_constants_l5",
    "validate_constants_product",
    "RotationalWarpSolution",
    "solve_rotational_warp",
    "WarpSystemSolution",
    "solve_warp_system",
]

# Dormand-Prince 5(4) tableau (propagated order 5, FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# Quartic dense-output coefficients (Shampine's interpolant for this pair).
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


# attempted steps (accepted plus rejected) before rk_integrate gives up with
# 'step-underflow'
_MAX_STEPS = 200_000


@dataclass
class SolverConfig:
    """Step-control knobs for rk_integrate."""

    rtol: float = 1e-11
    atol: float = 1e-13
    fixed_step: float | None = None  # disables adaptivity (order studies)

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ConstraintError("solver tolerances must be positive")


@dataclass(frozen=True)
class DenseOutput:
    """Piecewise-quartic interpolant over the accepted-step mesh.

    Calling it returns (state, state_derivative).  Evaluation outside the
    covered interval raises ChartDomainError.
    """

    ts: np.ndarray          # step start times, shape (m,)
    hs: np.ndarray          # step sizes, shape (m,)
    ys: np.ndarray          # states at step starts, shape (m, d)
    qs: np.ndarray          # interpolant coefficients, shape (m, d, 4)
    t_end: float            # may cut the last step short (monitor stop)

    def __post_init__(self):
        # float copies for __call__: direction-signed step starts (monotone,
        # for bisect), (lo, hi, slack, direction) and a (t, h, y, q) per step
        direction = 1.0 if self.hs[0] > 0 else -1.0
        lo, hi = map(float, self.interval)
        self.__dict__.update(
            _starts=(self.ts * direction).tolist(),
            _bounds=(lo, hi, 1e-12 * max(1.0, abs(lo), abs(hi)), direction),
            _rows=list(zip(self.ts.tolist(), self.hs.tolist(), self.ys.tolist(),
                           self.qs.tolist())))

    @property
    def interval(self) -> tuple[float, float]:
        lo, hi = float(self.ts[0]), self.t_end
        return (lo, hi) if lo <= hi else (hi, lo)

    def __call__(self, t: float):
        lo, hi, slack, direction = self._bounds
        if not (lo - slack <= t <= hi + slack):
            raise ChartDomainError(
                f"dense output evaluated at t={t} outside [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        k = bisect_right(self._starts, t * direction) - 1
        tk, h, y, q = self._rows[min(max(k, 0), len(self._rows) - 1)]
        th = (t - tk) / h
        th2, th3 = th * th, th * th * th
        return (np.array([yi + h * (a * th + b * th2 + c * th3 + d * th2 * th2)
                          for yi, (a, b, c, d) in zip(y, q)]),
                np.array([a + b * (2 * th) + c * (3 * th2) + d * (4 * th3)
                          for a, b, c, d in q]))


@dataclass(frozen=True)
class IntegrationResult:
    dense: DenseOutput
    stop_reason: str  # 'completed' | 'step-underflow' | 'monitor:<name>'
    t_end: float
    n_accepted: int
    n_rejected: int


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(span))


def rk_integrate(rhs: Callable, y0, t_span, config: SolverConfig | None = None,
                 monitors: Sequence[tuple[str, Callable]] = ()) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with dense output.

    ``monitors`` is a sequence of (name, g) pairs with g(t, y) > 0 required
    along the trajectory (a NaN value counts as a crossing); the first
    crossing truncates the output (the stop time is located by bisection on
    the dense segment) and is recorded as stop reason 'monitor:<name>'.  Step underflow near a blow-up stops with
    'step-underflow' and the last valid time.
    """
    cfg = config or SolverConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ConstraintError("integration interval is degenerate")
    direction = 1.0 if t1 > t0 else -1.0
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    t = t0
    f = np.asarray(rhs(t, y), dtype=float)

    if cfg.fixed_step is not None:
        h_abs = float(cfg.fixed_step)
    else:
        h_abs = _initial_step(rhs, t0, y, f, direction, cfg.rtol, cfg.atol,
                              t1 - t0)
    h_abs = min(h_abs, abs(t1 - t0))

    ts, hs, ys, qs = [], [], [], []
    n_acc = n_rej = 0
    stop_reason = "completed"
    t_end = t1

    while (t - t1) * direction < 0:
        if n_acc + n_rej > _MAX_STEPS:
            stop_reason = "step-underflow"
            t_end = t
            break
        h_abs = min(h_abs, abs(t1 - t))
        if h_abs < 1e-14 * max(1.0, abs(t)):
            stop_reason = "step-underflow"
            t_end = t
            break
        h = h_abs * direction
        K = np.empty((7, y.size))
        K[0] = f
        bad = False
        try:
            for i in range(1, 7):
                yi = y + h * (_A[i] @ K[:i])
                K[i] = rhs(t + _C[i] * h, yi)
            y_new = y + h * (_B @ K)
            err = h * (_E @ K)
        except (FloatingPointError, SingularWarpError, np.linalg.LinAlgError,
                OverflowError, ValueError):
            bad = True
        if not bad and not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))):
            bad = True
        if bad:
            h_abs *= 0.25
            n_rej += 1
            continue

        if cfg.fixed_step is None:
            enorm = _error_norm(err, y, y_new, cfg.rtol, cfg.atol)
            if enorm > 1.0:
                h_abs *= max(0.2, 0.9 * enorm ** -0.2)
                n_rej += 1
                continue
            factor = min(5.0, max(0.2, 0.9 * (enorm + 1e-300) ** -0.2))
        else:
            factor = 1.0

        Q = K.T @ _P
        ts.append(t)
        hs.append(h)
        ys.append(y.copy())
        qs.append(Q)
        n_acc += 1

        t_new = t + h
        triggered = None
        for name, g in monitors:
            if not g(t_new, y_new) > 0.0:
                triggered = (name, g)
                break
        if triggered is not None:
            name, g = triggered
            dense_step = lambda th: ys[-1] + h * (Q @ np.array([th, th**2, th**3, th**4]))
            lo_th, hi_th = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo_th + hi_th)
                if g(t + mid * h, dense_step(mid)) > 0.0:
                    lo_th = mid
                else:
                    hi_th = mid
            t_end = t + lo_th * h
            stop_reason = f"monitor:{name}"
            t = t_new
            break

        t, y, f = t_new, y_new, K[6].copy()  # FSAL
        h_abs *= factor

    if not ts:
        raise AdmissibilityError("integration could not take a single step")
    if stop_reason == "completed":
        t_end = t
    dense = DenseOutput(np.array(ts), np.array(hs), np.array(ys),
                        np.array(qs), t_end)
    return IntegrationResult(dense, stop_reason, t_end, n_acc, n_rej)


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ConstantsL4:
    """Rotational-family constants: 4 H0^2 + c2^2 a^2 = a^2, c2 > 0, b^2 > 0."""

    a: float
    H0: float
    c2: float
    b2: float  # a^2 - 4 H0^2


@dataclass(frozen=True)
class ConstantsL5:
    """Five-dimensional family constants: c2^2 + c3^2 + 4 H0^2 / a^2 = 1."""

    a: float
    H0: float
    c2: float
    c3: float
    c4: float  # a^2 c3^2 + 4 H0^2
    b2: float  # a^2 - 4 H0^2

    def __post_init__(self):
        # the constant factors of _system_matrices, in the order it unpacks them
        a, H0, c2, c3, c4, b2 = self.a, self.H0, self.c2, self.c3, self.c4, self.b2
        g = 12 * a**2 * (c3**2 - 1) * H0**2
        self.__dict__["_k"] = (
            a**2 * c3**2, a**4 * c3**2, 2 * a**6 * c2 * c3**2 * H0, -a**4 * c3**2 * c4,
            -a**6 * b2 * c3**2, -2 * a**2 * c4, 4 * a**4 * b2, a**2,
            -12 * a**4 * c2 * c3**2 * H0, 4 * (a**4 * c3**2 - g - 48 * H0**4),
            2 * a**4 * b2**2, a**8 * c3**4, 2 * c4**2, -a**2 * b2**2, a**2 * b2,
            2 * a**4 * c2 * c3**2 * H0, a**4 * c3**2 + g + 48 * H0**4, 2 * c2 * c4 * H0,
            4 * c2 * H0, 6 * c2 * H0, 8 * c2 * H0)


@dataclass(frozen=True)
class ConstantsProduct:
    """Product-family constants: b2^2 + b3^2 = 1 / (b1^2 + 2)."""

    b1: float
    b2: float
    b3: float
    theta0: float  # arcsinh(b1)


_CTOL = 1e-12


def _require_finite(**params):
    """ConstraintError naming the first given parameter that is not finite."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ConstraintError(f"{name} must be finite, got {value}")


def validate_constants_l4(a: float, H0: float, c2: float | None = None) -> ConstantsL4:
    """Check (or derive) the rotational-family constants."""
    _require_finite(a=a, H0=H0, c2=c2)
    b2 = a * a - 4 * H0 * H0
    if b2 <= 0:
        raise ConstraintError(f"a^2 - 4 H0^2 > 0 violated: {b2}")
    if H0 == 0.0:
        raise ConstraintError("H0 must be non-zero")
    derived = math.sqrt(1.0 - 4 * H0 * H0 / (a * a))
    if c2 is None:
        c2 = derived
    else:
        if c2 <= 0:
            raise ConstraintError("c2 > 0 violated")
        if abs(4 * H0 * H0 + c2 * c2 * a * a - a * a) > _CTOL * a * a:
            raise ConstraintError(
                f"4 H0^2 + c2^2 a^2 = a^2 violated by "
                f"{4 * H0**2 + c2**2 * a**2 - a**2:.3e}")
    return ConstantsL4(float(a), float(H0), float(c2), float(b2))


def validate_constants_l5(a: float, H0: float, c2: float, c3: float) -> ConstantsL5:
    _require_finite(a=a, H0=H0, c2=c2, c3=c3)
    if a == 0 or c2 == 0.0 or c3 == 0.0 or H0 == 0.0:
        raise ConstraintError("a, H0, c2, c3 must all be non-zero")
    defect = c2 * c2 + c3 * c3 + 4 * H0 * H0 / (a * a) - 1.0
    if abs(defect) > _CTOL:
        raise ConstraintError(
            f"c2^2 + c3^2 + 4 H0^2 / a^2 = 1 violated by {defect:.3e}")
    b2 = a * a - 4 * H0 * H0
    if b2 <= 0:
        raise ConstraintError(f"a^2 - 4 H0^2 > 0 violated: {b2}")
    return ConstantsL5(float(a), float(H0), float(c2), float(c3),
                       float(a * a * c3 * c3 + 4 * H0 * H0), float(b2))


def validate_constants_product(b1: float, b2: float | None = None,
                               b3: float | None = None) -> ConstantsProduct:
    """Check (or derive one of) b2, b3 from b2^2 + b3^2 = 1 / (b1^2 + 2)."""
    _require_finite(b1=b1, b2=b2, b3=b3)
    if b1 == 0.0:
        raise ConstraintError("b1 must be non-zero (horizontal-slice case excluded)")
    target = 1.0 / (b1 * b1 + 2.0)
    if b2 is None and b3 is None:
        raise ConstraintError("at least one of b2, b3 must be given")
    if b2 is None:
        rem = target - b3 * b3
        if rem <= 0:
            raise ConstraintError(
                f"b2^2 + b3^2 = 1/(b1^2+2) unsolvable: b3^2 exceeds {target}")
        b2 = math.sqrt(rem)
    elif b3 is None:
        rem = target - b2 * b2
        if rem <= 0:
            raise ConstraintError(
                f"b2^2 + b3^2 = 1/(b1^2+2) unsolvable: b2^2 exceeds {target}")
        b3 = math.sqrt(rem)
    else:
        defect = b2 * b2 + b3 * b3 - target
        if abs(defect) > _CTOL:
            raise ConstraintError(
                f"b2^2 + b3^2 = 1/(b1^2+2) violated by {defect:.3e}")
    if b2 == 0.0 or b3 == 0.0:
        raise ConstraintError("b2 and b3 must be non-zero")
    return ConstantsProduct(float(b1), float(b2), float(b3),
                            float(math.asinh(b1)))


# ---------------------------------------------------------------------------
# the rotational-warp scalar ODE


def rotational_warp_rhs(constants: ConstantsL4):
    """f'' = ((f'^2 - b^2 f^2)^2 + f'^4) / (b^2 f^3) as a first-order system."""
    b2 = constants.b2

    def rhs(t, s):
        fv, fp = s.tolist()
        q = fp * fp - b2 * fv * fv
        return np.array([fp, (q * q + fp**4) / (b2 * fv**3)])

    return rhs


@dataclass(frozen=True)
class RotationalWarpSolution:
    warp: WarpingFunction
    integration: IntegrationResult
    constants: ConstantsL4


def solve_rotational_warp(constants: ConstantsL4, f0: float, f0p: float,
                          interval, config: SolverConfig | None = None
                          ) -> RotationalWarpSolution:
    """Integrate the warp ODE of the rotational family from t = interval[0].

    Admissibility f'^2 > b^2 f^2 (space-likeness of the resulting surface) is
    required at the start and monitored along the trajectory; the returned
    WarpingFunction is restricted to the admissible subinterval and supplies
    f'' through the ODE right-hand side (self-consistent by construction).
    """
    b2 = constants.b2
    if f0 == 0.0:
        raise SingularWarpError("f0 must be non-zero")
    q0 = f0p * f0p - b2 * f0 * f0
    if q0 <= 0.0:
        raise AdmissibilityError(
            f"f'^2 > (a^2 - 4 H0^2) f^2 violated at start: {f0p**2} <= {b2 * f0**2}")
    rhs = rotational_warp_rhs(constants)
    sgn = 1.0 if f0 > 0 else -1.0
    monitors = [
        ("admissible", lambda t, s: s[1] * s[1] - b2 * s[0] * s[0]),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
    ]
    result = rk_integrate(rhs, np.array([f0, f0p]), interval, config, monitors)
    dense = result.dense

    def fn(t):
        fv, fp = dense(t)[0].tolist()
        q = fp * fp - b2 * fv * fv
        return fv, fp, (q * q + fp**4) / (b2 * fv**3)

    warp = WarpingFunction(fn, dense.interval, source="ode-dense-output",
                           label="rotational-warp")
    return RotationalWarpSolution(warp, result, constants)


# ---------------------------------------------------------------------------
# the coupled (f, y) system


def _system_matrices(constants: ConstantsL5, fv, fp, yp):
    """The two family equations written as A @ (f'', y'') = -R, as the floats
    (A11, A12, A21, A22, R1, R2)."""
    (ac, q, m, k11, k12, r1a, r1b, a2, r1c, r1d, r1e, r1f, r1g,
     r2a, r2b, r2c, r2d, r2e, e4, e6, e8) = constants._k
    f2, fp2, pq, yp2 = fv * fv, fp * fp, fp * yp, yp * yp
    f3, f4, f6 = f2 * fv, f2 * f2, f2 * f2 * f2
    A11 = k11 * f3 * fp - m * f4 * fv * yp
    A12 = k12 * f6 * fv * yp - m * f4 * fv * fp
    R1 = (r1a * f2 * fp2 * fp * (ac - e8 * pq)
          - r1b * f6 * fp * yp2 * (ac - e4 * pq)
          + a2 * f4 * fp * (r1c * pq + r1d * fp2 * yp2)
          + r1e * f4 * f4 * fp * yp2 * yp2
          + r1f * f4 * fp
          + r1g * fp2 * fp2 * fp)
    R2 = (r2a * f6 * yp2 * yp + r2b * f4 * yp * (ac - e6 * pq)
          + f2 * fp * (r2c + r2d * pq) - r2e * fp2 * fp)
    return A11, A12, -q * f3 * yp, q * f3 * fp, R1, R2


def system_equation_residuals(constants: ConstantsL5, fv, fp, fpp, yp, ypp):
    """Raw residuals of the two family equations at a state (back-substitution
    oracle for the pointwise linear extraction)."""
    a11, a12, a21, a22, r1, r2 = _system_matrices(constants, fv, fp, yp)
    return float(a11 * fpp + a12 * ypp + r1), float(a21 * fpp + a22 * ypp + r2)


_DET_TOL = 1e-10
# space-likeness margin g_11 the coupled system must keep
_SPACELIKE_FLOOR = 0.02


def _det_margin(a11, a12, a21, a22) -> tuple[float, float]:
    """(|det A| / max|A|^2 - _DET_TOL, det A); a positive margin means safely
    non-singular.  The scale's floor keeps an all-zero A singular (-_DET_TOL);
    a non-finite entry makes det NaN, or +-inf with an inf scale, so the
    margin is NaN (singular) even where max() skips a NaN."""
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-150)
    return abs(det) / (scale * scale) - _DET_TOL, det


def _second_derivatives(constants: ConstantsL5, fv, fp, yp):
    """(f'', y'') by Cramer's rule with the margin test's determinant."""
    a11, a12, a21, a22, r1, r2 = _system_matrices(constants, fv, fp, yp)
    margin, det = _det_margin(a11, a12, a21, a22)
    if not margin > 0.0:
        raise np.linalg.LinAlgError("pointwise system is near-singular")
    return (a12 * r2 - a22 * r1) / det, (a21 * r1 - a11 * r2) / det


def spacelike_margin(constants: ConstantsL5, fv, fp, yp) -> float:
    """g_11 of the candidate surface: f^2 (x'^2 + y'^2 + z'^2) - 1."""
    a, H0, c2, c3 = constants.a, constants.H0, constants.c2, constants.c3
    xp = -fp / (a * fv * fv)
    zp = (-2 * H0 * fp / (a * a * fv * fv) - c2 * yp) / c3
    return fv * fv * (xp * xp + yp * yp + zp * zp) - 1.0


@dataclass(frozen=True)
class WarpSystemSolution:
    """Joint (f, y) trajectory with self-consistent second derivatives."""

    warp: WarpingFunction
    integration: IntegrationResult
    constants: ConstantsL5

    def y_state(self, t: float) -> tuple[float, float, float]:
        fv, fp, yv, yp = self.integration.dense(t)[0].tolist()
        _, ypp = _second_derivatives(self.constants, fv, fp, yp)
        return yv, yp, ypp

    @property
    def interval(self) -> tuple[float, float]:
        return self.warp.interval

    def max_equation_residual(self, samples: int = 200) -> float:
        """Largest |residual| of the two family equations over ``samples``
        times (0.0 with none); NaN when any residual is NaN."""
        lo, hi = self.interval
        residuals = []
        for t in np.linspace(lo, hi, samples).tolist():
            fv, fp, yv, yp = self.integration.dense(t)[0].tolist()
            fpp, ypp = _second_derivatives(self.constants, fv, fp, yp)
            residuals += system_equation_residuals(self.constants, fv, fp, fpp,
                                                   yp, ypp)
        return float(np.max(np.abs(residuals), initial=0.0))


def solve_warp_system(constants: ConstantsL5, ics, interval,
                      config: SolverConfig | None = None) -> WarpSystemSolution:
    """Integrate the coupled (f, y) system from t = interval[0].

    ``ics`` is (f0, f0p, y0, y0p).  At every step the two family equations
    are assembled as a linear system in (f'', y'') and solved pointwise.
    Monitored: the pointwise determinant, the space-likeness margin
    g_11 > _SPACELIKE_FLOOR, and f bounded away from zero.
    """
    f0, f0p, y0, y0p = map(float, ics)
    if f0 == 0.0:
        raise SingularWarpError("f0 must be non-zero")
    if not _det_margin(*_system_matrices(constants, f0, f0p, y0p)[:4])[0] > 0.0:
        raise AdmissibilityError(
            "pointwise (f'', y'') system is singular at the initial state")
    if spacelike_margin(constants, f0, f0p, y0p) <= _SPACELIKE_FLOOR:
        raise AdmissibilityError(
            "initial state violates the space-likeness margin "
            f"g_11 > {_SPACELIKE_FLOOR}")

    def rhs(t, s):
        fv, fp, yv, yp = s.tolist()
        fpp, ypp = _second_derivatives(constants, fv, fp, yp)
        return np.array([fp, fpp, yp, ypp])

    sgn = 1.0 if f0 > 0 else -1.0
    monitors = [
        ("spacelike", lambda t, s: spacelike_margin(constants, s[0], s[1], s[3])
         - _SPACELIKE_FLOOR),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
        ("system-determinant", lambda t, s: _det_margin(
            *_system_matrices(constants, s[0], s[1], s[3])[:4])[0]),
    ]
    result = rk_integrate(rhs, np.array([f0, f0p, y0, y0p]), interval, config,
                          monitors)
    dense = result.dense

    def fn(t):
        fv, fp, yv, yp = dense(t)[0].tolist()
        fpp, _ = _second_derivatives(constants, fv, fp, yp)
        return fv, fp, fpp

    warp = WarpingFunction(fn, dense.interval, source="ode-dense-output",
                           label="system-warp")
    return WarpSystemSolution(warp, result, constants)
