"""ODE machinery: adaptive embedded Runge-Kutta with dense output, the scalar
warp ODE of the L^4_1 rotational family, the coupled (f, y) system of the
L^5_1 family, and constants validators.

The integrator is a Dormand-Prince 5(4) pair propagating the 5th-order
solution, with the standard free quartic interpolant for dense output.  Its
step loop runs on Python floats: right-hand sides and monitors receive the
state as a list of floats, and each accepted step is kept as one row of
floats that the dense output reads.  The family right-hand sides, the
pointwise 2x2 solve and the dense-output evaluation are scalar as well:
dense output takes a float time and returns a tuple of floats.  The coupled
system's state at a time, (f, f', f'', y, y', y''), is computed once per
solution and cached.  No stiff solver is provided: the warp ODE blows up in
finite time for many initial conditions.  The rotational warp's solve stops
short of its blow-up on an asymptotic estimate of the time left (monitor
'blow-up', see _BLOW_UP_DELTA); elsewhere a blow-up ends the solve by step
underflow.  Either way it is reported rather than integrated through.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
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
        _require_finite(rtol=self.rtol, atol=self.atol,
                        fixed_step=self.fixed_step)
        if self.rtol <= 0 or self.atol <= 0:
            raise ConstraintError("solver tolerances must be positive")
        if self.fixed_step is not None and self.fixed_step <= 0:
            raise ConstraintError(
                f"fixed_step must be positive, got {self.fixed_step}")


@dataclass(frozen=True)
class DenseOutput:
    """Piecewise-quartic interpolant over the accepted-step mesh.

    Calling it at a float t returns the state as a tuple of Python floats;
    ``derivative(t)`` returns the interpolant's derivative the same way.
    Neither makes a numpy call.  Evaluation outside the covered interval
    raises ChartDomainError.
    """

    steps: list             # (t, h, y, q) floats per accepted step, in order
    t_end: float            # may cut the last step short (monitor stop)

    def __post_init__(self):
        # for _segment: direction-signed step starts (monotone, for bisect)
        # and (lo, hi, slack-widened lo, slack-widened hi, direction)
        direction = 1.0 if self.steps[0][1] > 0 else -1.0
        lo, hi = self.interval
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        self.__dict__.update(
            _starts=[row[0] * direction for row in self.steps],
            _bounds=(lo, hi, lo - slack, hi + slack, direction))

    @property
    def interval(self) -> tuple[float, float]:
        lo, hi = self.steps[0][0], self.t_end
        return (lo, hi) if lo <= hi else (hi, lo)

    def _segment(self, t: float):
        """(theta, h, y, q) of the step that holds t, with t clamped to the
        interval; the first step starts at one end of it, so once t is
        clamped the bisection always lands on a step."""
        lo, hi, low, high, direction = self._bounds
        if not (low <= t <= high):
            raise ChartDomainError(
                f"dense output evaluated at t={t} outside [{lo}, {hi}]")
        t = lo if t < lo else hi if t > hi else t
        tk, h, y, q = self.steps[bisect_right(self._starts, t * direction) - 1]
        return (t - tk) / h, h, y, q

    def __call__(self, t: float) -> tuple[float, ...]:
        return tuple(_quartic(*self._segment(t)))

    def derivative(self, t: float) -> tuple[float, ...]:
        th, _, _, q = self._segment(t)
        th2, th3 = th * th, th * th * th
        return tuple([a + b * (2 * th) + c * (3 * th2) + d * (4 * th3)
                      for a, b, c, d in q])


def _quartic(th, h, y, q) -> list[float]:
    """The state at theta = th along the step (h, y, q) of a steps row."""
    th2, th3 = th * th, th * th * th
    return [yi + h * (a * th + b * th2 + c * th3 + d * th2 * th2)
            for yi, (a, b, c, d) in zip(y, q)]


@dataclass(frozen=True)
class IntegrationResult:
    """A solve's dense output (ending at ``dense.t_end``) and how it ended."""

    dense: DenseOutput
    stop_reason: str  # 'completed' | 'step-underflow' | 'monitor:<name>'
    n_accepted: int
    n_rejected: int


def _rms(values) -> float:
    """Root mean square of a list of floats (squares by multiplication, so a
    huge ratio overflows to inf instead of raising)."""
    return math.sqrt(sum([x * x for x in values]) / len(values))


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, span):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    step = h0 * direction
    f1 = rhs(t0 + step, [v + step * p for v, p in zip(y0, f0)])
    d2 = _rms([(p1 - p) / s for p1, p, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(span))


# The tableau as Python floats for the step loop: (c2..c6), the rows a2..a6,
# b, e and the rows of _P that are not zero (row 1 is) without their first
# column, which is 1 in row 0 and 0 elsewhere.  _A[6] equals _B[:6] (first
# same as last), so y_new is the input of the seventh stage and c7 = 1.
_FLOAT_TABLEAU = (
    tuple(_C[1:6].tolist()),
    tuple(tuple(row.tolist()) for row in _A[1:6]),
    tuple(_B.tolist()),
    tuple(_E.tolist()),
    tuple(tuple(row.tolist()) for row in _P[[0, 2, 3, 4, 5, 6], 1:]))


def rk_integrate(rhs: Callable, y0, t_span, config: SolverConfig | None = None,
                 monitors: Sequence[tuple[str, Callable]] = ()) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with dense output.

    ``rhs(t, y)`` receives the state as a list of Python floats and returns a
    new sequence of its d derivatives (a list or a tuple of floats, or an
    array, which is read as its list of floats).  The step loop works on
    floats and builds no numpy array; each accepted step appends one
    ``(t, h, y, q)`` row, and the rows are the DenseOutput's steps.  A
    step whose stages raise an arithmetic error (ZeroDivisionError,
    OverflowError, FloatingPointError), SingularWarpError, LinAlgError or
    ValueError, or give a non-finite y_new or error estimate, is rejected and
    retried with a quarter of the step.

    ``monitors`` is a sequence of (name, g) pairs with g(t, y) > 0 required
    along the trajectory, y again a list of floats (a NaN value counts as a
    crossing).  A monitor that already reads <= 0 or NaN at (t0, y0) raises
    AdmissibilityError naming it, before the first step.  The first crossing
    after t0 truncates the output (the stop time is located by bisection on
    the dense segment) and is recorded as stop reason 'monitor:<name>'; it
    never changes a step size.  Step underflow near a blow-up that no monitor
    stops ends with 'step-underflow' and the last valid time.
    """
    cfg = config or SolverConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if math.isnan(t0) or math.isnan(t1):
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] has a NaN endpoint")
    if t0 == t1:
        raise ConstraintError("integration interval is degenerate")
    direction = 1.0 if t1 > t0 else -1.0
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    for name, g in monitors:
        g0 = g(t0, y)
        if not g0 > 0.0:
            raise AdmissibilityError(
                f"monitor {name!r} reads {g0!r} at the initial state "
                f"t={t0!r}; it must be > 0")
    d = len(y)
    t = t0
    f = rhs(t, y)
    if isinstance(f, np.ndarray):
        rhs = lambda t, y, array_rhs=rhs: array_rhs(t, y).tolist()
        f = f.tolist()
    if len(f) != d:
        raise ValueError(f"rhs returned {len(f)} components for a state of {d}")
    rtol, atol = cfg.rtol, cfg.atol

    if cfg.fixed_step is not None:
        h_abs = float(cfg.fixed_step)
    else:
        h_abs = _initial_step(rhs, t0, y, f, direction, rtol, atol, t1 - t0)
    h_abs = min(h_abs, abs(t1 - t0))

    ((c2, c3, c4, c5, c6),
     ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
      (a61, a62, a63, a64, a65)),
     (b1, _, b3, b4, b5, b6, _),
     (e1, _, e3, e4, e5, e6, e7),
     ((p11, p12, p13), (p31, p32, p33), (p41, p42, p43), (p51, p52, p53),
      (p61, p62, p63), (p71, p72, p73))) = _FLOAT_TABLEAU
    isfinite = math.isfinite

    steps = []
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
        k1 = f
        try:
            k2 = rhs(t + c2 * h, [yi + h * (a21 * p1) for yi, p1 in zip(y, k1)])
            k3 = rhs(t + c3 * h, [yi + h * (a31 * p1 + a32 * p2)
                                  for yi, p1, p2 in zip(y, k1, k2)])
            k4 = rhs(t + c4 * h, [yi + h * (a41 * p1 + a42 * p2 + a43 * p3)
                                  for yi, p1, p2, p3 in zip(y, k1, k2, k3)])
            k5 = rhs(t + c5 * h, [yi + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                                  for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
            k6 = rhs(t + c6 * h, [yi + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4
                                            + a65 * p5)
                                  for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = [yi + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
                     for yi, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, y_new)
            err = [h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
                   for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
            bad = not (all(map(isfinite, y_new)) and all(map(isfinite, err)))
        except (ArithmeticError, SingularWarpError, np.linalg.LinAlgError,
                ValueError):
            bad = True
        if bad:
            h_abs *= 0.25
            n_rej += 1
            continue

        if cfg.fixed_step is None:
            enorm = _rms([e / (atol + rtol * max(abs(a), abs(b)))
                          for e, a, b in zip(err, y, y_new)])
            if enorm > 1.0:
                h_abs *= max(0.2, 0.9 * enorm ** -0.2)
                n_rej += 1
                continue
            factor = min(5.0, max(0.2, 0.9 * (enorm + 1e-300) ** -0.2))
        else:
            factor = 1.0

        # Q = K.T @ _P row by row
        Q = [(p1,
              p11 * p1 + p31 * p3 + p41 * p4 + p51 * p5 + p61 * p6 + p71 * p7,
              p12 * p1 + p32 * p3 + p42 * p4 + p52 * p5 + p62 * p6 + p72 * p7,
              p13 * p1 + p33 * p3 + p43 * p4 + p53 * p5 + p63 * p6 + p73 * p7)
             for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
        steps.append((t, h, y, Q))
        n_acc += 1

        t_new = t + h
        triggered = None
        for name, g in monitors:
            if not g(t_new, y_new) > 0.0:
                triggered = (name, g)
                break
        if triggered is not None:
            name, g = triggered
            lo_th, hi_th = 0.0, 1.0
            for _ in range(80):
                th = 0.5 * (lo_th + hi_th)
                if g(t + th * h, _quartic(th, h, y, Q)) > 0.0:
                    lo_th = th
                else:
                    hi_th = th
            t_end = t + lo_th * h
            stop_reason = f"monitor:{name}"
            t = t_new
            break

        t, y, f = t_new, y_new, k7  # FSAL
        h_abs *= factor

    if not steps:
        raise AdmissibilityError("integration could not take a single step")
    if stop_reason == "completed":
        t_end = t
    return IntegrationResult(DenseOutput(steps, t_end), stop_reason, n_acc, n_rej)


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
        fv, fp = s
        q = fp * fp - b2 * fv * fv
        return fp, (q * q + fp**4) / (b2 * fv**3)

    return rhs


# The rotational warp's solve stops once the time left to its blow-up falls
# below this share of |t - t0|, so its interval ends about _BLOW_UP_DELTA x
# length short of the blow-up (Stuart and Floater 1990).
_BLOW_UP_DELTA = 1e-6


def _blow_up_time_left(b2, fv, fp) -> float:
    """Time left to the blow-up, b^2 |f|^3 / (6 |f'|^3), from the asymptotic
    f'' ~ 2 f'^4 / (b^2 f^3)."""
    ratio = fv / fp
    return b2 * abs(ratio * ratio * ratio) / 6.0


@dataclass(frozen=True)
class RotationalWarpSolution:
    warp: WarpingFunction
    integration: IntegrationResult
    constants: ConstantsL4
    # t_end + direction x time left at t_end after 'monitor:blow-up', else None
    blow_up_time: float | None = None


def solve_rotational_warp(constants: ConstantsL4, f0: float, f0p: float,
                          interval, config: SolverConfig | None = None
                          ) -> RotationalWarpSolution:
    """Integrate the warp ODE of the rotational family from t = interval[0].

    Admissibility f'^2 > b^2 f^2 (space-likeness of the resulting surface) is
    required at the start and monitored along the trajectory; the returned
    WarpingFunction is restricted to the admissible subinterval and supplies
    f'' through the ODE right-hand side (self-consistent by construction).
    While |f'| grows in the direction of integration, the solve stops by
    'monitor:blow-up' once the time left to the blow-up falls below
    _BLOW_UP_DELTA |t - t0|, and records the estimated blow-up time.
    """
    _require_finite(f0=f0, f0p=f0p)
    b2 = constants.b2
    if f0 == 0.0:
        raise SingularWarpError("f0 must be non-zero")
    q0 = f0p * f0p - b2 * f0 * f0
    if q0 <= 0.0:
        raise AdmissibilityError(
            f"f'^2 > (a^2 - 4 H0^2) f^2 violated at start: {f0p**2} <= {b2 * f0**2}")
    rhs = rotational_warp_rhs(constants)
    sgn = 1.0 if f0 > 0 else -1.0
    # f'' has the sign of f, so |f'| grows where direction * sgn * f' > 0
    t0 = float(interval[0])
    direction = 1.0 if interval[1] > interval[0] else -1.0
    grows = direction * sgn
    monitors = [
        ("admissible", lambda t, s: s[1] * s[1] - b2 * s[0] * s[0]),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
        ("blow-up", lambda t, s: 1.0 if grows * s[1] <= 0.0 else
         _blow_up_time_left(b2, *s) - _BLOW_UP_DELTA * abs(t - t0)),
    ]
    result = rk_integrate(rhs, [f0, f0p], interval, config, monitors)
    dense = result.dense
    blow_up_time = (dense.t_end + direction * _blow_up_time_left(
        b2, *dense(dense.t_end)) if result.stop_reason == "monitor:blow-up"
        else None)

    def fn(t):
        fv, fp = dense(t)
        return (fv, *rhs(t, (fv, fp)))

    return RotationalWarpSolution(WarpingFunction(fn, dense.interval), result,
                                  constants, blow_up_time)


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


def _second_derivatives(constants: ConstantsL5, fv, fp, yp):
    """(f'', y'') by Cramer's rule; LinAlgError unless |det A| / max|A|^2 >
    _DET_TOL.  The scale's floor keeps an all-zero A singular; a non-finite
    entry makes the ratio NaN (singular) even where max() skips a NaN."""
    a11, a12, a21, a22, r1, r2 = _system_matrices(constants, fv, fp, yp)
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-150)
    if not abs(det) / (scale * scale) > _DET_TOL:
        raise np.linalg.LinAlgError("pointwise system is near-singular")
    return (a12 * r2 - a22 * r1) / det, (a21 * r1 - a11 * r2) / det


def spacelike_margin(constants: ConstantsL5, fv, fp, yp) -> float:
    """g_11 of the candidate surface: f^2 (x'^2 + y'^2 + z'^2) - 1."""
    a, H0, c2, c3 = constants.a, constants.H0, constants.c2, constants.c3
    xp = -fp / (a * fv * fv)
    zp = (-2 * H0 * fp / (a * a * fv * fv) - c2 * yp) / c3
    return fv * fv * (xp * xp + yp * yp + zp * zp) - 1.0


# Entries of one solution's state cache.  It is sized for two 2001-sample
# passes over the same times (the warp, then y_state, as in the warp-sweep
# benchmark and `solve sys5 --samples 2001`) plus the 200 times of
# max_equation_residual; a verify grid asks for at most 5 nu distinct times
# (each report time and its stencil offsets).
_STATE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class WarpSystemSolution:
    """Joint (f, y) trajectory with self-consistent second derivatives.

    ``state(t)`` is (f, f', f'', y, y', y'') at t, from the dense output and
    the pointwise 2x2 solve; it is cached per solution, so the warp, y_state
    and max_equation_residual evaluate each distinct time once.
    """

    warp: WarpingFunction
    integration: IntegrationResult
    constants: ConstantsL5
    state: Callable[[float], tuple[float, ...]] = field(repr=False, compare=False)

    def y_state(self, t: float) -> tuple[float, float, float]:
        return self.state(t)[3:]

    def max_equation_residual(self, samples: int = 200) -> float:
        """Largest |residual| of the two family equations over ``samples``
        >= 1 times (ValueError otherwise); NaN when any residual is NaN."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        residuals = []
        for t in np.linspace(*self.warp.interval, samples).tolist():
            fv, fp, fpp, _, yp, ypp = self.state(t)
            residuals += system_equation_residuals(self.constants, fv, fp, fpp,
                                                   yp, ypp)
        return float(np.max(np.abs(residuals)))


def solve_warp_system(constants: ConstantsL5, ics, interval,
                      config: SolverConfig | None = None) -> WarpSystemSolution:
    """Integrate the coupled (f, y) system from t = interval[0].

    ``ics`` is (f0, f0p, y0, y0p).  At every stage the two family equations
    are assembled as a linear system in (f'', y'') and solved pointwise; a
    near-singular system raises in the right-hand side, which rejects the
    step, so a trajectory that runs into a singular system ends by
    'step-underflow'.  The initial state must be non-singular.  Monitored:
    the space-likeness margin g_11 > _SPACELIKE_FLOOR, and f bounded away
    from zero.  The solution's (f, f', f'', y, y', y'') at a time is computed
    once, on the first request, and kept in a bounded cache of the solution
    (exceptions are not cached).
    """
    f0, f0p, y0, y0p = map(float, ics)
    _require_finite(f0=f0, f0p=f0p, y0=y0, y0p=y0p)
    if f0 == 0.0:
        raise SingularWarpError("f0 must be non-zero")
    try:
        _second_derivatives(constants, f0, f0p, y0p)
    except np.linalg.LinAlgError:
        raise AdmissibilityError("pointwise (f'', y'') system is singular "
                                 "at the initial state") from None
    if spacelike_margin(constants, f0, f0p, y0p) <= _SPACELIKE_FLOOR:
        raise AdmissibilityError(
            "initial state violates the space-likeness margin "
            f"g_11 > {_SPACELIKE_FLOOR}")

    def rhs(t, s):
        fv, fp, yv, yp = s
        fpp, ypp = _second_derivatives(constants, fv, fp, yp)
        return fp, fpp, yp, ypp

    sgn = 1.0 if f0 > 0 else -1.0
    monitors = [
        ("spacelike", lambda t, s: spacelike_margin(constants, s[0], s[1], s[3])
         - _SPACELIKE_FLOOR),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
    ]
    result = rk_integrate(rhs, [f0, f0p, y0, y0p], interval, config, monitors)
    dense = result.dense

    @functools.lru_cache(maxsize=_STATE_CACHE_SIZE)
    def state(t):
        fv, fp, yv, yp = dense(t)
        fpp, ypp = _second_derivatives(constants, fv, fp, yp)
        return fv, fp, fpp, yv, yp, ypp

    warp = WarpingFunction(lambda t: state(t)[:3], dense.interval)
    return WarpSystemSolution(warp, result, constants, state)
