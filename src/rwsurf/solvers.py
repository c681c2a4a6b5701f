"""ODE machinery: adaptive embedded Runge-Kutta with dense output, the scalar
warp ODE of the L^4_1 rotational family, the coupled (f, y) system of the
L^5_1 family, and constants validators.

The integrator is a Dormand-Prince 5(4) pair propagating the 5th-order
solution, with the standard free quartic interpolant for dense output.  Its
step loop runs on Python floats: right-hand sides and monitors receive the
state as a list of floats, and each accepted step is kept as one row of
floats that the dense output reads.  The step, with its error norm, the
quartic and the dense state sample are generated once per state length, and
once per solved family, as straight-line code that is bit-identical to the
per-component form.  Each family's equations are one source text (_L4,
_L5), compiled inline into its step's stages and its dense state sample:
the sample's interval test, the step's bisection, the quartic and the
equations in one frame, beside its completion, its right-hand side (the
completion's slopes) and its residuals.  A solved warp is a WarpingFunction
around that sample (for the coupled system, around its state cache), so its
checks are ambient's, the same as for every warp.  No stiff solver is
provided: the warp ODE blows up in finite time for many initial conditions.  The
rotational warp's solve stops short of its blow-up on an asymptotic estimate
of the time left (monitor 'blow-up', see _BLOW_UP_DELTA); elsewhere a blow-up
ends the solve by step underflow.  Either way it is reported rather than
integrated through.  A dense output binds its sample on its first call, so a
family's solve compiles its family's kernels only.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import astuple, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _exports
from .ambient import WarpingFunction, _widened
from .errors import (AdmissibilityError, ChartDomainError, ConstraintError,
                     SingularWarpError)

__all__ = _exports(__name__)

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


# attempted steps (accepted plus rejected) before rk_integrate ends 'max-steps'
_MAX_STEPS = 200_000


@dataclass
class SolverConfig:
    """The tolerances of rk_integrate's error control."""

    rtol: float = 1e-11
    atol: float = 1e-13

    def __post_init__(self):
        _require_finite(rtol=self.rtol, atol=self.atol)
        if self.rtol <= 0 or self.atol <= 0:
            raise ConstraintError("solver tolerances must be positive")


@dataclass(frozen=True)
class DenseOutput:
    """Piecewise-quartic interpolant over the accepted-step mesh.

    Calling it at a float t returns the state as a tuple of Python floats,
    mapped by ``completion`` if given (a family's, from _bind, runs inline).
    It runs _kernels' dense sample, bound on the first call, and makes no
    numpy call.  Evaluation outside the covered interval raises
    ChartDomainError.
    """

    steps: list             # (t, h, y, q) floats per accepted step, in order
    t_end: float            # may cut the last step short (monitor stop)
    completion: Callable | None = None  # interpolated state -> full state

    @property
    def interval(self) -> tuple[float, float]:
        lo, hi = self.steps[0][0], self.t_end
        return (lo, hi) if lo <= hi else (hi, lo)

    @functools.cached_property
    def _sample(self):
        """The dense sample over this output, bound once: given the limits,
        the rows, their starts times the direction (monotone, for bisect),
        the direction and the completion."""
        lo, hi = self.interval
        key, fn = getattr(self.completion, "inline",
                          (len(self.steps[0][2]), (self.completion,)))
        direction = 1.0 if self.steps[0][1] > 0 else -1.0
        starts = [row[0] * direction for row in self.steps]
        return _kernels(key)[2](lo, hi, *_widened(lo, hi), self.steps, starts,
                                direction, *fn)

    def __call__(self, t: float) -> tuple[float, ...]:
        return self._sample(t)


@dataclass(frozen=True)
class IntegrationResult:
    """A solve's dense output (ending at ``dense.t_end``) and how it ended."""

    dense: DenseOutput
    stop_reason: str  # 'completed' | 'step-underflow' | 'max-steps' | 'monitor:<name>'
    n_accepted: int
    n_rejected: int


def _rms(values) -> float:
    """Root mean square of a list of floats, summed left to right (squares by
    multiplication, so a huge ratio overflows to inf instead of raising)."""
    return math.sqrt(functools.reduce(lambda s, x: s + x * x, values, 0.0) / len(values))


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, span):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:  # d1 overflowed: rk_integrate takes no step
        return 0.0
    step = h0 * direction
    f1 = rhs(t0 + step, [v + step * p for v, p in zip(y0, f0)])
    d2 = _rms([(p1 - p) / s for p1, p, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(span))


@functools.lru_cache(maxsize=None)
def _kernels(key):
    """(step, quartic, dense) for states of length ``key``, or, for a
    _Family ``key``, with its text inline in place of every call of the
    right-hand side or the completion, and its bind last.  Compiled once
    per key from straight lines in the tableau's floats by name (c2, a21, b1,
    e1, p11 = _P[0, 1], ...) and the indices 0..d-1, in the operand order of
    the per-component form.  c7 = 1, b2 = e2 = 0 (never read: a factor may
    take the name), _P's row 1 is 0 and its first column is 1 in row 0 only.

    fn is (rhs,) for step, (complete,) for dense, or the family's factors.
    step(*fn)(t, h, y, k1, atol, rtol) returns (y_new, k7, the _rms of
    err / (atol + rtol max(|y|, |y_new|)), whether y_new and err are finite,
    Q); quartic(th, h, y, q) the state at theta = th of a steps row.
    dense(lo, hi, low, high, steps, starts, direction, *fn) returns the
    dense state sample: a function of t, which tests t against [low, high],
    clamps it to [lo, hi], bisects the direction-signed step starts for its
    row, evaluates that row inline and returns the quartic's state,
    completed unless complete is None.  A family's bind(*factors) returns
    its (rhs, complete, residuals), rhs the slopes of complete's full state,
    residuals a function of that state, or None."""
    family = None if isinstance(key, int) else key
    if family is None:
        fn, d = "fn", key
        call = lambda t, items, out: [f"{out}= fn({t}, [{items}])"]
    else:  # the text on the state's names, which ignores t
        fn, text = family.factors, family.text.splitlines()
        pairs = list(zip(*[iter(family.state.split(", "))] * 2))
        d, slope = 2 * len(pairs), "".join(f"{p}, {p}p, " for _, p in pairs)
        full = "".join(f"{v}, {p}, {p}p, " for v, p in pairs)
        bound = lambda items: [f"{family.state}, = {items}", *text]
        call = lambda t, items, out: bound(items) + [f"{out}= {slope}"]
    ks = (1, 3, 4, 5, 6)  # the stages y_new reads; err and Q add the seventh
    names = {f"{v}{s}": x for v, col in (("c", _C), ("b", _B), ("e", _E))
             for s, x in enumerate(col.tolist(), 1)}
    names.update({f"a{s}{j}": x for s in range(2, 7)
                  for j, x in enumerate(_A[s - 1].tolist(), 1)})
    names.update({f"p{s}{j}": x for s in ks + (7,)
                  for j, x in enumerate(_P[s - 1, 1:].tolist(), 1)})
    names.update(ChartDomainError=ChartDomainError,
                 LinAlgError=np.linalg.LinAlgError, isfinite=math.isfinite,
                 sqrt=math.sqrt, bisect_right=bisect_right, _DET_TOL=_DET_TOL)

    def each(template):  # the d components of one quantity, comma-joined
        return "".join(template.replace("_i", f"_{i}") + ", " for i in range(d))

    def combo(coef, stages):  # coef(s) * k_s summed over the stages
        return " + ".join(f"{coef(s)} * k{s}_i" for s in stages)

    def lines(indent, statements):
        return "".join(f"{' ' * indent}{line}\n" for line in statements)

    stages = [f"{each('y_i')}= y", f"{each('k1_i')}= k1"]
    for s in range(2, 7):  # k_s = rhs(t + c_s h, y + h sum_j a_sj k_j)
        stages += call(f"t + c{s} * h", each(
            "y_i + h * (" + combo(lambda j: f"a{s}{j}", range(1, s)) + ")"),
            each(f"k{s}_i"))
    y_new = each("y_i + h * (" + combo(lambda s: f"b{s}", ks) + ")")
    err = each("h * (" + combo(lambda s: f"e{s}", ks + (7,)) + ")")
    scaled = each("e_i / (atol + rtol * max(abs(y_i), abs(n_i)))")
    squares = " + ".join(f"s_{i} * s_{i}" for i in range(d))  # as in _rms
    finite = " and ".join(f"isfinite({v}_{i})" for v in "ne" for i in range(d))
    q = ", ".join(combo(lambda s: f"p{s}{j}", ks + (7,)) for j in (1, 2, 3))
    stages += [f"{each('n_i')}= {y_new}", f"y_new = [{each('n_i')}]",
               *call("t + h", each("n_i"), each("k7_i")), f"k7 = {each('k7_i')}",
               f"{each('e_i')}= {err}", f"{each('s_i')}= {scaled}",
               f"return y_new, k7, sqrt(({squares}) / {d}), {finite}, "
               f"[{each(f'(k1_i, {q})')}]"]
    # theta's powers and a row's components, then the quartic
    row = ["th2, th3 = th * th, th * th * th", f"{each('y_i')}= y",
           f"{each('(a_i, b_i, c_i, d_i)')}= q"]
    quartic = each("y_i + h * (a_i * th + b_i * th2 + c_i * th3 + d_i * th2 * th2)")
    # the dense sample after its interval test: x is t clamped to [lo, hi];
    # the first step starts at one end of it, so the bisection always lands
    # on a step
    locate = ["x = lo if t < lo else hi if t > hi else t",
              "tk, h, y, q = steps[bisect_right(starts, x * direction) - 1]",
              "th = (x - tk) / h", *row]
    if family is None:
        value = [f"y = ({quartic})", "return y if fn is None else fn(y)"]
    else:
        value = bound(quartic) + [f"return {full}"]

    source = (
        f"def step({fn}):\n    def run(t, h, y, k1, atol, rtol):\n"
        + lines(8, stages) + "    return run\n"
        "def quartic(th, h, y, q):\n" + lines(4, row) + f"    return ({quartic})\n"
        f"def dense(lo, hi, low, high, steps, starts, direction, {fn}):\n"
        "    def sample(t):\n"
        "        if not (low <= t <= high):\n"
        "            raise ChartDomainError(\n"
        '                f"dense output evaluated at t={t} outside [{lo}, {hi}]")\n'
        + lines(8, locate + value) + "    return sample\n")
    if family is not None:  # rhs is the slope part of complete
        source += (f"def bind({fn}):\n    def complete(s):\n"
                   + lines(8, bound("s") + [f"return {full}"])
                   + f"    def rhs(t, s):\n        {full}= complete(s)\n"
                   f"        return {slope}\n"
                   + (f"    def residuals({full}):\n"
                      + lines(8, family.residuals.splitlines())
                      if family.residuals else "    residuals = None\n")
                   + "    return rhs, complete, residuals\n")
    exec(compile(source, f"<rwsurf.solvers._kernels({getattr(family, 'name', d)})>",
                 "exec"), names)
    return tuple(names[k] for k in ("step", "quartic", "dense", "bind")
                 if k in names)


def rk_integrate(rhs: Callable, y0, t_span, config: SolverConfig | None = None,
                 monitors: Sequence[tuple[str, Callable]] = ()) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with dense output.

    ``rhs(t, y)`` receives the state as a list of Python floats and returns a
    new sequence of its d derivatives (a list or a tuple of floats, or an
    array, which is read as its list of floats); a family's rhs, from _bind,
    runs inline in the step's stages.  The step loop works on
    floats and builds no numpy array; each accepted step appends one
    ``(t, h, y, q)`` row, and the rows are the DenseOutput's steps.  The
    first step size comes from _initial_step, and every step is under error
    control: a step whose error norm exceeds 1 is rejected, and each step
    scales the next by 0.9 norm^-1/5, within [0.2, 5].  A step whose stages
    raise an arithmetic error (ZeroDivisionError, OverflowError,
    FloatingPointError), SingularWarpError, LinAlgError or ValueError, or
    give a non-finite y_new or error estimate, is rejected and retried with a
    quarter of the step.

    ``monitors`` is a sequence of (name, g) pairs with g(t, y) > 0 required
    along the trajectory, y again a list of floats (a NaN value counts as a
    crossing).  A monitor that already reads <= 0 or NaN at (t0, y0) raises
    AdmissibilityError naming it, before the first step.  The first crossing
    after t0 truncates the output (the stop time is located by bisection on
    the dense segment) and is recorded as stop reason 'monitor:<name>'; it
    never changes a step size.  Step underflow near a blow-up that no monitor
    stops ends with 'step-underflow' and the last valid time (a span left
    below 1e-14 max(1, |t|) is 'completed'), _MAX_STEPS attempts with
    'max-steps'.  A NaN endpoint, an infinite start time (an infinite end
    is allowed) and a y0 that is not a non-empty 1-D vector of finite floats
    raise ConstraintError before any monitor or rhs call, and a non-finite
    derivative at (t0, y0), or an ArithmeticError from rhs there,
    AdmissibilityError before any step.
    """
    cfg = config or SolverConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if math.isnan(t0) or math.isnan(t1):
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] has a NaN endpoint")
    if math.isinf(t0):
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] has an infinite start")
    if t0 == t1:
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] is degenerate")
    direction = 1.0 if t1 > t0 else -1.0
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if y.ndim != 1 or not y.size:
        raise ConstraintError(f"initial state y0 must be a non-empty 1-D "
                              f"vector, got shape {y.shape}")
    y = y.tolist()
    if not all(map(math.isfinite, y)):
        raise ConstraintError(f"initial state y0 must be finite, got {y}")
    for name, g in monitors:
        g0 = g(t0, y)
        if not g0 > 0.0:
            raise AdmissibilityError(
                f"monitor {name!r} reads {g0!r} at the initial state "
                f"t={t0!r}; it must be > 0")
    d = len(y)
    t = t0
    try:
        f = rhs(t, y)
    except ArithmeticError as exc:
        raise AdmissibilityError(
            f"the derivative at the initial state t={t0!r} is not finite "
            f"({type(exc).__name__}: {exc})") from exc
    if isinstance(f, np.ndarray):
        rhs = lambda t, y, array_rhs=rhs: array_rhs(t, y).tolist()
        f = f.tolist()
    if len(f) != d:
        raise ValueError(f"rhs returned {len(f)} components for a state of {d}")
    if not all(map(math.isfinite, f)):
        raise AdmissibilityError(
            f"the derivative at the initial state t={t0!r} is not finite: {f}")
    rtol, atol = cfg.rtol, cfg.atol
    h_abs = _initial_step(rhs, t0, y, f, direction, rtol, atol, t1 - t0)

    key, fn = getattr(rhs, "inline", (d, (rhs,)))  # a family's: _bind
    make_step, quartic, *_ = _kernels(key)
    step = make_step(*fn)

    steps = []
    n_acc = n_rej = 0
    stop_reason, t_end = "completed", None  # None: where the loop stops

    while (t - t1) * direction < 0:
        tiny = 1e-14 * max(1.0, abs(t))
        if abs(t1 - t) < tiny:  # the span is covered up to round-off
            break
        h_abs = min(h_abs, abs(t1 - t))
        if h_abs < tiny or n_acc + n_rej >= _MAX_STEPS:
            stop_reason = "step-underflow" if h_abs < tiny else "max-steps"
            break
        h = h_abs * direction
        try:
            y_new, k7, enorm, ok, Q = step(t, h, y, f, atol, rtol)
        except (ArithmeticError, SingularWarpError, np.linalg.LinAlgError,
                ValueError):
            ok = False
        if not ok:
            h_abs *= 0.25
            n_rej += 1
            continue
        if enorm > 1.0:
            h_abs *= max(0.2, 0.9 * enorm ** -0.2)
            n_rej += 1
            continue

        steps.append((t, h, y, Q))
        n_acc += 1

        t_new = t + h
        for name, g in monitors:
            if not g(t_new, y_new) > 0.0:  # bisect for the crossing
                lo_th, hi_th = 0.0, 1.0
                for _ in range(80):
                    th = 0.5 * (lo_th + hi_th)
                    if g(t + th * h, list(quartic(th, h, y, Q))) > 0.0:
                        lo_th = th
                    else:
                        hi_th = th
                t_end = t + lo_th * h
                stop_reason = f"monitor:{name}"
                break
        if t_end is not None:
            break

        t, y, f = t_new, y_new, k7  # FSAL
        h_abs *= min(5.0, max(0.2, 0.9 * (enorm + 1e-300) ** -0.2))

    if not steps:
        raise AdmissibilityError("integration could not take a single step")
    return IntegrationResult(DenseOutput(steps, t if t_end is None else t_end),
                             stop_reason, n_acc, n_rej)


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ConstantsL4:
    """Rotational-family constants: c2 > 0 from 4 H0^2 + c2^2 a^2 = a^2, b^2 > 0."""

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
        self.__dict__["_factors"] = _system_factors(self)


@dataclass(frozen=True)
class ConstantsProduct:
    """Product-family constants: b2^2 + b3^2 = 1 / (b1^2 + 2)."""

    b1: float
    b2: float
    b3: float


_CTOL = 1e-12


def _require_finite(**params):
    """ConstraintError naming the first given parameter that is not finite."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ConstraintError(f"{name} must be finite, got {value}")


def validate_constants_l4(a: float, H0: float) -> ConstantsL4:
    """Check the rotational-family constants and derive c2 > 0 from them."""
    _require_finite(a=a, H0=H0)
    b2 = a * a - 4 * H0 * H0
    if b2 <= 0:
        raise ConstraintError(f"a^2 - 4 H0^2 > 0 violated: {b2}")
    if H0 == 0.0:
        raise ConstraintError("H0 must be non-zero")
    c2 = math.sqrt(1.0 - 4 * H0 * H0 / (a * a))
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
    if b2 is None or b3 is None:
        name, given = ("b3", b3) if b2 is None else ("b2", b2)
        rem = target - given * given
        if rem <= 0:
            raise ConstraintError(
                f"b2^2 + b3^2 = 1/(b1^2+2) unsolvable: {name}^2 exceeds {target}")
        b2, b3 = (math.sqrt(rem), b3) if b2 is None else (b2, math.sqrt(rem))
    else:
        defect = b2 * b2 + b3 * b3 - target
        if abs(defect) > _CTOL:
            raise ConstraintError(
                f"b2^2 + b3^2 = 1/(b1^2+2) violated by {defect:.3e}")
    if b2 == 0.0 or b3 == 0.0:
        raise ConstraintError("b2 and b3 must be non-zero")
    return ConstantsProduct(float(b1), float(b2), float(b3))


# ---------------------------------------------------------------------------
# the rotational-warp scalar ODE


# A solved family's equations as straight-line source text over its constant
# factors (names, comma-joined): from its state's names, pairs of a value and
# its slope (fv, fp, ...), to each slope's derivative, the slope's name with
# one more p (fpp, ...).  _kernels compiles the text inline, and in the same
# module the residuals: None, or a text over the full state (fv, fp, fpp, ...)
# that returns the equations' residuals.
_Family = namedtuple("_Family", "name state factors text residuals", defaults=(None,))


def _bind(family: _Family, factors):
    """The family's generated rhs(t, s) and completion at its factors, each
    with (family, factors) as ``inline``: rk_integrate and DenseOutput then
    run the family's kernels."""
    rhs, complete, _ = _kernels(family)[3](*factors)
    rhs.inline = complete.inline = family, factors
    return rhs, complete


# f'' = ((f'^2 - b^2 f^2)^2 + f'^4) / (b^2 f^3)
_L4 = _Family("l4", "fv, fp", "b2", """\
q = fp * fp - b2 * fv * fv
fpp = (q * q + fp**4) / (b2 * fv**3)""")


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
    rhs, complete = _bind(_L4, (b2,))
    sgn = 1.0 if f0 > 0 else -1.0
    # f'' has the sign of f, so |f'| grows where direction * sgn * f' > 0
    t0 = float(interval[0])
    direction = 1.0 if interval[1] > interval[0] else -1.0
    grows = direction * sgn
    monitors = [
        ("admissible", lambda t, s: s[1] * s[1] - b2 * s[0] * s[0]),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
        ("blow-up", lambda t, s: 1.0 if grows * s[1] <= 0.0 else
         _blow_up_time_left(b2, s[0], s[1]) - _BLOW_UP_DELTA * abs(t - t0)),
    ]
    result = rk_integrate(rhs, [f0, f0p], interval, config, monitors)
    dense = result.dense
    warp = DenseOutput(dense.steps, dense.t_end, complete)
    blow_up_time = (dense.t_end + direction * _blow_up_time_left(
        b2, *warp(dense.t_end)[:2]) if result.stop_reason == "monitor:blow-up"
        else None)
    return RotationalWarpSolution(WarpingFunction(warp._sample, dense.interval),
                                  result, constants, blow_up_time)


# ---------------------------------------------------------------------------
# the coupled (f, y) system


def _system_factors(constants: ConstantsL5):
    """The constant factors of _L5's text, in the order of _L5.factors."""
    a, H0, c2, c3, c4, b2 = astuple(constants)
    g = 12 * a**2 * (c3**2 - 1) * H0**2
    return (a**2 * c3**2, a**4 * c3**2, 2 * a**6 * c2 * c3**2 * H0, -a**4 * c3**2 * c4,
            -a**6 * b2 * c3**2, -2 * a**2 * c4, 4 * a**4 * b2, a**2,
            -12 * a**4 * c2 * c3**2 * H0, 4 * (a**4 * c3**2 - g - 48 * H0**4),
            2 * a**4 * b2**2, a**8 * c3**4, 2 * c4**2, -a**2 * b2**2, a**2 * b2,
            2 * a**4 * c2 * c3**2 * H0, a**4 * c3**2 + g + 48 * H0**4, 2 * c2 * c4 * H0,
            4 * c2 * H0, 6 * c2 * H0, 8 * c2 * H0)


# the two family equations as A @ (f'', y'') = -R at (f, f', y')
_L5_MATRICES = """\
f2, fp2, pq, yp2 = fv * fv, fp * fp, fp * yp, yp * yp
f3, f4, f6 = f2 * fv, f2 * f2, f2 * f2 * f2
A11 = k11 * f3 * fp - m * f4 * fv * yp
A12 = k12 * f6 * fv * yp - m * f4 * fv * fp
R1 = (r1a * f2 * fp2 * fp * (ac - w8 * pq)
      - r1b * f6 * fp * yp2 * (ac - w4 * pq)
      + a2 * f4 * fp * (r1c * pq + r1d * fp2 * yp2)
      + r1e * f4 * f4 * fp * yp2 * yp2
      + r1f * f4 * fp
      + r1g * fp2 * fp2 * fp)
R2 = (r2a * f6 * yp2 * yp + r2b * f4 * yp * (ac - w6 * pq)
      + f2 * fp * (r2c + r2d * pq) - r2e * fp2 * fp)
A21, A22 = -k22 * f3 * yp, k22 * f3 * fp"""
# (f'', y'') by Cramer's rule; LinAlgError unless |det A| / max|A|^2 >
# _DET_TOL.  The scale's floor keeps an all-zero A singular; a non-finite
# entry makes the ratio NaN (singular) even where max() skips a NaN.
_CRAMER = """\
det = A11 * A22 - A12 * A21
scale = max(abs(A11), abs(A12), abs(A21), abs(A22), 1e-150)
if not abs(det) / (scale * scale) > _DET_TOL:
    raise LinAlgError("pointwise system is near-singular")
fpp = (A12 * R2 - A22 * R1) / det
ypp = (A21 * R1 - A11 * R2) / det"""
_L5 = _Family("l5", "fv, fp, yv, yp", "ac, k22, m, k11, k12, r1a, r1b, a2, "
              "r1c, r1d, r1e, r1f, r1g, r2a, r2b, r2c, r2d, r2e, w4, w6, w8",
              _L5_MATRICES + "\n" + _CRAMER, _L5_MATRICES + """
return (float(A11 * fpp + A12 * ypp + R1),
        float(A21 * fpp + A22 * ypp + R2))""")


def _residuals(constants: ConstantsL5):
    """_L5's residuals(fv, fp, fpp, yv, yp, ypp) at the constants' factors."""
    return _kernels(_L5)[3](*constants._factors)[2]


def system_equation_residuals(constants: ConstantsL5, fv, fp, fpp, yp, ypp):
    """Raw residuals of the two family equations at a state (back-substitution
    oracle for the pointwise linear extraction)."""
    return _residuals(constants)(fv, fp, fpp, None, yp, ypp)


_DET_TOL = 1e-10
# space-likeness margin g_11 the coupled system must keep
_SPACELIKE_FLOOR = 0.02
_RESIDUAL_SAMPLES = 200  # max_equation_residual's uniform times


def spacelike_margin(constants: ConstantsL5, fv, fp, yp) -> float:
    """g_11 of the candidate surface: f^2 (x'^2 + y'^2 + z'^2) - 1."""
    a, H0, c2, c3 = constants.a, constants.H0, constants.c2, constants.c3
    xp = -fp / (a * fv * fv)
    zp = (-2 * H0 * fp / (a * a * fv * fv) - c2 * yp) / c3
    return fv * fv * (xp * xp + yp * yp + zp * zp) - 1.0


# Entries of one solution's state cache.  Two 2001-sample passes over the
# same times fit (warp-sweep's warp, then its y_state, which hits) with the
# 200 times of max_equation_residual; a verify grid asks for at most 7 nu
# distinct times (report times, four stencil offsets, and the substep
# probe's f'' at t +- h, shape._warp_length_scale), and its metric's warp
# reads hit the times the surface_l51 chart's state reads filled.
_STATE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class WarpSystemSolution:
    """Joint (f, y) trajectory with self-consistent second derivatives.

    ``state(t)`` is (f, f', f'', y, y', y'') at t, the dense output completed
    by the 2x2 solve, in a bounded cache that the warp, y_state and
    max_equation_residual share (exceptions are not cached).
    """

    warp: WarpingFunction
    integration: IntegrationResult
    constants: ConstantsL5
    state: Callable[[float], tuple[float, ...]] = field(repr=False, compare=False)

    def y_state(self, t: float) -> tuple[float, float, float]:
        """(y, y', y'') at t: the tail of ``state(t)``, which holds f too."""
        return self.state(t)[3:]

    def max_equation_residual(self) -> float:
        """Largest |residual| of the two family equations over
        _RESIDUAL_SAMPLES uniform times; NaN when any residual is NaN."""
        residuals, at = [], _residuals(self.constants)
        for t in np.linspace(*self.warp.interval, _RESIDUAL_SAMPLES).tolist():
            residuals += at(*self.state(t))
        return float(np.max(np.abs(residuals)))


def solve_warp_system(constants: ConstantsL5, ics, interval,
                      config: SolverConfig | None = None) -> WarpSystemSolution:
    """Integrate the coupled (f, y) system from t = interval[0].

    ``ics`` is (f0, f0p, y0, y0p).  At every stage the two family equations
    are assembled as a linear system in (f'', y'') and solved pointwise; a
    near-singular system raises in the right-hand side, which rejects the
    step, so a trajectory that runs into a singular system ends by
    'step-underflow'.  So does one whose f'' and y'' blow up in finite time
    while the system stays non-singular: the step shrinks toward the blow-up
    until it underflows, and no blow-up time is reported.  In a seeded sweep
    of 200 broad members, all 42 that end by 'step-underflow' are of this
    kind.  The initial state must be non-singular.  Monitored:
    the space-likeness margin g_11 > _SPACELIKE_FLOOR, and f bounded away
    from zero.  One text (_L5) serves the right-hand side, the initial-state
    check, the solution's state and the equation residuals.
    """
    f0, f0p, y0, y0p = map(float, ics)
    _require_finite(f0=f0, f0p=f0p, y0=y0, y0p=y0p)
    if f0 == 0.0:
        raise SingularWarpError("f0 must be non-zero")
    rhs, complete = _bind(_L5, constants._factors)
    try:
        complete((f0, f0p, y0, y0p))
    except np.linalg.LinAlgError:
        raise AdmissibilityError("pointwise (f'', y'') system is singular "
                                 "at the initial state") from None
    if spacelike_margin(constants, f0, f0p, y0p) <= _SPACELIKE_FLOOR:
        raise AdmissibilityError(
            "initial state violates the space-likeness margin "
            f"g_11 > {_SPACELIKE_FLOOR}")

    sgn = 1.0 if f0 > 0 else -1.0
    monitors = [
        ("spacelike", lambda t, s: spacelike_margin(constants, s[0], s[1], s[3])
         - _SPACELIKE_FLOOR),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
    ]
    result = rk_integrate(rhs, [f0, f0p, y0, y0p], interval, config, monitors)
    dense = result.dense
    state = functools.lru_cache(maxsize=_STATE_CACHE_SIZE)(
        DenseOutput(dense.steps, dense.t_end, complete)._sample)
    return WarpSystemSolution(WarpingFunction(state, dense.interval), result,
                              constants, state)
