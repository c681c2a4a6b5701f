"""Surface charts as 2-jets and the adapted frame construction.

The adapted frame follows the comoving decomposition: e1 is the unit vector
along the tangential part T of the comoving field, theta is the hyperbolic
angle with sinh(theta) = |T| >= 0, e3 = eta / cosh(theta) is the unit
timelike normal, and the normal frame is completed with e4 = H/|H| (when the
mean curvature direction exists) followed by signature-aware Gram-Schmidt
over coordinate candidates.  All constructions are deterministic, so frames
are reproducible bitwise and vary smoothly along grids.

A jet is taken at one point or at a stack of points; everything after it
also takes jets whose arrays carry leading point axes and works on the whole
stack.  A check failing at some points raises with ``where`` and ``texts``
set (``linalg.raise_where``).
"""

from __future__ import annotations

import functools
import math
import types
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _exports
from .ambient import AmbientSpace, _widened, ambient_covariant_derivative
from .errors import (ChartDomainError, DegenerateFrameError,
                     DimensionMismatchError, GeometryError,
                     HorizontalSliceError, NotSpaceLikeError)
from .linalg import (_all_last, _col, _sum_last, inner, project_out_span,
                     raise_where)

__all__ = _exports(__name__)

TOL_T = 1e-8
TOL_H = 1e-8
# Finite-difference jet steps, both scaled by (1 + |coordinate|).  The second
# step is larger because second central differences lose ~eps/h^2 to
# round-off, which at 1e-5 would dominate the Richardson-level truncation.
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 5e-3


@dataclass(frozen=True)
class JetSample:
    """Position and first/second partials of a chart at one (u, v), or at a
    stack of points (u, v arrays; vectors with the same leading axes)."""

    u: float
    v: float
    phi: np.ndarray
    phi_u: np.ndarray
    phi_v: np.ndarray
    phi_uu: np.ndarray
    phi_uv: np.ndarray
    phi_vv: np.ndarray


@dataclass(frozen=True)
class Jet2Immersion:
    """A surface chart with analytic or finite-difference 2-jets.  The
    evaluator maps one point (u, v) to the six jet vectors; a ``batched``
    one also maps arrays u, v to vectors with that leading point axis."""

    space: AmbientSpace
    evaluator: Callable[[float, float], tuple]
    u_domain: tuple[float, float]
    v_domain: tuple[float, float]
    name: str = ""
    batched: bool = False

    def jet(self, u, v):
        """The 2-jet at one point (u, v), raising that point's GeometryError;
        at arrays u, v: ``(sample, errors)``, ``errors`` mapping the flat
        index of each failing point, whose six jet vectors read NaN, to
        ``"<ErrorClass>: <message>"``.  A point outside the domains (widened
        by ``ambient._widened``) is a ChartDomainError; so is an
        ArithmeticError, TypeError (a chart of the wrong arity, say) or
        ValueError of the evaluator at a point, naming (u, v) and the error.
        A batched evaluator gets the in-domain points (NaN is not) in one
        call, the flattened u and v themselves when every point is in the
        domain, retried in halves down to one float call per point that
        raises one of these; any other gets one call per point, and its
        results (six vectors, or one ``(6, d)`` array, per point) convert
        to an array in one call.  Jet vectors whose length is not the
        ambient dimension, and an evaluator's DimensionMismatchError, raise
        DimensionMismatchError for the call.  The jet's dtype, which every
        later layer follows, is ``np.result_type(u, v, float)``."""
        dtype = np.result_type(np.asarray(u), np.asarray(v), float)
        uu, vv = np.broadcast_arrays(np.asarray(u, dtype), np.asarray(v, dtype))
        u, v = uu.ravel(), vv.ravel()
        # the points' real parts as Python floats, formed at a first refusal
        # (not per call: the lists of a large stack would raise peak RSS)
        real = functools.cache(lambda: (u.real.tolist(), v.real.tolist()))
        at = lambda k: f"(u,v)=({real()[0][k]},{real()[1][k]})"
        failed = {}
        for axis, (x, name, dom) in enumerate(((u, "u", self.u_domain),
                                               (v, "v", self.v_domain))):
            lo, hi = _widened(*dom)
            bad = ~((lo <= x.real) & (x.real <= hi))
            for k in np.flatnonzero(bad).tolist():
                failed.setdefault(k, ChartDomainError(
                    f"{name}={real()[axis][k]} outside {dom}"))
        parts = np.full((6, len(u), self.space.ambient_dim), np.nan, dtype)
        inside = range(len(u))
        if failed:
            inside = [k for k in inside if k not in failed]
        if self.batched and uu.ndim and inside:
            inside = self._fill_batched(parts, u, v, inside)
        us, vs = (u.tolist(), v.tolist()) if inside else ((), ())
        rows, done = [], []
        try:
            for k in inside:
                try:
                    vectors = self.evaluator(us[k], vs[k])
                except DimensionMismatchError:
                    raise
                except GeometryError as exc:
                    failed[k] = exc
                except (ArithmeticError, TypeError, ValueError) as exc:
                    failed[k] = ChartDomainError(
                        f"chart failed at {at(k)}: {type(exc).__name__}: {exc}")
                else:
                    rows.append(vectors)
                    done.append(k)
        finally:  # a malformed jet outranks an error at a later point
            self._fill_rows(parts, rows, done)
        finite = _all_last(np.isfinite(parts).all(axis=0))
        for k in np.flatnonzero(~finite).tolist():
            if k not in failed:  # a refused point's jet is NaN already
                failed[k] = ChartDomainError(f"non-finite jet at {at(k)}")
        if failed:
            parts[:, list(failed)] = np.nan
        if uu.ndim == 0:
            if failed:
                raise failed[0]
            return JetSample(u[0].item(), v[0].item(), *parts[:, 0])
        parts = parts.reshape((6,) + uu.shape + parts.shape[2:])
        return (JetSample(uu, vv, *parts),
                {k: f"{type(e).__name__}: {e}" for k, e in sorted(failed.items())})

    def _fill_batched(self, parts, u, v, ks) -> list:
        """Fill ``parts`` at ``ks`` by batched calls, halving a stack that
        raises; return the points of one-point halves, for float calls.  When
        ``ks`` holds every point, the evaluator gets ``u`` and ``v``
        themselves and ``parts`` is filled whole, without an index list."""
        whole = len(ks) == len(u)
        try:
            vectors = self.evaluator(*((u, v) if whole else (u[ks], v[ks])))
        except (GeometryError, ArithmeticError, TypeError, ValueError):
            half = len(ks) // 2
            return [k for part in (ks[:half], ks[half:]) if part for k in (
                part if len(part) == 1 else self._fill_batched(parts, u, v, part))]
        if whole:
            parts[:] = self._checked(vectors)
        else:
            parts[:, ks] = self._checked(vectors)
        return []

    def _fill_rows(self, parts, rows, ks):
        """Fill ``parts`` at ``ks`` from the pointwise results ``rows``, by
        one conversion to an ``(n, 6, d)`` block of ``parts.dtype``; rows
        that do not convert to one are checked and assigned point by point,
        which raises the first malformed point's error."""
        try:
            block = np.array(rows, dtype=parts.dtype)
        except Exception:  # the point-by-point pass raises the point's error
            block = None
        if block is None or block.shape != (len(ks), 6, parts.shape[2]):
            for k, vectors in zip(ks, rows):
                parts[:, k] = self._checked(vectors)
        elif len(ks) == parts.shape[1]:
            parts[:] = block.swapaxes(0, 1)
        else:
            parts[:, ks] = block.swapaxes(0, 1)

    def _checked(self, vectors):
        """``vectors`` as given, once the last axis of each is the ambient
        dimension (a scalar counts as length 1); DimensionMismatchError
        otherwise.  How many vectors there are is left to the assignment
        into ``parts``, whose ValueError names the shapes."""
        d = self.space.ambient_dim
        for x in vectors:
            x = np.asarray(x)  # per point: cheaper than np.shape(x)
            n = x.shape[-1] if x.ndim else 1
            if n != d:
                raise DimensionMismatchError(
                    f"the chart returned jet vectors of length {n} for an "
                    f"ambient space of dimension {d}")
        return vectors


_MEMO = {}  # (math function, stack bytes) -> its result, within one record


def _elementwise(fn):
    """``fn``, run on each element as Python floats where an argument is a
    float point stack, whose float results it stacks."""
    def apply(*args):
        n = next((a.size for a in args if type(a) is _Stack and a.dtype == float), 0)
        if not n:
            return fn(*args)  # a float function: raises on a bool stack
        key = (fn, args[0].tobytes()) if len(args) == 1 else None
        out = _MEMO.get(key)
        if out is None:
            columns = (a.tolist() if type(a) is _Stack else [a] * n for a in args)
            out = np.fromiter(map(fn, *columns), float, n).view(_Stack)
            if key:
                _MEMO[key] = out
        return out
    return apply


class _Stack(np.ndarray):
    """A point stack for a chart: ``+ - * /``, negation, ``abs``, ``np.sqrt`` and
    comparisons run as numpy's IEEE operations, ``** // %`` as Python's."""

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if not (ufunc in _IEEE and method == "__call__" and not kwargs and all(
                type(a) is _Stack and a.dtype == float or isinstance(a, (float, int))
                for a in args)) or ufunc is np.divide and not np.asarray(args[1]).all():
            raise TypeError(f"no {ufunc.__name__} here")  # a float / 0 raises too
        return ufunc(*(a.view(np.ndarray) if type(a) is _Stack else a
                       for a in args)).view(_Stack)

    def _refuse(self, *args):  # other numpy functions, indexing, len
        raise TypeError("not on a point stack")

    __array_function__ = __getitem__ = __setitem__ = __iter__ = __len__ = _refuse
    __pow__ = __ipow__ = _elementwise(float.__pow__)
    __floordiv__ = __ifloordiv__ = _elementwise(float.__floordiv__)
    __mod__ = __imod__ = _elementwise(float.__mod__)
    __rpow__, __rfloordiv__, __rmod__ = map(_elementwise, (
        float.__rpow__, float.__rfloordiv__, float.__rmod__))


_IEEE = frozenset(getattr(np, k) for k in "add subtract multiply divide negative positive "
                  "absolute sqrt less less_equal greater greater_equal equal not_equal".split())
_MATH_TWINS = {id(f): _elementwise(f) for k, f in vars(math).items() if k in (
    "acos acosh asin asinh atan atan2 atanh cbrt copysign cos cosh degrees "
    "erf erfc exp exp2 expm1 fabs fma fmod gamma hypot ldexp lgamma log log10 "
    "log1p log2 nextafter pow radians remainder sin sinh sqrt tan tanh ulp"
).split()}
_MATH = types.SimpleNamespace(**{k: _MATH_TWINS.get(id(f), f)
                                 for k, f in vars(math).items()})


def _stack_chart(chart):
    """A plain-function ``chart`` and its module's functions rebuilt over a
    copy of its globals with math's element-wise twins."""
    home = chart.__globals__
    scope = {k: _MATH if x is math else _MATH_TWINS.get(id(x), x) for k, x in home.items()}
    rebuild = lambda f: types.FunctionType(f.__code__, scope, f.__name__,
                                           f.__defaults__, f.__closure__)
    scope.update({k: rebuild(x) for k, x in scope.items()
                  if type(x) is types.FunctionType and x.__globals__ is home})
    return rebuild(chart)


def finite_difference_jet(chart: Callable[[float, float], np.ndarray],
                          space: AmbientSpace, u_domain, v_domain,
                          name: str = "fd-jet") -> Jet2Immersion:
    """Wrap a pointwise chart map into a batched Jet2Immersion via central
    differences with one Richardson extrapolation level: 25 offsets per
    point, one (N, d) stack per offset, each jet bitwise its one-point jet.
    A plain-function chart gets one call per offset on the whole ``_Stack``
    under ``np.errstate(all="raise")``, warnings as errors, and must be a
    pure function of (u, v) whose stack result is its float results; after
    a call that raises or returns anything but d real (N,) or () columns,
    the record's offsets get float calls per point, as other charts do.
    The chart must be evaluable on the declared domain inflated by the
    larger step.  Its exception other than a GeometryError is its point's
    ChartDomainError, a value that is no vector of length d (None, a
    scalar, another length) a DimensionMismatchError."""
    stacked, d = type(chart) is types.FunctionType and _stack_chart(chart), space.ambient_dim

    def on_stack(us, vs):
        """The (N, d) values of one stack call, or None where it is refused."""
        try:
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                cols = stacked(us.view(_Stack), vs.view(_Stack))
            if type(cols) in (tuple, list) and len(cols) == d and all(
                    type(c) is _Stack and c.dtype == float and c.shape == us.shape
                    or isinstance(c, (float, int)) and not isinstance(c, bool)
                    for c in cols):
                return np.stack(np.broadcast_arrays(
                    *(np.asarray(c, float) for c in cols)), axis=-1)
        except Exception:  # any error refuses: the float calls give the chart's own
            return None

    def pointwise(us, vs):
        rows = []
        for a, b in zip(us.tolist(), vs.tolist()):
            try:
                rows.append(chart(a, b))
            except GeometryError:
                raise
            except Exception as exc:
                raise ChartDomainError(f"chart failed at (u,v)=({a},{b}): "
                                       f"{type(exc).__name__}: {exc}") from None
        stack = np.array(rows, dtype=float)
        if stack.shape[1:] != (d,):
            what = (f"jet vectors of length {stack.shape[1]}" if stack.ndim == 2
                    else f"a scalar of type {type(rows[0]).__name__}"
                    if stack.ndim == 1 else f"values of shape {stack.shape[1:]}")
            raise DimensionMismatchError(f"the chart returned {what} for an "
                                         f"ambient space of dimension {d}")
        return stack

    def evaluator(u, v):
        single = np.ndim(u) == 0
        u, v = (np.atleast_1d(x).astype(float, casting="same_kind")
                for x in (u, v))
        refused = [not stacked or single]  # the record's offsets go per point

        def at(us, vs):
            out = None if refused[0] else on_stack(us, vs)
            refused[0] = out is None
            return pointwise(us, vs) if refused[0] else out

        su, sv = 1.0 + np.abs(u), 1.0 + np.abs(v)
        h2u, h2v = FD_STEP_SECOND * su, FD_STEP_SECOND * sv
        phi = at(u, v)

        def first(fn, x0, h):
            d_h = (fn(x0 + h) - fn(x0 - h)) / _col(2 * h)
            d_h2 = (fn(x0 + h / 2) - fn(x0 - h / 2)) / _col(h)
            return (4.0 * d_h2 - d_h) / 3.0

        def second(fn, x0, h):
            d_h = (fn(x0 + h) - 2.0 * phi + fn(x0 - h)) / _col(h * h)
            d_h2 = ((fn(x0 + h / 2) - 2.0 * phi + fn(x0 - h / 2))
                    / _col(h * h / 4))
            return (4.0 * d_h2 - d_h) / 3.0

        def mixed(h, k):
            return (at(u + h, v + k) - at(u + h, v - k)
                    - at(u - h, v + k) + at(u - h, v - k)) / _col(4 * h * k)

        fu, fv = (lambda x: at(x, v)), (lambda x: at(u, x))
        jet = (phi,
               first(fu, u, FD_STEP_FIRST * su),
               first(fv, v, FD_STEP_FIRST * sv),
               second(fu, u, h2u),
               (4.0 * mixed(h2u / 2, h2v / 2) - mixed(h2u, h2v)) / 3.0,
               second(fv, v, h2v))
        _MEMO.clear()  # kept for the record's offsets alone
        return tuple(x[0] for x in jet) if single else jet

    return Jet2Immersion(space, evaluator, tuple(u_domain), tuple(v_domain),
                         name, batched=True)


def induced_metric(jet: JetSample, G) -> np.ndarray:
    """First fundamental form g_ij = <phi_i, phi_j> at the jet's point, where
    G is the ambient metric's diagonal there.

    Raises NotSpaceLikeError when g is not positive definite, which signals
    a failure of the space-likeness hypothesis at that point.
    """
    g11 = inner(jet.phi_u, jet.phi_u, G)
    g12 = inner(jet.phi_u, jet.phi_v, G)
    g22 = inner(jet.phi_v, jet.phi_v, G)
    g = np.stack([np.stack([g11, g12], axis=-1),
                  np.stack([g12, g22], axis=-1)], axis=-2)
    det = g11 * g22 - g12 * g12
    raise_where(NotSpaceLikeError, (g11.real <= 0.0) | (det.real <= 0.0),
                "induced metric not positive definite at (u,v)=({},{}): "
                "g11={:.6g}, det={:.6g}", jet.u, jet.v, g11, det)
    return g


def _tangent_coefficients(vec, jet: JetSample, G, ginv) -> np.ndarray:
    """Chart-basis coefficients of the tangential part of vec."""
    pairs = np.stack([inner(vec, jet.phi_u, G), inner(vec, jet.phi_v, G)],
                     axis=-1)
    return (ginv @ pairs[..., None])[..., 0]


def chart_second_fundamental(jet: JetSample, space: AmbientSpace, G, ginv,
                             warp_state):
    """Covariant second derivatives of the chart and their normal parts.

    G is the ambient metric's diagonal at the jet's point, ginv the inverse
    induced metric and warp_state (f, f', f'') there.  Returns (W, h, H)
    where W[(a, b)] is the ambient covariant derivative of phi_b along
    phi_a, h[(a, b)] its normal projection, and H half the g-trace of h.
    This needs only the jet, not an adapted frame.
    """
    first = {"u": jet.phi_u, "v": jet.phi_v}
    second = {("u", "u"): jet.phi_uu, ("u", "v"): jet.phi_uv,
              ("v", "v"): jet.phi_vv}
    W = {(a, b): ambient_covariant_derivative(space, jet.phi, first[a],
                                              first[b], pab, G, warp_state)
         for (a, b), pab in second.items()}

    def normal_part(vec):
        coef = _tangent_coefficients(vec, jet, G, ginv)
        return vec - coef[..., :1] * jet.phi_u - coef[..., 1:] * jet.phi_v

    h = {key: normal_part(val) for key, val in W.items()}
    H = 0.5 * (_col(ginv[..., 0, 0]) * h[("u", "u")]
               + 2.0 * _col(ginv[..., 0, 1]) * h[("u", "v")]
               + _col(ginv[..., 1, 1]) * h[("v", "v")])
    return W, h, H


@dataclass(frozen=True)
class FrameData:
    """Adapted orthonormal frame at one surface point (or a stack of them:
    every field then carries the points' leading axes).

    ``vectors`` holds the whole frame row-wise, shape (m, d): e1, e2, the
    unit timelike e3, then e4 = H/|H| when the mean curvature direction
    exists, then the space-like completion (a grid's stencil record keeps
    e1, e2, e3, e4 alone, e4 NaN without a mean direction).  ``signs`` (m,)
    are their causal signs: +1, +1, then the normals' (0 on a row left
    uncompleted).  ``e1``, ``e2``, ``e3``, ``tangents`` and ``normals`` are
    views of these.  ``coeffs`` holds e1, e2 row-wise in the (phi_u, phi_v)
    chart basis.
    """

    vectors: np.ndarray
    signs: np.ndarray
    T: np.ndarray
    eta: np.ndarray
    theta: float
    sinh_theta: float
    cosh_theta: float
    has_mean_direction: bool
    coeffs: np.ndarray

    e1 = property(lambda self: self.vectors[..., 0, :])
    e2 = property(lambda self: self.vectors[..., 1, :])
    e3 = property(lambda self: self.vectors[..., 2, :])
    tangents = property(lambda self: (self.e1, self.e2))
    normals = property(lambda self: self.vectors[..., 2:, :])


def adapted_frame(jet: JetSample, space: AmbientSpace, G, ginv,
                  H, _stencil=False) -> FrameData:
    """Build the adapted frame at a jet sample.

    G is the ambient metric's diagonal at the jet's point, ginv the inverse
    induced metric and H the mean curvature vector there.  Raises
    HorizontalSliceError when |T| <= TOL_T (the excluded horizontal slice
    case).  e4 = H/|H| where |<H, H>| > TOL_H^2, else NaN: there is no mean
    direction there (``has_mean_direction``), and the completion fills row 3.

    ``_stencil`` is the grid fill's, for its stencil points: the frame then
    holds ``vectors`` e1, e2, e3, e4, ``theta`` and ``coeffs``, and None for
    every other field, and is never completed.
    """
    T, eta, theta, sinh_theta, cosh_theta, e1, e2, e3, coeffs = (
        _tangent_frame(jet, space, G, ginv))
    s2 = np.asarray(inner(H, H, G))
    has_mean = np.abs(s2) > TOL_H * TOL_H
    s2 = s2[has_mean]
    e4 = np.full_like(H, np.nan)
    e4[has_mean] = H[has_mean] / _col(np.sqrt(s2 * np.sign(s2.real)))
    if _stencil:
        return FrameData(np.stack([e1, e2, e3, e4], axis=-2), None, None,
                         None, theta, None, None, None, coeffs)
    vectors, signs = _complete_normals(space, jet, G, e1, e2, e3, e4, has_mean)
    return FrameData(vectors, signs, T, eta, theta, sinh_theta, cosh_theta,
                     has_mean, coeffs)


def _tangent_frame(jet: JetSample, space: AmbientSpace, G, ginv):
    """``adapted_frame``'s T, eta, theta, sinh(theta), cosh(theta), e1, e2,
    e3 and the chart coefficients of e1, e2 (rows); a function of its own so
    that its intermediates are freed before the completion."""
    dt = space.dt_vector()
    coef_T = _tangent_coefficients(dt, jet, G, ginv)
    T = coef_T[..., :1] * jet.phi_u + coef_T[..., 1:] * jet.phi_v
    eta = dt - T
    sinh2 = inner(T, T, G)
    raise_where(HorizontalSliceError, sinh2.real <= TOL_T * TOL_T,
                "tangential comoving part vanishes at (u,v)=({},{})",
                jet.u, jet.v)
    sinh_theta = np.sqrt(sinh2)
    cosh_theta = np.sqrt(1.0 + sinh2)
    theta = np.arcsinh(sinh_theta)
    e1 = T / _col(sinh_theta)
    e3 = eta / _col(cosh_theta)

    v1 = inner(jet.phi_v, e1, G)
    w2 = jet.phi_v - _col(v1) * e1
    n2 = inner(w2, w2, G)
    raise_where(DegenerateFrameError, n2.real < 1e-24, "phi_v is parallel to e1")
    e2 = w2 / _col(np.sqrt(n2))

    #  e1, e2 expressed in the chart basis (for directional derivatives)
    c1 = coef_T / _col(sinh_theta)
    c2 = np.stack([-v1 * c1[..., 0], 1.0 - v1 * c1[..., 1]],
                  axis=-1) / _col(np.sqrt(n2))
    return (T, eta, theta, sinh_theta, cosh_theta, e1, e2, e3,
            np.stack([c1, c2], axis=-2))


def _complete_normals(space: AmbientSpace, jet: JetSample, G, e1, e2, e3, e4,
                      has_mean):
    """The frame (..., m, d) at every point and its causal signs (..., m):
    e1, e2, e3, then e4 where ``has_mean`` holds, then signature-aware
    Gram-Schmidt over the coordinate candidates, which each point accepts or
    skips on its own; where there is no mean direction, the first completion
    is row 3.  Every point gets a basis, zero-padded, so all share one
    batched projection per candidate.  The product backend's normal joins
    the Gram-Schmidt basis but not the frame."""
    d = space.ambient_dim
    lead = np.shape(e1)[:-1]
    flat = lambda x: np.reshape(x, (-1,) + np.shape(x)[len(lead):])
    mean = flat(has_mean)
    priors = [flat(e1), flat(e2)]
    if space.is_embedded:
        priors.append(space.product_normal(flat(jet.phi)))
    priors.append(flat(e3))
    G = flat(np.broadcast_to(G, lead + (d,)))
    basis = np.zeros((len(mean), d, d), e1.dtype)  # priors, normals
    basis[:, :len(priors)] = np.stack(priors, 1)
    basis[mean, len(priors)] = flat(e4)[mean]
    start = len(priors) + mean
    filled = start.copy()
    for c in range(d):
        idx = np.flatnonzero(filled < d)
        if not len(idx):
            break
        w = project_out_span(np.eye(d)[c], basis[idx].swapaxes(0, 1), G[idx])
        s2, ww = inner(w, w, G[idx]), _sum_last(w * w).real
        take = (np.abs(s2) >= 1e-12 * np.maximum(1.0, ww)) & (ww >= 1e-12)
        s2, idx = s2[take], idx[take]
        basis[idx, filled[idx]] = w[take] / _col(np.sqrt(s2 * np.sign(s2.real)))
        filled[idx] += 1
    raise_where(DegenerateFrameError, (filled < d).reshape(lead),
                "could not complete the normal frame")
    # the coordinate-candidate sign rule is not smooth where the candidate
    # component crosses zero; pin the last completion vector to the ambient
    # orientation instead (smooth along catalog grids)
    flip = np.flatnonzero(filled > start)
    basis[flip[np.linalg.det(basis[flip].real.astype(float)) < 0], d - 1] *= -1
    if space.is_embedded:  # drop the product normal's row
        basis = np.delete(basis, 2, axis=1)
    s2 = inner(basis, basis, G[:, None]).real
    signs = np.where(s2 > 0, 1, np.where(s2 < 0, -1, 0))
    m = basis.shape[1]
    return basis.reshape(lead + (m, d)), signs.reshape(lead + (m,))
