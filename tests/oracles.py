"""Reference implementations the tests check the package against.

Each function restates, one point and one index at a time, a quantity that
``rwsurf`` computes in closed or batched form: the Christoffel tensor behind
``ambient_covariant_derivative``, the backend-aware curvature behind
``curvature_rw_values``, the closed form of the tangential curvature trace
behind ``curvature_trace_term``, the comoving split, signature-aware
Gram-Schmidt, the dense-matrix forms of the inner product, projection
and rank that ``rwsurf.linalg`` computes from the metric's diagonal, the
rank as a count of singular values, the
per-component Dormand-Prince step loop and quartic dense output behind the
straight-line code ``rwsurf.solvers`` generates per state length, and the
family warps as a per-sample completion of that dense output.  The package
never imports this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from rwsurf.ambient import AmbientSpace, curvature_rw_values, curvature_scalars
from rwsurf.errors import (AdmissibilityError, ChartDomainError, ConstraintError,
                           DegenerateFrameError, DimensionMismatchError,
                           SingularWarpError)
from rwsurf import solvers
from rwsurf.linalg import inner, project_out_span
from rwsurf.solvers import _A, _B, _C, _E, _P, SolverConfig, _initial_step, _rms


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


def svd_rank(vectors, g, tol: float = 1e-8):
    """``numeric_rank`` as the count of the Gram matrix's singular values
    above tol times the largest one, by a full batched SVD."""
    if not len(vectors):
        return 0
    Bt = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-2)
    M = (Bt * np.asarray(g)[..., None, :]) @ np.swapaxes(Bt, -1, -2)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(sv > tol * sv[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


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


def _reference_quartic(th, h, y, q) -> list[float]:
    """The state at theta = th along the step (h, y, q) of a steps row, one
    component at a time."""
    th2, th3 = th * th, th * th * th
    return [yi + h * (a * th + b * th2 + c * th3 + d * th2 * th2)
            for yi, (a, b, c, d) in zip(y, q)]


class ReferenceDense:
    """``DenseOutput``'s evaluation over the rows of ``reference_rk_integrate``:
    clamp, bisect for the step, then the per-component quartic."""

    def __init__(self, steps, t_end):
        self.steps, self.t_end = steps, t_end
        self.direction = 1.0 if steps[0][1] > 0 else -1.0
        lo, hi = steps[0][0], t_end
        self.interval = (lo, hi) if lo <= hi else (hi, lo)

    def _segment(self, t):
        lo, hi = self.interval
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not (lo - slack <= t <= hi + slack):
            raise ChartDomainError(
                f"dense output evaluated at t={t} outside [{lo}, {hi}]")
        t = lo if t < lo else hi if t > hi else t
        starts = [row[0] * self.direction for row in self.steps]
        tk, h, y, q = self.steps[bisect_right(starts, t * self.direction) - 1]
        return (t - tk) / h, h, y, q

    def __call__(self, t):
        return tuple(_reference_quartic(*self._segment(t)))

    def derivative(self, t):
        th, _, _, q = self._segment(t)
        th2, th3 = th * th, th * th * th
        return tuple([a + b * (2 * th) + c * (3 * th2) + d * (4 * th3)
                      for a, b, c, d in q])


def reference_rk_integrate(rhs, y0, t_span, config=None, monitors=()):
    """``rk_integrate`` with the Dormand-Prince stages, y_new, the error
    estimate and the dense rows written as one list comprehension per
    quantity over zipped components.  Returns (ReferenceDense, stop_reason,
    n_accepted, n_rejected)."""
    cfg = config or SolverConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if math.isnan(t0) or math.isnan(t1):
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] has a NaN endpoint")
    if t0 == t1:
        raise ConstraintError("integration interval is degenerate")
    direction = 1.0 if t1 > t0 else -1.0
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
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
    f = rhs(t, y)
    if isinstance(f, np.ndarray):
        rhs = lambda t, y, array_rhs=rhs: array_rhs(t, y).tolist()
        f = f.tolist()
    if len(f) != d:
        raise ValueError(f"rhs returned {len(f)} components for a state of {d}")
    if not all(map(math.isfinite, f)):
        raise AdmissibilityError(
            f"the derivative at the initial state t={t0!r} is not finite: {f}")
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
        tiny = 1e-14 * max(1.0, abs(t))
        if abs(t1 - t) < tiny:
            break
        h_abs = min(h_abs, abs(t1 - t))
        if h_abs < tiny:
            stop_reason = "step-underflow"
            t_end = t
            break
        if n_acc + n_rej >= solvers._MAX_STEPS:
            stop_reason = "max-steps"
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
                if g(t + th * h, _reference_quartic(th, h, y, Q)) > 0.0:
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
    return ReferenceDense(steps, t_end), stop_reason, n_acc, n_rej


def _warp_values(t, values):
    """What ``WarpingFunction`` returns for fn(t) = values: (f, f', f'') as
    Python floats, after its finiteness and non-vanishing checks."""
    f, fp, fpp = values
    if not (math.isfinite(f) and math.isfinite(fp) and math.isfinite(fpp)):
        raise SingularWarpError(f"warping function is not finite at t={t}")
    if abs(f) < 1e-14:
        raise SingularWarpError(f"warping function vanishes at t={t}")
    return float(f), float(fp), float(fpp)


def reference_rotational_warp(constants, f0, f0p, interval, config=None):
    """``solve_rotational_warp`` over ``reference_rk_integrate``, with the
    warp completed per sample as fn(t) = (f, *rhs(t, (f, f'))).  Returns
    (warp, blow_up_time, stop_reason, n_accepted, n_rejected)."""
    b2 = constants.b2
    rhs = solvers.rotational_warp_rhs(constants)
    sgn = 1.0 if f0 > 0 else -1.0
    t0 = float(interval[0])
    direction = 1.0 if interval[1] > interval[0] else -1.0
    grows = direction * sgn
    monitors = [
        ("admissible", lambda t, s: s[1] * s[1] - b2 * s[0] * s[0]),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
        ("blow-up", lambda t, s: 1.0 if grows * s[1] <= 0.0 else
         solvers._blow_up_time_left(b2, *s)
         - solvers._BLOW_UP_DELTA * abs(t - t0)),
    ]
    dense, stop_reason, n_acc, n_rej = reference_rk_integrate(
        rhs, [f0, f0p], interval, config, monitors)
    blow_up_time = (dense.t_end + direction * solvers._blow_up_time_left(
        b2, *dense(dense.t_end)) if stop_reason == "monitor:blow-up" else None)

    def warp(t):
        try:
            fv, fp = dense(t)
            values = (fv, *rhs(t, (fv, fp)))
        except ArithmeticError as exc:  # as WarpingFunction reads fn's
            raise SingularWarpError(
                f"warping function is not finite at t={t} "
                f"({type(exc).__name__}: {exc})") from exc
        return _warp_values(t, values)

    return warp, blow_up_time, stop_reason, n_acc, n_rej


def reference_warp_system(constants, ics, interval, config=None):
    """``solve_warp_system`` over ``reference_rk_integrate``, each sample
    completed by its own 2x2 solve: Cramer's rule on the family's matrices
    behind the same determinant test.  Returns (state, max_equation_residual,
    stop_reason, n_accepted, n_rejected); state(t) is (f, f', f'', y, y',
    y'')."""
    matrices = solvers._system_matrices(constants)

    def second(fv, fp, yp):
        a11, a12, a21, a22, r1, r2 = matrices(fv, fp, yp)
        det = a11 * a22 - a12 * a21
        scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-150)
        if not abs(det) / (scale * scale) > solvers._DET_TOL:
            raise np.linalg.LinAlgError("pointwise system is near-singular")
        return (a12 * r2 - a22 * r1) / det, (a21 * r1 - a11 * r2) / det

    def rhs(t, s):
        fv, fp, yv, yp = s
        fpp, ypp = second(fv, fp, yp)
        return fp, fpp, yp, ypp

    f0 = float(ics[0])
    sgn = 1.0 if f0 > 0 else -1.0
    monitors = [
        ("spacelike", lambda t, s: solvers.spacelike_margin(
            constants, s[0], s[1], s[3]) - solvers._SPACELIKE_FLOOR),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
    ]
    dense, stop_reason, n_acc, n_rej = reference_rk_integrate(
        rhs, [float(x) for x in ics], interval, config, monitors)

    def state(t):
        fv, fp, yv, yp = dense(t)
        fpp, ypp = second(fv, fp, yp)
        return fv, fp, fpp, yv, yp, ypp

    def max_equation_residual(samples=200):
        residuals = []
        for t in np.linspace(*dense.interval, samples).tolist():
            fv, fp, fpp, _, yp, ypp = state(t)
            residuals += solvers.system_equation_residuals(
                constants, fv, fp, fpp, yp, ypp)
        return float(np.max(np.abs(residuals)))

    return state, max_equation_residual, stop_reason, n_acc, n_rej
