"""Reference implementations the tests check the package against.

Each function restates, one point and one index at a time, a quantity that
``rwsurf`` computes in closed or batched form: the Christoffel tensor behind
``ambient_covariant_derivative``, the backend-aware curvature behind
``curvature_rw_values``, the closed form of the tangential curvature trace
behind ``curvature_trace_term``, the dense-matrix forms of the inner
product, projection and rank that ``rwsurf.linalg`` computes from the
metric's diagonal, the rank as a count of singular values, the
per-component Dormand-Prince step loop and quartic dense output behind the
straight-line code ``rwsurf.solvers`` generates per state length, the
family equations as closures (the text the package compiles inline, written
out by hand), and the family warps as a per-sample completion of that dense
output.  It also holds the fixed-step runs that the package's solver, which
controls the error of every step, does not take: the generated step looped
at a constant h (order studies), and the oracle's fixed steps in a
DenseOutput (warps whose rows step across a blow-up).  And it holds a
surface's image under an ambient isometry or a reversed v, the same
surface in another chart, whose verdicts and residuals must not move, and
its lift into a warped space of higher dimension, the divergence of a
surface's stress-bienergy tensor, which restates the biconservative
equation through other derivatives, and the rows a scan's CSV must hold.
The package never imports this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import astuple

import numpy as np

from rwsurf.ambient import (AmbientSpace, WarpingFunction, curvature_rw_values,
                            curvature_scalars)
from rwsurf.errors import (AdmissibilityError, ChartDomainError, ConstraintError,
                           DimensionMismatchError, SingularWarpError)
from rwsurf.immersion import Jet2Immersion
from rwsurf import solvers
from rwsurf.linalg import inner
from rwsurf.solvers import _A, _B, _C, _E, _P, SolverConfig, _initial_step, _rms


def dense_inner(u, v, G):
    """u^T G v with a full metric matrix G (..., d, d), as one three-operand
    einsum."""
    return np.einsum("...i,...ij,...j->...", np.asarray(u, dtype=float),
                     np.asarray(G, dtype=float), np.asarray(v, dtype=float))


def dense_project_out_span(x, basis, G):
    """x minus its G-orthogonal projection onto span(basis) by the Gram
    solve, with a full metric matrix G (..., d, d): the oracle of
    ``project_out_span``, exact for any basis, orthonormal or not."""
    x = np.asarray(x, dtype=float)
    B = np.stack(basis, axis=-1)
    BtG = np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float)
    coef = np.linalg.solve(BtG @ B, BtG @ x[..., None])
    return x - (B @ coef)[..., 0]


def dense_gram(vectors, G):
    """The Gram matrix ``numeric_rank`` ranks, with a full metric matrix G."""
    B = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-1)
    return np.swapaxes(B, -1, -2) @ np.asarray(G, dtype=float) @ B


def svd_rank(vectors, g):
    """``numeric_rank`` as the count of the Gram matrix's singular values
    above 1e-8 times the largest one, by a full batched SVD."""
    if not len(vectors):
        return 0
    Bt = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-2)
    M = (Bt * np.asarray(g)[..., None, :]) @ np.swapaxes(Bt, -1, -2)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(sv > 1e-8 * sv[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def christoffel_at(space: AmbientSpace, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the comoving layout (c = 0) at p.

    Gamma^t_ij = f f' delta_ij and Gamma^i_tj = (f'/f) delta_ij; everything
    else vanishes.  ``ambient_covariant_derivative`` adds the same correction
    on the embedded layout (c = +-1), with f f' c_i delta_ij for the fiber
    weights c_i = (c, 1, ..., 1), before its projection along the product
    normal; this tensor checks the c = 0 case, and the identity entries of
    warped product reports check the other.
    """
    if space.is_embedded:
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


def stress_divergence(grid) -> np.ndarray:
    """div S2 of a surface at every node of a ``SurfaceGrid``, as its frame
    components (..., 2) along (e1, e2).

    S2 = -2 |H|^2 I + 4 A_H is the stress-bienergy tensor of a surface (Jiang,
    Acta Math. Sinica 30 (1987); Loubeau, Montaldo and Oniciuc, Math. Z. 259
    (2008)), S_ab = -2 |H|^2 delta_ab + 4 <h(e_a, e_b), H>, and
    (div S2)_b = sum_i [e_i(S_ib) - S(nabla_{e_i} e_i, e_b)
    - S(e_i, nabla_{e_i} e_b)].  It reads |H|^2 and <h(e_a, e_b), H> through
    ``grid.scalar_derivative`` and ``grid.tangent_connection`` alone: neither
    nabla^perp H nor the curvature tensor.  On every surface it equals
    2 grad|H|^2 + 4 tr A_{nabla^perp H} + 4 tr(R(., H) .)^T.
    """
    def S(p, a, b):
        pair = 4.0 * inner(p.sfd.h(a + 1, b + 1), p.sfd.H, p.G)
        return pair - 2.0 * inner(p.sfd.H, p.sfd.H, p.G) if a == b else pair

    nd = grid.node_data
    conn = grid.tangent_connection()  # <nabla_{e_i} e_j, e_k> at [..., i, j, k]
    out = []
    for b in range(2):
        div = 0.0
        for i in range(2):
            div = div + grid.scalar_derivative(lambda p: S(p, i, b))[i]
            for k in range(2):
                div = (div - conn[..., i, i, k] * S(nd, k, b)
                       - conn[..., i, b, k] * S(nd, i, k))
        out.append(div)
    return np.stack(out, axis=-1)


def isometric_image(surface, Q=None, b=None,
                    reverse_v: bool = False) -> Jet2Immersion:
    """``surface`` moved by an ambient isometry and, with ``reverse_v``,
    charted at -v: the same surface, so every verdict and residual of it.

    The isometry keeps the time and maps the fiber coordinates x -> Q x + b
    (default the identity and 0): on ``L^n_1(f, 0)`` any b, on the sphere of
    ``E^1_1 x S^k`` b = 0 and Q orthogonal.  On ``L^n_1(f, 0)`` Q may be
    (n' - 1) x (n - 1) with orthonormal columns, n' >= n: the image then
    lies in ``L^{n'}_1(f, 0)`` with the same warp, on the totally geodesic
    slice through b spanned by the time and Q's columns.  The jet follows
    exactly: each of the six vectors' fiber part is multiplied by Q, the
    position's is shifted by b, and at -v phi_v and phi_uv change sign and
    the v-domain is reflected.  ``batched`` is kept."""
    space = surface.space
    k = space.ambient_dim - 1
    Q = np.eye(k) if Q is None else np.asarray(Q, dtype=float)
    b = np.zeros(len(Q)) if b is None else np.asarray(b, dtype=float)
    if len(Q) != k:
        space = AmbientSpace.warped_flat(len(Q) + 1, space.warp)
    sign = -1.0 if reverse_v else 1.0
    signs = np.array([1.0, 1.0, sign, 1.0, sign, 1.0])

    def evaluator(u, v):
        jet = np.array(surface.evaluator(u, sign * v))
        jet *= signs.reshape((6,) + (1,) * (jet.ndim - 1))
        jet = np.concatenate([jet[..., :1], jet[..., 1:] @ Q.T], axis=-1)
        jet[0, ..., 1:] += b
        return jet

    v0, v1 = surface.v_domain
    return Jet2Immersion(space, evaluator, surface.u_domain,
                         (-v1, -v0) if reverse_v else (v0, v1), surface.name,
                         surface.batched)


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


def reference_rk_integrate(rhs, y0, t_span, config=None, monitors=(),
                           fixed_step=None):
    """``rk_integrate`` with the Dormand-Prince stages, y_new, the error
    estimate and the dense rows written as one list comprehension per
    quantity over zipped components.  A ``fixed_step`` replaces the step
    control: steps of that size (the last one cut to the span) with no error
    control, each still rejected with x0.25 where a stage fails.  Returns
    (ReferenceDense, stop_reason, n_accepted, n_rejected)."""
    cfg = config or SolverConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if math.isnan(t0) or math.isnan(t1):
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] has a NaN endpoint")
    if t0 == t1:
        raise ConstraintError(
            f"integration interval [{t0}, {t1}] is degenerate")
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

    if fixed_step is not None:
        h_abs = float(fixed_step)
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

        if fixed_step is None:
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


def fixed_step_dense(rhs, y0, t_span, h):
    """The package's generated step (``_kernels``) looped forward at constant
    steps of ``h``, the last one cut to the span, with no error control: the
    runs of an order study, as a DenseOutput."""
    (t, t1), y = map(float, t_span), list(y0)
    step, f, steps = solvers._kernels(len(y))[0](rhs), rhs(t, y), []
    while t1 - t >= 1e-14 * max(1.0, abs(t)):
        h = min(h, t1 - t)
        y_new, f, _, _, q = step(t, h, y, f, 1.0, 1.0)
        steps.append((t, h, y, q))
        t, y = t + h, y_new
    return solvers.DenseOutput(steps, t)


# The family equations as closures, the form the package ran before it
# compiled them from one source text: the rotational warp's right-hand side,
# and the coupled system's matrices and their Cramer's-rule completion.


def rotational_warp_rhs(constants):
    """f'' = ((f'^2 - b^2 f^2)^2 + f'^4) / (b^2 f^3) as a first-order system."""
    b2 = constants.b2

    def rhs(t, s):
        fv, fp = s
        q = fp * fp - b2 * fv * fv
        return fp, (q * q + fp**4) / (b2 * fv**3)

    return rhs


def system_matrices(constants):
    """matrices(fv, fp, yp) -> (A11, A12, A21, A22, R1, R2), the family
    equations as A @ (f'', y'') = -R, its constant factors formed once."""
    a, H0, c2, c3, c4, b2 = astuple(constants)
    g = 12 * a**2 * (c3**2 - 1) * H0**2
    (ac, q, m, k11, k12, r1a, r1b, a2, r1c, r1d, r1e, r1f, r1g,
     r2a, r2b, r2c, r2d, r2e, e4, e6, e8) = (
        a**2 * c3**2, a**4 * c3**2, 2 * a**6 * c2 * c3**2 * H0, -a**4 * c3**2 * c4,
        -a**6 * b2 * c3**2, -2 * a**2 * c4, 4 * a**4 * b2, a**2,
        -12 * a**4 * c2 * c3**2 * H0, 4 * (a**4 * c3**2 - g - 48 * H0**4),
        2 * a**4 * b2**2, a**8 * c3**4, 2 * c4**2, -a**2 * b2**2, a**2 * b2,
        2 * a**4 * c2 * c3**2 * H0, a**4 * c3**2 + g + 48 * H0**4, 2 * c2 * c4 * H0,
        4 * c2 * H0, 6 * c2 * H0, 8 * c2 * H0)

    def matrices(fv, fp, yp):
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

    return matrices


def system_completion(constants):
    """complete: (f, f', y, y') -> (f, f', f'', y, y', y''), (f'', y'') by
    Cramer's rule; LinAlgError unless |det A| / max|A|^2 > _DET_TOL.  The
    scale's floor keeps an all-zero A singular; a non-finite entry makes the
    ratio NaN (singular) even where max() skips a NaN."""
    def complete(s, matrices=system_matrices(constants)):
        fv, fp, yv, yp = s
        a11, a12, a21, a22, r1, r2 = matrices(fv, fp, yp)
        det = a11 * a22 - a12 * a21
        scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-150)
        if not abs(det) / (scale * scale) > solvers._DET_TOL:
            raise np.linalg.LinAlgError("pointwise system is near-singular")
        return (fv, fp, (a12 * r2 - a22 * r1) / det,
                yv, yp, (a21 * r1 - a11 * r2) / det)

    return complete


def reference_warp(interval, values):
    """What ``WarpingFunction(values, interval)`` does per call, for a finite
    interval: the interval test with its relative 1e-12 slack, an
    ArithmeticError or LinAlgError of ``values`` read as SingularWarpError,
    then the finiteness and non-vanishing checks of (f, f', f''), returned
    as Python floats."""
    lo, hi = interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))

    def warp(t):
        if not (lo - slack <= t <= hi + slack):
            raise ChartDomainError(
                f"warp evaluated at t={t} outside interval [{lo}, {hi}]")
        try:
            f, fp, fpp = values(t)[:3]
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            raise SingularWarpError(
                f"warping function is not finite at t={t} "
                f"({type(exc).__name__}: {exc})") from exc
        if not (math.isfinite(f) and math.isfinite(fp) and math.isfinite(fpp)):
            raise SingularWarpError(f"warping function is not finite at t={t}")
        if abs(f) < 1e-14:
            raise SingularWarpError(f"warping function vanishes at t={t}")
        return float(f), float(fp), float(fpp)

    return warp


def rotational_monitors(constants, f0, interval):
    """``solve_rotational_warp``'s monitors, as (name, g) pairs."""
    b2 = constants.b2
    sgn = 1.0 if f0 > 0 else -1.0
    t0 = float(interval[0])
    grows = (1.0 if interval[1] > interval[0] else -1.0) * sgn
    return [
        ("admissible", lambda t, s: s[1] * s[1] - b2 * s[0] * s[0]),
        ("warp-positive", lambda t, s: sgn * s[0] - 1e-12),
        ("blow-up", lambda t, s: 1.0 if grows * s[1] <= 0.0 else
         solvers._blow_up_time_left(b2, *s)
         - solvers._BLOW_UP_DELTA * abs(t - t0)),
    ]


def reference_rotational_warp(constants, f0, f0p, interval, config=None,
                              fixed_step=None):
    """``solve_rotational_warp`` over ``reference_rk_integrate``, with the
    warp completed per sample as (f, *rhs(t, (f, f'))) behind
    ``reference_warp``.  Returns
    (warp, blow_up_time, stop_reason, n_accepted, n_rejected)."""
    b2 = constants.b2
    rhs = rotational_warp_rhs(constants)
    direction = 1.0 if interval[1] > interval[0] else -1.0
    dense, stop_reason, n_acc, n_rej = reference_rk_integrate(
        rhs, [f0, f0p], interval, config,
        rotational_monitors(constants, f0, interval), fixed_step)
    blow_up_time = (dense.t_end + direction * solvers._blow_up_time_left(
        b2, *dense(dense.t_end)) if stop_reason == "monitor:blow-up" else None)

    def values(t):
        fv, fp = dense(t)
        return (fv, *rhs(t, (fv, fp)))

    return (reference_warp(dense.interval, values), blow_up_time, stop_reason,
            n_acc, n_rej)


def fixed_step_warp(constants, f0, f0p, interval, h):
    """The rotational warp over ``reference_rk_integrate``'s steps of ``h``
    under ``solve_rotational_warp``'s monitors: the rows in a DenseOutput
    with the family's completion, wrapped as a solve wraps its own.  Returns
    (warp, stop_reason, n_accepted, n_rejected)."""
    dense, *ending = reference_rk_integrate(
        rotational_warp_rhs(constants), [f0, f0p], interval,
        monitors=rotational_monitors(constants, f0, interval), fixed_step=h)
    complete = solvers._bind(solvers._L4, (constants.b2,))[1]
    warp = solvers.DenseOutput(dense.steps, dense.t_end, complete)
    return (WarpingFunction(warp, dense.interval), *ending)


def reference_warp_system(constants, ics, interval, config=None):
    """``solve_warp_system`` over ``reference_rk_integrate``, each sample
    completed by its own 2x2 solve: Cramer's rule on the family's matrices
    behind the same determinant test.  Returns (state, warp,
    max_equation_residual, stop_reason, n_accepted, n_rejected); state(t) is
    (f, f', f'', y, y', y''), and warp ``reference_warp`` over it."""
    matrices = system_matrices(constants)

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

    def max_equation_residual():
        residuals = []
        for t in np.linspace(*dense.interval, 200).tolist():
            fv, fp, fpp, _, yp, ypp = state(t)
            residuals += solvers.system_equation_residuals(
                constants, fv, fp, fpp, yp, ypp)
        return float(np.max(np.abs(residuals)))

    return (state, reference_warp(dense.interval, state), max_equation_residual,
            stop_reason, n_acc, n_rej)


def scan_rows(result):
    """The (theta, tau, residual) rows ``rwsurf scan --csv`` must write for a
    ScanResult, theta-major, tau None for a slice scan."""
    if result.taus is None:
        return [(float(th), None, float(r))
                for th, r in zip(result.thetas, result.residuals)]
    return [(float(th), float(ta), float(result.residuals[i, j]))
            for i, th in enumerate(result.thetas)
            for j, ta in enumerate(result.taus)]
