"""Surface charts as 2-jets and the adapted frame construction.

The adapted frame follows the comoving decomposition: e1 is the unit vector
along the tangential part T of the comoving field, theta is the hyperbolic
angle with sinh(theta) = |T| >= 0, e3 = eta / cosh(theta) is the unit
timelike normal, and the normal frame is completed with e4 = H/|H| (when the
mean curvature direction exists) followed by signature-aware Gram-Schmidt
over coordinate candidates.  All constructions are deterministic, so frames
are reproducible bitwise and vary smoothly along grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ambient import AmbientSpace
from .errors import (ChartDomainError, DegenerateFrameError,
                     HorizontalSliceError, NotSpaceLikeError)
from .linalg import inner, project_out_span

__all__ = [
    "JetSample",
    "Jet2Immersion",
    "FDJetConfig",
    "finite_difference_jet",
    "induced_metric",
    "FrameData",
    "adapted_frame",
    "chart_second_fundamental",
]

TOL_T = 1e-8
TOL_H = 1e-8


@dataclass(frozen=True)
class JetSample:
    """Position and first/second partials of a chart at one (u, v)."""

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
    """A surface chart with analytic or finite-difference 2-jets."""

    space: AmbientSpace
    evaluator: Callable[[float, float], tuple]
    u_domain: tuple[float, float]
    v_domain: tuple[float, float]
    name: str = ""

    def jet(self, u: float, v: float) -> JetSample:
        slack_u = 1e-12 * max(1.0, abs(self.u_domain[0]), abs(self.u_domain[1]))
        slack_v = 1e-12 * max(1.0, abs(self.v_domain[0]), abs(self.v_domain[1]))
        if not (self.u_domain[0] - slack_u <= u <= self.u_domain[1] + slack_u):
            raise ChartDomainError(f"u={u} outside {self.u_domain}")
        if not (self.v_domain[0] - slack_v <= v <= self.v_domain[1] + slack_v):
            raise ChartDomainError(f"v={v} outside {self.v_domain}")
        parts = [np.asarray(x, dtype=float) for x in self.evaluator(u, v)]
        if not all(np.isfinite(x).all() for x in parts):
            raise ChartDomainError(f"non-finite jet at (u,v)=({u},{v})")
        return JetSample(float(u), float(v), *parts)


@dataclass(frozen=True)
class FDJetConfig:
    """Steps for the finite-difference jet adaptor.

    Both steps scale with (1 + |coordinate|).  ``step_second`` is larger than
    ``step_first`` because second central differences lose ~eps/h^2 to
    round-off, which at 1e-5 would dominate the Richardson-level truncation.
    """

    step_first: float = 1e-5
    step_second: float = 5e-3


def _richardson_first(fn, x0, h):
    # one Richardson level on the central difference: O(h^4)
    d_h = (fn(x0 + h) - fn(x0 - h)) / (2 * h)
    d_h2 = (fn(x0 + h / 2) - fn(x0 - h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _richardson_second(fn, f0, x0, h):
    d_h = (fn(x0 + h) - 2.0 * f0 + fn(x0 - h)) / (h * h)
    d_h2 = (fn(x0 + h / 2) - 2.0 * f0 + fn(x0 - h / 2)) / (h * h / 4)
    return (4.0 * d_h2 - d_h) / 3.0


def _richardson_mixed(fn, u, v, h, k):
    def m(hh, kk):
        return (fn(u + hh, v + kk) - fn(u + hh, v - kk)
                - fn(u - hh, v + kk) + fn(u - hh, v - kk)) / (4 * hh * kk)
    return (4.0 * m(h / 2, k / 2) - m(h, k)) / 3.0


def finite_difference_jet(chart: Callable[[float, float], np.ndarray],
                          space: AmbientSpace, u_domain, v_domain,
                          config: FDJetConfig | None = None,
                          name: str = "fd-jet") -> Jet2Immersion:
    """Wrap a pointwise chart map into a Jet2Immersion via central differences
    with one Richardson extrapolation level.

    The chart must be evaluable on the declared domain inflated by the larger
    step; grid builders downstream keep that margin.
    """
    cfg = config or FDJetConfig()

    def evaluator(u, v):
        h1u = cfg.step_first * (1.0 + abs(u))
        h1v = cfg.step_first * (1.0 + abs(v))
        h2u = cfg.step_second * (1.0 + abs(u))
        h2v = cfg.step_second * (1.0 + abs(v))
        phi = np.asarray(chart(u, v), dtype=float)
        fu = lambda x: np.asarray(chart(x, v), dtype=float)
        fv = lambda x: np.asarray(chart(u, x), dtype=float)
        return (phi,
                _richardson_first(fu, u, h1u),
                _richardson_first(fv, v, h1v),
                _richardson_second(fu, phi, u, h2u),
                _richardson_mixed(lambda a, b: np.asarray(chart(a, b), dtype=float),
                                  u, v, h2u, h2v),
                _richardson_second(fv, phi, v, h2v))

    return Jet2Immersion(space, evaluator, tuple(u_domain), tuple(v_domain),
                         name)


def induced_metric(jet: JetSample, G) -> np.ndarray:
    """First fundamental form g_ij = <phi_i, phi_j> at the jet's point, where
    G is the ambient metric there.

    Raises NotSpaceLikeError when g is not positive definite, which signals
    a failure of the space-likeness hypothesis at that point.
    """
    g11 = inner(jet.phi_u, jet.phi_u, G)
    g12 = inner(jet.phi_u, jet.phi_v, G)
    g22 = inner(jet.phi_v, jet.phi_v, G)
    g = np.array([[g11, g12], [g12, g22]])
    if g11 <= 0.0 or np.linalg.det(g) <= 0.0:
        raise NotSpaceLikeError(
            f"induced metric not positive definite at (u,v)=({jet.u},{jet.v}): "
            f"g11={g11:.6g}, det={np.linalg.det(g):.6g}")
    return g


def chart_second_fundamental(jet: JetSample, space: AmbientSpace, G, ginv,
                             warp_state):
    """Covariant second derivatives of the chart and their normal parts.

    G is the ambient metric at the jet's point, ginv the inverse induced
    metric and warp_state (f, f', f'') there.  Returns (W, h, H) where
    W[(a, b)] is the ambient covariant derivative of phi_b along phi_a,
    h[(a, b)] its normal projection, and H half the g-trace of h.  This needs
    only the jet, not an adapted frame.
    """
    phi = jet.phi
    first = {"u": jet.phi_u, "v": jet.phi_v}
    second = {("u", "u"): jet.phi_uu, ("u", "v"): jet.phi_uv,
              ("v", "v"): jet.phi_vv}
    if space.kind == "warped-flat":
        f, fp, _ = warp_state
        def cov(a, b):
            pa, pb, pab = first[a], first[b], second[(a, b)]
            out = np.empty_like(pab)
            out[0] = pab[0] + f * fp * float(np.dot(pa[1:], pb[1:]))
            out[1:] = pab[1:] + (fp / f) * (pa[0] * pb[1:] + pb[0] * pa[1:])
            return out
    else:
        nu = space.product_normal(phi)
        c = float(space.c)
        def cov(a, b):
            pab = second[(a, b)]
            return pab - c * inner(pab, nu, G) * nu

    W = {key: cov(*key) for key in second}

    def normal_part(vec):
        coef = ginv @ np.array([inner(vec, jet.phi_u, G),
                                inner(vec, jet.phi_v, G)])
        return vec - coef[0] * jet.phi_u - coef[1] * jet.phi_v

    h = {key: normal_part(val) for key, val in W.items()}
    H = 0.5 * (ginv[0, 0] * h[("u", "u")] + 2.0 * ginv[0, 1] * h[("u", "v")]
               + ginv[1, 1] * h[("v", "v")])
    return W, h, H


@dataclass(frozen=True)
class FrameData:
    """Adapted orthonormal frame at one surface point.

    ``normals`` starts with the unit timelike e3; when the mean curvature
    direction exists it is followed by e4 = H/|H| and then the space-like
    completion.  ``coeffs`` holds e1, e2 row-wise in the (phi_u, phi_v)
    chart basis.
    """

    u: float
    v: float
    point: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    T: np.ndarray
    eta: np.ndarray
    theta: float
    sinh_theta: float
    cosh_theta: float
    normals: tuple
    normal_signs: tuple
    has_mean_direction: bool
    coeffs: np.ndarray

    @property
    def e3(self) -> np.ndarray:
        return self.normals[0]

    @property
    def e4(self) -> np.ndarray:
        if not self.has_mean_direction:
            raise DegenerateFrameError("frame has no mean-curvature direction")
        return self.normals[1]

    @property
    def tangents(self) -> tuple:
        return (self.e1, self.e2)


def adapted_frame(jet: JetSample, space: AmbientSpace, G, ginv, H,
                  tol_T: float = TOL_T, tol_H: float = TOL_H) -> FrameData:
    """Build the adapted frame at a jet sample.

    G is the ambient metric at the jet's point, ginv the inverse induced
    metric and H the mean curvature vector there.  Raises
    HorizontalSliceError when |T| <= tol_T (the excluded horizontal slice
    case).  When |H| <= tol_H there is no distinguished mean-curvature
    direction; the frame is completed without e4 and flagged.
    """
    dt = space.dt_vector()
    coef_T = ginv @ np.array([inner(dt, jet.phi_u, G), inner(dt, jet.phi_v, G)])
    T = coef_T[0] * jet.phi_u + coef_T[1] * jet.phi_v
    eta = dt - T
    sinh2 = inner(T, T, G)
    if sinh2 <= tol_T * tol_T:
        raise HorizontalSliceError(
            f"tangential comoving part vanishes at (u,v)=({jet.u},{jet.v})")
    sinh_theta = float(np.sqrt(sinh2))
    cosh_theta = float(np.sqrt(1.0 + sinh2))
    theta = float(np.arcsinh(sinh_theta))
    e1 = T / sinh_theta
    e3 = eta / cosh_theta

    w2 = jet.phi_v - inner(jet.phi_v, e1, G) * e1
    n2 = inner(w2, w2, G)
    if n2 <= 0.0 or n2 < 1e-24:
        raise DegenerateFrameError("phi_v is parallel to e1")
    e2 = w2 / np.sqrt(n2)

    #  e1, e2 expressed in the chart basis (for directional derivatives)
    c1 = coef_T / sinh_theta
    c2 = np.array([-inner(jet.phi_v, e1, G) * c1[0],
                   1.0 - inner(jet.phi_v, e1, G) * c1[1]]) / np.sqrt(n2)
    coeffs = np.vstack([c1, c2])

    h_norm2 = inner(H, H, G)
    has_mean = abs(h_norm2) > tol_H * tol_H

    normals = [e3]
    signs = [-1]
    if has_mean:
        normals.append(H / np.sqrt(abs(h_norm2)))
        signs.append(1 if h_norm2 > 0 else -1)

    priors = [e1, e2]
    if space.is_embedded:
        priors.append(space.product_normal(jet.phi))
    need = space.ambient_dim - len(priors) - len(normals)
    basis = priors + normals
    n_completed = 0
    for k in range(space.ambient_dim):
        if need == 0:
            break
        cand = np.zeros(space.ambient_dim)
        cand[k] = 1.0
        w = project_out_span(cand, basis, G)
        s2 = inner(w, w, G)
        if abs(s2) < 1e-12 * max(1.0, float(np.dot(w, w))) or np.dot(w, w) < 1e-12:
            continue
        w = w / np.sqrt(abs(s2))
        normals.append(w)
        signs.append(1 if s2 > 0 else -1)
        basis.append(w)
        n_completed += 1
        need -= 1
    if need != 0:
        raise DegenerateFrameError("could not complete the normal frame")
    if n_completed:
        # the coordinate-candidate sign rule is not smooth where the
        # candidate component crosses zero; pin the last completion vector to
        # the ambient orientation instead (smooth along catalog grids)
        if np.linalg.det(np.column_stack(basis)) < 0.0:
            normals[-1] = -normals[-1]

    return FrameData(jet.u, jet.v, jet.phi, e1, e2, T, eta, theta, sinh_theta,
                     cosh_theta, tuple(normals), tuple(signs), has_mean,
                     coeffs)
