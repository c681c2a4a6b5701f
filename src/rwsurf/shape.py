"""Second fundamental form, shape operators, normal connection and
normal-space dimensions.

Grid evaluation is two-phase: ``SurfaceGrid`` first fills immutable per-point
records (frames, second fundamental data) at every report node and at local
cross-stencil points around it, then derivative quantities are taken with
5-point central stencils over those records.  The stencil substep is small
and decoupled from the report-grid spacing so that truncation error stays
orders of magnitude below the stencil-tier tolerances even on coarse grids.

``evaluate_point`` computes each pointwise quantity once and hands it to the
helpers that need it.  Stencil quantities that several checks read (frame
covariant derivatives, nabla^perp h, nabla^perp H, biconservativity) are
computed once per node and kept in the grid's per-node memo (``_per_node``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ambient import AmbientSpace
from .errors import GeometryError
from .immersion import (FrameData, Jet2Immersion, JetSample, adapted_frame,
                        chart_second_fundamental, induced_metric)
from .linalg import inner, numeric_rank

__all__ = [
    "SecondFundamentalData",
    "second_fundamental_form",
    "shape_operator",
    "normal_curvature",
    "PointData",
    "evaluate_point",
    "SurfaceGrid",
    "normal_connection_derivative",
    "pmcv_residual",
    "NormalSpaceDims",
    "normal_space_dims",
]

# 5-point central first-derivative weights at offsets (-2, -1, +1, +2)
_STENCIL_OFFSETS = (-2, -1, 1, 2)
_STENCIL_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
DEFAULT_SUBSTEP = 2e-3
_SCALE_FRACTION = 4e-3
# (u, v) offsets of the points filled per node: the node, then its cross stencil
_FILL_OFFSETS = ((0, 0),) + tuple(p for k in _STENCIL_OFFSETS
                                  for p in ((k, 0), (0, k)))


def _per_node(fn):
    """Memoize ``fn(grid, i, j)`` in the grid's per-node cache.  No
    ``__wrapped__`` (functools.wraps): perfbench's tracer reads one as a
    patch it failed to remove."""
    def cached(grid, i, j):
        node = grid._memo.setdefault((i, j), {})
        if fn not in node:
            node[fn] = fn(grid, i, j)
        return node[fn]
    cached.__name__, cached.__doc__ = fn.__name__, fn.__doc__
    return cached


def _worst(values) -> float:
    """Largest of ``values`` (0.0 when there are none), or NaN when any value
    is NaN; the built-in max keeps whichever operand comes first."""
    arr = np.fromiter(values, dtype=float)
    return float(arr.max()) if arr.size else 0.0


def _warp_length_scale(space: AmbientSpace, u: float) -> float:
    """Characteristic u-length of warp variation, min_k (f / |f^(k)|)^(1/k).

    Dense-output warps can approach a blow-up where derivatives grow like
    inverse powers of the remaining distance; stencil substeps must shrink
    proportionally to keep truncation error flat.  f''' is estimated by a
    central difference of f''.
    """
    if space.kind != "warped-flat":
        return np.inf
    f, fp, fpp = space.warp(u)
    h = 1e-4 * (1.0 + abs(u))
    lo, hi = space.warp.interval
    try:
        if u - h < lo:
            f3 = (space.warp(u + h)[2] - fpp) / h
        elif u + h > hi:
            f3 = (fpp - space.warp(u - h)[2]) / h
        else:
            f3 = (space.warp(u + h)[2] - space.warp(u - h)[2]) / (2 * h)
    except GeometryError:
        f3 = 0.0
    scale = np.inf
    af = abs(f)
    for k, deriv in enumerate((fp, fpp, f3), start=1):
        if abs(deriv) > 1e-12 * af:
            scale = min(scale, (af / abs(deriv)) ** (1.0 / k))
    return float(scale)


@dataclass(frozen=True)
class SecondFundamentalData:
    """h in the adapted frame basis, the mean curvature vector, and the shape
    operator matrices keyed by normal-frame index (0 = e3, 1 = e4, ...).

    Pointwise quantities only.  Stencil derivatives such as nabla^perp H are
    not pointwise; they live in the per-node memo of ``SurfaceGrid``.
    """

    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    H: np.ndarray
    A: dict

    def h(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return self.h11 if i == 1 else self.h22
        return self.h12


def second_fundamental_form(frame: FrameData, G,
                            h_chart: dict) -> SecondFundamentalData:
    """Normal parts of the ambient covariant derivatives in the frame basis.

    ``h_chart`` is the chart-basis h of ``chart_second_fundamental`` and G
    the ambient metric at the frame's point.  h(e_i, e_j) is obtained from
    the chart values by the bilinear change of basis, so h12 = h21 holds
    structurally and H = (h11 + h22) / 2 exactly.
    """
    c = frame.coeffs  # rows: e1, e2 in (phi_u, phi_v)
    huu, huv, hvv = h_chart[("u", "u")], h_chart[("u", "v")], h_chart[("v", "v")]

    def hframe(i, j):
        return (c[i, 0] * c[j, 0] * huu
                + (c[i, 0] * c[j, 1] + c[i, 1] * c[j, 0]) * huv
                + c[i, 1] * c[j, 1] * hvv)

    h11, h12, h22 = hframe(0, 0), hframe(0, 1), hframe(1, 1)
    A = {}
    for k, xi in enumerate(frame.normals):
        A[k] = np.array([[inner(h11, xi, G), inner(h12, xi, G)],
                         [inner(h12, xi, G), inner(h22, xi, G)]])
    return SecondFundamentalData(h11, h12, h22, 0.5 * (h11 + h22), A)


def shape_operator(sfd: SecondFundamentalData, xi, G,
                   frame: FrameData | None = None) -> np.ndarray:
    """Shape operator matrix of a unit normal direction in the orthonormal
    tangent frame: (A_xi)_ij = <h(e_i, e_j), xi>.

    xi must satisfy |<xi, xi>| = 1; when ``frame`` is supplied, orthogonality
    to the tangent plane is checked as well.
    """
    if abs(abs(inner(xi, xi, G)) - 1.0) > 1e-8:
        raise ValueError("shape_operator needs a unit normal direction")
    if frame is not None:
        if max(abs(inner(xi, frame.e1, G)), abs(inner(xi, frame.e2, G))) > 1e-8:
            raise ValueError("shape_operator: xi is not normal to the surface")
    return np.array([
        [inner(sfd.h11, xi, G), inner(sfd.h12, xi, G)],
        [inner(sfd.h12, xi, G), inner(sfd.h22, xi, G)]])


def normal_curvature(sfd: SecondFundamentalData, xi, G) -> np.ndarray:
    """R_perp(e1, e2) xi = h(e1, A_xi e2) - h(A_xi e1, e2) (Ricci identity
    for ambients whose curvature has no normal part)."""
    A = shape_operator(sfd, xi, G)
    # A_xi e1 = A[0,0] e1 + A[0,1] e2, A_xi e2 = A[1,0] e1 + A[1,1] e2
    h1A2 = A[0, 1] * sfd.h11 + A[1, 1] * sfd.h12
    hA12 = A[0, 0] * sfd.h12 + A[0, 1] * sfd.h22
    return h1A2 - hA12


@dataclass(frozen=True)
class PointData:
    """Everything pointwise at one parameter value."""

    jet: JetSample
    G: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    warp_state: tuple
    frame: FrameData
    sfd: SecondFundamentalData


def evaluate_point(surface: Jet2Immersion, u: float, v: float) -> PointData:
    """Every pointwise quantity at (u, v), each computed exactly once."""
    jet = surface.jet(u, v)
    space = surface.space
    G = space.metric_at(jet.phi)
    g = induced_metric(jet, G)
    ginv = np.linalg.inv(g)
    warp_state = space.warp_state(jet.phi)
    _, h_chart, H = chart_second_fundamental(jet, space, G, ginv, warp_state)
    frame = adapted_frame(jet, space, G, ginv, H)
    return PointData(jet, G, g, ginv, warp_state, frame,
                     second_fundamental_form(frame, G, h_chart))


def frame_norm(V, pd: PointData) -> float:
    """Norm of V from its components in the orthonormal frame (a true norm
    regardless of the indefinite signature)."""
    comps = [inner(V, e, pd.G) for e in pd.frame.tangents]
    comps += [inner(V, e, pd.G) for e in pd.frame.normals]
    return float(np.sqrt(np.sum(np.square(comps))))


class SurfaceGrid:
    """Filled evaluation grid with local cross stencils at every node.

    Phase 1 (construction) evaluates PointData at each report node and at the
    four u- and four v-offsets around it; phase 2 methods differentiate those
    records.  Nodes where any evaluation degenerates are recorded in
    ``degeneracies`` and skipped by the residual scans.  Derivative
    quantities that more than one check reads are memoized per node.
    """

    def __init__(self, surface: Jet2Immersion, us, vs,
                 substep: float = DEFAULT_SUBSTEP):
        self.surface = surface
        self.space = surface.space
        self.us = np.asarray(us, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        self.nu, self.nv = len(self.us), len(self.vs)
        self.degeneracies: list[tuple[int, int, str]] = []

        u_lo, u_hi = surface.u_domain
        v_lo, v_hi = surface.v_domain
        margin_u = min((self.us.min() - u_lo) / 2.5 if np.isfinite(u_lo) else np.inf,
                       (u_hi - self.us.max()) / 2.5 if np.isfinite(u_hi) else np.inf)
        margin_v = min((self.vs.min() - v_lo) / 2.5 if np.isfinite(v_lo) else np.inf,
                       (v_hi - self.vs.max()) / 2.5 if np.isfinite(v_hi) else np.inf)
        if margin_u <= 0 or margin_v <= 0:
            raise GeometryError("report grid leaves no stencil headroom "
                                "inside the chart domain")
        # Near a warp blow-up the k-th field derivatives grow like L^-k, so
        # keeping 5-point truncation (~ s^4 L^-5) flat needs s ~ L^(5/4).
        self.su = np.array([
            min(substep * (1.0 + abs(u)),
                _SCALE_FRACTION * _warp_length_scale(self.space, float(u)) ** 1.25,
                margin_u)
            for u in self.us])
        self.sv = np.array([min(substep * (1.0 + abs(v)), margin_v)
                            for v in self.vs])

        self._data: dict[tuple, PointData] = {}
        self._memo: dict[tuple[int, int], dict] = {}
        for i, u in enumerate(self.us):
            for j, v in enumerate(self.vs):
                try:
                    for ku, kv in _FILL_OFFSETS:
                        self._data[(i, j, ku, kv)] = evaluate_point(
                            surface, float(u + ku * self.su[i]),
                            float(v + kv * self.sv[j]))
                except GeometryError as exc:
                    self.degeneracies.append((i, j, f"{type(exc).__name__}: {exc}"))
        self._bad_nodes = {(i, j) for i, j, _ in self.degeneracies}

    # -- node access ---------------------------------------------------------

    def node_ok(self, i: int, j: int) -> bool:
        return (i, j) not in self._bad_nodes

    def point(self, i: int, j: int) -> PointData:
        return self._data[(i, j, 0, 0)]

    def nodes(self):
        """Indices of all non-degenerate nodes."""
        for i in range(self.nu):
            for j in range(self.nv):
                if self.node_ok(i, j):
                    yield i, j

    @property
    def n_ok(self) -> int:
        return self.nu * self.nv - len(self._bad_nodes)

    # -- stencil derivatives ---------------------------------------------------

    def chart_derivative(self, i, j, extract: Callable, direction: str):
        """5-point stencil d/du or d/dv of a per-point field."""
        step = self.su[i] if direction == "u" else self.sv[j]
        acc = None
        for k, w in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS):
            key = (i, j, k, 0) if direction == "u" else (i, j, 0, k)
            val = extract(self._data[key])
            acc = w * np.asarray(val, dtype=float) if acc is None else acc + w * np.asarray(val, dtype=float)
        return acc / (12.0 * step)

    def covariant_along(self, i, j, extract, direction: str):
        """Ambient covariant derivative of a vector field along phi_u/phi_v."""
        pd = self.point(i, j)
        dF = self.chart_derivative(i, j, extract, direction)
        if self.space.kind == "warped-flat":
            f, fp, _ = pd.warp_state
            x = pd.jet.phi_u if direction == "u" else pd.jet.phi_v
            F = np.asarray(extract(pd), dtype=float)
            corr = np.empty_like(dF)
            corr[0] = f * fp * float(np.dot(x[1:], F[1:]))
            corr[1:] = (fp / f) * (x[0] * F[1:] + F[0] * x[1:])
            return dF + corr
        nu_vec = self.space.product_normal(pd.jet.phi)
        return dF - self.space.c * inner(dF, nu_vec, pd.G) * nu_vec

    def frame_covariant(self, i, j, extract, idx: int):
        """Ambient covariant derivative along e_{idx+1} (idx 0 or 1)."""
        pd = self.point(i, j)
        c = pd.frame.coeffs
        return (c[idx, 0] * self.covariant_along(i, j, extract, "u")
                + c[idx, 1] * self.covariant_along(i, j, extract, "v"))

    def tangential_part(self, i, j, W):
        pd = self.point(i, j)
        coef = pd.ginv @ np.array([inner(W, pd.jet.phi_u, pd.G),
                                   inner(W, pd.jet.phi_v, pd.G)])
        return coef[0] * pd.jet.phi_u + coef[1] * pd.jet.phi_v

    def nabla_perp(self, i, j, extract, idx: int):
        """Normal connection derivative of a normal field along e_{idx+1}."""
        W = self.frame_covariant(i, j, extract, idx)
        return W - self.tangential_part(i, j, W)

    def scalar_derivative(self, i, j, extract, idx: int) -> float:
        pd = self.point(i, j)
        c = pd.frame.coeffs
        return float(c[idx, 0] * self.chart_derivative(i, j, extract, "u")
                     + c[idx, 1] * self.chart_derivative(i, j, extract, "v"))

    @_per_node
    def frame_covariants(self, i, j):
        """W[a][b] = nabla_{e_(a+1)} e_(b+1), the ambient covariant
        derivatives of the tangent frame along itself."""
        fields = (lambda p: p.frame.e1, lambda p: p.frame.e2)
        return tuple(tuple(self.frame_covariant(i, j, fld, a) for fld in fields)
                     for a in range(2))

    def tangent_connection(self, i, j):
        """Coefficients <nabla_{e_i} e_j, e_k> as a (2, 2, 2) array."""
        pd = self.point(i, j)
        W = self.frame_covariants(i, j)
        out = np.empty((2, 2, 2))
        for ii in range(2):
            for jj in range(2):
                out[ii, jj, 0] = inner(W[ii][jj], pd.frame.e1, pd.G)
                out[ii, jj, 1] = inner(W[ii][jj], pd.frame.e2, pd.G)
        return out

    @_per_node
    def nabla_perp_h(self, i, j):
        """Tensor derivative (nabla^perp_{e_i} h)(e_j, e_k) for all index
        combinations; returns dict[(i, jk)] with jk in {(1,1),(1,2),(2,2)}."""
        pd = self.point(i, j)
        conn = self.tangent_connection(i, j)
        fields = {(1, 1): lambda p: p.sfd.h11, (1, 2): lambda p: p.sfd.h12,
                  (2, 2): lambda p: p.sfd.h22}
        out = {}
        for ii in range(2):
            for (ja, jb), fld in fields.items():
                W = self.nabla_perp(i, j, fld, ii)
                # subtract h(nabla_{e_i} e_j, e_k) + h(e_j, nabla_{e_i} e_k)
                for m in range(2):
                    W = W - conn[ii, ja - 1, m] * pd.sfd.h(m + 1, jb)
                    W = W - conn[ii, jb - 1, m] * pd.sfd.h(ja, m + 1)
                out[(ii + 1, (ja, jb))] = W
        return out

    @_per_node
    def mean_curvature_derivatives(self, i, j):
        """(nabla^perp_{e1} H, nabla^perp_{e2} H) at a node."""
        extract = lambda p: p.sfd.H
        return (self.nabla_perp(i, j, extract, 0),
                self.nabla_perp(i, j, extract, 1))


def normal_connection_derivative(grid: SurfaceGrid, i: int, j: int,
                                 field: Callable, direction: int):
    """nabla^perp of a normal field along e_direction (1 or 2) at node (i, j).

    ``field`` maps a PointData to the normal vector; it must be evaluable on
    the stencil around the node.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    return grid.nabla_perp(i, j, field, direction - 1)


def pmcv_residual(grid: SurfaceGrid) -> float:
    """max over the grid and i of |nabla^perp_{e_i} H|; zero characterizes a
    parallel mean curvature vector."""
    return _worst(frame_norm(d, grid.point(i, j)) for i, j in grid.nodes()
                  for d in grid.mean_curvature_derivatives(i, j))


class NormalSpaceDims(NamedTuple):
    n1: int
    n2: int
    n1_range: tuple[int, int]
    n2_range: tuple[int, int]


def normal_space_dims(grid: SurfaceGrid, tol: float = 1e-8,
                      zero_floor: float = 1e-7) -> NormalSpaceDims:
    """Numeric dimensions of the first and second normal spaces.

    Per node, N1 is spanned by the h values and N2 additionally by the
    covariant derivatives of h; the reported dimension is the maximum over
    the grid (ranges record any drop at special points).  Generators with
    frame norm below ``zero_floor`` are treated as numerically zero, so
    finite-difference noise on totally geodesic surfaces does not inflate
    the rank.
    """
    n1s, n2s = [], []
    for i, j in grid.nodes():
        pd = grid.point(i, j)
        keep = lambda vs: [v for v in vs if frame_norm(v, pd) > zero_floor]
        base = keep([pd.sfd.h11, pd.sfd.h12, pd.sfd.h22])
        n1s.append(numeric_rank(base, pd.G, tol))
        dh = grid.nabla_perp_h(i, j)
        n2s.append(numeric_rank(base + keep(dh.values()), pd.G, tol))
    if not n1s:
        raise GeometryError("no usable grid nodes")
    return NormalSpaceDims(max(n1s), max(n2s), (min(n1s), max(n1s)),
                           (min(n2s), max(n2s)))
