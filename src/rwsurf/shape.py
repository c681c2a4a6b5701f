"""Second fundamental form, shape operators, normal connection and
normal-space dimensions.

Grid evaluation is two-phase.  ``SurfaceGrid`` first fills two records,
each by one ``evaluate_point`` call (one jet call, every later layer
batched): the nodes' ``PointData`` (leading axes (nu, nv)) and, at the
eight cross-stencil points of each node the node record kept (leading axes
(nu, nv, 8)), only the fields the stencils differentiate.  Derivatives are
then 5-point central stencils, one weighted sum over the offset axis at
every node at once.  The stencil substep is small and decoupled from the
report-grid spacing so that truncation error stays orders of magnitude
below the stencil-tier tolerances even on coarse grids.  Stencil
quantities that several checks read are computed once per grid, on first
use (``_per_grid``), and ``SurfaceGrid.point(i, j)`` is a record of views
into the grid's arrays.
Every layer works in the jet's dtype: complex128 runs through
``evaluate_point`` for charts that take complex u, v; grids are float64.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _exports
from .ambient import AmbientSpace, ambient_covariant_derivative
from .errors import GeometryError
from .immersion import (FrameData, Jet2Immersion, JetSample,
                        _tangent_coefficients, adapted_frame,
                        chart_second_fundamental, induced_metric)
from .linalg import _all_last, _col, _sum_last, inner, numeric_rank

__all__ = _exports(__name__)

# 5-point central first-derivative weights at offsets (-2, -1, +1, +2)
_STENCIL_OFFSETS = (-2, -1, 1, 2)
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0])
DEFAULT_SUBSTEP = 2e-3
# normal_space_dims: the frame norm below which a generator counts as zero
ZERO_FLOOR = 1e-7
_SCALE_FRACTION = 4e-3
# (u, v) offsets of each node's cross-stencil points; the u- and v-stencil
# points sit at these positions on the stencil record's offset axis
_STENCIL_POINTS = tuple(p for k in _STENCIL_OFFSETS for p in ((k, 0), (0, k)))
_U_SLOTS = [_STENCIL_POINTS.index((k, 0)) for k in _STENCIL_OFFSETS]
_V_SLOTS = [_STENCIL_POINTS.index((0, k)) for k in _STENCIL_OFFSETS]


def _per_grid(fn):
    """Compute ``fn(grid)`` once per grid, on first use.  No ``__wrapped__``
    (functools.wraps): perfbench's tracer reads one as a patch it failed to
    remove."""
    def cached(grid):
        if fn not in grid._cache:
            grid._cache[fn] = fn(grid)
        return grid._cache[fn]
    cached.__name__, cached.__doc__ = fn.__name__, fn.__doc__
    return cached


def _worst(values) -> float:
    """Largest of ``values`` (0.0 when there are none), or NaN when any value
    is NaN; the built-in max keeps whichever operand comes first."""
    arr = np.asarray(values)
    return float(arr.max()) if arr.size else 0.0


def _map_arrays(fn, record):
    """``record`` (a dataclass, tuple or array, nested) with ``fn`` applied to
    every array in it."""
    if isinstance(record, np.ndarray):
        return fn(record)
    if dataclasses.is_dataclass(record):
        return type(record)(*(_map_arrays(fn, getattr(record, f.name))
                              for f in dataclasses.fields(record)))
    if isinstance(record, tuple):
        return tuple(_map_arrays(fn, x) for x in record)
    return record


def _warp_length_scale(space: AmbientSpace, t: float, f: float, fp: float,
                       fpp: float) -> float:
    """Characteristic time-length of warp variation at the time t, given the
    warp state (f, f', f'') there: min_k (f / |f^(k)|)^(1/k).

    Dense-output warps can approach a blow-up where derivatives grow like
    inverse powers of the remaining distance; stencil substeps must shrink
    proportionally to keep truncation error flat.  f''' is a difference of
    f'' at t +- h, one-sided at an end of the warp's interval, and 0 where
    those reads fail.  A constant warp (the product backend) gives inf.
    """
    h = 1e-4 * (1.0 + abs(t))
    lo, hi = space.warp.interval
    try:
        if t - h < lo:
            f3 = (space.warp(t + h)[2] - fpp) / h
        elif t + h > hi:
            f3 = (fpp - space.warp(t - h)[2]) / h
        else:
            f3 = (space.warp(t + h)[2] - space.warp(t - h)[2]) / (2 * h)
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
    operator matrices A (..., k, 2, 2), indexed by normal-frame index
    (0 = e3, 1 = e4, ...).

    Pointwise quantities only.  Stencil derivatives such as nabla^perp H are
    not pointwise; ``SurfaceGrid`` computes them per grid.
    """

    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    H: np.ndarray
    A: np.ndarray | None

    def h(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return self.h11 if i == 1 else self.h22
        return self.h12


def _pairing_matrix(h11, h12, h22, xi, G) -> np.ndarray:
    """[[<h11, xi>, <h12, xi>], [<h12, xi>, <h22, xi>]], the shape operator
    of xi in the tangent frame, as a trailing (2, 2) block."""
    a12 = inner(h12, xi, G)
    return np.stack([np.stack([inner(h11, xi, G), a12], axis=-1),
                     np.stack([a12, inner(h22, xi, G)], axis=-1)], axis=-2)


def _frame_h(c, h_chart) -> SecondFundamentalData:
    """h in the frame whose tangents have the chart coefficients ``c`` (rows
    e1, e2 in (phi_u, phi_v)), by the bilinear change of basis from the
    chart-basis ``h_chart``, and H = (h11 + h22) / 2; A is None."""
    huu, huv, hvv = h_chart[("u", "u")], h_chart[("u", "v")], h_chart[("v", "v")]

    def hframe(i, j):
        return (_col(c[..., i, 0] * c[..., j, 0]) * huu
                + _col(c[..., i, 0] * c[..., j, 1] + c[..., i, 1] * c[..., j, 0]) * huv
                + _col(c[..., i, 1] * c[..., j, 1]) * hvv)

    h11, h12, h22 = hframe(0, 0), hframe(0, 1), hframe(1, 1)
    return SecondFundamentalData(h11, h12, h22, 0.5 * (h11 + h22), None)


def second_fundamental_form(frame: FrameData, G,
                            h_chart: dict) -> SecondFundamentalData:
    """Normal parts of the ambient covariant derivatives in the frame basis.

    ``h_chart`` is the chart-basis h of ``chart_second_fundamental`` and G
    the ambient metric's diagonal at the frame's point.  h(e_i, e_j) is
    obtained from the chart values by the bilinear change of basis, so
    h12 = h21 holds structurally and H = (h11 + h22) / 2 exactly.
    """
    sfd = _frame_h(frame.coeffs, h_chart)
    per_normal = lambda x: x[..., None, :]
    A = _pairing_matrix(per_normal(sfd.h11), per_normal(sfd.h12),
                        per_normal(sfd.h22), frame.normals,
                        np.asarray(G)[..., None, :])
    return dataclasses.replace(sfd, A=A)


def shape_operator(sfd: SecondFundamentalData, xi, G) -> np.ndarray:
    """Shape operator matrix of a unit normal direction in the orthonormal
    tangent frame: (A_xi)_ij = <h(e_i, e_j), xi>.

    xi must satisfy |<xi, xi>| = 1; a NaN fails the check.
    """
    if not np.all(np.abs(np.abs(inner(xi, xi, G)) - 1.0) <= 1e-8):
        raise ValueError("shape_operator needs a unit normal direction")
    return _pairing_matrix(sfd.h11, sfd.h12, sfd.h22, xi, G)


def normal_curvature(sfd: SecondFundamentalData, A) -> np.ndarray:
    """R_perp(e1, e2) xi = h(e1, A_xi e2) - h(A_xi e1, e2) (Ricci identity
    for ambients whose curvature has no normal part), from the shape
    operator matrix A = A_xi of the normal xi (``sfd.A[..., k, :, :]`` for
    the k-th frame normal, ``shape_operator`` for any other)."""
    # A_xi e1 = A[0,0] e1 + A[0,1] e2, A_xi e2 = A[1,0] e1 + A[1,1] e2
    h1A2 = _col(A[..., 0, 1]) * sfd.h11 + _col(A[..., 1, 1]) * sfd.h12
    hA12 = _col(A[..., 0, 0]) * sfd.h12 + _col(A[..., 0, 1]) * sfd.h22
    return h1A2 - hA12


@dataclass(frozen=True)
class PointData:
    """Everything pointwise at one parameter value, or at a stack of them
    (every array then carries the points' leading axes).  A grid's stencil
    record holds only the fields its stencils differentiate, and None for
    the others (``SurfaceGrid``)."""

    jet: JetSample
    G: np.ndarray  # the ambient metric's diagonal, ``metric_at``
    ginv: np.ndarray
    warp_state: tuple
    frame: FrameData
    sfd: SecondFundamentalData


def _point_data(space: AmbientSpace, jet: JetSample, warp_state,
                stencil=False) -> PointData:
    """Every quantity after the jet and the warp, each computed once, for one
    point or a stack of points.  With ``stencil`` (the grid fill's stencil
    points), only the fields the stencils differentiate: G, the frame up to
    e4 and theta (``adapted_frame``'s ``_stencil``), and the sfd without
    A."""
    G = space.metric_at(jet.phi, warp_state)
    g = induced_metric(jet, G)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    ginv = g[..., ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / _col(_col(det))
    h_chart, H = chart_second_fundamental(jet, space, G, ginv, warp_state)[1:]
    frame = adapted_frame(jet, space, G, ginv, H, _stencil=stencil)
    if stencil:
        return PointData(None, G, None, None,
                         dataclasses.replace(frame, coeffs=None),
                         _frame_h(frame.coeffs, h_chart))
    return PointData(jet, G, ginv, warp_state, frame,
                     second_fundamental_form(frame, G, h_chart))


def evaluate_point(surface: Jet2Immersion, u, v, *, _stencil=False):
    """Every pointwise quantity at (u, v), each computed exactly once.

    With scalar u, v: that point's ``PointData``; a degenerate point raises
    its ``GeometryError``.  With arrays u, v: ``(data, errors)``, where
    ``data`` is the ``PointData`` of all points (leading axes the shape of
    u) and ``errors`` maps the flat index of each degenerate point to
    ``"<ErrorClass>: <message>"``.  The chart is called once (one ``jet``
    call for all points) and the warp once per distinct time coordinate;
    the rest runs batched over the points still alive.  ``data.jet`` is the
    call's sample (NaN where the chart failed); a point failing a later
    stage leaves the ones after it, which read NaN.  ``_stencil`` is the
    grid fill's, for its stencil points: ``data`` then holds
    ``_point_data``'s differentiated fields alone, and None for the others.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        space = surface.space
        if np.ndim(u) == 0 and np.ndim(v) == 0:
            jet = surface.jet(u, v)
            return _point_data(space, jet, space.warp_state(jet.phi.tolist()), _stencil)
        sample, errors = surface.jet(u, v)
        shape = np.shape(sample.u)
        jet = _map_arrays(lambda x: x.reshape((-1,) + x.shape[len(shape):]), sample)
        alive = np.ones(len(jet.u), dtype=bool)
        alive[list(errors)] = False
        alive = np.flatnonzero(alive)
        times, inverse = np.unique(jet.phi[alive, 0], return_inverse=True)
        states = np.full((len(times), 3), np.nan)
        for m, t in enumerate(times.tolist()):
            try:
                states[m] = space.warp_state((t,))
            except GeometryError as exc:
                errors.update(dict.fromkeys(alive[inverse == m].tolist(),
                                            f"{type(exc).__name__}: {exc}"))
        states = states[inverse]
        keep = _all_last(np.isfinite(states))
        alive, states = alive[keep], states[keep]
        alive_only = lambda x: x if len(alive) == len(jet.u) else x[alive]
        while True:
            try:
                data = _point_data(space, _map_arrays(alive_only, jet),
                                   tuple(states.T), _stencil)
                break
            except GeometryError as exc:
                if getattr(exc, "where", None) is None:
                    raise
                for k, text in zip(alive[exc.where], exc.texts):
                    errors[int(k)] = f"{type(exc).__name__}: {text}"
                alive, states = alive[~exc.where], states[~exc.where]

        def place(x):
            out = x
            if len(alive) < len(jet.u):
                out = np.full((len(jet.u),) + x.shape[1:],
                              np.nan if x.dtype.kind in "fc" else 0, dtype=x.dtype)
                out[alive] = x
            return out.reshape(shape + x.shape[1:])

        data = _map_arrays(place, data)
        return (data if _stencil else dataclasses.replace(data, jet=sample)), errors


def frame_norm(V, pd: PointData):
    """Norm of V from its components in the orthonormal frame (a true norm
    regardless of the indefinite signature), one value per point of pd."""
    comps = inner(np.asarray(V)[..., None, :], pd.frame.vectors,
                  np.asarray(pd.G)[..., None, :])
    return np.sqrt(_sum_last(np.square(comps)))


class SurfaceGrid:
    """Filled evaluation grid with local cross stencils at every node.

    Phase 1 (construction) makes two ``evaluate_point`` calls.
    ``node_data`` is the nodes' full evaluation, leading axes (nu, nv); a
    row's u-substep follows the least ``_warp_length_scale`` at its nodes'
    times ``phi[..., 0]`` and warp states, each over the node's |dt/du|
    (``phi_u[..., 0]``), probed once per distinct node time.
    ``stencil_data``, leading axes (nu, nv, 8), is that of each node's four
    u- and four v-offsets with ``_stencil``: only what the stencils
    differentiate, G, the frame rows e1, e2, e3, e4 (``normals[..., 1, :]``,
    NaN at a point without a mean direction: the stencil points are never
    completed), theta, and the sfd's H, h11, h12 and h22; its other fields
    are None.
    Only the kept nodes' stencil points are charted: those of a node the
    node record dropped are NaN, refused by the jet, and read NaN.
    Phase 2 methods differentiate those arrays and return arrays over the
    nodes.  Nodes where any point degenerates are recorded in
    ``degeneracies``, each with its first failing point's error (the node,
    then ``_STENCIL_POINTS``), and left out of ``ok``, the mask every
    residual reduction uses.  A stencil point without a mean direction
    fails with MinimalDirectionError where its node has one.
    """

    def __init__(self, surface: Jet2Immersion, us, vs):
        self.surface = surface
        self.space = surface.space
        self.us, self.vs = np.asarray(us), np.asarray(vs)
        self.nu, self.nv = len(self.us), len(self.vs)

        (u_lo, u_hi), (v_lo, v_hi) = surface.u_domain, surface.v_domain
        margin_u = min(self.us.min() - u_lo, u_hi - self.us.max()) / 2.5
        margin_v = min(self.vs.min() - v_lo, v_hi - self.vs.max()) / 2.5
        if margin_u <= 0 or margin_v <= 0:
            raise GeometryError("report grid leaves no stencil headroom "
                                "inside the chart domain")
        self.node_data, node_errors = evaluate_point(
            surface, *np.broadcast_arrays(self.us[:, None], self.vs[None, :]))
        # Near a warp blow-up the k-th field derivatives grow like L^-k, so
        # keeping 5-point truncation (~ s^4 L^-5) flat needs s ~ L^(5/4),
        # with L in u: the warp's time-length over |dt/du| at the node.
        jet = self.node_data.jet
        keys = np.stack([jet.phi[..., 0].real, *self.node_data.warp_state],
                        axis=-1)
        rates = np.abs(jet.phi_u[..., 0].real)
        probed = _all_last(np.isfinite(keys)) & (rates > 0)
        # a node's warp state is the warp's at its time: one probe per time
        _, first, inverse = np.unique(keys[probed, 0], return_index=True,
                                      return_inverse=True)
        time_scales = np.array([_warp_length_scale(self.space, *key)
                                for key in keys[probed][first].tolist()])
        scales = np.full(rates.shape, np.inf)
        scales[probed] = time_scales[inverse] / rates[probed]
        self.su = np.array([
            min(DEFAULT_SUBSTEP * (1.0 + abs(u)),
                _SCALE_FRACTION * scale ** 1.25, margin_u)
            for u, scale in zip(self.us.tolist(), scales.min(axis=1).tolist())])
        self.sv = np.array([min(DEFAULT_SUBSTEP * (1.0 + abs(v)), margin_v)
                            for v in self.vs])
        ku, kv = np.array(_STENCIL_POINTS, dtype=float).T
        U, V = np.broadcast_arrays(self.us[:, None, None] + ku * self.su[:, None, None],
                                   self.vs[None, :, None] + kv * self.sv[None, :, None])
        # a dropped node's stencil points are NaN, which the jet refuses
        # without calling the chart; its own error stays first below
        dropped = np.zeros((self.nu, self.nv, 1), dtype=bool)
        dropped.flat[list(node_errors)] = True
        U = np.where(dropped, np.nan, U)
        self.stencil_data, stencil_errors = evaluate_point(surface, U, V,
                                                           _stencil=True)
        # a stencil point without a mean direction (e4 NaN) where its node
        # has one: the stencils of e4 would read NaN
        e4 = self.stencil_data.frame.normals[..., 1, :]
        lost = (~_all_last(np.isfinite(e4))
                & self.node_data.frame.has_mean_direction[..., None])
        for k in np.flatnonzero(lost).tolist():
            stencil_errors.setdefault(
                k, f"MinimalDirectionError: no mean curvature direction at "
                   f"(u,v)=({U.flat[k]},{V.flat[k]})")
        first = dict(node_errors)  # each node's first failing point's error
        for k, text in sorted(stencil_errors.items()):
            first.setdefault(k // len(_STENCIL_POINTS), text)
        self.degeneracies: list[tuple[int, int, str]] = [
            (*divmod(k, self.nv), first[k]) for k in sorted(first)]
        self.ok = np.ones((self.nu, self.nv), dtype=bool)
        self.ok.flat[list(first)] = False
        self._cache: dict = {}

    # -- node access ---------------------------------------------------------

    def point(self, i: int, j: int) -> PointData:
        """The node's ``PointData``, as views into the grid's arrays."""
        return _map_arrays(lambda x: x[i, j], self.node_data)

    def nodes(self):
        """Indices of all non-degenerate nodes."""
        for i, j in zip(*np.nonzero(self.ok)):
            yield int(i), int(j)

    @property
    def n_ok(self) -> int:
        return int(self.ok.sum())

    # -- stencil derivatives ---------------------------------------------------
    # ``extract`` maps a PointData with leading axes to a field with the same
    # leading axes, reading only the fields ``stencil_data`` holds; every
    # method returns the quantity at all nodes.

    def chart_derivative(self, extract: Callable, direction: str):
        """5-point stencil d/du or d/dv of a per-point field."""
        field = extract(self.stencil_data)
        if direction == "u":
            slots, step = _U_SLOTS, self.su[:, None]
        else:
            slots, step = _V_SLOTS, self.sv[None, :]
        acc = np.einsum("ijk...,k->ij...", field[:, :, slots], _STENCIL_WEIGHTS)
        return acc / (12.0 * step).reshape(step.shape + (1,) * (acc.ndim - 2))

    def covariant_along(self, extract, direction: str):
        """Ambient covariant derivative of a vector field along phi_u/phi_v."""
        nd = self.node_data
        x = nd.jet.phi_u if direction == "u" else nd.jet.phi_v
        return ambient_covariant_derivative(
            self.space, nd.jet.phi, x, extract(nd),
            self.chart_derivative(extract, direction), nd.G, nd.warp_state)

    def _along_frame(self, derivative, extract):
        """(along e1, along e2) of a field from ``derivative`` along u and v."""
        du, dv = derivative(extract, "u"), derivative(extract, "v")
        c = self.node_data.frame.coeffs
        c = c.reshape(c.shape + (1,) * (du.ndim - 2))  # scalars or vectors
        return tuple(c[:, :, i, 0] * du + c[:, :, i, 1] * dv for i in range(2))

    def frame_covariant(self, extract):
        """Ambient covariant derivatives of a vector field along (e1, e2)."""
        return self._along_frame(self.covariant_along, extract)

    def tangential_part(self, W):
        nd = self.node_data
        coef = _tangent_coefficients(W, nd.jet, nd.G, nd.ginv)
        return coef[..., :1] * nd.jet.phi_u + coef[..., 1:] * nd.jet.phi_v

    def nabla_perp(self, extract):
        """Normal connection derivatives of a normal field along (e1, e2)."""
        return tuple(W - self.tangential_part(W)
                     for W in self.frame_covariant(extract))

    def scalar_derivative(self, extract):
        """Derivatives of a scalar field along (e1, e2)."""
        return self._along_frame(self.chart_derivative, extract)

    @_per_grid
    def frame_covariants(self):
        """W[a][b] = nabla_{e_(a+1)} e_(b+1), the ambient covariant
        derivatives of the tangent frame along itself."""
        return tuple(zip(self.frame_covariant(lambda p: p.frame.e1),
                         self.frame_covariant(lambda p: p.frame.e2)))

    @_per_grid
    def tangent_connection(self):
        """Coefficients <nabla_{e_i} e_j, e_k> as a (..., 2, 2, 2) array."""
        nd = self.node_data
        W = np.stack([np.stack(row, axis=-2) for row in self.frame_covariants()],
                     axis=-3)
        E = nd.frame.vectors[..., None, None, :2, :]
        return inner(W[..., None, :], E, nd.G[..., None, None, None, :])

    @_per_grid
    def nabla_perp_h(self):
        """Tensor derivative (nabla^perp_{e_i} h)(e_j, e_k) for all index
        combinations; returns dict[(i, jk)] with jk in {(1,1),(1,2),(2,2)}."""
        sfd = self.node_data.sfd
        conn = self.tangent_connection()
        fields = {(1, 1): lambda p: p.sfd.h11, (1, 2): lambda p: p.sfd.h12,
                  (2, 2): lambda p: p.sfd.h22}
        out = {}
        for (ja, jb), fld in fields.items():
            for ii, W in enumerate(self.nabla_perp(fld)):
                # subtract h(nabla_{e_i} e_j, e_k) + h(e_j, nabla_{e_i} e_k)
                for m in range(2):
                    W = W - _col(conn[..., ii, ja - 1, m]) * sfd.h(m + 1, jb)
                    W = W - _col(conn[..., ii, jb - 1, m]) * sfd.h(ja, m + 1)
                out[(ii + 1, (ja, jb))] = W
        return out

    @_per_grid
    def mean_curvature_derivatives(self):
        """(nabla^perp_{e1} H, nabla^perp_{e2} H) at every node."""
        return self.nabla_perp(lambda p: p.sfd.H)


@_per_grid
def pmcv_values(grid: SurfaceGrid) -> np.ndarray:
    """max over i of |nabla^perp_{e_i} H| at every node."""
    nd = grid.node_data
    return np.max([frame_norm(d, nd)
                   for d in grid.mean_curvature_derivatives()], axis=0)


def pmcv_residual(grid: SurfaceGrid) -> float:
    """max over the grid of ``pmcv_values``; zero characterizes a parallel
    mean curvature vector."""
    return _worst(pmcv_values(grid)[grid.ok])


class NormalSpaceDims(NamedTuple):
    n1: int
    n2: int
    n1_range: tuple[int, int]
    n2_range: tuple[int, int]


def normal_space_dims(grid: SurfaceGrid) -> NormalSpaceDims:
    """Numeric dimensions of the first and second normal spaces.

    Per node, N1 is spanned by the h values and N2 additionally by the
    covariant derivatives of h; the reported dimension is the maximum over
    the grid (ranges record any drop at special points); ranks are
    ``numeric_rank``'s.  Generators with frame norm below ZERO_FLOOR
    are treated as numerically zero, so finite-difference noise on totally
    geodesic surfaces does not inflate the rank.  A node with a non-finite
    generator has no rank: the dimensions and ranges then read NaN.
    """
    if not grid.ok.any():
        raise GeometryError("no usable grid nodes")
    nd = grid.node_data
    gens = np.stack([nd.sfd.h11, nd.sfd.h12, nd.sfd.h22,
                     *grid.nabla_perp_h().values()], axis=-2)
    finite = np.isfinite(gens).all(axis=(-2, -1))
    gens = np.where(finite[..., None, None], gens, 0.0)
    comps = inner(gens[..., None, :], nd.frame.vectors[..., None, :, :],
                  nd.G[..., None, None, :])
    norms = np.sqrt(_sum_last(np.square(comps)))
    use = grid.ok & finite
    gens = (gens * (norms > ZERO_FLOOR)[..., None])[use].swapaxes(0, 1)
    dims = []
    for m in (3, len(gens)):  # N1, N2
        ranks = np.full(use.shape, np.nan)
        ranks[use] = numeric_rank(list(gens[:m]), nd.G[use])
        ranks = ranks[grid.ok]
        dims.append([int(x) if np.isfinite(x) else float("nan")
                     for x in (_worst(ranks), np.min(ranks))])
    (n1, n1_lo), (n2, n2_lo) = dims
    return NormalSpaceDims(n1, n2, (n1_lo, n1), (n2_lo, n2))
