"""Theorem-level residual checks and report assembly.

Every check returns a non-negative residual (norms and absolute values only);
``verify_surface`` runs the applicable battery over a grid, pins each entry
against its tolerance tier in ``TIERS`` and aggregates an overall verdict:
'algebraic' for closed-form pointwise quantities, 'stencil' for residuals
that involve grid-stencil derivatives and 'spread' for the variation of |H|^2.

Every check is an array expression over the grid's nodes, reduced over the
non-degenerate ones (``SurfaceGrid.ok``) with the NaN-propagating
``_worst``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _exports
from .ambient import curvature_rw_values, curvature_scalars
from .errors import GeometryError, MinimalDirectionError
from .immersion import Jet2Immersion
from .linalg import _col, causal_character, inner
from .shape import (DEFAULT_SUBSTEP, SurfaceGrid, _per_grid, _worst,
                    frame_norm, normal_space_dims, pmcv_values, pmcv_residual,
                    normal_curvature)

__all__ = _exports(__name__)

SCHEMA = "rwsurf.verification/1"


TIERS = {"algebraic": 1e-8, "stencil": 1e-5, "spread": 1e-7}
# The tier of each entry that takes its tolerance from one, so the entries an
# override may name (the pins dim_N1, dim_N2 compare with an expected
# dimension).
TOLERANCE_ENTRIES = {
    **dict.fromkeys(("frame_orthonormality", "frame_reassembly", "h_tangency",
                     "reduced_pairing", "normal_curvature", "structure_eta",
                     "mean_curvature_value"), "algebraic"),
    "mean_norm_spread": "spread",
    **dict.fromkeys(("gauss_consistency", "pmcv", "biconservativity",
                     "codazzi_1", "codazzi_2", "frame_tangent_e1",
                     "frame_tangent_e2", "frame_normal_e1", "frame_normal_e2",
                     "structure_A11", "structure_A12", "structure_A22",
                     "structure_trace", "structure_offdiag", "structure_conn"),
                    "stencil"),
}


def _tolerance_overrides(overrides: dict) -> dict:
    """``overrides``; ValueError naming a name not in TOLERANCE_ENTRIES or a
    value that is not finite and positive."""
    unknown = sorted(set(overrides) - set(TOLERANCE_ENTRIES))
    if unknown:
        raise ValueError(f"no tolerance entry named {', '.join(unknown)}")
    for name, tol in overrides.items():
        if not 0.0 < float(tol) < math.inf:
            raise ValueError(f"tolerance {name} must be finite and positive, "
                             f"got {tol!r}")
    return overrides


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tol: float
    passed: bool


def _strict_json(x):
    """``x`` (dicts with string keys, lists, tuples and scalars) with every
    non-finite float replaced by None and every tuple by a list."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


@dataclass
class VerificationReport:
    """Named residuals, diagnostics and the aggregated verdict.

    Serializes to a stable JSON schema (see README): ``schema``, ``surface``,
    ``grid``, ``entries[]`` with (name, value, tol, pass), ``diagnostics``,
    ``degeneracies[]`` and ``verdict`` in {'pass', 'fail', 'degenerate'}.
    ``surface_grid`` is the filled grid the checks read (None when it could
    not be built); it is not serialized.
    """

    surface: str
    grid: dict
    entries: list
    diagnostics: dict
    degeneracies: list
    verdict: str
    schema: str = SCHEMA
    surface_grid: SurfaceGrid | None = field(default=None, repr=False,
                                             compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "surface": self.surface,
            "grid": self.grid,
            "entries": [asdict(e) for e in self.entries],
            "diagnostics": self.diagnostics,
            "degeneracies": self.degeneracies,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        # strict JSON: a non-finite number is null
        return json.dumps(_strict_json(self.to_dict()), indent=2,
                          sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# pointwise checks


def curvature_trace_term(frame, H, G, warp_state, c: float):
    """The tangential curvature trace sum_i (R(e_i, H) e_i)^T: the ambient
    curvature tensor contracted over the tangent frame and projected."""
    f, fp, fpp = warp_state
    e1, e2 = frame.e1, frame.e2
    out = np.zeros_like(H)
    for e in (e1, e2):
        R = curvature_rw_values(e, H, e, G, f, fp, fpp, c)
        out = out + _col(inner(R, e1, G)) * e1 + _col(inner(R, e2, G)) * e2
    return out


def reduced_criterion(frame, H, G) -> float:
    """|<H, eta>|; vanishing characterizes biconservativity for PMCV
    surfaces away from constant-curvature ambients."""
    return np.abs(inner(H, frame.eta, G))


# ---------------------------------------------------------------------------
# grid checks


@_per_grid
def _biconservativity_values(grid: SurfaceGrid) -> np.ndarray:
    nd = grid.node_data
    h2 = lambda p: inner(p.sfd.H, p.sfd.H, p.G)
    e = nd.frame.tangents
    d1, d2 = grid.scalar_derivative(h2)
    grad = _col(d1) * e[0] + _col(d2) * e[1]
    dH = grid.mean_curvature_derivatives()
    middle = np.zeros_like(grad)
    for idx in range(2):
        for jj in range(2):
            middle = middle + _col(inner(nd.sfd.h(idx + 1, jj + 1), dH[idx],
                                         nd.G)) * e[jj]
    curv = curvature_trace_term(nd.frame, nd.sfd.H, nd.G, nd.warp_state,
                                float(grid.space.c))
    return frame_norm(2.0 * grad + 4.0 * middle + 4.0 * curv, nd)


def biconservativity_residual(grid: SurfaceGrid) -> float:
    """max over the grid of |2 grad|H|^2 + 4 tr A_{nabla^perp H} + 4 tr(R(., H) .)^T|.

    The gradient of |H|^2 uses grid stencils; the two trace terms sum over the
    orthonormal tangent frame.  m = 2 is fixed (surfaces).
    """
    return _worst(_biconservativity_values(grid)[grid.ok])


@_per_grid
def _reduced_values(grid: SurfaceGrid) -> np.ndarray:
    nd = grid.node_data
    return reduced_criterion(nd.frame, nd.sfd.H, nd.G)


def node_residuals(grid: SurfaceGrid, i: int, j: int) -> dict:
    """Per-node residual values for table exports."""
    return {
        "pmcv": float(pmcv_values(grid)[i, j]),
        "reduced": float(_reduced_values(grid)[i, j]),
        "biconservativity": float(_biconservativity_values(grid)[i, j]),
    }


def codazzi_residuals(grid: SurfaceGrid) -> tuple[float, float]:
    """The two Codazzi identities specialised to the adapted frame.

    r1: (nabla^perp_{e1} h)(e2, e1) = (nabla^perp_{e2} h)(e1, e1).
    r2: (nabla^perp_{e1} h)(e2, e2) - (nabla^perp_{e2} h)(e1, e2)
        = sinh(theta) (-f''/f + (f'^2 + c)/f^2) eta.
    """
    nd = grid.node_data
    dh = grid.nabla_perp_h()
    v1 = dh[(1, (1, 2))] - dh[(2, (1, 1))]
    k1, k2 = curvature_scalars(*nd.warp_state, grid.space.c)
    factor = nd.frame.sinh_theta * (k2 - k1)
    v2 = dh[(1, (2, 2))] - dh[(2, (1, 2))] - _col(factor) * nd.frame.eta
    return (_worst(frame_norm(v1, nd)[grid.ok]),
            _worst(frame_norm(v2, nd)[grid.ok]))


def frame_identity_residuals(grid: SurfaceGrid) -> tuple[float, float, float, float]:
    """Residuals of the four comoving-frame identities.

    Tangential pair:
      e_i(theta) cosh(theta) e1 + sinh(theta) nabla_{e_i} e1
        - cosh(theta) A_{e3} e_i = (f'/f) * (cosh^2(theta) e1 | e2).
    Normal pair:
      e_i(theta) sinh(theta) e3 + sinh(theta) h(e1, e_i)
        + cosh(theta) nabla^perp_{e_i} e3 = (f'/f) cosh sinh e3 | 0.
    """
    nd = grid.node_data
    fr = nd.frame
    f, fp, _ = nd.warp_state
    sh, ch, e3 = _col(fr.sinh_theta), _col(fr.cosh_theta), fr.e3
    A3 = nd.sfd.A[..., 0, :, :]
    conn = grid.tangent_connection()
    e = fr.tangents
    tangent, normal = [], []
    for idx, (ei_theta, perp_e3) in enumerate(zip(
            grid.scalar_derivative(lambda p: p.frame.theta),
            grid.nabla_perp(lambda p: p.frame.e3))):
        nab_e1 = (_col(conn[..., idx, 0, 0]) * e[0]
                  + _col(conn[..., idx, 0, 1]) * e[1])
        A3ei = _col(A3[..., idx, 0]) * e[0] + _col(A3[..., idx, 1]) * e[1]
        rhs_t = _col(fp / f) * (ch * ch * e[0] if idx == 0 else e[1])
        res_t = _col(ei_theta) * ch * e[0] + sh * nab_e1 - ch * A3ei - rhs_t
        tangent.append(frame_norm(res_t, nd))

        h1i = nd.sfd.h(1, idx + 1)
        rhs_n = _col(fp / f) * ch * sh * e3 if idx == 0 else 0.0
        res_n = _col(ei_theta) * sh * e3 + sh * h1i + ch * perp_e3 - rhs_n
        normal.append(frame_norm(res_n, nd))
    return tuple(_worst(v[grid.ok]) for v in tangent + normal)


def pmcv_structure_check(grid: SurfaceGrid) -> dict:
    """Residuals of the canonical PMCV shape-operator structure.

    With e4 = H/|H| and H0 = |H|: A_{e4} = diag(0, 2 H0); every other normal
    has a traceless, diagonal shape operator; e4 is parallel in the normal
    bundle and orthogonal to eta.
    """
    nd = grid.node_data
    if not nd.frame.has_mean_direction[grid.ok].all():
        raise MinimalDirectionError(
            "pmcv structure check needs |H| > tol at every node")
    H0 = np.sqrt(np.abs(inner(nd.sfd.H, nd.sfd.H, nd.G)))
    A = nd.sfd.A
    others = [k for k in range(A.shape[-3]) if k != 1]
    e4_of = lambda p: p.frame.normals[..., 1, :]
    vals = {
        "structure_A11": np.abs(A[..., 1, 0, 0]),
        "structure_A12": np.abs(A[..., 1, 0, 1]),
        "structure_A22": np.abs(A[..., 1, 1, 1] - 2 * H0),
        "structure_trace": np.abs(A[..., others, 0, 0] + A[..., others, 1, 1]),
        "structure_offdiag": np.abs(A[..., others, 0, 1]),
        "structure_conn": np.stack([frame_norm(d, nd)
                                    for d in grid.nabla_perp(e4_of)], axis=-1),
        "structure_eta": np.abs(inner(nd.frame.normals[..., 1, :],
                                      nd.frame.eta, nd.G)),
    }
    return {name: _worst(v[grid.ok]) for name, v in vals.items()}


def flat_normal_bundle_check(grid: SurfaceGrid) -> float:
    """max over the grid and the normal frame of |R_perp(e1, e2) xi|, from
    the frame normals' shape operators the grid holds."""
    nd = grid.node_data
    A = nd.sfd.A
    return _worst([frame_norm(normal_curvature(nd.sfd, A[..., k, :, :]),
                              nd)[grid.ok]
                   for k in range(A.shape[-3])])


# ---------------------------------------------------------------------------
# aggregator


def _stats(arr) -> dict:
    return {"mean": float(arr.mean()), "min": float(arr.min()),
            "max": float(arr.max()), "var": float(arr.var())}


def verify_surface(surface: Jet2Immersion, grid=(17, 17),
                   u_span=None, v_span=None,
                   tolerances: dict | None = None,
                   expect: dict | None = None) -> VerificationReport:
    """Run the full verification battery on a surface.

    ``grid`` is (nu, nv), two integers >= 1; the span defaults to the chart
    domain minus stencil headroom, and is required where that domain is
    unbounded.  ``expect`` may pin {'H0': value, 'dim_N1': k, 'dim_N2': k},
    which adds the corresponding entries.  ``tolerances`` maps entry names
    in ``TOLERANCE_ENTRIES`` to finite positive tolerances that replace
    their tier's.  Any other grid, tolerance name or value, or a span that
    is missing there or is not two finite ends, raises ValueError naming
    it.  Deterministic for fixed inputs.  The filled grid every check read
    is the report's ``surface_grid``.
    """
    if np.shape(grid) != (2,) or not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
            for n in grid):
        raise ValueError(f"grid must be two integers >= 1, got {grid!r}")
    nu, nv = map(int, grid)
    for name, given, domain in (("u_span", u_span, surface.u_domain),
                                ("v_span", v_span, surface.v_domain)):
        if given is None and not all(map(math.isfinite, domain)):
            raise ValueError(f"{name} is required: the chart domain "
                             f"{tuple(domain)} is unbounded")
        if given is not None and len(given) != 2:
            raise ValueError(f"{name} must be (lo, hi), got {tuple(given)}")
        if given is not None and not all(map(math.isfinite, given)):
            raise ValueError(f"{name} ends must be finite, got {tuple(given)}")
    overrides = _tolerance_overrides(tolerances or {})
    expect = expect or {}

    def span(given, lo, hi):
        pad = 3.0 * DEFAULT_SUBSTEP * (1.0 + max(abs(lo), abs(hi)))
        return given if given is not None else (lo + pad, hi - pad)

    (u_lo, u_hi), (v_lo, v_hi) = (span(u_span, *surface.u_domain),
                                  span(v_span, *surface.v_domain))
    us, vs = np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)

    grid_meta = {"nu": nu, "nv": nv, "u": [float(u_lo), float(u_hi)],
                 "v": [float(v_lo), float(v_hi)], "substep": DEFAULT_SUBSTEP}

    try:
        sg = SurfaceGrid(surface, us, vs)
    except GeometryError as exc:
        return VerificationReport(surface.name, grid_meta, [], {},
                                  [[-1, -1, f"{type(exc).__name__}: {exc}"]],
                                  "degenerate")

    degeneracies = [[i, j, msg] for i, j, msg in sg.degeneracies]
    if sg.n_ok == 0:
        return VerificationReport(surface.name, grid_meta, [], {},
                                  degeneracies, "degenerate", surface_grid=sg)

    entries: list[CheckEntry] = []

    def add(name, value):
        t = float(overrides.get(name, TIERS[TOLERANCE_ENTRIES[name]]))
        entries.append(CheckEntry(name, float(value), t, bool(value < t)))

    # pointwise frame quality and scalar diagnostics, over the good nodes
    ok = sg.ok
    nd = sg.node_data
    fr, sfd, G = nd.frame, nd.sfd, nd.G
    vecs, m = fr.vectors, fr.vectors.shape[-2]
    gram = inner(vecs[..., :, None, :], vecs[..., None, :, :],
                 G[..., None, None, :])
    upper = np.triu_indices(m)
    ortho = np.abs(gram - fr.signs[..., None] * np.eye(m))
    dt = surface.space.dt_vector()
    reassembly = frame_norm(_col(fr.sinh_theta) * fr.e1
                            + _col(fr.cosh_theta) * fr.e3 - dt, nd)
    hs = np.stack([sfd.h11, sfd.h12, sfd.h22], axis=-2)
    h_tangency = np.abs(inner(hs[..., None, :], vecs[..., None, :2, :],
                              G[..., None, None, :]))
    hh = inner(sfd.H, sfd.H, G)[ok]
    characters = causal_character(sfd.H, G)[ok]
    has_mean_everywhere = bool(fr.has_mean_direction[ok].all())

    add("frame_orthonormality", _worst(ortho[..., upper[0], upper[1]][ok]))
    add("frame_reassembly", _worst(reassembly[ok]))
    add("h_tangency", _worst(h_tangency[ok]))
    add("reduced_pairing", _worst(_reduced_values(sg)[ok]))
    add("mean_norm_spread", _worst(hh) - hh.min())

    # gauss consistency: stencil-differentiated frame fields against h
    W = sg.frame_covariants()
    gauss = [frame_norm(W[ii][jj] - sg.tangential_part(W[ii][jj])
                        - sfd.h(ii + 1, jj + 1), nd)[ok]
             for ii in range(2) for jj in range(2)]
    add("gauss_consistency", _worst(gauss))

    add("pmcv", pmcv_residual(sg))
    add("biconservativity", biconservativity_residual(sg))
    for name, value in zip(("codazzi_1", "codazzi_2", "frame_tangent_e1",
                            "frame_tangent_e2", "frame_normal_e1",
                            "frame_normal_e2"),
                           codazzi_residuals(sg) + frame_identity_residuals(sg)):
        add(name, value)
    add("normal_curvature", flat_normal_bundle_check(sg))

    if has_mean_everywhere:
        for name, value in pmcv_structure_check(sg).items():
            add(name, value)

    dims = normal_space_dims(sg)
    A = sfd.A[ok]
    diagnostics = {
        "theta": _stats(fr.theta[ok]),
        "gamma_e3": _stats(A[:, 0, 0, 0]),
        "tau_e5": _stats(A[:, 2, 0, 0]) if A.shape[1] >= 3 else None,
        "H0": _stats(np.sqrt(np.abs(hh))),
        "mean_curvature_character": sorted(set(map(str, characters))),
        "dim_N1": dims.n1, "dim_N2": dims.n2,
        "dim_N1_range": list(dims.n1_range), "dim_N2_range": list(dims.n2_range),
        "has_mean_direction": has_mean_everywhere,
        "nodes_evaluated": sg.n_ok,
    }

    if "H0" in expect:
        add("mean_curvature_value",
            max(abs(diagnostics["H0"]["max"] - expect["H0"]),
                abs(diagnostics["H0"]["min"] - expect["H0"])))
    for name, dim in (("dim_N1", dims.n1), ("dim_N2", dims.n2)):
        if name in expect:
            entries.append(CheckEntry(name, float(dim), float(expect[name]),
                                      dim == expect[name]))

    all_pass = all(e.passed for e in entries)
    verdict = "pass" if all_pass and not degeneracies else (
        "degenerate" if degeneracies else "fail")
    return VerificationReport(surface.name, grid_meta, entries, diagnostics,
                              degeneracies, verdict, surface_grid=sg)
