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
from dataclasses import dataclass, field, asdict

import numpy as np

from .ambient import curvature_rw_values, curvature_scalars
from .errors import GeometryError, MinimalDirectionError
from .immersion import Jet2Immersion
from .linalg import _col, causal_character, inner
from .shape import (DEFAULT_SUBSTEP, SurfaceGrid, _check_substep, _per_grid,
                    _worst, frame_norm, normal_space_dims, pmcv_values,
                    pmcv_residual, normal_curvature)

__all__ = [
    "CheckEntry",
    "VerificationReport",
    "biconservativity_residual",
    "curvature_trace_term",
    "reduced_criterion",
    "marginally_trapped_check",
    "codazzi_residuals",
    "frame_identity_residuals",
    "pmcv_structure_check",
    "flat_normal_bundle_check",
    "verify_surface",
]

SCHEMA = "rwsurf.verification/1"


TIERS = {"algebraic": 1e-8, "stencil": 1e-5, "spread": 1e-7}
# The entries that take their tolerance from a tier, so the ones an override
# may name (the pins dim_N1, dim_N2 compare with an expected dimension).
TOLERANCE_ENTRIES = (
    "frame_orthonormality", "frame_reassembly", "h_tangency",
    "reduced_pairing", "mean_norm_spread", "gauss_consistency", "pmcv",
    "biconservativity", "codazzi_1", "codazzi_2", "frame_tangent_e1",
    "frame_tangent_e2", "frame_normal_e1", "frame_normal_e2",
    "normal_curvature", "structure_A11", "structure_A12", "structure_A22",
    "structure_trace", "structure_offdiag", "structure_conn", "structure_eta",
    "mean_curvature_value",
)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tol: float
    passed: bool


@dataclass
class VerificationReport:
    """Named residuals, diagnostics and the aggregated verdict.

    Serializes to a stable JSON schema (see README): ``schema``, ``surface``,
    ``grid``, ``entries[]`` with (name, value, tol, pass), ``diagnostics``,
    ``degeneracies[]`` and ``verdict`` in {'pass', 'fail', 'degenerate'}.
    ``surface_grid`` is the filled grid the checks read (None when it could
    not be built or the report was loaded); it is not serialized.
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

    def to_json(self, indent: int = 2) -> str:
        # strict JSON: the NaN/Infinity constants of the loose text become null
        loose = json.dumps(self.to_dict())
        return json.dumps(json.loads(loose, parse_constant=lambda _: None),
                          indent=indent, sort_keys=True, allow_nan=False)

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        nan = lambda x: math.nan if x is None else x  # null is a non-finite number
        entries = [CheckEntry(e["name"], nan(e["value"]), nan(e["tol"]),
                              e["passed"]) for e in d["entries"]]
        diagnostics = {k: nan(v) if k in ("dim_N1", "dim_N2") else v
                       for k, v in d["diagnostics"].items()}
        return VerificationReport(d["surface"], d["grid"], entries,
                                  diagnostics, d["degeneracies"],
                                  d["verdict"], d.get("schema", SCHEMA))


# ---------------------------------------------------------------------------
# pointwise checks


def curvature_trace_term(frame, H, G, warp_state, c: float):
    """Two independent evaluations of the tangential curvature trace.

    ``direct`` contracts the ambient curvature tensor over the tangent frame
    and projects; ``closed_form`` is (f''/f - (f'^2 + c)/f^2) <H, eta> T.
    Both are returned so each can serve as the other's oracle.
    """
    f, fp, fpp = warp_state
    e1, e2 = frame.e1, frame.e2
    direct = np.zeros_like(np.asarray(H, dtype=float))
    for e in (e1, e2):
        R = curvature_rw_values(e, H, e, G, f, fp, fpp, c)
        direct = (direct + _col(inner(R, e1, G)) * e1
                  + _col(inner(R, e2, G)) * e2)
    k1, k2 = curvature_scalars(f, fp, fpp, c)
    closed = _col((k1 - k2) * inner(H, frame.eta, G)) * frame.T
    return direct, closed


def reduced_criterion(frame, H, G) -> float:
    """|<H, eta>|; vanishing characterizes biconservativity for PMCV
    surfaces away from constant-curvature ambients."""
    return np.abs(inner(H, frame.eta, G))


def marginally_trapped_check(H, G, tol: float = 1e-10) -> str:
    """Causal character of the mean curvature vector ('null' flags the
    marginally trapped case)."""
    return causal_character(H, G, tol)


# ---------------------------------------------------------------------------
# grid checks


@_per_grid
def _biconservativity_values(grid: SurfaceGrid) -> np.ndarray:
    nd = grid.node_data
    h2 = lambda p: inner(p.sfd.H, p.sfd.H, p.G)
    e = nd.frame.tangents
    grad = (_col(grid.scalar_derivative(h2, 0)) * e[0]
            + _col(grid.scalar_derivative(h2, 1)) * e[1])
    dH = grid.mean_curvature_derivatives()
    middle = np.zeros_like(grad)
    for idx in range(2):
        for jj in range(2):
            middle = middle + _col(inner(nd.sfd.h(idx + 1, jj + 1), dH[idx],
                                         nd.G)) * e[jj]
    curv, _ = curvature_trace_term(nd.frame, nd.sfd.H, nd.G, nd.warp_state,
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
    theta_of = lambda p: p.frame.theta
    e3_of = lambda p: p.frame.e3
    nd = grid.node_data
    fr = nd.frame
    f, fp, _ = nd.warp_state
    sh, ch, e3 = _col(fr.sinh_theta), _col(fr.cosh_theta), fr.e3
    A3 = nd.sfd.A[..., 0, :, :]
    e = fr.tangents
    tangent, normal = [], []
    for idx in range(2):
        ei_theta = _col(grid.scalar_derivative(theta_of, idx))
        W = grid.frame_covariants()[idx][0]
        nab_e1 = (_col(inner(W, e[0], nd.G)) * e[0]
                  + _col(inner(W, e[1], nd.G)) * e[1])
        A3ei = _col(A3[..., idx, 0]) * e[0] + _col(A3[..., idx, 1]) * e[1]
        rhs_t = _col(fp / f) * (ch * ch * e[0] if idx == 0 else e[1])
        res_t = ei_theta * ch * e[0] + sh * nab_e1 - ch * A3ei - rhs_t
        tangent.append(frame_norm(res_t, nd))

        perp_e3 = grid.nabla_perp(e3_of, idx)
        h1i = nd.sfd.h(1, idx + 1)
        rhs_n = _col(fp / f) * ch * sh * e3 if idx == 0 else 0.0
        res_n = ei_theta * sh * e3 + sh * h1i + ch * perp_e3 - rhs_n
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
        "structure_conn": np.stack([frame_norm(grid.nabla_perp(e4_of, idx), nd)
                                    for idx in range(2)], axis=-1),
        "structure_eta": np.abs(inner(nd.frame.normals[..., 1, :],
                                      nd.frame.eta, nd.G)),
    }
    return {name: _worst(v[grid.ok]) for name, v in vals.items()}


def flat_normal_bundle_check(grid: SurfaceGrid) -> float:
    """max over the grid and the normal frame of |R_perp(e1, e2) xi|."""
    nd = grid.node_data
    normals = nd.frame.normals
    return _worst([frame_norm(normal_curvature(nd.sfd, normals[..., k, :],
                                               nd.G), nd)[grid.ok]
                   for k in range(normals.shape[-2])])


# ---------------------------------------------------------------------------
# aggregator


def _stats(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()), "min": float(arr.min()),
            "max": float(arr.max()), "var": float(arr.var())}


def verify_surface(surface: Jet2Immersion, grid=(17, 17),
                   u_span=None, v_span=None,
                   tolerances: dict | None = None,
                   expect: dict | None = None,
                   substep: float = DEFAULT_SUBSTEP) -> VerificationReport:
    """Run the full verification battery on a surface.

    ``grid`` is (nu, nv); the span defaults to the chart domain minus stencil
    headroom.  ``expect`` may pin {'H0': value, 'dim_N1': k, 'dim_N2': k},
    which adds the corresponding entries.  ``tolerances`` maps entry names
    to tolerances that replace their tier's; a name outside
    ``TOLERANCE_ENTRIES`` raises ValueError.  Deterministic for fixed inputs.
    The filled grid every check read is the report's ``surface_grid``.
    """
    substep = _check_substep(substep)
    overrides = tolerances or {}
    unknown = sorted(set(overrides) - set(TOLERANCE_ENTRIES))
    if unknown:
        raise ValueError(f"no tolerance entry named {', '.join(unknown)}")
    expect = expect or {}
    nu, nv = grid

    def span(given, lo, hi):
        pad = 3.0 * substep * (1.0 + max(abs(lo), abs(hi)))
        return given if given is not None else (lo + pad, hi - pad)

    (u_lo, u_hi), (v_lo, v_hi) = (span(u_span, *surface.u_domain),
                                  span(v_span, *surface.v_domain))
    us, vs = np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)

    grid_meta = {"nu": nu, "nv": nv, "u": [float(u_lo), float(u_hi)],
                 "v": [float(v_lo), float(v_hi)], "substep": float(substep)}

    try:
        sg = SurfaceGrid(surface, us, vs, substep=substep)
    except GeometryError as exc:
        return VerificationReport(surface.name, grid_meta, [], {},
                                  [[-1, -1, f"{type(exc).__name__}: {exc}"]],
                                  "degenerate")

    degeneracies = [[i, j, msg] for i, j, msg in sg.degeneracies]
    if sg.n_ok == 0:
        return VerificationReport(surface.name, grid_meta, [], {},
                                  degeneracies, "degenerate", surface_grid=sg)

    entries: list[CheckEntry] = []

    def add(name, value, tier):
        t = float(overrides.get(name, TIERS[tier]))
        entries.append(CheckEntry(name, float(value), t, bool(value < t)))

    # pointwise frame quality and scalar diagnostics, over the good nodes
    ok = sg.ok
    nd = sg.node_data
    fr, sfd, G = nd.frame, nd.sfd, nd.G
    vecs = np.concatenate([np.stack(fr.tangents, axis=-2), fr.normals], axis=-2)
    signs = np.concatenate([np.ones(fr.normal_signs.shape[:-1] + (2,)),
                            fr.normal_signs], axis=-1)
    gram = inner(vecs[..., :, None, :], vecs[..., None, :, :],
                 G[..., None, None, :, :])
    upper = np.triu_indices(vecs.shape[-2])
    ortho = np.abs(gram - signs[..., None] * np.eye(vecs.shape[-2]))
    dt = surface.space.dt_vector()
    reassembly = frame_norm(_col(fr.sinh_theta) * fr.e1
                            + _col(fr.cosh_theta) * fr.e3 - dt, nd)
    h_tangency = np.stack([np.abs(inner(hv, e, G))
                           for hv in (sfd.h11, sfd.h12, sfd.h22)
                           for e in fr.tangents], axis=-1)
    hh = inner(sfd.H, sfd.H, G)[ok]
    characters = marginally_trapped_check(sfd.H, G)[ok]
    has_mean_everywhere = bool(fr.has_mean_direction[ok].all())

    add("frame_orthonormality", _worst(ortho[..., upper[0], upper[1]][ok]),
        "algebraic")
    add("frame_reassembly", _worst(reassembly[ok]), "algebraic")
    add("h_tangency", _worst(h_tangency[ok]), "algebraic")
    add("reduced_pairing", _worst(_reduced_values(sg)[ok]), "algebraic")
    add("mean_norm_spread", _worst(hh) - hh.min(), "spread")

    # gauss consistency: stencil-differentiated frame fields against h
    W = sg.frame_covariants()
    gauss = [frame_norm(W[ii][jj] - sg.tangential_part(W[ii][jj])
                        - sfd.h(ii + 1, jj + 1), nd)[ok]
             for ii in range(2) for jj in range(2)]
    add("gauss_consistency", _worst(gauss), "stencil")

    add("pmcv", pmcv_residual(sg), "stencil")
    add("biconservativity", biconservativity_residual(sg), "stencil")
    for name, value in zip(("codazzi_1", "codazzi_2", "frame_tangent_e1",
                            "frame_tangent_e2", "frame_normal_e1",
                            "frame_normal_e2"),
                           codazzi_residuals(sg) + frame_identity_residuals(sg)):
        add(name, value, "stencil")
    add("normal_curvature", flat_normal_bundle_check(sg), "algebraic")

    if has_mean_everywhere:
        for name, value in pmcv_structure_check(sg).items():
            add(name, value, "algebraic" if name == "structure_eta" else "stencil")

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
                abs(diagnostics["H0"]["min"] - expect["H0"])), "algebraic")
    for name, dim in (("dim_N1", dims.n1), ("dim_N2", dims.n2)):
        if name in expect:
            entries.append(CheckEntry(name, float(dim), float(expect[name]),
                                      dim == expect[name]))

    all_pass = all(e.passed for e in entries)
    verdict = "pass" if all_pass and not degeneracies else (
        "degenerate" if degeneracies else "fail")
    return VerificationReport(surface.name, grid_meta, entries, diagnostics,
                              degeneracies, verdict, surface_grid=sg)
