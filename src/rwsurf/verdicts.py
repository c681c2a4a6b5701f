"""Theorem-level residual checks and report assembly.

Every check returns a non-negative residual (norms and absolute values only);
``verify_surface`` runs the applicable battery over a grid, pins each entry
against its tolerance tier and aggregates an overall verdict.  Two tiers are
used: 'algebraic' for closed-form pointwise quantities and 'stencil' for
residuals that involve grid-stencil derivatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .ambient import curvature_rw_values, curvature_scalars
from .errors import GeometryError, MinimalDirectionError
from .immersion import Jet2Immersion
from .linalg import causal_character, inner
from .shape import (DEFAULT_SUBSTEP, SurfaceGrid, _per_node, _worst,
                    frame_norm, normal_space_dims, pmcv_at, pmcv_residual,
                    normal_curvature)

__all__ = [
    "ToleranceConfig",
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


@dataclass
class ToleranceConfig:
    """Two-tier tolerances with optional per-entry overrides."""

    algebraic: float = 1e-8
    stencil: float = 1e-5
    spread: float = 1e-7
    overrides: dict = field(default_factory=dict)

    def tol(self, name: str, tier: str) -> float:
        if name in self.overrides:
            return float(self.overrides[name])
        return {"algebraic": self.algebraic, "stencil": self.stencil,
                "spread": self.spread}[tier]


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
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        entries = [CheckEntry(e["name"], e["value"], e["tol"], e["passed"])
                   for e in d["entries"]]
        return VerificationReport(d["surface"], d["grid"], entries,
                                  d["diagnostics"], d["degeneracies"],
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
        direct = direct + inner(R, e1, G) * e1 + inner(R, e2, G) * e2
    k1, k2 = curvature_scalars(f, fp, fpp, c)
    closed = (k1 - k2) * inner(H, frame.eta, G) * frame.T
    return direct, closed


def reduced_criterion(frame, H, G) -> float:
    """|<H, eta>|; vanishing characterizes biconservativity for PMCV
    surfaces away from constant-curvature ambients."""
    return abs(inner(H, frame.eta, G))


def marginally_trapped_check(H, G, tol: float = 1e-10) -> str:
    """Causal character of the mean curvature vector ('null' flags the
    marginally trapped case)."""
    return causal_character(H, G, tol)


# ---------------------------------------------------------------------------
# grid checks


@_per_node
def _biconservativity_at(grid: SurfaceGrid, i: int, j: int) -> float:
    pd = grid.point(i, j)
    h2 = lambda p: inner(p.sfd.H, p.sfd.H, p.G)
    e = (pd.frame.e1, pd.frame.e2)
    grad = (grid.scalar_derivative(i, j, h2, 0) * e[0]
            + grid.scalar_derivative(i, j, h2, 1) * e[1])
    dH = grid.mean_curvature_derivatives(i, j)
    middle = np.zeros_like(grad)
    for idx in range(2):
        xi = dH[idx]
        for jj in range(2):
            middle = middle + inner(pd.sfd.h(idx + 1, jj + 1), xi, pd.G) * e[jj]
    curv, _ = curvature_trace_term(pd.frame, pd.sfd.H, pd.G, pd.warp_state,
                                   float(grid.space.c))
    return frame_norm(2.0 * grad + 4.0 * middle + 4.0 * curv, pd)


def biconservativity_residual(grid: SurfaceGrid) -> float:
    """max over the grid of |2 grad|H|^2 + 4 tr A_{nabla^perp H} + 4 tr(R(., H) .)^T|.

    The gradient of |H|^2 uses grid stencils; the two trace terms sum over the
    orthonormal tangent frame.  m = 2 is fixed (surfaces).
    """
    return _worst(_biconservativity_at(grid, i, j) for i, j in grid.nodes())


def node_residuals(grid: SurfaceGrid, i: int, j: int) -> dict:
    """Per-node residual values for table exports."""
    pd = grid.point(i, j)
    return {
        "pmcv": pmcv_at(grid, i, j),
        "reduced": reduced_criterion(pd.frame, pd.sfd.H, pd.G),
        "biconservativity": _biconservativity_at(grid, i, j),
    }


def codazzi_residuals(grid: SurfaceGrid) -> tuple[float, float]:
    """The two Codazzi identities specialised to the adapted frame.

    r1: (nabla^perp_{e1} h)(e2, e1) = (nabla^perp_{e2} h)(e1, e1).
    r2: (nabla^perp_{e1} h)(e2, e2) - (nabla^perp_{e2} h)(e1, e2)
        = sinh(theta) (-f''/f + (f'^2 + c)/f^2) eta.
    """
    r1, r2 = [], []
    for i, j in grid.nodes():
        pd = grid.point(i, j)
        dh = grid.nabla_perp_h(i, j)
        v1 = dh[(1, (1, 2))] - dh[(2, (1, 1))]
        k1, k2 = curvature_scalars(*pd.warp_state, grid.space.c)
        factor = pd.frame.sinh_theta * (k2 - k1)
        v2 = dh[(1, (2, 2))] - dh[(2, (1, 2))] - factor * pd.frame.eta
        r1.append(frame_norm(v1, pd))
        r2.append(frame_norm(v2, pd))
    return _worst(r1), _worst(r2)


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
    e3_of = lambda p: p.frame.normals[0]
    out = ([], [], [], [])
    for i, j in grid.nodes():
        pd = grid.point(i, j)
        fr = pd.frame
        f, fp, _ = pd.warp_state
        sh, ch = fr.sinh_theta, fr.cosh_theta
        A3 = pd.sfd.A[0]
        e = (fr.e1, fr.e2)
        for idx in range(2):
            ei_theta = grid.scalar_derivative(i, j, theta_of, idx)
            W = grid.frame_covariants(i, j)[idx][0]
            nab_e1 = inner(W, e[0], pd.G) * e[0] + inner(W, e[1], pd.G) * e[1]
            A3ei = A3[idx, 0] * e[0] + A3[idx, 1] * e[1]
            rhs_t = (fp / f) * (ch * ch * e[0] if idx == 0 else e[1])
            res_t = ei_theta * ch * e[0] + sh * nab_e1 - ch * A3ei - rhs_t
            out[idx].append(frame_norm(res_t, pd))

            perp_e3 = grid.nabla_perp(i, j, e3_of, idx)
            h1i = pd.sfd.h(1, idx + 1)
            rhs_n = (fp / f) * ch * sh * fr.normals[0] if idx == 0 else 0.0
            res_n = ei_theta * sh * fr.normals[0] + sh * h1i + ch * perp_e3 - rhs_n
            out[2 + idx].append(frame_norm(res_n, pd))
    return tuple(_worst(v) for v in out)


def pmcv_structure_check(grid: SurfaceGrid) -> dict:
    """Residuals of the canonical PMCV shape-operator structure.

    With e4 = H/|H| and H0 = |H|: A_{e4} = diag(0, 2 H0); every other normal
    has a traceless, diagonal shape operator; e4 is parallel in the normal
    bundle and orthogonal to eta.
    """
    vals = {name: [] for name in (
        "structure_A11", "structure_A12", "structure_A22", "structure_trace",
        "structure_offdiag", "structure_conn", "structure_eta")}
    e4_of = lambda p: p.frame.normals[1]
    for i, j in grid.nodes():
        pd = grid.point(i, j)
        if not pd.frame.has_mean_direction:
            raise MinimalDirectionError(
                "pmcv structure check needs |H| > tol at every node")
        H0 = np.sqrt(abs(inner(pd.sfd.H, pd.sfd.H, pd.G)))
        A4 = pd.sfd.A[1]
        vals["structure_A11"].append(abs(A4[0, 0]))
        vals["structure_A12"].append(abs(A4[0, 1]))
        vals["structure_A22"].append(abs(A4[1, 1] - 2 * H0))
        for k in range(len(pd.frame.normals)):
            if k == 1:
                continue
            Ak = pd.sfd.A[k]
            vals["structure_trace"].append(abs(Ak[0, 0] + Ak[1, 1]))
            vals["structure_offdiag"].append(abs(Ak[0, 1]))
        for idx in range(2):
            vals["structure_conn"].append(
                frame_norm(grid.nabla_perp(i, j, e4_of, idx), pd))
        vals["structure_eta"].append(
            abs(inner(pd.frame.normals[1], pd.frame.eta, pd.G)))
    return {name: _worst(v) for name, v in vals.items()}


def flat_normal_bundle_check(grid: SurfaceGrid) -> float:
    """max over the grid and the normal frame of |R_perp(e1, e2) xi|."""
    points = (grid.point(i, j) for i, j in grid.nodes())
    return _worst(frame_norm(normal_curvature(pd.sfd, xi, pd.G), pd)
                  for pd in points for xi in pd.frame.normals)


# ---------------------------------------------------------------------------
# aggregator


def _stats(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()), "min": float(arr.min()),
            "max": float(arr.max()), "var": float(arr.var())}


def verify_surface(surface: Jet2Immersion, grid=(17, 17),
                   u_span=None, v_span=None,
                   tolerances: ToleranceConfig | None = None,
                   expect: dict | None = None,
                   substep: float = DEFAULT_SUBSTEP) -> VerificationReport:
    """Run the full verification battery on a surface.

    ``grid`` is (nu, nv); the span defaults to the chart domain minus stencil
    headroom.  ``expect`` may pin {'H0': value, 'dim_N1': k, 'dim_N2': k},
    which adds the corresponding entries.  Deterministic for fixed inputs.
    The filled grid every check read is the report's ``surface_grid``.
    """
    tol = tolerances or ToleranceConfig()
    expect = expect or {}
    nu, nv = grid
    u_lo, u_hi = u_span if u_span is not None else surface.u_domain
    v_lo, v_hi = v_span if v_span is not None else surface.v_domain
    if u_span is None:
        pad_u = 3.0 * substep * (1.0 + max(abs(u_lo), abs(u_hi)))
        u_lo, u_hi = u_lo + pad_u, u_hi - pad_u
    if v_span is None:
        pad_v = 3.0 * substep * (1.0 + max(abs(v_lo), abs(v_hi)))
        v_lo, v_hi = v_lo + pad_v, v_hi - pad_v
    us = np.linspace(u_lo, u_hi, nu)
    vs = np.linspace(v_lo, v_hi, nv)

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
        t = tol.tol(name, tier)
        entries.append(CheckEntry(name, float(value), t, bool(value < t)))

    # pointwise frame quality and scalar diagnostics
    ortho, reassembly, h_tangency, reduced = [], [], [], []
    thetas, gammas, taus, h0s, hh = [], [], [], [], []
    characters = set()
    has_mean_everywhere = True
    for i, j in sg.nodes():
        pd = sg.point(i, j)
        fr = pd.frame
        vecs = [fr.e1, fr.e2] + list(fr.normals)
        signs = [1, 1] + list(fr.normal_signs)
        for aa in range(len(vecs)):
            for bb in range(aa, len(vecs)):
                want = signs[aa] if aa == bb else 0.0
                ortho.append(abs(inner(vecs[aa], vecs[bb], pd.G) - want))
        dt = surface.space.dt_vector()
        reassembly.append(frame_norm(
            fr.sinh_theta * fr.e1 + fr.cosh_theta * fr.normals[0] - dt, pd))
        for hv in (pd.sfd.h11, pd.sfd.h12, pd.sfd.h22):
            h_tangency += [abs(inner(hv, fr.e1, pd.G)), abs(inner(hv, fr.e2, pd.G))]
        reduced.append(reduced_criterion(fr, pd.sfd.H, pd.G))
        thetas.append(fr.theta)
        gammas.append(pd.sfd.A[0][0, 0])
        if len(fr.normals) >= 3:
            taus.append(pd.sfd.A[2][0, 0])
        hn2 = inner(pd.sfd.H, pd.sfd.H, pd.G)
        hh.append(hn2)
        h0s.append(float(np.sqrt(abs(hn2))))
        characters.add(marginally_trapped_check(pd.sfd.H, pd.G))
        has_mean_everywhere = has_mean_everywhere and fr.has_mean_direction

    add("frame_orthonormality", _worst(ortho), "algebraic")
    add("frame_reassembly", _worst(reassembly), "algebraic")
    add("h_tangency", _worst(h_tangency), "algebraic")
    add("reduced_pairing", _worst(reduced), "algebraic")
    add("mean_norm_spread", _worst(hh) - min(hh), "spread")

    # gauss consistency: stencil-differentiated frame fields against h
    gauss = []
    for i, j in sg.nodes():
        pd = sg.point(i, j)
        W = sg.frame_covariants(i, j)
        for ii in range(2):
            for jj in range(2):
                res = (W[ii][jj] - sg.tangential_part(i, j, W[ii][jj])
                       - pd.sfd.h(ii + 1, jj + 1))
                gauss.append(frame_norm(res, pd))
    add("gauss_consistency", _worst(gauss), "stencil")

    add("pmcv", pmcv_residual(sg), "stencil")
    add("biconservativity", biconservativity_residual(sg), "stencil")
    r1, r2 = codazzi_residuals(sg)
    add("codazzi_1", r1, "stencil")
    add("codazzi_2", r2, "stencil")
    t1, t2, n1, n2 = frame_identity_residuals(sg)
    add("frame_tangent_e1", t1, "stencil")
    add("frame_tangent_e2", t2, "stencil")
    add("frame_normal_e1", n1, "stencil")
    add("frame_normal_e2", n2, "stencil")
    add("normal_curvature", flat_normal_bundle_check(sg), "algebraic")

    if has_mean_everywhere:
        svals = pmcv_structure_check(sg)
        for name in ("structure_A11", "structure_A12", "structure_A22",
                     "structure_trace", "structure_offdiag"):
            add(name, svals[name], "stencil")
        add("structure_conn", svals["structure_conn"], "stencil")
        add("structure_eta", svals["structure_eta"], "algebraic")

    dims = normal_space_dims(sg)
    diagnostics = {
        "theta": _stats(thetas),
        "gamma_e3": _stats(gammas),
        "tau_e5": _stats(taus) if taus else None,
        "H0": _stats(h0s),
        "mean_curvature_character": sorted(characters),
        "dim_N1": dims.n1, "dim_N2": dims.n2,
        "dim_N1_range": list(dims.n1_range), "dim_N2_range": list(dims.n2_range),
        "has_mean_direction": has_mean_everywhere,
        "nodes_evaluated": sg.n_ok,
    }

    if "H0" in expect:
        add("mean_curvature_value",
            max(abs(diagnostics["H0"]["max"] - expect["H0"]),
                abs(diagnostics["H0"]["min"] - expect["H0"])), "algebraic")
    if "dim_N1" in expect:
        entries.append(CheckEntry("dim_N1", float(dims.n1), float(expect["dim_N1"]),
                                  dims.n1 == expect["dim_N1"]))
    if "dim_N2" in expect:
        entries.append(CheckEntry("dim_N2", float(dims.n2), float(expect["dim_N2"]),
                                  dims.n2 == expect["dim_N2"]))

    all_pass = all(e.passed for e in entries)
    verdict = "pass" if all_pass and not degeneracies else (
        "degenerate" if degeneracies else "fail")
    return VerificationReport(surface.name, grid_meta, entries, diagnostics,
                              degeneracies, verdict, surface_grid=sg)
