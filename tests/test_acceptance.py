"""Acceptance battery: one test per criterion, each pinned at its stated
tolerance, printing a PASS/FAIL line (run with -s or -v to see them).

Use `pytest tests/test_acceptance.py -v` as the acceptance gate.
"""

import math
import time

import numpy as np

import rwsurf as rw
from rwsurf.catalog import nonexistence_scan_e11h4, nonexistence_slice_scan
from rwsurf.immersion import finite_difference_jet
from rwsurf.shape import SurfaceGrid, pmcv_residual
from rwsurf.verdicts import curvature_trace_term, verify_surface

from conftest import L5_CONSTANTS, random_curvature_config
from oracles import curvature_trace_closed_form, fixed_step_dense


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_curvature_trace_cross_oracle():
    rng = np.random.default_rng(20240817)
    gaps = []
    t0 = time.time()
    for _ in range(10_000):
        frame, H, G, state, c = random_curvature_config(rng)
        direct = curvature_trace_term(frame, H, G, state, c)
        closed = curvature_trace_closed_form(frame, H, G, state, c)
        gaps.append(np.linalg.norm(direct - closed))
    worst = float(np.max(gaps))  # NaN kept, as in every reduction below
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, "curvature-trace cross-oracle",
            ok, f"max |direct - closed| = {worst:.3e} over 10^4 random "
                f"configurations in {elapsed:.1f}s")


def test_criterion_2_rotational_family_end_to_end(l4_constants, l4_solution,
                                                  l4_surface):
    f, fp, fpp = l4_solution.warp(0.0)
    assert abs(fpp - 17.0 / 3.0) < 1e-12  # substitution check at the ICs
    tols = {
        "reduced_pairing": 1e-6, "pmcv": 1e-5, "mean_curvature_value": 1e-6,
        "biconservativity": 1e-5, "normal_curvature": 1e-6,
        "codazzi_1": 1e-5, "codazzi_2": 1e-5,
        "frame_tangent_e1": 1e-5, "frame_tangent_e2": 1e-5,
        "frame_normal_e1": 1e-5, "frame_normal_e2": 1e-5,
        "structure_A11": 1e-5, "structure_A12": 1e-5, "structure_A22": 1e-5,
        "structure_trace": 1e-5, "structure_offdiag": 1e-5,
        "structure_conn": 1e-5, "structure_eta": 1e-5,
    }
    rep = verify_surface(l4_surface, grid=(17, 17), tolerances=tols,
                         expect={"H0": 0.5, "dim_N1": 2})
    worst = max(e.value for e in rep.entries
                if e.name not in ("dim_N1", "dim_N2"))
    ok = rep.passed and rep.diagnostics["dim_N1"] == 2
    _report(2, "rotational family end-to-end (17x17)",
            ok, f"verdict={rep.verdict}, dim N1={rep.diagnostics['dim_N1']}, "
                f"worst residual {worst:.3e}")


def test_criterion_3_product_family_closed_form(product_constants,
                                                product_surface):
    rep = verify_surface(product_surface, grid=(17, 17),
                         tolerances={"pmcv": 1e-8, "reduced_pairing": 1e-10,
                                     "mean_curvature_value": 1e-10},
                         expect={"H0": 0.5, "dim_N1": 2, "dim_N2": 3})
    d = rep.diagnostics
    gamma_max = max(abs(d["gamma_e3"]["min"]), abs(d["gamma_e3"]["max"]))
    conditions = [
        rep.passed,
        abs(d["H0"]["max"] - 0.5) < 1e-10 and abs(d["H0"]["min"] - 0.5) < 1e-10,
        rep.entry("pmcv").value < 1e-8,
        rep.entry("reduced_pairing").value < 1e-10,
        gamma_max < 1e-9,
        d["theta"]["var"] < 1e-12,
        d["dim_N1"] == 2 and d["dim_N2"] == 3,
    ]
    # negative control: breaking the closure constraint must break
    # parallelism decisively
    broken = rw.product_surface_family(1.0, 0.4, 0.5)
    sg = SurfaceGrid(broken, np.linspace(0.1, 3.0, 7),
                     np.linspace(0.1, 3.0, 7))
    broken_pmcv = pmcv_residual(sg)
    conditions.append(broken_pmcv > 1e-3)
    ok = all(conditions)
    _report(3, "product family closed form",
            ok, f"|H|-0.5 in [{d['H0']['min'] - 0.5:.1e}, "
                f"{d['H0']['max'] - 0.5:.1e}], pmcv={rep.entry('pmcv').value:.2e}, "
                f"<H,eta>={rep.entry('reduced_pairing').value:.2e}, "
                f"gamma={gamma_max:.2e}, theta var={d['theta']['var']:.2e}, "
                f"dims=({d['dim_N1']},{d['dim_N2']}), "
                f"broken-control pmcv={broken_pmcv:.2e}")


def test_criterion_4_coupled_family_end_to_end(l5_constants, l5_solution,
                                               l5_surface):
    # both family equations at 300 uniform times, NaN kept by np.max
    eq_res = float(np.max(np.abs([
        rw.system_equation_residuals(l5_solution.constants, fv, fp, fpp, yp, ypp)
        for fv, fp, fpp, _, yp, ypp in map(l5_solution.state, np.linspace(
            *l5_solution.warp.interval, 300).tolist())])))
    rep = verify_surface(l5_surface, grid=(17, 17),
                         expect={"H0": abs(l5_constants.H0), "dim_N1": 2})
    worst = max(e.value for e in rep.entries
                if e.name not in ("dim_N1", "dim_N2"))
    ok = eq_res < 1e-6 and rep.passed
    _report(4, "coupled (f, y) family end-to-end",
            ok, f"max equation residual {eq_res:.3e} on "
                f"[{l5_solution.warp.interval[0]}, {l5_solution.warp.interval[1]}], "
                f"verdict={rep.verdict}, worst residual {worst:.3e}")


def test_criterion_5_nonexistence_scans():
    res = nonexistence_scan_e11h4(np.linspace(0.1, 3.0, 301),
                                  np.linspace(0.0, 5.0, 501))
    slice_res = nonexistence_slice_scan(1, np.linspace(0.1, 3.0, 301))
    slice_neg = nonexistence_slice_scan(-1, np.linspace(0.1, 3.0, 301))
    ok = (res.bound_holds and res.min_abs >= math.tanh(0.1)
          and slice_res.bound_holds and slice_res.min_abs > 0.0
          and slice_neg.bound_holds)
    _report(5, "non-existence scans",
            ok, f"min |r| = {res.min_abs:.6f} >= tanh(0.1) = "
                f"{math.tanh(0.1):.6f} on 301x501 nodes; slice min "
                f"{slice_res.min_abs:.6f} > 0")


def test_criterion_6_constant_curvature_shortcut():
    warp = rw.WarpingFunction.exponential()
    flag, dev = rw.is_constant_curvature(warp, 0.0, (-2.0, 2.0))
    rng = np.random.default_rng(77)
    terms = []
    for _ in range(2000):
        frame, H, G, _, _ = random_curvature_config(rng, theta_max=1.5)
        f = math.sqrt(G[1])
        direct = curvature_trace_term(frame, H, G, (f, f, f), 0.0)
        closed = curvature_trace_closed_form(frame, H, G, (f, f, f), 0.0)
        terms += [np.linalg.norm(direct), np.linalg.norm(closed)]
    worst = float(np.max(terms))
    ok = flag and worst < 1e-12
    _report(6, "constant-curvature shortcut",
            ok, f"constant-curvature deviation {dev:.2e}; max curvature term "
                f"{worst:.2e} over 2000 parallel-mean-curvature fixtures")


def test_criterion_7_numerical_hygiene(l4_surface, l5_surface,
                                       product_surface, l5_constants):
    # (a) finite-difference jets against analytic jets, relative 1e-7
    fd_rel = []
    for surf, pts in ((l4_surface, [(0.03, 0.5), (0.05, 1.9)]),
                      (l5_surface, [(0.2, 0.5), (0.5, 2.0)]),
                      (product_surface, [(0.5, 0.7), (2.2, 2.4)])):
        fd = finite_difference_jet(lambda u, v: surf.jet(u, v).phi,
                                   surf.space, surf.u_domain, surf.v_domain)
        for (u, v) in pts:
            a, b = surf.jet(u, v), fd.jet(u, v)
            for name in ("phi", "phi_u", "phi_v", "phi_uu", "phi_uv", "phi_vv"):
                ref, got = getattr(a, name), getattr(b, name)
                fd_rel.append(np.linalg.norm(got - ref)
                              / (1.0 + np.linalg.norm(ref)))
    fd_worst = float(np.max(fd_rel))

    # (b) integrator order: fixed-step error ratio in [24, 40], the
    # package's generated step at h and h/2
    errs = []
    for h in (0.2, 0.1):
        dense = fixed_step_dense(lambda t, y: y, [1.0], (0.0, 1.0), h)
        errs.append(abs(dense(1.0)[0] - math.e))
    ratio = errs[0] / errs[1]

    # (c) closed-form identities at round-off: fiber norm and plane constraint
    identities = []
    for (u, v) in [(0.3, 0.4), (1.7, 2.8)]:
        fiber = product_surface.jet(u, v).phi[1:]
        identities.append(abs(float(fiber @ fiber) - 1.0))
    a_, H0_, c2_, c3_ = L5_CONSTANTS
    for (u, v) in [(0.1, 0.5), (0.6, 2.0)]:
        phi = l5_surface.jet(u, v).phi
        x = math.hypot(phi[1], phi[2])
        identities.append(abs(c2_ * phi[3] + c3_ * phi[4] - 2 * H0_ * x / a_))
    id_worst = float(np.max(identities))

    ok = fd_worst < 1e-7 and 24.0 <= ratio <= 40.0 and id_worst < 1e-12
    _report(7, "numerical hygiene",
            ok, f"FD-vs-analytic worst rel {fd_worst:.2e}; order ratio "
                f"{ratio:.1f}; closed-form identity worst {id_worst:.2e}")
