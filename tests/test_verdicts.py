import collections
import json
import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import shape, verdicts
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import (SurfaceGrid, _worst, frame_norm, normal_curvature,
                          normal_space_dims, shape_operator)
from rwsurf.verdicts import (VerificationReport, biconservativity_residual,
                             codazzi_residuals, curvature_trace_term,
                             flat_normal_bundle_check,
                             frame_identity_residuals, node_residuals,
                             pmcv_structure_check, reduced_criterion,
                             verify_surface)

from conftest import random_curvature_config
from oracles import curvature_trace_closed_form


def test_curvature_trace_oracle_equivalence():
    # direct tensor contraction against the closed form, mutually independent
    # code paths
    rng = np.random.default_rng(42)
    for _ in range(1000):
        frame, H, G, state, c = random_curvature_config(rng)
        direct = curvature_trace_term(frame, H, G, state, c)
        closed = curvature_trace_closed_form(frame, H, G, state, c)
        scale = max(1.0, np.linalg.norm(closed))
        assert np.linalg.norm(direct - closed) < 1e-9 * scale


def project_off_eta(H, frame, G):
    # twice-applied projection drives the pairing to second-order round-off
    for _ in range(2):
        H = H - (rw.inner(H, frame.eta, G)
                 / rw.inner(frame.eta, frame.eta, G)) * frame.eta
    return H


def test_curvature_trace_vanishing_pairing():
    # <H, eta> = 0 kills both routes
    rng = np.random.default_rng(1)
    for _ in range(200):
        frame, H, G, state, c = random_curvature_config(rng)
        H0 = project_off_eta(H, frame, G)
        direct = curvature_trace_term(frame, H0, G, state, c)
        closed = curvature_trace_closed_form(frame, H0, G, state, c)
        # round-off in the direct contraction scales with cosh^2(theta) |H|
        scale = max(1.0, -rw.inner(frame.eta, frame.eta, G)
                    * np.linalg.norm(H0))
        assert np.linalg.norm(closed) < 1e-11 * scale
        assert np.linalg.norm(direct) < 1e-10 * scale


def test_curvature_trace_constant_curvature_kills_term():
    # exponential warp with flat fiber: every configuration gives zero
    rng = np.random.default_rng(2)
    for _ in range(200):
        frame, H, G, _, _ = random_curvature_config(rng, theta_max=1.5)
        f = math.sqrt(G[1])
        t_state = (f, f, f)  # f = e^t jet at the matching point
        direct = curvature_trace_term(frame, H, G, t_state, 0.0)
        closed = curvature_trace_closed_form(frame, H, G, t_state, 0.0)
        assert np.linalg.norm(closed) < 1e-12
        assert np.linalg.norm(direct) < 1e-12


def test_reduced_criterion_catalog_and_synthetic(l4_grid, product_grid):
    for sg in (l4_grid, product_grid):
        for (i, j) in [(0, 0), (4, 4)]:
            pd = sg.point(i, j)
            assert reduced_criterion(pd.frame, pd.sfd.H, pd.G) < 1e-10
    # H proportional to eta has pairing |H||eta| != 0
    pd = l4_grid.point(2, 2)
    H = 0.7 * pd.frame.eta
    val = reduced_criterion(pd.frame, H, pd.G)
    assert abs(val - 0.7 * abs(rw.inner(pd.frame.eta, pd.frame.eta, pd.G))) < 1e-12
    assert val > 0.5


def test_marginally_trapped_classification(l4_grid):
    pd = l4_grid.point(3, 3)
    assert rw.causal_character(pd.sfd.H, pd.G) == "spacelike"
    G = np.array([-1.0, 1, 1, 1])
    assert rw.causal_character(np.array([1.0, 0, 0, 0]), G) == "timelike"
    assert rw.causal_character(np.array([1.0, 1.0, 0, 0]), G) == "null"


def test_codazzi_residuals_l4(l4_grid):
    r1, r2 = codazzi_residuals(l4_grid)
    assert r1 < 1e-5 and r2 < 1e-5


def test_codazzi_residuals_plane(tilted_plane_grid):
    r1, r2 = codazzi_residuals(tilted_plane_grid)
    assert r1 < 1e-13 and r2 < 1e-13


def test_codazzi_residuals_product(product_grid):
    # curved fiber: the inhomogeneous term carries c = +1
    r1, r2 = codazzi_residuals(product_grid)
    assert r1 < 1e-8 and r2 < 1e-8


def test_frame_identities_l4(l4_grid):
    res = frame_identity_residuals(l4_grid)
    assert max(res) < 1e-5


def test_frame_identities_product(product_grid):
    res = frame_identity_residuals(product_grid)
    assert max(res) < 1e-5
    # consistency with the vanishing timelike shape operator: the second
    # tangential identity reduces to 0 = (f'/f) e2 = 0
    pd = product_grid.point(4, 4)
    assert np.abs(pd.sfd.A[0]).max() < 1e-12


def test_pmcv_structure_l4(l4_grid):
    vals = pmcv_structure_check(l4_grid)
    assert max(vals.values()) < 1e-5


def test_pmcv_structure_product(product_grid):
    vals = pmcv_structure_check(product_grid)
    assert max(vals.values()) < 1e-5


def test_pmcv_structure_negative_control(boosted_sphere):
    us = np.linspace(0.2, 0.8, 5)
    sg = SurfaceGrid(boosted_sphere, us, us)
    vals = pmcv_structure_check(sg)
    assert vals["structure_A11"] > 0.5  # umbilic: (A_{e4})_11 = 1/R
    assert vals["structure_A12"] < 1e-10


def test_flat_normal_bundle_l4(l4_grid, tilted_plane_grid):
    assert flat_normal_bundle_check(l4_grid) < 1e-8
    assert flat_normal_bundle_check(tilted_plane_grid) < 1e-14


def _normal_curvature_from_normals(grid):
    # the former route: each frame normal's shape operator rebuilt from h
    nd = grid.node_data
    normals = nd.frame.normals
    return _worst([frame_norm(normal_curvature(
        nd.sfd, shape_operator(nd.sfd, normals[..., k, :], nd.G)), nd)[grid.ok]
        for k in range(normals.shape[-2])])


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_verify_reads_the_grid_shape_operators(surface_name, request,
                                               monkeypatch):
    surface = request.getfixturevalue(surface_name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = shape.shape_operator
    monkeypatch.setattr(shape, "shape_operator", counting)
    monkeypatch.setattr(verdicts, "shape_operator", counting, raising=False)
    rep = verify_surface(surface, grid=(9, 9))
    assert rep.verdict == "pass" and calls == []
    monkeypatch.undo()
    sg = rep.surface_grid
    value = flat_normal_bundle_check(sg)
    assert value == _normal_curvature_from_normals(sg)
    assert rep.entry("normal_curvature").value == value


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_each_field_is_differentiated_once_per_grid(surface_name, request,
                                                    monkeypatch):
    # every (field, chart direction) stencil runs once per verify_surface
    surface = request.getfixturevalue(surface_name)
    calls = {"chart_derivative": [], "covariant_along": []}

    def recording(name):
        original = getattr(SurfaceGrid, name)

        def wrapper(grid, extract, direction):
            calls[name].append((extract.__code__, direction))
            return original(grid, extract, direction)
        return wrapper

    for name in calls:
        monkeypatch.setattr(SurfaceGrid, name, recording(name))
    rep = verify_surface(surface, grid=(9, 9))
    assert rep.verdict == "pass"
    for name, seen in calls.items():
        assert seen, name
        repeated = [k for k, n in collections.Counter(seen).items() if n > 1]
        assert repeated == [], name


def test_biconservativity_l4(l4_grid):
    assert biconservativity_residual(l4_grid) < 1e-5


def test_biconservativity_decomposition(l4_grid):
    # with a parallel H the middle trace term is negligible, so the full
    # residual agrees with 4x the curvature trace
    worst = 0.0
    for (i, j) in [(2, 2), (6, 6)]:
        pd = l4_grid.point(i, j)
        direct = curvature_trace_term(
            pd.frame, pd.sfd.H, pd.G, pd.warp_state, l4_grid.space.c)
        worst = max(worst, 4.0 * frame_norm(direct, pd))
    assert abs(biconservativity_residual(l4_grid) - worst) < 1e-5


def test_biconservativity_graph_regression(graph_surface):
    # brute-force negative fixture: decisively non-biconservative
    rep = verify_surface(graph_surface, grid=(9, 9))
    assert rep.verdict == "fail"
    assert rep.entry("biconservativity").value > 0.01
    assert rep.entry("reduced_pairing").value > 0.1


def test_reduced_equivalence_on_catalog(l4_grid, product_grid,
                                        broken_product_surface):
    # on PMCV members: reduced pairing ~ 0 and the full residual is below
    # tolerance together
    for sg in (l4_grid, product_grid):
        reduced = max(node_residuals(sg, i, j)["reduced"] for i, j in sg.nodes())
        assert reduced < 1e-10
        assert biconservativity_residual(sg) < 1e-5
    # the broken member leaves the PMCV hypothesis: the pairing stays zero
    # while parallelism fails, so the equivalence does not apply
    us = np.linspace(0.1, 3.0, 5)
    sg = SurfaceGrid(broken_product_surface, us, us)
    reduced = max(node_residuals(sg, i, j)["reduced"] for i, j in sg.nodes())
    assert reduced < 1e-10
    from rwsurf.shape import pmcv_residual
    assert pmcv_residual(sg) > 1e-3


def test_verify_surface_l4_pass(l4_surface, l4_expect):
    rep = verify_surface(l4_surface, grid=(9, 9), expect=l4_expect)
    assert rep.verdict == "pass"
    assert rep.passed
    assert rep.diagnostics["dim_N1"] == 2
    assert rep.diagnostics["mean_curvature_character"] == ["spacelike"]


def test_verify_surface_negative_control(broken_product_surface):
    rep = verify_surface(broken_product_surface, grid=(7, 7))
    assert rep.verdict == "fail"
    assert not rep.entry("pmcv").passed
    assert rep.entry("pmcv").value > 1e-3


def test_verify_surface_degenerate_slice(minkowski4):
    surf = rw.finite_difference_jet(
        lambda u, v: np.array([0.0, u, v, 0.0]), minkowski4, (-1, 1), (-1, 1),
        name="horizontal-slice")
    rep = verify_surface(surf, grid=(5, 5))
    assert rep.verdict == "degenerate"
    assert rep.degeneracies


def test_verify_surface_deterministic(product_surface):
    a = verify_surface(product_surface, grid=(5, 5))
    b = verify_surface(product_surface, grid=(5, 5))
    assert a.to_json() == b.to_json()


def test_report_roundtrip_and_tolerance_overrides(product_surface):
    tols = {"pmcv": 1e-9}
    rep = verify_surface(product_surface, grid=(5, 5), tolerances=tols)
    assert rep.entry("pmcv").tol == 1e-9
    again = rw.VerificationReport.from_dict(json.loads(rep.to_json()))
    assert again.to_json() == rep.to_json()
    assert again.schema == "rwsurf.verification/1"


def test_tolerance_entries_name_every_report_entry(
        l4_surface, l4_expect, product_surface, product_expect,
        broken_product_surface):
    # thm4, the product member and the --force-b4 control, with the CLI's pins
    reports = [verify_surface(l4_surface, grid=(5, 5), expect=l4_expect),
               verify_surface(product_surface, grid=(5, 5),
                              expect=product_expect),
               verify_surface(broken_product_surface, grid=(5, 5))]
    tiered = [e for rep in reports for e in rep.entries
              if e.name not in ("dim_N1", "dim_N2")]
    assert {e.name for e in tiered} == set(verdicts.TOLERANCE_ENTRIES)
    assert len(set(verdicts.TOLERANCE_ENTRIES)) == len(verdicts.TOLERANCE_ENTRIES)
    assert {e.tol for e in tiered} <= set(verdicts.TIERS.values())
    for e in tiered:
        assert e.tol == verdicts.TIERS[verdicts.TOLERANCE_ENTRIES[e.name]], e.name


def test_unknown_tolerance_override_is_rejected(product_surface):
    with pytest.raises(ValueError, match="pmvc"):
        verify_surface(product_surface, grid=(5, 5),
                       tolerances={"pmcv": 1e-9, "pmvc": 1e-30})
    with pytest.raises(ValueError, match="dim_N1"):
        verify_surface(product_surface, grid=(5, 5),
                       tolerances={"dim_N1": 3})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_tolerance_override_must_be_finite_and_positive(product_surface,
                                                        value):
    # an invalid tolerance is invalid input, not a failed (or passed) entry
    with pytest.raises(ValueError, match="tolerance pmcv must be finite and "
                                         "positive"):
        verify_surface(product_surface, grid=(3, 3),
                       tolerances={"codazzi_1": 1e-3, "pmcv": value})


@pytest.mark.parametrize("grid", [(0, 5), (5, 0), (-3, 5), (5.5, 5), (5, 5.0),
                                  (True, 5), (5, False), (5,), (5, 5, 5), 5,
                                  "55", None])
def test_grid_must_be_two_integers_at_least_one(product_surface, grid):
    with pytest.raises(ValueError, match=r"grid must be two integers >= 1, "
                                         r"got "):
        verify_surface(product_surface, grid=grid)


@pytest.mark.parametrize("grid", [(1, 5), (3, 3), [5, 3],
                                  (np.int64(5), np.int32(3)), np.array([3, 5])])
def test_grid_of_integers_is_accepted(product_surface, grid):
    rep = verify_surface(product_surface, grid=grid)
    assert (rep.grid["nu"], rep.grid["nv"]) == tuple(int(n) for n in grid)
    assert all(type(rep.grid[k]) is int for k in ("nu", "nv"))
    json.loads(rep.to_json())


def _nan_beyond(surface, u0=1.5, v0=1.5):
    """``surface`` with NaN jets wherever u > u0 and v > v0."""
    def evaluator(u, v):
        jet = surface.evaluator(u, v)
        if u > u0 and v > v0:
            return tuple(np.full(np.shape(x), np.nan) for x in jet)
        return jet
    return Jet2Immersion(surface.space, evaluator, surface.u_domain,
                         surface.v_domain, surface.name)


def test_non_finite_jets_become_degeneracies(product_surface, product_expect):
    expect = product_expect
    assert verify_surface(product_surface, grid=(9, 9),
                          expect=expect).verdict == "pass"
    rep = verify_surface(_nan_beyond(product_surface), grid=(9, 9),
                         expect=expect)
    assert rep.verdict == "degenerate"
    sg = rep.surface_grid
    # a node degenerates when a point of its cross stencil has u, v > 1.5
    want = {(i, j) for i, u in enumerate(sg.us) for j, v in enumerate(sg.vs)
            if (u + 2 * sg.su[i] > 1.5 and v > 1.5)
            or (u > 1.5 and v + 2 * sg.sv[j] > 1.5)}
    assert want
    assert {(i, j) for i, j, _ in rep.degeneracies} == want
    assert all("non-finite jet" in msg for _, _, msg in rep.degeneracies)
    assert rep.diagnostics["nodes_evaluated"] == 81 - len(want)


def test_nan_residual_fails_its_entry(product_surface, monkeypatch):
    class PoisonedGrid(SurfaceGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.point(2, 2).sfd.h11[:] = np.nan

    us = np.linspace(0.1, 3.0, 5)
    assert math.isnan(flat_normal_bundle_check(PoisonedGrid(product_surface,
                                                            us, us)))
    monkeypatch.setattr(verdicts, "SurfaceGrid", PoisonedGrid)
    rep = verify_surface(product_surface, grid=(5, 5))
    entry = rep.entry("normal_curvature")
    assert math.isnan(entry.value) and not entry.passed
    assert rep.verdict == "fail"


def test_report_json_is_strict_with_nan_values(product_surface, product_expect,
                                               monkeypatch):
    class PoisonedGrid(SurfaceGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.point(2, 2).sfd.h12[:] = np.nan

    monkeypatch.setattr(verdicts, "SurfaceGrid", PoisonedGrid)
    rep = verify_surface(product_surface, grid=(5, 5), expect=product_expect)
    assert math.isnan(rep.entry("dim_N1").value)

    def no_constants(token):
        raise ValueError(f"non-standard JSON constant {token}")

    loaded = json.loads(rep.to_json(), parse_constant=no_constants)
    entries = {e["name"]: e for e in loaded["entries"]}
    assert entries["dim_N1"]["value"] is None
    assert loaded["diagnostics"]["dim_N1"] is None
    back = VerificationReport.from_dict(loaded)
    assert math.isnan(back.entry("dim_N1").value)
    assert math.isnan(back.entry("dim_N2").value)
    assert math.isnan(back.diagnostics["dim_N1"])
    assert not back.entry("dim_N1").passed and back.verdict == "fail"
    # finite values come back unchanged
    for e, f in zip(rep.entries, back.entries):
        assert e.name == f.name and e.passed == f.passed
        assert e.value == f.value or (math.isnan(e.value) and math.isnan(f.value))


def test_verify_expectation_mismatch_fails(product_surface):
    rep = verify_surface(product_surface, grid=(5, 5), expect={"dim_N1": 3})
    assert not rep.entry("dim_N1").passed
    assert rep.verdict == "fail"


def test_bad_substep_rejected_before_grid_work(product_surface, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(verdicts, "SurfaceGrid", no_grid)
    for substep in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="substep"):
            verify_surface(product_surface, grid=(5, 5), substep=substep)
    monkeypatch.undo()
    for substep in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="substep"):
            SurfaceGrid(product_surface, [1.0, 2.0], [1.0, 2.0],
                        substep=substep)


@pytest.mark.parametrize("name", ["u_span", "v_span"])
@pytest.mark.parametrize("span", [(math.nan, 0.1), (0.1, math.nan),
                                  (-math.inf, 0.1), (0.1, math.inf)],
                         ids=["nan-lo", "nan-hi", "inf-lo", "inf-hi"])
def test_non_finite_span_rejected_before_grid_work(product_surface,
                                                   monkeypatch, name, span):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(verdicts, "SurfaceGrid", no_grid)
    with pytest.raises(ValueError, match=f"^{name} ends must be finite"):
        verify_surface(product_surface, grid=(5, 5), **{name: span})


@pytest.mark.parametrize("name", ["u_span", "v_span"])
@pytest.mark.parametrize("span", [(0.1,), (0.1, 0.2, 0.3), ()],
                         ids=["one", "three", "none"])
def test_span_of_wrong_length_rejected_before_grid_work(product_surface,
                                                        monkeypatch, name,
                                                        span):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(verdicts, "SurfaceGrid", no_grid)
    with pytest.raises(ValueError,
                       match=rf"^{name} must be \(lo, hi\), got \("):
        verify_surface(product_surface, grid=(5, 5), **{name: span})


def _tube_chart(shift):
    """A tube about the time axis whose time coordinate is u + shift."""
    def chart(u, v):
        r = 0.3 * math.cosh(u)
        return (u + shift, r * math.cos(v), r * math.sin(v), 0.7 * u)
    return chart


def test_chart_time_offset_from_u_verifies_like_the_shifted_warp():
    # the same surface twice: time u + 2 under the warp 1 + t/2 + t^2/10 on
    # (1, 3), and time u under that warp shifted to (-1, 1).  The substep
    # probe reads the warp at u, outside (1, 3) for the first chart; that
    # row keeps the unshrunk substep and the grid is evaluated as usual
    reports = []
    for shift, coeffs, interval in ((2.0, [1, 0.5, 0.1], (1, 3)),
                                    (0.0, [2.4, 0.9, 0.1], (-1, 1))):
        space = rw.AmbientSpace.warped_flat(
            4, rw.WarpingFunction.polynomial(coeffs, interval))
        surface = rw.finite_difference_jet(_tube_chart(shift), space,
                                           (-0.9, 0.9), (0.0, 2 * math.pi))
        reports.append(verify_surface(surface, grid=(7, 7)))
    shifted, direct = reports
    for rep in reports:
        assert rep.degeneracies == []
        assert rep.diagnostics["nodes_evaluated"] == 49
    assert shifted.verdict == direct.verdict
    assert [e.name for e in shifted.entries] == [e.name for e in direct.entries]
    for a, b in zip(shifted.entries, direct.entries):
        assert abs(a.value - b.value) <= 0.25 * a.tol, a.name


def test_nan_generator_fails_the_dimension_entries(product_surface,
                                                   product_expect, monkeypatch):
    class PoisonedGrid(SurfaceGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.point(2, 2).sfd.h12[:] = np.nan

    us = np.linspace(0.1, 3.0, 5)
    dims = normal_space_dims(PoisonedGrid(product_surface, us, us))
    assert math.isnan(dims.n1) and math.isnan(dims.n2)
    monkeypatch.setattr(verdicts, "SurfaceGrid", PoisonedGrid)
    rep = verify_surface(product_surface, grid=(5, 5), expect=product_expect)
    assert not rep.entry("dim_N1").passed
    assert not rep.entry("dim_N2").passed
    assert rep.verdict == "fail"
