import argparse
import collections
import dataclasses
import functools
import json
import math
import pathlib

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import cli, shape, verdicts
from rwsurf.cli import main
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import (SurfaceGrid, _worst, frame_norm, normal_curvature,
                          normal_space_dims, shape_operator)
from rwsurf.verdicts import (biconservativity_residual, codazzi_residuals,
                             curvature_trace_term, flat_normal_bundle_check,
                             frame_identity_residuals, node_residuals,
                             pmcv_structure_check, reduced_criterion,
                             verify_surface)

import pins
from conftest import (L4_MEMBER, _member, l4_draws, nan_cornered,
                      random_curvature_config)
from oracles import (curvature_trace_closed_form, isometric_image,
                     stress_divergence)


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


def test_pmcv_structure_needs_a_mean_direction(tilted_plane_grid):
    # a totally geodesic plane has H = 0, so e4 = H/|H| does not exist
    with pytest.raises(rw.MinimalDirectionError, match=r"^pmcv structure check "
                       r"needs \|H\| > tol at every node$"):
        pmcv_structure_check(tilted_plane_grid)


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


# catalog members and the negative controls (the broken product member, the
# umbilic sphere and the graph bump), each with its verdict
CHART_MEMBERS = {"l4": "pass", "l5": "pass", "product": "pass",
                 "broken_product": "fail", "boosted_sphere": "fail",
                 "graph": "fail"}


@pytest.mark.parametrize("transform", ["isometry", "v-reversed"])
@pytest.mark.parametrize("member", list(CHART_MEMBERS))
def test_a_verdict_is_a_property_of_the_surface_not_its_chart(member, transform,
                                                              request):
    # an ambient isometry (seeded: Q orthogonal, b on the warped fibers
    # only) or v reversed gives the same surface in another chart: each
    # verdict and each failing entry holds, and each entry moves by
    # round-off, far below its tol
    surface = request.getfixturevalue(
        member if member == "boosted_sphere" else f"{member}_surface")
    expect = (request.getfixturevalue(f"{member}_expect")
              if CHART_MEMBERS[member] == "pass" else None)
    if transform == "isometry":
        rng = np.random.default_rng(19)
        k = surface.space.ambient_dim - 1
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        b = None if surface.space.is_embedded else rng.standard_normal(k)
        image = isometric_image(surface, Q, b)
    else:
        image = isometric_image(surface, reverse_v=True)
    want = verify_surface(surface, grid=(17, 17), expect=expect)
    got = verify_surface(image, grid=(17, 17), expect=expect)
    assert want.verdict == got.verdict == CHART_MEMBERS[member]
    assert got.degeneracies == want.degeneracies == []
    assert [e.name for e in got.entries] == [e.name for e in want.entries]
    for g, w in zip(got.entries, want.entries):
        assert g.passed == w.passed and g.tol == w.tol
        assert abs(g.value - w.value) <= 1e-4 * w.tol, g.name


def _lift(surface, n, seed):
    """``surface`` carried into L^n_1(f, 0) by a seeded fiber isometry onto
    a random 4- or 5-dimensional totally geodesic slice."""
    rng = np.random.default_rng(seed)
    k = surface.space.ambient_dim - 1
    Q = np.linalg.qr(rng.standard_normal((n - 1, k)))[0]
    return isometric_image(surface, Q, rng.standard_normal(n - 1))


def _fiber_rank(rep) -> int:
    """Rank of the report nodes' centred fiber positions, relative 1e-9: the
    surface spans an affine slice of dimension 1 + this."""
    sg = rep.surface_grid
    P = sg.node_data.jet.phi[sg.ok][:, 1:]
    sv = np.linalg.svd(P - P.mean(axis=0), compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0]))


@pytest.mark.parametrize("member, n, dim_n2", [
    ("l4", 5, 2), ("l4", 6, 2), ("l4", 7, 2), ("l5", 6, 3), ("l5", 7, 3)])
def test_a_lifted_member_keeps_its_verdict_and_reduction_dimension(
        member, n, dim_n2, request):
    # the reduction theorem: a PMCV biconservative surface of L^n_1(f, 0)
    # lies on a totally geodesic slice of dimension 2 + dim N2, 4 or 5;
    # lifted into a larger n, a member keeps its verdict, every entry (to
    # 1e-4 of its tol), dim N2 and the slice it spans
    surface = request.getfixturevalue(f"{member}_surface")
    expect = request.getfixturevalue(f"{member}_expect")
    want = verify_surface(surface, grid=(9, 9), expect=expect)
    got = verify_surface(_lift(surface, n, n), grid=(9, 9), expect=expect)
    assert want.verdict == got.verdict == "pass"
    assert got.degeneracies == []
    assert [e.name for e in got.entries] == [e.name for e in want.entries]
    for g, w in zip(got.entries, want.entries):
        assert abs(g.value - w.value) <= 1e-4 * w.tol, g.name
    assert got.diagnostics["dim_N2"] == dim_n2
    assert 1 + _fiber_rank(got) == 2 + dim_n2


def test_a_bump_out_of_the_slice_breaks_pmcv_and_the_reduction(l5_surface,
                                                               l5_expect):
    # the thm5 member lifted into L^6_1(f, 0), then pushed along the last
    # fiber axis by eps exp(-((u - u0) / s)^2) cos v: it leaves every 5-dim
    # slice, and fails
    image = _lift(l5_surface, 6, 6)
    u0, s, eps = sum(l5_surface.u_domain) / 2, 0.1, 1e-2

    def evaluator(u, v):
        jet = image.evaluator(u, v)
        x = u - u0
        e, d = eps * np.exp(-(x / s) ** 2), -2.0 * x / s**2
        cv, sv = np.cos(v), np.sin(v)
        for k, bump in enumerate((e * cv, e * d * cv, -e * sv,
                                  e * (d * d - 2.0 / s**2) * cv, -e * d * sv,
                                  -e * cv)):
            jet[k, ..., 5] += bump
        return jet

    bumped = Jet2Immersion(image.space, evaluator, image.u_domain,
                           image.v_domain, "bumped-l5", image.batched)
    rep = verify_surface(bumped, grid=(9, 9), expect=l5_expect)
    assert rep.verdict == "fail" and rep.degeneracies == []
    assert not rep.entry("pmcv").passed and rep.entry("pmcv").value > 1.0
    assert rep.diagnostics["dim_N2"] == 4
    assert 1 + _fiber_rank(rep) == 6


def e11h4_chart(b1, b2, b3):
    """The product family's shape with a hyperbolic fiber, in
    ``L^5_1(1, -1) = E^1_1 x H^4``: phi = (-b1 u, b0, b2 cos(lam u),
    b2 sin(lam u), b3 sin(v / b3), b3 cos(v / b3)), b0^2 = 1 + b2^2 + b3^2
    and lam = sqrt(1 + b1^2) / b2, so phi_u and phi_v are unit."""
    b0 = math.sqrt(1.0 + b2 * b2 + b3 * b3)
    lam = math.sqrt(1.0 + b1 * b1) / b2
    z = np.zeros(6)

    def evaluator(u, v):
        cu, su = math.cos(lam * u), math.sin(lam * u)
        cv, sv = math.cos(v / b3), math.sin(v / b3)
        return (np.array([-b1 * u, b0, b2 * cu, b2 * su, b3 * sv, b3 * cv]),
                np.array([-b1, 0.0, -b2 * lam * su, b2 * lam * cu, 0.0, 0.0]),
                np.array([0.0, 0.0, 0.0, 0.0, cv, -sv]),
                np.array([0.0, 0.0, -b2 * lam * lam * cu,
                          -b2 * lam * lam * su, 0.0, 0.0]),
                z, np.array([0.0, 0.0, 0.0, 0.0, -sv / b3, -cv / b3]))

    return Jet2Immersion(rw.AmbientSpace(5, -1), evaluator,
                         (0.1, 3.3), (0.1, 3.0), name="e11h4")


def test_e11h4_members_are_biconservative_and_never_pmcv():
    # non-existence in E^1_1 x H^4, through the engine: every drawn member
    # is biconservative, and its mean curvature vector is far from parallel
    rng = np.random.default_rng(15)
    for _ in range(15):
        b1, b2, b3 = rng.uniform(0.2, 3.0), *rng.uniform(0.3, 2.0, 2)
        rep = verify_surface(e11h4_chart(b1, b2, b3), grid=(9, 9))
        assert rep.verdict == "fail" and rep.degeneracies == []
        pmcv, bicons = rep.entry("pmcv"), rep.entry("biconservativity")
        assert pmcv.value >= 1e4 * pmcv.tol, (b1, b2, b3)
        assert bicons.value < bicons.tol, (b1, b2, b3)


@pytest.mark.parametrize("b1", [0.5, 1.0, 2.0, 3.0])
def test_e11h4_pmcv_residual_closed_form(b1):
    # at b2 = 1 the pmcv entry reads b1 lam (3/2 + b1^2), lam = sqrt(1 + b1^2)
    lam = math.sqrt(1.0 + b1 * b1)
    rep = verify_surface(e11h4_chart(b1, 1.0, 0.5), grid=(9, 9))
    assert rep.entry("pmcv").value / (b1 * lam) == pytest.approx(
        1.5 + b1 * b1, rel=1e-8)


@pytest.mark.parametrize("grid", ["9x9", "17x17", "33x33"])
def test_a_biconservative_surface_that_is_not_pmcv(grid, tmp_path, capsys):
    """The non-CMC biconservative rotational surface of E^3 (Caddeo,
    Montaldo, Oniciuc and Piu 2014) in a boosted space-like hyperplane of
    Minkowski 4-space, ``charts/bicons_e3.py``, and its twin stretched along
    the axis by 1.02, ``charts/bicons_e3_twin.py``, through ``verify
    user-map``.  On a PMCV surface |H| is constant and nabla^perp H = 0, so
    the 2 grad|H|^2 and 4 tr A_{nabla^perp H} terms of the biconservative
    equation vanish one by one; here neither does, and only their sum
    vanishes.  The ambient is flat, so the 4 tr(R(., H) .)^T term is 0
    here; the stress-tensor test below witnesses it in curved ambients.  The
    verdict is not read: the normal frame is not g-orthonormal where
    <H, e3> != 0, which fails frame_orthonormality."""
    def entries(name):
        out = tmp_path / f"{name}.json"
        assert main([*pins.bicons_e3(name), "--grid", grid, "--out",
                     str(out)]) == 1
        capsys.readouterr()
        return {e["name"]: e["value"]
                for e in json.loads(out.read_text())["entries"]}

    control = entries("bicons_e3")
    assert control["biconservativity"] <= 1e-7
    assert control["pmcv"] >= 1e-3 and control["mean_norm_spread"] >= 1e-3
    assert entries("bicons_e3_twin")["biconservativity"] >= 1e-3


def test_the_biconservative_control_seen_by_another_observer(tmp_path, capsys):
    """``charts/bicons_e3.py`` and its twin in the hyperplane boosted by
    rapidity 0.3, 0.5, 1.2 and 2.0 instead of 0.8: the same surface seen by
    another observer.  |H|^2, H0 and the biconservative residual are
    invariants of the surface, so each agrees with the rapidity-0.8 report
    (measured to at most 1.2e-9 relative for the spread and H0, 2.7e-8 for
    the twin's residual).  ``pmcv`` is not asserted: it is taken in the
    adapted frame, which follows the observer's d/dt, and reads 0.082 to
    0.131 from rapidity 0.3 to 2.0, as ``theta``'s mean goes from 0.25 to
    1.8 and ``frame_orthonormality`` from 0.26 to 1.4."""
    boost = "math.sinh(0.8), math.cosh(0.8)"

    def values(name, rapidity):
        text = pathlib.Path(pins.chart(name)).read_text()
        assert text.count(boost) == 1
        py = tmp_path / f"{name}_{rapidity}.py"
        py.write_text(text.replace(boost, f"math.sinh({rapidity}), "
                                          f"math.cosh({rapidity})"))
        argv, out = pins.bicons_e3(name), tmp_path / f"{name}_{rapidity}.json"
        argv[argv.index("--py") + 1] = str(py)
        assert main([*argv, "--grid", "9x9", "--out", str(out)]) == 1
        capsys.readouterr()
        rep = json.loads(out.read_text())
        entries = {e["name"]: e["value"] for e in rep["entries"]}
        return {"spread": entries["mean_norm_spread"],
                "H0_min": rep["diagnostics"]["H0"]["min"],
                "H0_max": rep["diagnostics"]["H0"]["max"],
                "biconservativity": entries["biconservativity"]}

    for name in ("bicons_e3", "bicons_e3_twin"):
        seen = values(name, 0.8)
        for rapidity in (0.3, 0.5, 1.2, 2.0):
            other = values(name, rapidity)
            for key in ("spread", "H0_min", "H0_max"):
                assert other[key] == pytest.approx(seen[key], rel=1e-8), (
                    name, rapidity, key)
            if name == "bicons_e3":
                assert other["biconservativity"] <= 1e-6, rapidity
            else:
                assert other["biconservativity"] == pytest.approx(
                    seen["biconservativity"], rel=1e-6), rapidity


def _user_surface(name, space, u_span, v_span):
    """The chart file ``charts/<name>.py`` in ``space``, on finite-difference
    jets over the chart spans, as ``verify user-map`` builds it."""
    return rw.finite_difference_jet(cli._load_chart(pins.chart(name)), space,
                                    u_span, v_span, name=name)


BICONS_SPANS = ((1.5, 3.0), (0.2, 1.3))  # pins.bicons_e3's chart spans
PRODUCT_SPANS = ((0.1, 3.3), (0.1, 3.0))  # pins.SPHERE's, h4_chart's too


def _k4_twin(surface, eps=1e-3):
    """A thm4 chart with its height k w scaled to k4 (1 + eps)."""
    scale = np.array([1.0, 1.0, 1.0, 1.0 + eps])
    return dataclasses.replace(
        surface, evaluator=lambda u, v: surface.evaluator(u, v) * scale)


def _product_chart(name, c, warp=None):
    """A product chart file in L^5_1(f, c): the unit warp unless ``warp``
    (a ``--warp`` spec) names another."""
    space = rw.AmbientSpace(5, c) if warp is None else rw.AmbientSpace(
        5, c, cli._parse_warp(warp))
    return _user_surface(name, space, *PRODUCT_SPANS)


def _bicons_chart(name, warp):
    space = rw.AmbientSpace(4, 0, cli._parse_warp(warp))
    return _user_surface(name, space, *BICONS_SPANS)


STRESS_ROWS = {
    **{f"{name}-{warp}": functools.partial(_bicons_chart, name, warp)
       for name in ("bicons_e3", "bicons_e3_twin")
       for warp in ("const:1", "cosh", "poly:1,0,0.25")},
    "thm4": lambda: L4_MEMBER()[0],
    "thm4-k4-twin": lambda: _k4_twin(L4_MEMBER()[0]),
    "sphere_chart": functools.partial(_product_chart, "sphere_chart", 1),
    "h4_chart": functools.partial(_product_chart, "h4_chart", -1),
    "sphere_chart-cosh": functools.partial(_product_chart, "sphere_chart", 1,
                                           "cosh"),
    "h4_chart-cosh": functools.partial(_product_chart, "h4_chart", -1, "cosh"),
}


@pytest.mark.parametrize("row", list(STRESS_ROWS))
def test_the_biconservative_equation_is_the_divergence_of_the_stress_tensor(
        row, monkeypatch):
    """div S2 = 2 grad|H|^2 + 4 tr A_{nabla^perp H} + 4 tr(R(., H) .)^T holds
    on every surface, biconservative or not (Jiang 1987; Loubeau, Montaldo
    and Oniciuc 2008).  ``oracles.stress_divergence`` forms the left side
    from |H|^2, <h(e_a, e_b), H> and the tangent connection alone.  The
    right side E is the vector ``verdicts._biconservativity_values`` takes
    the norm of, read in the tangent frame, so a wrong coefficient there
    opens a gap: grad and middle on the bicons_e3 rows, which are not PMCV,
    and curv where tr(R(., H) .)^T is not small (0.09 to 0.65 on the warped
    bicons_e3 rows, the thm4 twin and h4_chart under cosh; 4e-16 in de
    Sitter space, sphere_chart under cosh).  At 17x17 the gap reads 4e-11
    to 7e-8, against a bound of 1e-6 max(1, max |E|)."""
    surface = STRESS_ROWS[row]()
    report_grid = verify_surface(surface, grid=(17, 17)).surface_grid
    grid = SurfaceGrid(surface, report_grid.us, report_grid.vs)  # uncached
    vectors = []
    monkeypatch.setattr(verdicts, "frame_norm", lambda V, nd: (
        vectors.append(V), frame_norm(V, nd))[1])
    verdicts._biconservativity_values(grid)
    nd = grid.node_data
    E = rw.inner(vectors[0][..., None, :], nd.frame.vectors[..., :2, :],
                 nd.G[..., None, :])[grid.ok]
    gap = np.abs(stress_divergence(grid)[grid.ok] - E).max()
    assert grid.n_ok == 17 * 17
    assert gap <= 1e-6 * max(1.0, np.abs(E).max()), (gap, np.abs(E).max())


@pytest.mark.parametrize("warp", ["cosh", "poly:1,0,0.25"])
@pytest.mark.parametrize("name, c", [("sphere_chart", 1), ("h4_chart", -1)])
def test_warped_product_space_forms_keep_every_identity(name, c, warp):
    """The product charts in L^5_1(f, +-1) under a warp that is not
    constant.  The Gauss entry compares the stencils' intrinsic curvature
    with the algebraic ``curvature_rw_values(..., c)``, and the two Codazzi
    entries hold on every surface, so each checks the embedded layout's
    warped metric and connection.  At 17x17 they read 3.4e-9 to 4.3e-9
    (Gauss and codazzi_2) and 1.2e-11 to 1.6e-11 (codazzi_1), the unit
    warp's floor."""
    rep = verify_surface(_product_chart(name, c, warp), grid=(17, 17))
    assert not rep.degeneracies
    for entry in ("gauss_consistency", "codazzi_1", "codazzi_2"):
        assert rep.entry(entry).value <= 1e-8, (entry, rep.entry(entry).value)


def test_de_sitter_space_has_no_curvature_trace():
    """L^5_1(cosh, +1) is de Sitter space, of constant curvature 1: there
    R(X, Y)Z = <Y, Z> X - <X, Z> Y, so tr(R(., H) .)^T is the tangential
    part of a multiple of H, which is normal, and the trace term of the
    biconservative equation is round-off on any surface."""
    assert rw.is_constant_curvature(rw.WarpingFunction.hyperbolic_cosine(), 1,
                                    (-4.0, 4.0))[0]
    grid = verify_surface(_product_chart("sphere_chart", 1, "cosh"),
                          grid=(17, 17)).surface_grid
    nd = grid.node_data
    curv = curvature_trace_term(nd.frame, nd.sfd.H, nd.G, nd.warp_state, 1.0)
    assert grid.n_ok == 17 * 17
    assert frame_norm(curv, nd).max() <= 1e-14
    assert frame_norm(nd.sfd.H, nd).min() >= 0.1  # while H is not small


def _product_pmcv(b1, b2, b3):
    return verify_surface(rw.product_surface_family(b1, b2, b3),
                          grid=(9, 9)).entry("pmcv").value


def _product_locus_members():
    """Three fixed (b1, b3) and three drawn, each with room for b2."""
    rng = np.random.default_rng(23)
    drawn = []
    for _ in range(3):
        b1 = rng.uniform(0.3, 3.0)
        drawn.append((b1, rng.uniform(0.1, 0.9) / math.sqrt(b1 * b1 + 2.0)))
    return [(1.0, 0.5), (3.0, 0.2), (0.5, 0.1), *drawn]


@pytest.mark.parametrize("b1, b3", _product_locus_members(),
                         ids=lambda x: f"{x:.3g}")
def test_product_pmcv_vanishes_on_the_constraint_and_nowhere_else(b1, b3):
    # along b2 = b2* (1 + eps) pmcv is a V: its two branches, each the line
    # through eps = 1e-6 and 1e-3 on its side, meet at the paper's
    # b2*^2 = 1 / (b1^2 + 2) - b3^2, found from the engine alone
    star = math.sqrt(1.0 / (b1 * b1 + 2.0) - b3 * b3)
    p = {e: _product_pmcv(b1, star * (1.0 + e), b3)
         for e in (-1e-3, -1e-6, 1e-6, 1e-3)}
    right = (p[1e-3] - p[1e-6]) / (1e-3 - 1e-6)
    left = (p[-1e-6] - p[-1e-3]) / (1e-3 - 1e-6)
    zero = (p[-1e-6] - p[1e-6] + (left + right) * 1e-6) / (right - left)
    assert right > 0.1 and left < -0.1
    assert abs(zero) <= 1e-8
    # no second zero up to b2^2 + b3^2 -> 1: pmcv stays above a quarter of
    # its branch (not a half: the ratio falls below 0.5 as b2 -> 0)
    eps_max = math.sqrt(1.0 - b3 * b3) / star - 1.0
    for e in np.linspace(-0.9, 0.9 * eps_max, 7).tolist():
        slope = right if e > 0 else -left
        assert _product_pmcv(b1, star * (1.0 + e), b3) >= slope * abs(e) / 4, e


def _thm4_member(draw):
    """The reference member, or draw ``draw`` of the thm4 sampler."""
    if draw is None:
        return L4_MEMBER()[0]
    a, H0, f0, f0p = list(l4_draws(draw + 1))[draw]
    return _member("thm4", a=a, H0=H0, f0=f0, f0p=f0p)()[0]


# the reference member and the first five draws with theta.max < 4 that pass
# at eps 0 (draws 4-6 reach theta.max 4.2-6.9; draw 2, at 3.85, fails)
@pytest.mark.parametrize("draw", [None, 0, 1, 3, 7, 8],
                         ids=lambda d: "reference" if d is None else f"draw{d}")
def test_thm4_pmcv_vanishes_on_the_constraint_and_nowhere_else(draw):
    # the chart's height is k w, w = 1 / f; along k = k4 (1 + eps) on the
    # member's warp, pmcv is a V whose two branches, each the line through
    # eps = 1e-6 and 1e-3 on its side, meet at the paper's k4 = 2 H0 /
    # (a^2 c2), found from the engine alone
    surface = _thm4_member(draw)

    def report(eps):
        scale = np.array([1.0, 1.0, 1.0, 1.0 + eps])  # the k w column
        twin = dataclasses.replace(
            surface, evaluator=lambda u, v: surface.evaluator(u, v) * scale)
        return verify_surface(twin, grid=(9, 9))

    assert report(0.0).verdict == "pass"
    p = {e: report(e).entry("pmcv").value for e in (-1e-3, -1e-6, 1e-6, 1e-3)}
    right = (p[1e-3] - p[1e-6]) / (1e-3 - 1e-6)
    left = (p[-1e-6] - p[-1e-3]) / (1e-3 - 1e-6)
    zero = (p[-1e-6] - p[1e-6] + (left + right) * 1e-6) / (right - left)
    assert right > 1.0 and left < -1.0
    assert abs(zero) <= 1e-6
    # no second zero: far from k4 pmcv stays large, or the twin leaves the
    # space-like region and no node reads pmcv
    for e in (-0.9, -0.5, -0.2, 0.2, 0.5, 0.9):
        rep = report(e)
        if any(x.name == "pmcv" for x in rep.entries):
            assert rep.entry("pmcv").value >= 0.1, e
        else:
            assert rep.verdict == "degenerate", e


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
    # every value is finite, so the JSON text loads back to the dict form
    assert json.loads(rep.to_json()) == rep.to_dict()
    assert rep.to_dict()["schema"] == "rwsurf.verification/1"
    with pytest.raises(KeyError, match="'nope'"):
        rep.entry("nope")


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


def test_non_finite_jets_become_degeneracies(product_surface, product_expect):
    expect = product_expect
    assert verify_surface(product_surface, grid=(9, 9),
                          expect=expect).verdict == "pass"
    rep = verify_surface(nan_cornered(product_surface, []), grid=(9, 9),
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
                                               monkeypatch, capsys):
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
    # the stored report prints as the report did: a null prints as nan
    printed = []
    for form in (rep.to_dict(), loaded):
        cli._print_report(form)
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "dim N1 = nan, dim N2 = nan" in printed[1]
    assert rep.verdict == "fail"


_REPORT = {"surface": "s", "grid": {"nu": 1, "nv": 1, "u": [0, 1], "v": [0, 1]},
           "entries": [{"name": "pmcv", "value": 0.0, "tol": 1e-5,
                        "passed": True}],
           "diagnostics": {}, "degeneracies": [], "verdict": "pass"}


@pytest.mark.parametrize("data, message", [
    ({}, "report field 'entries' is missing"),
    ([1, 2], "a report is a JSON object, not list"),
    (None, "a report is a JSON object, not NoneType"),
    ({**_REPORT, "entries": [{"name": "pmcv"}]},
     "report field 'value' is missing"),
    ({**_REPORT, "entries": 3}, "report field is malformed (TypeError: "),
], ids=["empty", "list", "null", "entry", "entries"])
def test_from_dict_of_json_that_is_not_a_report_raises_value_error(
        data, message, tmp_path, capsys):
    # a report read from its JSON dict form: the error names the file and
    # the field, not a bare KeyError or TypeError, and nothing is printed
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        cli._cmd_report(argparse.Namespace(path=str(path)))
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
    assert capsys.readouterr().out == ""
    path.write_text(json.dumps(_REPORT))
    assert cli._cmd_report(argparse.Namespace(path=str(path))) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")


def _three_pass_json(report) -> str:
    """The strict report text as dumps, loads (non-finite constants to null)
    and dumps again: what ``to_json`` writes in one pass."""
    loose = json.dumps(report.to_dict())
    return json.dumps(json.loads(loose, parse_constant=lambda _: None),
                      indent=2, sort_keys=True, allow_nan=False)


def test_report_json_is_one_pass_of_the_three_pass_form(product_surface,
                                                        product_expect):
    rep = verify_surface(product_surface, grid=(5, 5), expect=product_expect)
    assert rep.to_json() == _three_pass_json(rep)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(np.nan),
                np.float64(-np.inf), np.float64(0.1)]
    entries = [rw.CheckEntry(f"x{k}", x, specials[-1 - k], False)
               for k, x in enumerate(specials)]
    diagnostics = dict(rep.diagnostics, theta={"max": math.inf, "min": -math.inf,
                                               "mean": math.nan, "var": 0.5},
                       dim_N1=math.nan, nested=[(math.nan, 1, "s", None, True)],
                       dim_N2_range=(math.inf, 3))
    poisoned = dataclasses.replace(rep, entries=entries, diagnostics=diagnostics)
    text = poisoned.to_json()
    assert text == _three_pass_json(poisoned)
    loaded = json.loads(text)
    assert [e["value"] for e in loaded["entries"]] == [
        None, None, None, -0.0, 5e-324, None, None, 0.1]
    assert loaded["diagnostics"]["nested"] == [[None, 1, "s", None, True]]


def test_verify_expectation_mismatch_fails(product_surface):
    rep = verify_surface(product_surface, grid=(5, 5), expect={"dim_N1": 3})
    assert not rep.entry("dim_N1").passed
    assert rep.verdict == "fail"


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


@pytest.mark.parametrize("name", ["u_span", "v_span"])
def test_span_whose_ends_cross_rejected_before_grid_work(product_surface,
                                                         monkeypatch, name):
    # a given span must have lo < hi, and so must a default one: the chart
    # domain less a stencil pad of 3 substeps (1 + max|end|) at each end
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    def message(span, domain):
        pad = 3 * shape.DEFAULT_SUBSTEP * (1 + max(map(abs, domain)))
        return (f"{name} must have lo < hi, got {span}: the chart domain is "
                f"{domain}, less the stencil pad {pad:.6g} at each end by "
                "default")

    domain = name[0] + "_domain"
    monkeypatch.setattr(verdicts, "SurfaceGrid", no_grid)
    for span in ((0.5, 0.2), (0.3, 0.3)):
        with pytest.raises(ValueError) as exc:
            verify_surface(product_surface, grid=(5, 5), **{name: span})
        assert str(exc.value) == message(span, getattr(product_surface, domain))
    for width in (0.012, 0.01):  # at most twice the pad of about 0.006
        pad = 3 * shape.DEFAULT_SUBSTEP * (1 + width)
        surface = dataclasses.replace(product_surface, **{domain: (0.0, width)})
        with pytest.raises(ValueError) as exc:
            verify_surface(surface, grid=(5, 5))
        assert str(exc.value) == message((0.0 + pad, width - pad), (0.0, width))
    monkeypatch.undo()
    pad = 3 * shape.DEFAULT_SUBSTEP * 1.02
    surface = dataclasses.replace(product_surface, **{domain: (0.0, 0.02)})
    rep = verify_surface(surface, grid=(3, 3))  # the pads leave room
    assert rep.grid[name[0]] == [0.0 + pad, 0.02 - pad]


def _tube_chart(shift):
    """A tube about the time axis whose time coordinate is u + shift."""
    def chart(u, v):
        r = 0.3 * math.cosh(u)
        return (u + shift, r * math.cos(v), r * math.sin(v), 0.7 * u)
    return chart


def test_chart_time_offset_from_u_verifies_like_the_shifted_warp():
    # the same surface twice: time u + 2 under the warp 1 + t/2 + t^2/10 on
    # (1, 3), and time u under that warp shifted to (-1, 1).  The substep
    # probe reads the warp state of each row's nodes, at their time, so
    # both grids are evaluated alike
    reports = []
    for shift, coeffs, interval in ((2.0, [1, 0.5, 0.1], (1, 3)),
                                    (0.0, [2.4, 0.9, 0.1], (-1, 1))):
        space = rw.AmbientSpace(
            4, 0, rw.WarpingFunction.polynomial(coeffs, interval))
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


@pytest.mark.parametrize("name", ["u_span", "v_span"])
def test_unbounded_domain_without_a_span_rejected_before_grid_work(
        product_surface, monkeypatch, name):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    domain = name[0] + "_domain"
    lo = getattr(product_surface, domain)[0]
    surface = dataclasses.replace(product_surface, **{domain: (lo, math.inf)})
    monkeypatch.setattr(verdicts, "SurfaceGrid", no_grid)
    with pytest.raises(ValueError, match=rf"^{name} is required: the chart "
                                         rf"domain \({lo}, inf\) is unbounded"):
        verify_surface(surface, grid=(3, 3))
    monkeypatch.undo()
    span = (lo + 0.2, lo + 1.0)
    rep = verify_surface(surface, grid=(3, 3), **{name: span})
    assert rep.grid[name[0]] == list(span)
    assert rep.diagnostics["nodes_evaluated"] == 9
