import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import immersion, shape
from rwsurf.immersion import chart_second_fundamental
from rwsurf.shape import (SurfaceGrid, frame_norm, normal_curvature,
                          normal_space_dims, pmcv_residual,
                          second_fundamental_form, shape_operator)


def test_totally_geodesic_plane_has_zero_h(tilted_plane_grid):
    for i, j in tilted_plane_grid.nodes():
        pd = tilted_plane_grid.point(i, j)
        for hv in (pd.sfd.h11, pd.sfd.h12, pd.sfd.h22, pd.sfd.H):
            assert frame_norm(hv, pd) < 1e-14


def test_l4_mixed_h_vanishes(l4_grid):
    # the rotational surface has diagonal second fundamental form
    for i, j in l4_grid.nodes():
        pd = l4_grid.point(i, j)
        assert frame_norm(pd.sfd.h12, pd) < 1e-12


def test_l4_mean_direction_shape_operator(l4_grid, l4_constants):
    # A_{e4} = diag(0, 2 H0) in the adapted tangent frame
    for (i, j) in [(0, 0), (4, 4), (8, 8)]:
        pd = l4_grid.point(i, j)
        A4 = pd.sfd.A[1]
        assert abs(A4[0, 0]) < 1e-12
        assert abs(A4[0, 1]) < 1e-12
        assert abs(A4[1, 1] - 2 * l4_constants.H0) < 1e-11


def test_l4_timelike_shape_operator_traceless(l4_grid):
    for (i, j) in [(1, 2), (5, 7)]:
        A3 = l4_grid.point(i, j).sfd.A[0]
        assert abs(A3[0, 0] + A3[1, 1]) < 1e-12
        assert abs(A3[0, 1]) < 1e-12
        assert abs(A3[0, 0]) > 0.5  # gamma is bounded away from zero here


def test_product_h22_mean_component(product_grid):
    # <h(e2,e2), e4> = 2 H0 = 1 for the (1, 1/sqrt(12), 1/2) member
    for (i, j) in [(0, 0), (4, 4)]:
        pd = product_grid.point(i, j)
        e4 = pd.frame.normals[1]
        assert abs(rw.inner(pd.sfd.h22, e4, pd.G) - 1.0) < 1e-12


def test_product_timelike_shape_operator_vanishes(product_grid):
    for i, j in product_grid.nodes():
        assert np.abs(product_grid.point(i, j).sfd.A[0]).max() < 1e-12


def test_product_e5_shape_operator(product_grid):
    # traceless diagonal with |tau0| = sqrt(2) for this member
    for (i, j) in [(2, 2), (6, 3)]:
        A5 = product_grid.point(i, j).sfd.A[2]
        assert abs(A5[0, 0] + A5[1, 1]) < 1e-12
        assert abs(A5[0, 1]) < 1e-12
        assert abs(abs(A5[0, 0]) - math.sqrt(2.0)) < 1e-12


def test_shape_operator_compatibility(l5_grid):
    # g(A_xi e_i, e_j) = <h(e_i, e_j), xi> for every frame normal
    for (i, j) in [(2, 3), (6, 6)]:
        pd = l5_grid.point(i, j)
        for k, xi in enumerate(pd.frame.normals):
            A = shape_operator(pd.sfd, xi, pd.G)
            np.testing.assert_allclose(A, pd.sfd.A[k], atol=1e-14)
            assert abs(A[0, 1] - A[1, 0]) < 1e-14


def test_shape_operator_rejects_bad_directions(l5_grid):
    pd = l5_grid.point(2, 2)
    with pytest.raises(ValueError, match="unit normal"):
        shape_operator(pd.sfd, 2.0 * pd.frame.normals[0], pd.G)
    with pytest.raises(ValueError, match="unit normal"):  # NaN trips the guard
        shape_operator(pd.sfd, np.full_like(pd.frame.e1, np.nan), pd.G)


def test_h_is_normal_valued(l5_grid):
    for i, j in l5_grid.nodes():
        pd = l5_grid.point(i, j)
        for hv in (pd.sfd.h11, pd.sfd.h12, pd.sfd.h22):
            assert abs(rw.inner(hv, pd.frame.e1, pd.G)) < 1e-12
            assert abs(rw.inner(hv, pd.frame.e2, pd.G)) < 1e-12


def test_mean_curvature_is_half_trace(l5_grid):
    pd = l5_grid.point(3, 3)
    np.testing.assert_allclose(pd.sfd.H, 0.5 * (pd.sfd.h11 + pd.sfd.h22),
                               atol=0.0)


def test_gauss_formula_consistency(l4_grid):
    # stencil-differentiated frame fields against pointwise h
    fields = (lambda p: p.frame.e1, lambda p: p.frame.e2)
    for (i, j) in [(2, 2), (6, 5)]:
        pd = l4_grid.point(i, j)
        for jj, fld in enumerate(fields):
            for ii, W in enumerate(l4_grid.frame_covariant(fld)):
                res = (W - l4_grid.tangential_part(W))[i, j] \
                    - pd.sfd.h(ii + 1, jj + 1)
                assert frame_norm(res, pd) < 1e-7


def test_normal_connection_mean_direction_parallel(l4_grid):
    # nabla-perp of e4 = H/|H| vanishes on the rotational surface
    e4 = lambda p: p.frame.normals[..., 1, :]
    for (i, j) in [(1, 1), (4, 6)]:
        pd = l4_grid.point(i, j)
        for out in l4_grid.nabla_perp(e4):
            assert frame_norm(out[i, j], pd) < 1e-6


def test_normal_connection_product_e3_rotation(product_grid):
    # nabla^perp_{e1} e3 = -tanh(theta0) tau0 e5, a sign-robust combination
    e3 = lambda p: p.frame.normals[..., 0, :]
    for (i, j) in [(2, 2), (5, 5)]:
        pd = product_grid.point(i, j)
        along_e1, along_e2 = product_grid.nabla_perp(e3)
        out = along_e1[i, j]
        tau0 = pd.sfd.A[2][0, 0]
        th = pd.frame.theta
        expected = -math.tanh(th) * tau0 * pd.frame.normals[2]
        assert frame_norm(out - expected, pd) < 1e-8
        out2 = along_e2[i, j]
        assert frame_norm(out2, pd) < 1e-8


def test_normal_connection_constant_field_flat(tilted_plane_grid):
    const_normal = lambda p: np.broadcast_to([0.0, 0.0, 0.0, 1.0], p.G.shape)
    for (i, j) in [(1, 1), (3, 2)]:
        pd = tilted_plane_grid.point(i, j)
        for out in tilted_plane_grid.nabla_perp(const_normal):
            assert frame_norm(out[i, j], pd) < 1e-13


def test_pmcv_residual_product_member(product_grid):
    assert pmcv_residual(product_grid) < 1e-8


def test_pmcv_residual_broken_member(broken_product_surface):
    us = np.linspace(0.1, 3.0, 5)
    vs = np.linspace(0.1, 3.0, 5)
    sg = SurfaceGrid(broken_product_surface, us, vs)
    assert pmcv_residual(sg) > 1e-3


def test_pmcv_residual_plane(tilted_plane_grid):
    assert pmcv_residual(tilted_plane_grid) < 1e-13


def test_normal_curvature_commuting_operators_vanish():
    # synthetic data in Minkowski 4-space with commuting shape operators
    G = np.array([-1.0, 1.0, 1.0, 1.0])
    e3 = np.array([1.0, 0, 0, 0])
    e4 = np.array([0.0, 0, 0, 1.0])
    h11 = 0.7 * e4 - 0.3 * e3
    h22 = -1.1 * e4 + 0.2 * e3
    sfd = rw.SecondFundamentalData(h11, np.zeros(4), h22, 0.5 * (h11 + h22), {})
    for xi in (e3, e4):
        A = shape_operator(sfd, xi, G)
        assert np.linalg.norm(normal_curvature(sfd, A)) < 1e-15


def test_normal_curvature_noncommuting_fixture():
    G = np.array([-1.0, 1.0, 1.0, 1.0])
    e3 = np.array([1.0, 0, 0, 0])
    e4 = np.array([0.0, 0, 0, 1.0])
    # A_{e4} diagonal with distinct eigenvalues, A_{e3} with off-diagonal
    h11, h12, h22 = 1.0 * e4, 0.5 * e3, -1.0 * e4
    sfd = rw.SecondFundamentalData(h11, h12, h22, 0.5 * (h11 + h22), {})
    assert np.linalg.norm(normal_curvature(sfd, shape_operator(sfd, e4, G))) > 0.5


def test_normal_curvature_l4_flat_bundle(l4_grid):
    for (i, j) in [(0, 3), (7, 7)]:
        pd = l4_grid.point(i, j)
        for xi in pd.frame.normals:
            A = shape_operator(pd.sfd, xi, pd.G)
            assert frame_norm(normal_curvature(pd.sfd, A), pd) < 1e-8


def test_normal_space_dims_catalog(l4_grid, product_grid, tilted_plane_grid):
    d4 = normal_space_dims(l4_grid)
    assert (d4.n1, d4.n2) == (2, 2)
    assert d4.n1_range == (2, 2)
    dp = normal_space_dims(product_grid)
    assert (dp.n1, dp.n2) == (2, 3)
    dpl = normal_space_dims(tilted_plane_grid)
    assert (dpl.n1, dpl.n2) == (0, 0)


def test_normal_space_dims_l5(l5_grid):
    d5 = normal_space_dims(l5_grid)
    assert d5.n1 == 2 and d5.n2 == 3


def test_normal_space_dims_needs_a_usable_node(minkowski4):
    # a chart that reads NaN everywhere leaves every node degenerate
    nowhere = rw.Jet2Immersion(minkowski4,
                               lambda u, v: (np.full(4, np.nan),) * 6,
                               (-2.0, 2.0), (-2.0, 2.0))
    grid = SurfaceGrid(nowhere, np.linspace(-1.0, 1.0, 3),
                       np.linspace(-1.0, 1.0, 3))
    assert not grid.ok.any()
    with pytest.raises(rw.GeometryError, match="^no usable grid nodes$"):
        normal_space_dims(grid)


def test_reduction_dimension_evidence(l4_grid, l5_grid, product_grid):
    # numeric evidence for the ambient-reduction dimension: the surface plus
    # its second normal space spans 4 or 5 dimensions on every catalog member
    for sg in (l4_grid, l5_grid, product_grid):
        dims = normal_space_dims(sg)
        assert 2 + dims.n2 in (4, 5)


def test_mean_curvature_norm_constant_on_pmcv(l4_grid, l5_grid):
    for sg in (l4_grid, l5_grid):
        vals = [rw.inner(sg.point(i, j).sfd.H, sg.point(i, j).sfd.H,
                         sg.point(i, j).G) for i, j in sg.nodes()]
        assert np.ptp(vals) < 1e-7  # NaN kept


def test_second_fundamental_form_from_frame(l4_surface):
    space = l4_surface.space
    jet = l4_surface.jet(0.07, 0.9)
    G = space.metric_at(jet.phi, space.warp_state(jet.phi))
    ginv = np.linalg.inv(rw.induced_metric(jet, G))
    _, h_chart, H = chart_second_fundamental(jet, space, G, ginv,
                                             space.warp_state(jet.phi))
    fr = rw.adapted_frame(jet, space, G, ginv, H)
    sfd = second_fundamental_form(fr, G, h_chart)
    assert abs(rw.inner(sfd.H, sfd.H, G) - 0.25) < 1e-10


@pytest.mark.parametrize("grid_name", ["l4_grid", "product_grid"])
def test_covariant_along_is_the_ambient_connection(grid_name, request):
    sg = request.getfixturevalue(grid_name)
    e1_of = lambda p: p.frame.e1
    for i, j in [(0, 0), (3, 5), (8, 8)]:
        pd = sg.point(i, j)
        for direction, x in (("u", pd.jet.phi_u), ("v", pd.jet.phi_v)):
            want = rw.ambient_covariant_derivative(
                sg.space, pd.jet.phi, x, pd.frame.e1,
                sg.chart_derivative(e1_of, direction)[i, j], pd.G,
                pd.warp_state)
            assert np.array_equal(sg.covariant_along(e1_of, direction)[i, j],
                                  want)


@pytest.mark.parametrize("surface_name", ["l4_surface", "product_surface"])
def test_chart_second_fundamental_uses_the_ambient_connection(surface_name,
                                                              request):
    surface = request.getfixturevalue(surface_name)
    space = surface.space
    u0, u1 = surface.u_domain
    v0, v1 = surface.v_domain
    jet = surface.jet(0.6 * u0 + 0.4 * u1, 0.3 * v0 + 0.7 * v1)
    G = space.metric_at(jet.phi, space.warp_state(jet.phi))
    ginv = np.linalg.inv(rw.induced_metric(jet, G))
    warp_state = space.warp_state(jet.phi)
    W, _, _ = chart_second_fundamental(jet, space, G, ginv, warp_state)
    want = rw.ambient_covariant_derivative(space, jet.phi, jet.phi_u,
                                           jet.phi_v, jet.phi_uv, G,
                                           warp_state)
    assert np.array_equal(W[("u", "v")], want)


def test_evaluate_point_computes_each_quantity_once(l4_surface, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rw.AmbientSpace, "metric_at",
                        counted("metric_at", rw.AmbientSpace.metric_at))
    for name in ("induced_metric", "chart_second_fundamental"):
        wrapper = counted(name, getattr(immersion, name))
        for module in (immersion, shape):
            monkeypatch.setattr(module, name, wrapper)
    shape.evaluate_point(l4_surface, 0.07, 0.9)
    assert calls == {"metric_at": 1, "induced_metric": 1,
                     "chart_second_fundamental": 1}


def test_evaluate_point_reraises_a_layer_error_without_where(tilted_plane,
                                                            monkeypatch):
    # a layer's GeometryError that names no failing points is not a
    # per-point degeneracy: it propagates, and the layer is not retried
    calls = []

    def failing(*args):
        calls.append(None)
        raise rw.GeometryError("no points named")

    monkeypatch.setattr(shape, "induced_metric", failing)
    us = vs = np.linspace(-0.5, 0.5, 3)
    with pytest.raises(rw.GeometryError, match="no points named") as exc:
        shape.evaluate_point(tilted_plane,
                             *np.broadcast_arrays(us[:, None], vs[None, :]))
    assert getattr(exc.value, "where", None) is None and len(calls) == 1


def test_an_overflowing_metric_is_degenerate_without_a_warning(tilted_plane):
    # exp(700 t)^2 overflows in the metric from u = 0.5 on: the finiteness
    # checks record those points, and numpy warns of nothing
    space = rw.AmbientSpace(4, 0, rw.WarpingFunction.exponential(700.0))
    plane = dataclasses.replace(tilted_plane, space=space)
    us = vs = np.linspace(0.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data, errors = shape.evaluate_point(
            plane, *np.broadcast_arrays(us[:, None], vs[None, :]))
    assert sorted(errors) == list(range(3, 9))
    assert np.isfinite(data.G[0]).all() and not np.isfinite(data.G[1:]).any()


def test_grid_records_degeneracies(minkowski4, tilted_plane):
    from rwsurf.immersion import Jet2Immersion
    calls = []

    def evaluator(u, v):
        calls.append((u, v))
        z = np.zeros(4)
        return (np.array([0.0, u, v, 0.0]), np.array([0.0, 1, 0, 0]),
                np.array([0.0, 0, 1, 0]), z, z, z)

    horizontal = Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1),
                               name="horizontal")
    sg = SurfaceGrid(horizontal, np.linspace(-0.5, 0.5, 3),
                     np.linspace(-0.5, 0.5, 3))
    assert sg.n_ok == 0
    assert len(sg.degeneracies) == 9
    assert "HorizontalSliceError" in sg.degeneracies[0][2]
    # every node is dropped, so no stencil point is charted
    assert len(calls) == 9


def test_a_kept_node_records_its_first_failing_stencil_point(tilted_plane):
    # every stencil point fails, each with a text naming it: each node
    # records the first in _STENCIL_POINTS order
    us = vs = np.linspace(-0.5, 0.5, 3)
    nodes = {(u, v) for u in us.tolist() for v in vs.tolist()}

    def evaluator(u, v):
        if (u, v) not in nodes:
            raise ValueError("off the nodes")
        return tilted_plane.evaluator(u, v)

    sg = SurfaceGrid(dataclasses.replace(tilted_plane, evaluator=evaluator),
                     us, vs)
    (ku, kv), = shape._STENCIL_POINTS[:1]
    assert sg.degeneracies == [
        (i, j, f"ChartDomainError: chart failed at (u,v)=({u + ku * su},"
               f"{v + kv * sv}): ValueError: off the nodes")
        for i, (u, su) in enumerate(zip(us.tolist(), sg.su.tolist()))
        for j, (v, sv) in enumerate(zip(vs.tolist(), sg.sv.tolist()))]
    assert not sg.ok.any()



def _read_times(warp, times):
    """L^4_1 over ``warp``, recording in ``times`` each time it is read at."""
    def fn(t):
        times.append(t)
        return warp.fn(t)
    return rw.AmbientSpace(4, 0, rw.WarpingFunction(fn, warp.interval))


def test_warp_length_scale_of_a_constant_warp_is_infinite():
    # the state (f, f', f'') is the caller's; the warp is read at t +- h alone
    times = []
    space = _read_times(rw.WarpingFunction.constant(2.0), times)
    assert shape._warp_length_scale(space, 0.3, 2.0, 0.0, 0.0) == math.inf
    h = 1e-4 * 1.3
    assert times == [0.3 + h, 0.3 - h]


@pytest.mark.parametrize("rate", [2.0, -0.5])
@pytest.mark.parametrize("t", [-3.0, 0.0, 1.7])
def test_warp_length_scale_of_an_exponential_warp_is_one_over_its_rate(rate, t):
    warp = rw.WarpingFunction.exponential(rate)
    space = rw.AmbientSpace(4, 0, warp)
    scale = shape._warp_length_scale(space, t, *warp(t))
    assert scale == pytest.approx(1.0 / abs(rate), rel=1e-7)


@pytest.mark.parametrize("interval, read_at", [((0.0, 1.0), 1e-4),
                                               ((-1.0, 0.0), -1e-4)],
                         ids=["low-end", "high-end"])
def test_warp_length_scale_takes_one_sided_differences_at_the_ends(interval,
                                                                  read_at):
    # f = 1 + t^3 / 2 at t = 0: f' = f'' = 0 and f''' = 3, which a one-sided
    # difference of the linear f'' reads exactly, from inside the interval
    times = []
    space = _read_times(
        rw.WarpingFunction.polynomial([1.0, 0.0, 0.0, 0.5], interval), times)
    scale = shape._warp_length_scale(space, 0.0, 1.0, 0.0, 0.0)
    assert times == [read_at]
    assert scale == pytest.approx(3.0 ** (-1.0 / 3.0), rel=1e-12)


def test_warp_length_scale_without_a_third_derivative_reads_f_and_f_prime():
    # both t - h and t + h lie outside the interval: f''' counts as 0, and
    # the scale is f / |f'| = 2 (f''' = 3 would give 3^(-1/3))
    times = []
    space = _read_times(rw.WarpingFunction.polynomial(
        [1.0, 0.5, 0.0, 0.5], (-1e-5, 1e-5)), times)
    assert shape._warp_length_scale(space, 0.0, 1.0, 0.5, 0.0) == 2.0
    assert times == []  # refused by the interval test before fn is called
