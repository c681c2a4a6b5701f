"""The array-of-points layers: batched calls against stacked one-point calls,
call counts of a grid fill, and reports pinned to values of the one-point
implementation."""

import collections
import dataclasses
import hashlib
import json
import math
import pathlib
import types

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import catalog, immersion, shape
from rwsurf.ambient import ambient_covariant_derivative
from rwsurf.errors import DimensionMismatchError
from rwsurf.immersion import JetSample, chart_second_fundamental
from rwsurf.linalg import numeric_rank, project_out_span
from rwsurf.shape import SurfaceGrid, evaluate_point, second_fundamental_form
from rwsurf.solvers import WarpSystemSolution
from rwsurf.verdicts import verify_surface

from conftest import L5_ICS, L5_INTERVAL, count_generated_samples
from oracles import svd_rank
from test_ambient import overflowing_warp_surface
from test_cli import HOLED_PLANE
from test_immersion import _product_member

REL = 1e-13
PINNED = json.loads((pathlib.Path(__file__).parent
                     / "pinned_reports_9x9.json").read_text())


def assert_stacked(batched, pointwise):
    """A batched result equals the stacked one-point results to REL, relative
    to the largest entry."""
    want = np.stack([np.asarray(x, dtype=float) for x in pointwise])
    got = np.asarray(batched, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL * max(1.0, np.abs(want).max())


def sample_points(surface, n=7):
    rng = np.random.default_rng(5)
    (u0, u1), (v0, v1) = surface.u_domain, surface.v_domain
    return (rng.uniform(0.9 * u0 + 0.1 * u1, 0.1 * u0 + 0.9 * u1, n),
            rng.uniform(0.9 * v0 + 0.1 * v1, 0.1 * v0 + 0.9 * v1, n))


def stacked_jet(jets):
    return JetSample(np.array([j.u for j in jets]), np.array([j.v for j in jets]),
                     *(np.stack([getattr(j, name) for j in jets])
                       for name in ("phi", "phi_u", "phi_v", "phi_uu",
                                    "phi_uv", "phi_vv")))


JET_FIELDS = ("phi", "phi_u", "phi_v", "phi_uu", "phi_uv", "phi_vv")


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_batched_jet_matches_one_point_jets(surface_name, request):
    surface = request.getfixturevalue(surface_name)
    assert surface.batched
    us, vs = sample_points(surface)
    # repeated time coordinates share one warp evaluation
    us, vs = np.concatenate([us, us[:3]]), np.concatenate([vs, vs[::-1][:3]])
    batch, errors = surface.jet(us, vs)
    assert errors == {}
    ones = [surface.jet(u, v) for u, v in zip(us, vs)]
    for name in JET_FIELDS:
        assert_stacked(getattr(batch, name), [getattr(j, name) for j in ones])
    # a float call returns one (6, d) float array: its batched row
    rows = [surface.evaluator(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    d = surface.space.ambient_dim
    for row in rows:
        assert type(row) is np.ndarray and row.dtype == float
        assert row.shape == (6, d)
    assert_stacked(np.stack(surface.evaluator(us, vs), axis=1), rows)


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_float_call_makes_no_numpy_math_call(surface_name, request,
                                             monkeypatch):
    # at a float point the catalog computes with math and calls the warp
    # directly: numpy only builds the (6, d) array
    surface = request.getfixturevalue(surface_name)
    u, v = (x[0] for x in sample_points(surface, 1))
    want = surface.evaluator(float(u), float(v))
    monkeypatch.setattr(catalog, "np", types.SimpleNamespace(
        ndarray=np.ndarray, array=np.array))
    assert surface.evaluator(float(u), float(v)).tobytes() == want.tobytes()


def counted(calls, name, fn, times=None):
    """``fn`` counting its calls in ``calls[name]``; with ``times``, a method
    that also records its time argument there."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if times is not None:
            times.add(args[1])
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("surface_name", ["l4_surface", "l5_surface"])
def test_catalog_grid_calls_the_chart_once(surface_name, request,
                                           monkeypatch):
    calls, times, samples = collections.Counter(), set(), {}
    # fresh solutions, built with their generated samples counted (and the
    # session fixture's state cache holds the times earlier tests asked for)
    count_generated_samples(monkeypatch, samples)
    if surface_name == "l5_surface":
        surface = rw.surface_l51(rw.solve_warp_system(
            request.getfixturevalue("l5_constants"), L5_ICS, L5_INTERVAL))
    else:
        constants = request.getfixturevalue("l4_constants")
        surface = rw.rotational_surface_l41(constants, rw.solve_rotational_warp(
            constants, 1.0, 2.0, (0.0, 1.0)).warp)
    samples.clear()
    surface = dataclasses.replace(
        surface, evaluator=counted(calls, "chart", surface.evaluator))
    monkeypatch.setattr(rw.Jet2Immersion, "jet",
                        counted(calls, "jet", rw.Jet2Immersion.jet))
    monkeypatch.setattr(rw.WarpingFunction, "__call__",
                        counted(calls, "warp", rw.WarpingFunction.__call__, times))
    monkeypatch.setattr(WarpSystemSolution, "y_state",
                        counted(calls, "y_state", WarpSystemSolution.y_state, times))
    (u0, u1), (v0, v1) = surface.u_domain, surface.v_domain
    us = np.linspace(0.8 * u0 + 0.2 * u1, 0.2 * u0 + 0.8 * u1, 5)
    vs = np.linspace(0.8 * v0 + 0.2 * v1, 0.2 * v0 + 0.8 * v1, 4)
    ku, kv = np.array(((0, 0),) + shape._STENCIL_POINTS, dtype=float).T
    U, V = np.broadcast_arrays(us[:, None, None] + 1e-3 * ku,
                               vs[None, :, None] + 1e-3 * kv)
    data, errors = evaluate_point(surface, U, V)
    assert errors == {} and np.isfinite(data.sfd.A).all()
    distinct = len(np.unique(U))
    assert distinct == 5 * len(us)
    assert calls["jet"] == calls["chart"] == 1
    # once in the chart, once for the metric's warp state
    assert calls["warp"] <= 2 * distinct
    assert calls["y_state"] == (distinct if surface_name == "l5_surface" else 0)
    # the L5 state is cached per time, the interpolant evaluated once per
    # time; the L4 warp evaluates its interpolant on every call
    assert samples == ({"dense": len(times)} if surface_name == "l5_surface"
                       else {"warp": calls["warp"]})
    # a grid charts each record's points in one call, each point once: the
    # nodes, then their eight stencil points
    calls.clear()
    charted = []
    chart = surface.evaluator
    surface = dataclasses.replace(
        surface, evaluator=lambda u, v: charted.append(np.shape(u)) or chart(u, v))
    grid = SurfaceGrid(surface, us, vs)
    assert grid.n_ok == len(us) * len(vs)
    assert calls["jet"] == calls["chart"] == 2
    assert charted == [(len(us) * len(vs),), (8 * len(us) * len(vs),)]


def test_batched_jet_records_one_point_errors(minkowski4):
    # horizontal at u < 0 (a frame failure after the jet), NaN jets at
    # v > 0.5, and points outside the chart's domain or NaN: each keeps its
    # one-point message, and the chart sees each in-domain point once
    calls = []

    def evaluator(u, v):
        calls.append(np.size(u))
        u, v = np.broadcast_arrays(u, v)
        cols = lambda *c: np.stack(np.broadcast_arrays(*c), axis=-1)
        s = np.maximum(u, 0.0)
        z = cols(0 * u, 0.0, 0.0, 0.0)
        return (cols(s * u + np.where(v > 0.5, np.nan, 0.0), u, v, 0.0),
                cols(2 * s, 1.0, 0.0, 0.0), cols(0 * u, 0.0, 1.0, 0.0), z, z, z)

    surface = rw.Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1),
                               batched=True)
    us = np.array([0.3, -0.5, 0.4, 1.5, np.nan, 0.2, -0.2, 0.1])
    vs = np.array([0.0, 0.1, 0.7, 0.0, 0.0, -3.0, 0.9, np.nan])
    data, errors = evaluate_point(surface, us, vs)
    assert calls == [4]  # the in-domain points, in one call
    assert sorted(errors) == [1, 2, 3, 4, 5, 6, 7]
    assert errors[1].startswith("HorizontalSliceError: ")
    assert errors[2].startswith("ChartDomainError: non-finite jet")
    assert errors[6].startswith("ChartDomainError: non-finite jet")
    for k in errors:
        with pytest.raises(rw.GeometryError) as exc:
            evaluate_point(surface, us[k], vs[k])
        assert errors[k] == f"{type(exc.value).__name__}: {exc.value}"
        assert np.isnan(data.frame.e1[k]).all()
    assert np.isfinite(data.frame.e1[0]).all()


def _vanishing_warp_chart():
    """The chart (1 + u/10, 10 u, v, 0) in L^4_1(t - 1, 0): its time is 1, and
    the warp vanishes, along u = 0; space-like where |u| > 0.1."""
    space = rw.AmbientSpace.warped_flat(
        4, rw.WarpingFunction.polynomial([-1.0, 1.0], (-5.0, 5.0)))
    zero = np.zeros(4)

    def evaluator(u, v):
        return (np.array([1.0 + 0.1 * u, 10.0 * u, v, 0.0]),
                np.array([0.1, 10.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]),
                zero, zero, zero)

    return rw.Jet2Immersion(space, evaluator, (-1.0, 1.0), (-1.0, 1.0))


VANISHES = "SingularWarpError: warping function vanishes at t=1.0"


def test_a_time_whose_warp_fails_records_its_points():
    # the warp state is read once per distinct time: the time it fails at
    # is each of its points' error, and the other times evaluate
    surface = _vanishing_warp_chart()
    us, vs = np.array([0.5, 0.0, -0.5, 0.0]), np.array([0.1, 0.2, 0.3, 0.4])
    data, errors = evaluate_point(surface, us, vs)
    assert errors == {1: VANISHES, 3: VANISHES}
    for k in (1, 3):
        with pytest.raises(rw.SingularWarpError) as exc:
            evaluate_point(surface, us[k], vs[k])
        assert f"SingularWarpError: {exc.value}" == VANISHES
    for path, x in leaves(data):
        if path.startswith("data.jet"):  # the chart's sample, finite throughout
            assert np.isfinite(x).all(), path
        elif x.dtype.kind == "f":
            assert np.isnan(x[[1, 3]]).all(), path
            assert np.isfinite(x[[0, 2]]).all(), path
    one = evaluate_point(surface, us[0], vs[0])
    assert np.array_equal(data.frame.vectors[0], one.frame.vectors)


def test_a_grid_lists_the_nodes_at_a_time_whose_warp_fails():
    # the middle row sits at the vanishing time: each of its nodes reports
    # its own warp failure, which comes before its stencil points' (the
    # u-offsets are not space-like, the v-offsets share the node's time)
    surface = _vanishing_warp_chart()
    grid = SurfaceGrid(surface, np.linspace(-0.5, 0.5, 5),
                       np.linspace(-0.5, 0.5, 3))
    assert grid.degeneracies == [(2, j, VANISHES) for j in range(3)]
    assert grid.ok.tolist() == [[True] * 3] * 2 + [[False] * 3] + [[True] * 3] * 2
    assert np.isnan(grid.node_data.G[2]).all()
    assert np.isfinite(grid.node_data.G[grid.ok]).all()
    _, errors = evaluate_point(surface, *stencil_stack(grid))
    first = [errors[(2 * 3 + j) * 8] for j in range(3)]  # at offset (-2, 0)
    assert all(text.startswith("NotSpaceLikeError: ") for text in first)


def test_a_grid_row_substep_reads_the_warp_at_the_row_time(monkeypatch):
    # the rows' time is 1 + u/10, not u: the warp t - 1 varies on the time
    # scale |t - 1| = |u|/10 there, which is |u| in u since dt/du = 1/10, and
    # the rows' substeps follow |u| to the 5/4 power; the middle row, at the
    # vanishing time, keeps the plain substep
    surface = _vanishing_warp_chart()
    probed = []
    scale = shape._warp_length_scale
    monkeypatch.setattr(shape, "_warp_length_scale", lambda space, *state: (
        probed.append(state) or scale(space, *state)))
    us = np.linspace(-0.5, 0.5, 5)
    grid = SurfaceGrid(surface, us, np.linspace(-0.5, 0.5, 3))
    # once per distinct time, at the node record's time and warp state; not
    # at all for the row whose nodes all failed
    times = [t for t in (1.0 + 0.1 * us).tolist() if t != 1.0]
    assert probed == [(t, *surface.space.warp(t)) for t in times]
    want = [shape._SCALE_FRACTION * abs(u) ** 1.25 for u in us]
    want[2] = shape.DEFAULT_SUBSTEP
    np.testing.assert_allclose(grid.su, want, rtol=1e-12)
    assert grid.su[2] == shape.DEFAULT_SUBSTEP


def test_a_grid_row_substep_ignores_a_time_that_does_not_move_along_u(
        monkeypatch):
    # the time 1 + v/10 moves along v alone: the warp's variation is not
    # stepped over in u, whatever its scale, so no row is probed or shrunk
    space = _vanishing_warp_chart().space
    zero = np.zeros(4)
    surface = rw.Jet2Immersion(space, lambda u, v: (
        np.array([1.0 + 0.1 * v, u, u + 10.0 * v, 0.0]),
        np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.1, 0.0, 10.0, 0.0]),
        zero, zero, zero), (-1.0, 1.0), (-1.0, 1.0))
    monkeypatch.setattr(shape, "_warp_length_scale", None)
    us = np.linspace(-0.5, 0.5, 5)
    grid = SurfaceGrid(surface, us, np.array([-0.5, 0.5]))
    assert grid.degeneracies == []
    np.testing.assert_array_equal(
        grid.su, shape.DEFAULT_SUBSTEP * (1.0 + np.abs(us)))


@pytest.mark.parametrize("imag", [1e-30, 0.0], ids=["tiny", "zero"])
def test_a_complex_grid_sizes_its_rows_from_the_real_times(product_surface,
                                                           imag):
    # on the product backend the warp is constant: the complex grid's rows
    # keep the real grid's substeps; under a warp, a complex time fails
    # every node, and the rows keep the unshrunk substep
    us, vs = np.linspace(0.1, 3.4, 5), np.linspace(0.1, 3.0, 3)
    grid = SurfaceGrid(product_surface, us + imag * 1j, vs + 0j)
    assert grid.degeneracies == []
    np.testing.assert_array_equal(grid.su,
                                  SurfaceGrid(product_surface, us, vs).su)
    us = np.linspace(-0.5, 0.5, 5)
    grid = SurfaceGrid(_vanishing_warp_chart(), us + imag * 1j,
                       np.linspace(-0.5, 0.5, 3) + 0j)
    assert grid.n_ok == 0
    assert all(text.startswith("ChartDomainError: warp state needs a real "
                               "time") for *_, text in grid.degeneracies)
    np.testing.assert_array_equal(
        grid.su, shape.DEFAULT_SUBSTEP * (1.0 + np.abs(us)))


@pytest.mark.parametrize("imag", [1e-30, 0.0], ids=["tiny", "zero"])
def test_a_complex_time_is_each_point_s_chart_domain_error(imag):
    # the warp is read at real times: a complex time coordinate, even one
    # with a zero imaginary part, is recorded at its points, not raised
    surface = _vanishing_warp_chart()
    us, vs = np.array([0.5, -0.5, 0.5]), np.array([0.1, 0.2, 0.3])
    _, errors = evaluate_point(surface, us + imag * 1j, vs + 0j)
    assert sorted(errors) == [0, 1, 2]
    for k, t in ((0, 1.05), (1, 0.95), (2, 1.05)):
        assert errors[k] == ("ChartDomainError: warp state needs a real "
                             f"time, got t={complex(t, imag / 10)}")
    with pytest.raises(rw.ChartDomainError) as exc:
        evaluate_point(surface, us[0] + imag * 1j, vs[0] + 0j)
    assert errors[0] == f"ChartDomainError: {exc.value}"
    assert evaluate_point(surface, us, vs)[1] == {}


def test_batched_chart_that_raises_is_rerun_point_by_point(l4_constants,
                                                          l4_solution):
    # a chart domain reaching past the warp's interval: the batched call
    # raises there, its halves are retried, and each failing point keeps
    # its own one-point error
    warp = l4_solution.warp
    hi = warp.interval[1]
    surface = dataclasses.replace(
        rw.rotational_surface_l41(l4_constants, warp), u_domain=(0.0, 2.0 * hi))
    us = np.array([0.3, 0.5, 1.5, 1.9]) * hi
    vs = np.full(4, 0.4)
    data, errors = evaluate_point(surface, us, vs)
    assert sorted(errors) == [2, 3]
    for k in (2, 3):
        with pytest.raises(rw.ChartDomainError) as exc:
            evaluate_point(surface, us[k], vs[k])
        assert errors[k] == f"ChartDomainError: {exc.value}"
        assert "warp evaluated" in errors[k]
    for k in (0, 1):
        one = evaluate_point(surface, us[k], vs[k])
        assert np.abs(data.frame.normals[k] - one.frame.normals).max() <= REL


def nan_cornered(surface, calls):
    """The benchmark's nan-control surface: a pointwise (scalar-only) wrapper
    of a batched chart, NaN on a corner of the grid; ``calls`` records the
    points it is called at."""
    def evaluator(u, v):
        calls.append((u, v))
        jet = surface.evaluator(u, v)
        if u > 1.5 and v > 1.5:
            return tuple(np.full(np.shape(x), np.nan) for x in jet)
        return jet

    return rw.Jet2Immersion(surface.space, evaluator, surface.u_domain,
                            surface.v_domain, surface.name)


def test_pointwise_wrapper_calls_the_chart_once_per_point(product_surface,
                                                          product_expect):
    # each node once, and the 8 stencil points of each node the node record
    # kept
    calls = []
    surface = nan_cornered(product_surface, calls)
    rep = verify_surface(surface, grid=(9, 9), expect=product_expect)
    assert rep.verdict == "degenerate"
    _, dropped = evaluate_point(nan_cornered(product_surface, []),
                                *np.array(calls[:81]).T)
    assert len(dropped) == 25
    assert len(calls) == len(set(calls)) == 81 + 8 * (81 - len(dropped))
    assert all(type(u) is float and type(v) is float for u, v in calls)


def dropping_grid(kind, request):
    """A 9x9 grid whose node record drops nodes: the NaN-cornered product
    member, the holed plane through finite-difference jets, or thm4 over a
    warp whose completion overflows."""
    if kind == "nan-cornered":
        surface = nan_cornered(request.getfixturevalue("product_surface"), [])
        return SurfaceGrid(surface, np.linspace(0.1, 3.4, 9),
                           np.linspace(0.1, 3.0, 9))
    if kind == "holed-plane":
        space = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant(1.0))
        chart = {}
        exec(HOLED_PLANE, chart)
        surface = immersion.finite_difference_jet(chart["chart"], space,
                                                  (-1.0, 1.0), (-1.0, 1.0))
        return SurfaceGrid(surface, np.linspace(-0.9, 0.9, 9),
                           np.linspace(-0.9, 0.9, 9))
    surface = overflowing_warp_surface()
    (u_lo, u_hi), (v_lo, v_hi) = surface.u_domain, surface.v_domain
    return SurfaceGrid(surface, np.linspace(u_lo + 2e-3, u_hi - 2e-3, 9),
                       np.linspace(v_lo + 0.1, v_hi - 0.1, 9))


@pytest.mark.parametrize("kind",
                         ["nan-cornered", "holed-plane", "overflowing-warp"])
def test_a_grid_charts_only_the_kept_nodes_stencil_points(kind, request):
    # against the nodes' evaluation and one of every stencil point, each
    # node's first failing point (the node, then its stencil points) gives
    # the degeneracies and the mask; the node record, and the stencil record
    # at the kept nodes, are bitwise those evaluations; a dropped node's
    # stencil fields read NaN
    grid = dropping_grid(kind, request)
    nodes, node_errors = evaluate_point(
        grid.surface, *np.broadcast_arrays(grid.us[:, None], grid.vs[None, :]))
    stencil, stencil_errors = evaluate_point(grid.surface, *stencil_stack(grid),
                                             _stencil=True)
    failures = sorted([(k, -1, text) for k, text in node_errors.items()]
                      + [(*divmod(k, 8), text)
                         for k, text in stencil_errors.items()])
    first = {}
    for k, _, text in failures:
        first.setdefault(k, text)
    assert node_errors and len(first) < grid.nu * grid.nv
    assert grid.degeneracies == [(*divmod(k, grid.nv), text)
                                 for k, text in first.items()]
    ok = np.ones(grid.nu * grid.nv, dtype=bool)
    ok[list(first)] = False
    assert np.array_equal(grid.ok, ok.reshape(grid.nu, grid.nv))
    node_fields = dict(leaves(grid.node_data))
    assert node_fields.keys() == dict(leaves(nodes)).keys()
    for name, x in leaves(nodes):
        assert np.array_equal(node_fields[name], x, equal_nan=True), name
    dropped = np.zeros(grid.nu * grid.nv, dtype=bool)
    dropped[list(node_errors)] = True
    dropped = dropped.reshape(grid.nu, grid.nv)
    stencil_fields = dict(leaves(grid.stencil_data))
    assert sorted(stencil_fields) == STENCIL_FIELDS
    for name, x in leaves(stencil):
        assert np.array_equal(stencil_fields[name][grid.ok], x[grid.ok],
                              equal_nan=True), name
        assert np.isnan(stencil_fields[name][dropped]).all(), name


def test_pointwise_wrapper_report_bytes_are_pinned(product_surface,
                                                   product_expect):
    # the benchmark's nan-control certificate
    rep = verify_surface(nan_cornered(product_surface, []), grid=(17, 17),
                         expect=product_expect)
    assert rep.verdict == "degenerate"
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "6b8aa778799dbe5959582b4596c5b9ef9f5c28a2d3410aace93a333a6e06ea8b")


@pytest.mark.parametrize("surface_name, grid", [
    ("l4_surface", (17, 17)), ("l5_surface", (17, 17)),
    ("product_surface", (17, 17)), ("broken_product_surface", (17, 17)),
    ("nan-cornered", (17, 17)), ("l4_surface", (33, 33))],
    ids=["thm4", "thm5", "product", "product-force-b4", "nan-cornered",
         "thm4-33x33"])
def test_certificate_ranks_are_the_singular_value_ranks(surface_name, grid,
                                                        request, monkeypatch):
    # every per-node rank array a certificate reads, against the oracle
    if surface_name == "nan-cornered":
        surface = nan_cornered(request.getfixturevalue("product_surface"), [])
    else:
        surface = request.getfixturevalue(surface_name)
    calls, rank = [], shape.numeric_rank

    def spy(vectors, g, tol):
        calls.append((vectors, g, tol, rank(vectors, g, tol)))
        return calls[-1][-1]

    monkeypatch.setattr(shape, "numeric_rank", spy)
    verify_surface(surface, grid=grid)
    assert len(calls) == 2  # N1, N2
    for vectors, g, tol, got in calls:
        assert got.shape == g.shape[:1]
        assert np.array_equal(got, svd_rank(vectors, g, tol))


def _plane_jet(u, v):
    return (np.array([u, v, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4), np.zeros(4),
            np.zeros(4))


# the exception a pointwise evaluator's malformed jet raises, at one point
# and at a stack, where only the second of three points is malformed
@pytest.mark.parametrize("bad, error, message", [
    (lambda u, v: tuple(x[:3] for x in _plane_jet(u, v)),
     DimensionMismatchError,
     "the chart returned jet vectors of length 3 for an ambient space of "
     "dimension 4"),
    (lambda u, v: (_plane_jet(u, v)[0], np.ones(5)) + _plane_jet(u, v)[2:],
     DimensionMismatchError,
     "the chart returned jet vectors of length 5 for an ambient space of "
     "dimension 4"),
    (lambda u, v: _plane_jet(u, v)[:5], ValueError,
     "could not broadcast input array from shape (5,4) into shape (6,4)"),
    (lambda u, v: None, TypeError, "'NoneType' object is not iterable"),
], ids=["short-vectors", "ragged", "five-vectors", "none"])
def test_pointwise_jet_that_is_malformed_raises_for_the_call(
        bad, error, message, minkowski4):
    def evaluator(u, v):
        if u == 0.2:
            return bad(u, v)
        if u == 0.1:  # after the malformed point, which is reported first
            raise KeyError("late")
        return _plane_jet(u, v)

    surface = rw.Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1))
    for u, v in ((0.2, 0.5), (np.array([0.5, 0.2, 0.1]), np.zeros(3))):
        with pytest.raises(error) as exc:
            surface.jet(u, v)
        assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_batched_layers_match_pointwise(surface_name, request):
    surface = request.getfixturevalue(surface_name)
    space = surface.space
    us, vs = sample_points(surface)
    points = [evaluate_point(surface, u, v) for u, v in zip(us, vs)]
    jet = stacked_jet([p.jet for p in points])
    state = tuple(np.array(x) for x in zip(*(p.warp_state for p in points)))

    G = space.metric_at(jet.phi, state)
    assert_stacked(G, [p.G for p in points])
    g = immersion.induced_metric(jet, G)
    assert_stacked(g, [immersion.induced_metric(p.jet, p.G) for p in points])
    ginv = np.linalg.inv(g)
    assert_stacked(ginv, [p.ginv for p in points])
    W, h, H = chart_second_fundamental(jet, space, G, ginv, state)
    one = [chart_second_fundamental(p.jet, space, p.G, p.ginv, p.warp_state)
           for p in points]
    for key in W:
        assert_stacked(W[key], [o[0][key] for o in one])
        assert_stacked(h[key], [o[1][key] for o in one])
    assert_stacked(H, [o[2] for o in one])
    frame = immersion.adapted_frame(jet, space, G, ginv, H)
    for name in ("e1", "e2", "T", "eta", "theta", "sinh_theta", "cosh_theta",
                 "normals", "normal_signs", "has_mean_direction", "coeffs"):
        assert_stacked(getattr(frame, name),
                       [getattr(p.frame, name) for p in points])
    sfd = second_fundamental_form(frame, G, h)
    for name in ("h11", "h12", "h22", "H", "A"):
        assert_stacked(getattr(sfd, name), [getattr(p.sfd, name) for p in points])

    assert_stacked(rw.inner(sfd.H, frame.eta, G),
                   [rw.inner(p.sfd.H, p.frame.eta, p.G) for p in points])
    assert_stacked(
        ambient_covariant_derivative(space, jet.phi, jet.phi_u, frame.e1,
                                     sfd.h11, G, state),
        [ambient_covariant_derivative(space, p.jet.phi, p.jet.phi_u, p.frame.e1,
                                      p.sfd.h11, p.G, p.warp_state)
         for p in points])
    gens = [sfd.h11, sfd.h12, sfd.h22, frame.T]
    assert_stacked(numeric_rank(gens, G),
                   [numeric_rank([p.sfd.h11, p.sfd.h12, p.sfd.h22, p.frame.T],
                                 p.G) for p in points])
    cand = np.eye(space.ambient_dim)[-1]
    assert_stacked(project_out_span(cand, [frame.e1, frame.e2], G),
                   [project_out_span(cand, [p.frame.e1, p.frame.e2], p.G)
                    for p in points])


@pytest.mark.parametrize("surface_name",
                         ["l4_surface", "l5_surface", "product_surface"])
def test_evaluate_point_batch_matches_scalar_calls(surface_name, request):
    surface = request.getfixturevalue(surface_name)
    us, vs = sample_points(surface, 6)
    data, errors = evaluate_point(surface, us.reshape(2, 3), vs.reshape(2, 3))
    assert errors == {}
    for k, (u, v) in enumerate(zip(us, vs)):
        one = evaluate_point(surface, u, v)
        got = data.frame.normals[k // 3, k % 3]
        assert np.abs(got - one.frame.normals).max() <= REL
        assert np.abs(data.sfd.A[k // 3, k % 3] - one.sfd.A).max() <= REL


def test_evaluate_point_batch_records_failures(minkowski4):
    # horizontal at u < 0 (T vanishes), tilted elsewhere: each point of the
    # batch keeps the error class and message of a one-point call
    def evaluator(u, v):
        s = max(u, 0.0)
        z = np.zeros(4)
        return (np.array([s * u, u, v, 0.0]), np.array([2 * s, 1.0, 0, 0]),
                np.array([0.0, 0, 1, 0]), z, z, z)

    surface = rw.Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1))
    us = np.array([-0.5, 0.3, -0.2, 0.4])
    data, errors = evaluate_point(surface, us, np.zeros(4))
    assert sorted(errors) == [0, 2]
    for k in (0, 2):
        with pytest.raises(rw.HorizontalSliceError) as exc:
            evaluate_point(surface, us[k], 0.0)
        assert errors[k] == f"HorizontalSliceError: {exc.value}"
        assert np.isnan(data.frame.e1[k]).all()
    assert np.isfinite(data.frame.e1[[1, 3]]).all()


# complex128 points with zero imaginary parts, and longdouble points, against
# float64, relative to max(1, |x|): they differ only in how each rounds
COMPLEX_REL = 1e-13


@pytest.mark.filterwarnings("error")  # a ComplexWarning fails the test
def test_evaluate_point_computes_in_the_dtype_of_u_and_v(product_surface):
    us, vs = sample_points(product_surface, 6)
    us[2] = -1.0  # outside the chart domain
    want, errors = evaluate_point(product_surface, us, vs)
    got, complex_errors = evaluate_point(product_surface, us + 0j, vs + 0j)
    assert list(errors) == [2] and complex_errors == errors
    assert got.frame.vectors.dtype == complex
    # the point outside the domain reads NaN, as in float64
    for x in (got.ginv, got.frame.vectors, got.sfd.H):
        assert np.isnan(x[2]).all()
    for (path, x), (_, z) in zip(leaves(want), leaves(got)):
        assert not np.imag(z).any(), path
        dead = np.isnan(x)
        assert np.array_equal(np.isnan(z), dead), path
        x, z = x[~dead].astype(float), z.real[~dead].astype(float)
        assert (np.abs(z - x) <= COMPLEX_REL * np.maximum(1.0, np.abs(x))).all(), path
    # integer points are float64 points, bitwise
    for ints in ((np.array([1, 2, 3]), np.array([2, 1, 3])), (1, 2)):
        one = evaluate_point(product_surface, *ints)
        two = evaluate_point(product_surface, *(x * 1.0 for x in ints))
        for (path, x), (_, y) in zip(leaves(one), leaves(two)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), path
    # longdouble runs end to end, where it is wider than float64: every field
    # computed from the jet is longdouble; the product backend's constant
    # metric weights and the warp state, read at real float times, stay float64
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        got, ld_errors = evaluate_point(
            product_surface, us.astype(np.longdouble), vs.astype(np.longdouble))
        assert ld_errors == errors
        for x in (got.ginv, got.frame.vectors, got.sfd.H):
            assert np.isnan(x[2]).all()
        for (path, x), (_, z) in zip(leaves(want), leaves(got)):
            if x.dtype.kind != "f":
                assert np.array_equal(z, x), path
                continue
            floats = path == "data.G" or path.startswith("data.warp_state")
            assert z.dtype == (np.float64 if floats else np.longdouble), path
            dead = np.isnan(x)
            assert np.array_equal(np.isnan(z), dead), path
            x, z = x[~dead], z[~dead].astype(float)
            bound = COMPLEX_REL * np.maximum(1.0, np.abs(x))
            assert (np.abs(z - x) <= bound).all(), path


def test_grid_fill_calls_each_layer_once_per_record(l4_surface, monkeypatch):
    calls = collections.Counter()
    warp = l4_surface.space.warp
    counted_warp = rw.WarpingFunction(counted(calls, "warp", warp.fn),
                                      warp.interval)
    space = rw.AmbientSpace.warped_flat(4, counted_warp)
    chart = l4_surface.evaluator

    def evaluator(u, v):
        calls["chart"] += 1
        counted_warp(u)
        return chart(u, v)

    surface = rw.Jet2Immersion(space, evaluator, l4_surface.u_domain,
                               l4_surface.v_domain)
    jet_sizes = []
    jet = rw.Jet2Immersion.jet
    monkeypatch.setattr(rw.Jet2Immersion, "jet", lambda self, u, v: (
        jet_sizes.append(np.size(u)) or jet(self, u, v)))
    monkeypatch.setattr(rw.AmbientSpace, "metric_at",
                        counted(calls, "metric_at", rw.AmbientSpace.metric_at))
    for name in ("induced_metric", "chart_second_fundamental", "adapted_frame"):
        wrapper = counted(calls, name, getattr(immersion, name))
        for module in (immersion, shape):
            monkeypatch.setattr(module, name, wrapper)
    for name in ("second_fundamental_form", "_frame_h"):
        monkeypatch.setattr(shape, name,
                            counted(calls, name, getattr(shape, name)))
    nu, nv = 5, 6
    sg = SurfaceGrid(surface, np.linspace(0.03, 0.14, nu),
                     np.linspace(0.2, 2.9, nv))
    assert sg.n_ok == nu * nv
    # the nodes' jet call, then their stencil points', each point once
    assert jet_sizes == [nu * nv, 8 * nu * nv]
    assert calls["chart"] == 9 * nu * nv
    # the wrapped chart calls the warp once itself, like the catalog's; the
    # warp state once per distinct time of each record (the node times,
    # then the node times again and the four u-offsets of each); and
    # 2 per row for the row's stencil substep, f'' at t +- h around the
    # row's one time (its f, f', f'' are the node record's)
    assert calls["warp"] == 9 * nu * nv + nu + 5 * nu + 2 * nu
    for name in ("metric_at", "induced_metric", "chart_second_fundamental",
                 "adapted_frame"):
        assert calls[name] == 2, name
    # A at the nodes alone; the basis change of h once in it, and once for
    # the stencil points
    assert calls["second_fundamental_form"] == 1
    assert calls["_frame_h"] == 2


def stencil_stack(grid):
    """The (nu, nv, 8) parameter stack of a grid's stencil points."""
    ku, kv = np.array(shape._STENCIL_POINTS, dtype=float).T
    return np.broadcast_arrays(
        grid.us[:, None, None] + ku * grid.su[:, None, None],
        grid.vs[None, :, None] + kv * grid.sv[None, :, None])


def leaves(record, path="data"):
    """(path, array) for every array of a PointData, nested records too."""
    if isinstance(record, np.ndarray):
        yield path, record
    elif dataclasses.is_dataclass(record):
        for f in dataclasses.fields(record):
            yield from leaves(getattr(record, f.name), f"{path}.{f.name}")
    elif isinstance(record, tuple):
        for k, x in enumerate(record):
            yield from leaves(x, f"{path}[{k}]")


def grid_of(kind, request):
    """A filled grid of a catalog member, the product control, the product
    member through finite-difference jets, or the tilted plane."""
    if kind == "control":
        return SurfaceGrid(request.getfixturevalue("broken_product_surface"),
                           np.linspace(0.1, 3.4, 5), np.linspace(0.1, 3.0, 5))
    if kind == "fd-product":
        chart, space, u_dom, v_dom = _product_member()
        surface = immersion.finite_difference_jet(chart, space, u_dom, v_dom)
        return SurfaceGrid(surface, np.linspace(0.3, 3.3, 5),
                           np.linspace(0.3, 2.8, 5))
    return request.getfixturevalue({
        "thm4": "l4_grid", "thm5": "l5_grid", "product": "product_grid",
        "tilted-plane": "tilted_plane_grid"}[kind])


# what the stencils differentiate, the stencil record's only arrays
STENCIL_FIELDS = ["data.G", "data.frame.theta", "data.frame.vectors",
                  "data.sfd.H", "data.sfd.h11", "data.sfd.h12", "data.sfd.h22"]


@pytest.mark.parametrize("kind",
                         ["thm4", "thm5", "product", "control", "fd-product"])
def test_node_data_is_bitwise_the_unmasked_evaluation(kind, request):
    # the grid fill evaluates the nodes in full, and keeps only the
    # differentiated fields at the stencil points: every node value is a
    # full evaluation of the nodes, every stencil value one of the stencil
    # points, and both equal a full evaluation of each node's nine points
    # in one stack
    grid = grid_of(kind, request)
    node_fields = dict(leaves(grid.node_data))
    stencil_fields = dict(leaves(grid.stencil_data))
    assert sorted(stencil_fields) == STENCIL_FIELDS
    for x in stencil_fields.values():
        assert x.shape[:3] == (grid.nu, grid.nv, 8)
    nodes, errors = evaluate_point(
        grid.surface, *np.broadcast_arrays(grid.us[:, None], grid.vs[None, :]))
    assert errors == {} and grid.degeneracies == []
    U, V = stencil_stack(grid)
    stencil, errors = evaluate_point(grid.surface, U, V)
    assert errors == {}
    nine, errors = evaluate_point(
        grid.surface, *(np.concatenate([x[..., None], X], axis=-1)
                        for x, X in ((nodes.jet.u, U), (nodes.jet.v, V))))
    assert errors == {}
    for want in (nodes, shape._map_arrays(lambda x: x[:, :, 0], nine)):
        want = dict(leaves(want))
        assert node_fields.keys() == want.keys()
        for name, x in want.items():
            assert np.array_equal(node_fields[name], x), name
    for want in (stencil, shape._map_arrays(lambda x: x[:, :, 1:], nine)):
        want = dict(leaves(want))
        want["data.frame.vectors"] = want["data.frame.vectors"][..., :4, :]
        for name, x in stencil_fields.items():
            assert np.array_equal(x, want[name]), name


def held_bytes(grid) -> int:
    """Bytes of the distinct arrays a grid holds, each array's owner counted
    once (the surface and its ambient space are the caller's)."""
    owners = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            owners[id(x)] = x.nbytes
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif isinstance(x, dict):
            for y in x.values():
                walk(y)

    for name, x in vars(grid).items():
        if name not in ("surface", "space"):
            walk(x)
    return sum(owners.values())


def test_a_filled_grid_keeps_node_only_fields_at_the_nodes(l4_surface):
    # thm4 at the 33x33 certificate grid: 7.04 MiB while every field was
    # kept at all nine points per node, 3.26 MiB with the node record and
    # the stencil record's differentiated fields
    (u_lo, u_hi), (v_lo, v_hi) = l4_surface.u_domain, l4_surface.v_domain
    grid = SurfaceGrid(l4_surface, np.linspace(u_lo + 0.01, u_hi - 0.01, 33),
                       np.linspace(v_lo + 0.01, v_hi - 0.01, 33))
    assert grid.n_ok == 33 * 33
    assert held_bytes(grid) <= 4.0 * 2 ** 20


@pytest.mark.parametrize("kind", ["thm5", "product", "control", "fd-product"])
def test_stencil_points_with_a_mean_direction_skip_the_completion(kind,
                                                                  request):
    # nodes: e1, e2, e3, e4 = H/|H|, then the completion normals; stencil
    # points: e1, e2, e3, e4 = H/|H| alone, and no node-only field
    grid = grid_of(kind, request)
    fr, st = grid.node_data.frame, grid.stencil_data
    assert fr.has_mean_direction.all() and fr.normals.shape[-2] >= 3
    assert np.isfinite(fr.vectors).all() and np.isfinite(grid.node_data.sfd.A).all()
    assert (np.abs(fr.signs) == 1).all()
    assert st.frame.vectors.shape[-2:] == (4, fr.vectors.shape[-1])
    assert np.isfinite(st.frame.vectors).all()
    H, G = st.sfd.H, st.G
    assert (np.abs(rw.inner(H, H, G)) > immersion.TOL_H ** 2).all()
    e4 = st.frame.normals[..., 1, :]
    assert np.allclose(rw.inner(H, e4, G) ** 2, np.abs(rw.inner(H, H, G)),
                       rtol=1e-12, atol=0.0)
    for record, names in ((st, ("jet", "ginv", "warp_state")),
                          (st.frame, ("signs", "T", "eta", "sinh_theta",
                                      "cosh_theta", "has_mean_direction",
                                      "coeffs")),
                          (st.sfd, ("A",))):
        for name in names:
            assert getattr(record, name) is None, name


def test_points_without_a_mean_direction_keep_the_full_frame(
        tilted_plane_grid):
    # every point completes the frame: the nodes keep it whole, and the
    # stencil points keep its first completion as e4
    grid = tilted_plane_grid
    nd = grid.node_data
    assert not nd.frame.has_mean_direction.any()
    assert np.isfinite(nd.frame.normals).all()
    assert np.isfinite(nd.sfd.A).all()
    assert (np.abs(nd.frame.normal_signs) == 1).all()
    data, errors = evaluate_point(grid.surface, *stencil_stack(grid))
    assert errors == {} and not data.frame.has_mean_direction.any()
    e4 = grid.stencil_data.frame.normals[..., 1, :]
    assert np.array_equal(e4, data.frame.vectors[..., 3, :])
    assert np.isfinite(e4).all()


@pytest.mark.parametrize("kind", ["thm4", "thm5", "product", "tilted-plane"])
def test_completion_sees_the_nodes_and_the_points_without_a_mean_direction(
        kind, request, monkeypatch):
    # the fixture's grid is filled first: a session grid built under the spy
    # would be a second completion
    fixture = grid_of(kind, request)
    completions = []  # per completion: its candidates and its points' e1

    def spy(x, basis, g):
        if x[0] == 1.0:  # the first candidate: each completed point once
            completions.append(([], basis[0].tolist()))
        completions[-1][0].append(int(np.flatnonzero(x)[0]))
        return project_out_span(x, basis, g)

    monkeypatch.setattr(immersion, "project_out_span", spy)
    grid = SurfaceGrid(fixture.surface, fixture.us, fixture.vs)
    nd, st = grid.node_data.frame, grid.stencil_data
    # the node record completes every node, but at d = 4 a node with a mean
    # direction has nothing left to complete; the stencil record completes
    # its points without a mean direction alone (the tilted plane has no
    # mean direction anywhere)
    completes = (nd.normals.shape[-2] > 2) | ~nd.has_mean_direction
    no_mean = np.abs(rw.inner(st.sfd.H, st.sfd.H, st.G)) <= immersion.TOL_H ** 2
    want = [nd.e1[completes].tolist(), st.frame.e1[no_mean].tolist()]
    want = [sorted(map(tuple, e1)) for e1 in want if e1]
    assert [sorted(map(tuple, e1)) for _, e1 in completions] == want
    assert [len(e1) for _, e1 in completions] == (
        [] if kind == "thm4" else [25, 200] if kind == "tilted-plane" else [81])
    # one batched projection per coordinate candidate, whatever the points'
    # basis sizes: candidates 0, 1, ... in turn, each once per completion
    for candidates, _ in completions:
        assert candidates == list(range(len(candidates)))


def test_completion_projects_once_per_candidate_across_basis_sizes(
        monkeypatch):
    # the tilted graph (S u, C u, v, 0, v^3) in R^5_1 has H = 0 at v = 0 only,
    # and H orthogonal to e3 elsewhere: the completion starts from e1, e2, e3
    # at v = 0 and from e4 = H/|H| as well at v = 0.5, and both points share
    # each candidate's projection
    S, C = math.sinh(0.8), math.cosh(0.8)
    zero = np.zeros(5)

    def evaluator(u, v):
        return (np.array([S * u, C * u, v, 0.0, v ** 3]),
                np.array([S, C, 0.0, 0.0, 0.0]),
                np.array([0.0, 0.0, 1.0, 0.0, 3.0 * v * v]),
                zero, zero, np.array([0.0, 0.0, 0.0, 0.0, 6.0 * v]))

    space = rw.AmbientSpace.warped_flat(5, rw.WarpingFunction.constant(1.0))
    surface = rw.Jet2Immersion(space, evaluator, (-1.0, 1.0), (-1.0, 1.0))
    candidates = []

    def spy(x, basis, g):
        candidates.append(int(np.flatnonzero(x)[0]))
        return project_out_span(x, basis, g)

    monkeypatch.setattr(immersion, "project_out_span", spy)
    data, errors = evaluate_point(surface, np.zeros(2), np.array([0.0, 0.5]))
    assert errors == {}
    assert data.frame.has_mean_direction.tolist() == [False, True]
    assert candidates == list(range(len(candidates))) and candidates
    fr = data.frame
    gram = rw.inner(fr.vectors[:, :, None], fr.vectors[:, None],
                    data.G[:, None, None])
    assert np.abs(gram - np.eye(5) * fr.signs[:, None]).max() < 1e-14


@pytest.mark.parametrize("kind", ["thm4", "thm5", "product", "control"])
def test_report_pinned_to_pointwise_values(kind, request):
    surface, expect = {
        "thm4": ("l4_surface", "l4_expect"),
        "thm5": ("l5_surface", "l5_expect"),
        "product": ("product_surface", "product_expect"),
        "control": ("broken_product_surface", None),
    }[kind]
    rep = verify_surface(request.getfixturevalue(surface), grid=(9, 9),
                         expect=expect and request.getfixturevalue(expect))
    want = PINNED[kind]
    assert rep.verdict == want["verdict"]
    assert sorted(e.name for e in rep.entries) == sorted(want["entries"])
    for e in rep.entries:
        assert abs(e.value - want["entries"][e.name]) <= 1e-4 * e.tol, e.name
    for key in ("dim_N1", "dim_N2", "dim_N1_range", "dim_N2_range",
                "nodes_evaluated"):
        assert rep.diagnostics[key] == want[key], key
    assert rep.degeneracies == want["degeneracies"]
    assert not any(math.isnan(e.value) for e in rep.entries)
