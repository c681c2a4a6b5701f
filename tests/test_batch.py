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
from rwsurf.solvers import DenseOutput, WarpSystemSolution
from rwsurf.verdicts import verify_surface

from conftest import L5_ICS, L5_INTERVAL
from oracles import svd_rank
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
    calls, times = collections.Counter(), set()
    if surface_name == "l5_surface":
        # a fresh solution: the session fixture's state cache holds the
        # times that earlier tests asked for
        surface = rw.surface_l51(rw.solve_warp_system(
            request.getfixturevalue("l5_constants"), L5_ICS, L5_INTERVAL))
    else:
        surface = request.getfixturevalue(surface_name)
    surface = dataclasses.replace(
        surface, evaluator=counted(calls, "chart", surface.evaluator))
    monkeypatch.setattr(rw.Jet2Immersion, "jet",
                        counted(calls, "jet", rw.Jet2Immersion.jet))
    monkeypatch.setattr(rw.WarpingFunction, "__call__",
                        counted(calls, "warp", rw.WarpingFunction.__call__, times))
    monkeypatch.setattr(WarpSystemSolution, "y_state",
                        counted(calls, "y_state", WarpSystemSolution.y_state, times))
    monkeypatch.setattr(DenseOutput, "__call__",
                        counted(calls, "dense", DenseOutput.__call__))
    (u0, u1), (v0, v1) = surface.u_domain, surface.v_domain
    us = np.linspace(0.8 * u0 + 0.2 * u1, 0.2 * u0 + 0.8 * u1, 5)
    vs = np.linspace(0.8 * v0 + 0.2 * v1, 0.2 * v0 + 0.8 * v1, 4)
    ku, kv = np.array(shape._FILL_OFFSETS, dtype=float).T
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
    # the L5 state is cached per time; the L4 warp reads the dense output
    # on every call
    assert calls["dense"] == (len(times) if surface_name == "l5_surface"
                              else calls["warp"])
    calls.clear()
    grid = SurfaceGrid(surface, us, vs)
    assert grid.n_ok == len(us) * len(vs)
    assert calls["jet"] == calls["chart"] == 1


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
    calls = []
    surface = nan_cornered(product_surface, calls)
    rep = verify_surface(surface, grid=(9, 9), expect=product_expect)
    assert rep.verdict == "degenerate"
    assert len(calls) == len(set(calls)) == 9 * 9 * 9
    assert all(type(u) is float and type(v) is float for u, v in calls)


def test_pointwise_wrapper_report_bytes_are_pinned(product_surface,
                                                   product_expect):
    # the benchmark's nan-control certificate
    rep = verify_surface(nan_cornered(product_surface, []), grid=(17, 17),
                         expect=product_expect)
    assert rep.verdict == "degenerate"
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "45b99c7c0951258af3b3804e98c613371f983f0b14ad81b427236178715f55c7")


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


def test_grid_fill_calls_each_layer_once(l4_surface, monkeypatch):
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
    monkeypatch.setattr(rw.AmbientSpace, "metric_at",
                        counted(calls, "metric_at", rw.AmbientSpace.metric_at))
    for name in ("induced_metric", "chart_second_fundamental", "adapted_frame"):
        wrapper = counted(calls, name, getattr(immersion, name))
        for module in (immersion, shape):
            monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(shape, "second_fundamental_form",
                        counted(calls, "second_fundamental_form",
                                shape.second_fundamental_form))
    sg = SurfaceGrid(surface, np.linspace(0.03, 0.14, 5),
                     np.linspace(0.2, 2.9, 6))
    points = 5 * 6 * 9
    assert sg.n_ok == 30
    assert calls["chart"] == points
    # the wrapped chart above calls the warp once itself, like the catalog's
    assert calls["warp"] <= 2 * points
    for name in ("metric_at", "induced_metric", "chart_second_fundamental",
                 "adapted_frame", "second_fundamental_form"):
        assert calls[name] == 1, name


def fill_stack(grid):
    """The (nu, nv, 9) parameter stack of a grid's fill: each node, then its
    cross stencil."""
    ku, kv = np.array(shape._FILL_OFFSETS, dtype=float).T
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


@pytest.mark.parametrize("kind",
                         ["thm4", "thm5", "product", "control", "fd-product"])
def test_node_data_is_bitwise_the_unmasked_evaluation(kind, request):
    # the grid fill completes the normal frame only where a check reads it;
    # every node value equals a full evaluation of the same stack
    grid = grid_of(kind, request)
    data, errors = evaluate_point(grid.surface, *fill_stack(grid))
    assert errors == {} and grid.degeneracies == []
    got = dict(leaves(grid.node_data))
    want = dict(leaves(shape._map_arrays(lambda x: x[:, :, 0], data)))
    assert got.keys() == want.keys()
    for name, x in want.items():
        assert np.array_equal(got[name], x, equal_nan=True), name


@pytest.mark.parametrize("kind", ["thm5", "product", "control", "fd-product"])
def test_stencil_points_with_a_mean_direction_skip_the_completion(kind,
                                                                  request):
    # rows: e3, e4 = H/|H|, then the completion normals from index 2
    grid = grid_of(kind, request)
    fr, A = grid.data.frame, grid.data.sfd.A
    assert fr.has_mean_direction.all() and fr.normals.shape[-2] >= 3
    assert np.isnan(fr.normals[:, :, 1:, 2:]).all()
    assert np.isnan(A[:, :, 1:, 2:]).all()
    assert (fr.normal_signs[:, :, 1:, 2:] == 0).all()
    assert np.isfinite(fr.normals[:, :, :, :2]).all()
    assert np.isfinite(fr.normals[:, :, 0]).all()
    assert np.isfinite(A[:, :, 0]).all()
    assert (np.abs(fr.normal_signs[:, :, 0]) == 1).all()


def test_points_without_a_mean_direction_keep_the_full_frame(
        tilted_plane_grid):
    data = tilted_plane_grid.data
    assert not data.frame.has_mean_direction.any()
    assert np.isfinite(data.frame.normals).all()
    assert np.isfinite(data.sfd.A).all()
    assert (np.abs(data.frame.normal_signs) == 1).all()


@pytest.mark.parametrize("kind", ["thm4", "thm5", "product", "tilted-plane"])
def test_completion_sees_the_nodes_and_the_points_without_a_mean_direction(
        kind, request, monkeypatch):
    seen = []

    def spy(x, basis, g):
        if x[0] == 1.0:  # the first candidate: each completed point once
            seen.extend(map(tuple, basis[0].tolist()))  # its e1
        return project_out_span(x, basis, g)

    monkeypatch.setattr(immersion, "project_out_span", spy)
    fixture = grid_of(kind, request)
    grid = SurfaceGrid(fixture.surface, fixture.us, fixture.vs)
    fr = grid.data.frame
    # at d = 4 a point with a mean direction has nothing left to complete
    completes = fr.normals.shape[-2] > 2
    node = np.arange(len(shape._FILL_OFFSETS)) == 0
    want = fr.e1[~fr.has_mean_direction | (node & completes)]
    assert sorted(seen) == sorted(map(tuple, want.tolist()))
    assert len(seen) == (0 if kind == "thm4" else
                         225 if kind == "tilted-plane" else 81)


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
