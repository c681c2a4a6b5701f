import dataclasses
import functools
import math
import pathlib
import pickle
import sys
import types
import warnings

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import cli, immersion
from rwsurf.errors import (ChartDomainError, DimensionMismatchError,
                           HorizontalSliceError, NotSpaceLikeError)
from rwsurf.immersion import (FD_STEP_FIRST, FD_STEP_SECOND, JetSample,
                              finite_difference_jet)
from rwsurf.shape import SurfaceGrid, evaluate_point


def fd_surface(chart, space, u_dom=(-1, 1), v_dom=(-1, 1), **kw):
    return finite_difference_jet(chart, space, u_dom, v_dom, **kw)


def test_fd_jet_affine_map_exact(minkowski4):
    surf = fd_surface(lambda u, v: np.array([u, v, 0.0, 0.0]), minkowski4)
    jet = surf.jet(0.2, -0.3)
    np.testing.assert_allclose(jet.phi_u, [1, 0, 0, 0], atol=1e-10)
    np.testing.assert_allclose(jet.phi_v, [0, 1, 0, 0], atol=1e-10)
    np.testing.assert_allclose(jet.phi_uu, np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(jet.phi_uv, np.zeros(4), atol=1e-9)


def test_fd_jet_quadratic_second_partial(minkowski4):
    surf = fd_surface(lambda u, v: np.array([0.0, u * u, 0.0, 0.0]),
                      minkowski4)
    jet = surf.jet(0.1, 0.0)
    np.testing.assert_allclose(jet.phi_uu, [0.0, 2.0, 0, 0], atol=1e-9)


def test_fd_jet_mixed_partial_exact_oracle(minkowski4):
    # chart with a hand-differentiated mixed partial
    chart = lambda u, v: np.array([0.0, math.sin(u) * math.cos(2 * v),
                                   u * v * v, 0.0])
    surf = fd_surface(chart, minkowski4)
    for (u, v) in [(0.2, -0.3), (0.7, 0.5)]:
        got = surf.jet(u, v).phi_uv
        want = np.array([0.0, -2.0 * math.cos(u) * math.sin(2 * v), 2 * v, 0.0])
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_fd_jet_domain_error(minkowski4):
    surf = fd_surface(lambda u, v: np.array([u, v, 0.0, 0.0]), minkowski4)
    with pytest.raises(ChartDomainError):
        surf.jet(3.0, 0.0)


def _plane_jet(u, v):
    z = np.zeros(4)
    return (np.array([0.0, u, v, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 0.0]), z, z, z)


def test_chart_domains_widen_like_warp_intervals(minkowski4):
    # the slack is the warp interval's: relative to the finite ends, so a
    # finite domain admits its widened ends and nothing past them, and a
    # half-infinite one keeps a finite slack at its finite end
    from rwsurf.ambient import _widened

    lo, hi = _widened(-3.0, 2.0)
    surface = rw.Jet2Immersion(minkowski4, _plane_jet, (-3.0, 2.0), (-1, 1))
    us = np.array([lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf)])
    _, errors = surface.jet(us, np.zeros(4))
    assert sorted(errors) == [1, 3]
    half = rw.Jet2Immersion(minkowski4, _plane_jet, (0.0, math.inf), (-1, 1))
    _, errors = half.jet(np.array([-5.0, -1e-13, -2e-12, 3e9]), np.zeros(4))
    assert errors == {0: "ChartDomainError: u=-5.0 outside (0.0, inf)",
                      2: "ChartDomainError: u=-2e-12 outside (0.0, inf)"}
    with pytest.raises(ChartDomainError, match=r"^u=-5\.0 outside"):
        half.jet(-5.0, 0.0)


@pytest.mark.parametrize("chart", [
    lambda u, v: (u * v + u,),
    lambda u, v: (0.1 * u, u, v, 0.0, 0.0, 0.0),
], ids=["one-coordinate", "six-coordinates"])
def test_jet_vector_length_must_match_the_ambient(chart, minkowski4):
    surf = fd_surface(chart, minkowski4)
    n = len(chart(0.5, 0.5))
    message = f"jet vectors of length {n} for an ambient space of dimension 4"
    with pytest.raises(DimensionMismatchError, match=message):
        surf.jet(0.5, 0.5)
    # a stack fails as a whole, not as one degenerate point per entry
    with pytest.raises(DimensionMismatchError, match=message):
        surf.jet(np.array([0.5, 0.2]), np.array([0.5, 0.1]))
    batched = rw.Jet2Immersion(minkowski4, lambda u, v: surf.evaluator(0.5, 0.5),
                               (-1, 1), (-1, 1), batched=True)
    with pytest.raises(DimensionMismatchError, match=message):
        batched.jet(np.array([0.5, 0.2]), np.array([0.5, 0.1]))
    rep = rw.verify_surface(surf, grid=(3, 3))
    assert rep.verdict == "degenerate"
    assert rep.degeneracies == [[-1, -1, f"DimensionMismatchError: the chart "
                                 f"returned {message}"]]


def _log_chart(u, v):
    return (0.1 * math.log(u + 0.5), u, v, 0.0)


def _log_chart_batched(u, v):
    """The 2-jet of _log_chart at arrays u, v; raises as a whole when any u
    is below the chart's domain."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), v)
    if (u <= -0.5).any():
        raise ZeroDivisionError("log of a non-positive number")
    cols = lambda *c: np.stack(np.broadcast_arrays(*c), axis=-1)
    z = cols(0 * u, 0.0, 0.0, 0.0)
    return (cols(0.1 * np.log(u + 0.5), u, v, 0.0),
            cols(0.1 / (u + 0.5), 1.0, 0.0, 0.0), cols(0 * u, 0.0, 1.0, 0.0),
            cols(-0.1 / (u + 0.5) ** 2, 0.0, 0.0, 0.0), z, z)


@pytest.mark.parametrize("batched", [False, True], ids=["pointwise", "batched"])
def test_chart_errors_are_point_errors(batched, minkowski4):
    # an ArithmeticError or ValueError of the chart is that point's
    # ChartDomainError, naming (u, v) and the error; the rest of a stack
    # is evaluated
    if batched:
        surf = rw.Jet2Immersion(minkowski4, _log_chart_batched, (-1, 1),
                                (-1, 1), batched=True)
        cause = "ZeroDivisionError: log of a non-positive number"
    else:
        surf = fd_surface(_log_chart, minkowski4)
        cause = "ValueError: math domain error"
    us, vs = np.array([0.3, -0.7, 0.5, -0.9]), np.array([0.1, 0.2, -0.3, 0.4])
    sample, errors = surf.jet(us, vs)
    assert sorted(errors) == [1, 3]
    for k in (1, 3):
        message = f"chart failed at (u,v)=({us[k]},{vs[k]}): {cause}"
        assert errors[k] == f"ChartDomainError: {message}"
        with pytest.raises(ChartDomainError) as exc:
            surf.jet(us[k], vs[k])
        assert str(exc.value) == message
    for k in (0, 2):
        np.testing.assert_allclose(sample.phi_u[k], surf.jet(us[k], vs[k]).phi_u,
                                   rtol=1e-12)


def test_batched_evaluator_gets_the_unindexed_arrays_once(minkowski4):
    # every point in the domain: one call with the flattened u, v
    # themselves, no index list and no copy; a point outside the domain: one
    # call with copies of the others
    calls = []

    def evaluator(u, v):
        calls.append((u, v))
        return _log_chart_batched(u, v)

    surf = rw.Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1),
                            batched=True)
    us, vs = np.meshgrid(np.linspace(-0.4, 0.9, 5), np.linspace(-1, 1, 3),
                         indexing="ij")
    sample, errors = surf.jet(us, vs)
    assert errors == {} and len(calls) == 1
    u, v = calls[0]
    assert u.shape == v.shape == (15,)
    assert np.shares_memory(u, us) and np.shares_memory(v, vs)
    want = _log_chart_batched(us.ravel().copy(), vs.ravel().copy())
    for name, x in zip(_JET_FIELDS, want):
        assert np.array_equal(getattr(sample, name), x.reshape(5, 3, 4)), name
    calls.clear()
    us[2, 1] = 1.5
    sample, errors = surf.jet(us, vs)
    assert list(errors) == [7] and len(calls) == 1
    u, v = calls[0]
    assert u.shape == (14,) and not np.shares_memory(u, us)
    assert np.array_equal(u, np.delete(us.ravel(), 7))
    assert np.isnan(sample.phi[2, 1]).all()


def test_other_chart_errors_propagate(minkowski4):
    # an analytic evaluator's programming error is not a point's failure
    def evaluator(u, v):
        raise RuntimeError("not a chart")
    for batched in (False, True):
        surf = rw.Jet2Immersion(minkowski4, evaluator, (-1, 1), (-1, 1),
                                batched=batched)
        with pytest.raises(RuntimeError, match="not a chart"):
            surf.jet(np.array([0.1, 0.2]), np.zeros(2))


@pytest.mark.parametrize("error", [KeyError("k"), IndexError("i"),
                                   RuntimeError("r"), LookupError("l")],
                         ids=lambda e: type(e).__name__)
def test_fd_chart_errors_of_any_type_are_point_errors(error, minkowski4):
    # a user chart that finite_difference_jet wraps: whatever it raises at a
    # point is that point's ChartDomainError naming the type and (u, v)
    def chart(u, v):
        if u < 0:
            raise error
        return (0.1 * u, u, v, 0.0)
    surf = fd_surface(chart, minkowski4)
    us, vs = np.array([0.3, -0.7, 0.5]), np.array([0.1, 0.2, -0.3])
    sample, errors = surf.jet(us, vs)
    assert sorted(errors) == [1]
    message = f"chart failed at (u,v)=(-0.7,0.2): {type(error).__name__}: {error}"
    assert errors[1] == f"ChartDomainError: {message}"
    with pytest.raises(ChartDomainError) as exc:
        surf.jet(-0.7, 0.2)
    assert str(exc.value) == message
    np.testing.assert_array_equal(sample.phi_u[0], surf.jet(0.3, 0.1).phi_u)


@pytest.mark.parametrize("chart, what", [
    (lambda u, v: None, "a scalar of type NoneType"),
    (lambda u, v: u + v, "a scalar of type float"),
    (lambda u, v: (u, v, 0.0), "jet vectors of length 3"),
    (lambda u, v: ((u, v), (0.0, 1.0)), "values of shape (2, 2)"),
], ids=["none", "scalar", "three-coordinates", "matrix"])
def test_fd_chart_values_that_are_no_vectors_name_what_they_are(chart, what,
                                                                minkowski4):
    # the message names what the chart returned, not the stack size, and
    # the whole call fails, at one point or at a stack
    surf = fd_surface(chart, minkowski4)
    message = (f"the chart returned {what} for an ambient space of "
               f"dimension 4")
    for u, v in ((0.5, 0.5), (np.array([0.5, 0.2, 0.1]), np.zeros(3))):
        with pytest.raises(DimensionMismatchError) as exc:
            surf.jet(u, v)
        assert str(exc.value) == message
    rep = rw.verify_surface(surf, grid=(3, 3))
    assert rep.verdict == "degenerate"
    assert rep.degeneracies == [[-1, -1, f"DimensionMismatchError: {message}"]]


@pytest.mark.parametrize("case", ["l4", "l5", "product"])
def test_fd_jet_matches_analytic_catalog(case, l4_surface, l5_surface,
                                         product_surface):
    surf, pts = {
        "l4": (l4_surface, [(0.03, 0.5), (0.05, 1.7)]),
        "l5": (l5_surface, [(0.2, 0.5), (0.5, 2.0)]),
        "product": (product_surface, [(0.5, 0.7), (2.0, 2.4)]),
    }[case]
    chart = lambda u, v: surf.jet(u, v).phi
    fd = finite_difference_jet(chart, surf.space, surf.u_domain,
                               surf.v_domain)
    for (u, v) in pts:
        a = surf.jet(u, v)
        b = fd.jet(u, v)
        for name in ("phi", "phi_u", "phi_v", "phi_uu", "phi_uv", "phi_vv"):
            ref = getattr(a, name)
            got = getattr(b, name)
            err = np.linalg.norm(got - ref)
            assert err < 1e-7 * (1.0 + np.linalg.norm(ref)), (case, name, err)


def test_induced_metric_horizontal_plane(minkowski4):
    surf = fd_surface(lambda u, v: np.array([0.0, u, v, 0.0]), minkowski4)
    jet = surf.jet(0.1, 0.2)
    G = minkowski4.metric_at(jet.phi, minkowski4.warp_state(jet.phi))
    g = rw.induced_metric(jet, G)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-10)


def test_induced_metric_closed_form_l4(l4_surface, l4_constants):
    # g11 = -1 + f'^2 / (b^2 f^2), g12 = 0 for the rotational chart
    warp = l4_surface.space.warp
    for (u, v) in [(0.03, 0.4), (0.1, 2.0)]:
        jet = l4_surface.jet(u, v)
        space = l4_surface.space
        g = rw.induced_metric(jet, space.metric_at(jet.phi,
                                                   space.warp_state(jet.phi)))
        f, fp, _ = warp(u)
        want = -1.0 + fp * fp / (l4_constants.b2 * f * f)
        assert abs(g[0, 0] - want) < 1e-12 * max(1.0, abs(want))
        assert abs(g[0, 1]) < 1e-14
        assert abs(g[1, 1] - 1.0) < 1e-12


def test_induced_metric_rejects_timelike_chart(minkowski4):
    surf = fd_surface(lambda u, v: np.array([2.0 * u, u, v, 0.0]), minkowski4)
    jet = surf.jet(0.0, 0.0)
    with pytest.raises(NotSpaceLikeError):
        rw.induced_metric(jet, minkowski4.metric_at(
            jet.phi, minkowski4.warp_state(jet.phi)))


def test_induced_metric_reads_the_real_part_of_a_complex_metric():
    # g11 = -1 + (1 + 5e-31j)^2 = 0 + 1e-30j: not positive, at one point and
    # in a stack of one
    zero = np.zeros(4, complex)
    vecs = (zero, np.array([1.0, 1.0 + 5e-31j, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 0.0], complex), zero, zero, zero)
    G = np.array([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NotSpaceLikeError, match="g11=0, det=0"):
        rw.induced_metric(JetSample(0.0, 0.0, *vecs), G)
    stack = JetSample(np.zeros(1), np.zeros(1), *(x[None] for x in vecs))
    with pytest.raises(NotSpaceLikeError) as exc:
        rw.induced_metric(stack, G)
    assert exc.value.where.tolist() == [True]


def test_adapted_frame_orthonormal_and_reassembles(l4_surface):
    space = l4_surface.space
    jet = l4_surface.jet(0.06, 1.1)
    fr = evaluate_point(l4_surface, 0.06, 1.1).frame
    G = space.metric_at(jet.phi, space.warp_state(jet.phi))
    vecs = [fr.e1, fr.e2, *fr.normals]
    signs = fr.signs
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            want = signs[i] if i == j else 0.0
            assert abs(rw.inner(vi, vj, G) - want) < 1e-10
    dt = space.dt_vector()
    back = fr.sinh_theta * fr.e1 + fr.cosh_theta * fr.normals[0]
    assert np.linalg.norm(back - dt) < 1e-9
    assert fr.sinh_theta >= 0.0
    # T tangent, eta normal
    assert abs(rw.inner(fr.T, fr.normals[0], G)) < 1e-12
    assert abs(rw.inner(fr.eta, fr.e1, G)) < 1e-12
    assert abs(rw.inner(fr.eta, fr.e2, G)) < 1e-12


def test_adapted_frame_product_angle(product_surface, product_constants):
    # first chart component is -b1 u, so sinh(theta) = b1 everywhere
    for (u, v) in [(0.3, 0.4), (1.5, 2.0)]:
        fr = evaluate_point(product_surface, u, v).frame
        assert abs(fr.sinh_theta - product_constants.b1) < 1e-12
        assert abs(fr.cosh_theta - math.sqrt(2.0)) < 1e-12
        phi = product_surface.jet(u, v).phi
        G = product_surface.space.metric_at(
            phi, product_surface.space.warp_state(phi))
        assert abs(rw.inner(fr.normals[0], fr.normals[0], G) + 1.0) < 1e-10


def test_adapted_frame_horizontal_slice_degenerates(minkowski4):
    surf = fd_surface(lambda u, v: np.array([0.0, u, v, 0.0]), minkowski4)
    with pytest.raises(HorizontalSliceError):
        evaluate_point(surf, 0.0, 0.0)


def test_adapted_frame_bitwise_deterministic(l5_surface):
    a = evaluate_point(l5_surface, 0.33, 0.71)
    b = evaluate_point(l5_surface, 0.33, 0.71)
    assert pickle.dumps(a.frame) == pickle.dumps(b.frame)
    assert pickle.dumps(a.sfd.A) == pickle.dumps(b.sfd.A)


def _assert_no_sign_flips(surface, points):
    frames = [evaluate_point(surface, u, v).frame for (u, v) in points]
    for (u, v), a, b in zip(points, frames, frames[1:]):
        phi = surface.jet(u, v).phi
        G = surface.space.metric_at(phi, surface.space.warp_state(phi))
        signs = a.signs
        for s, ea, eb in zip(signs, (a.e1, a.e2, *a.normals),
                             (b.e1, b.e2, *b.normals)):
            # sign-weighted: nearby equal timelike unit vectors pair to ~ -1
            assert s * rw.inner(ea, eb, G) > 0.0


@pytest.mark.parametrize("which", ["l4", "l5", "product"])
def test_adapted_frame_smooth_along_grid_lines(which, l4_surface, l5_surface,
                                               product_surface):
    surf, u0, uline = {
        "l4": (l4_surface, 0.06, np.linspace(0.02, 0.15, 60)),
        "l5": (l5_surface, 0.3, np.linspace(0.1, 0.7, 60)),
        "product": (product_surface, 1.0, np.linspace(0.1, 3.4, 60)),
    }[which]
    # sufficiently fine lines: consecutive frames stay in the same hemisphere
    _assert_no_sign_flips(surf, [(u0, v) for v in np.linspace(0.1, 3.0, 60)])
    _assert_no_sign_flips(surf, [(u, 1.3) for u in uline])


def test_fd_step_config_is_honored(minkowski4):
    calls = []

    def chart(u, v):
        calls.append((u, v))
        return np.array([u, v, 0.0, 0.0])

    surf = fd_surface(chart, minkowski4)
    surf.jet(0.0, 0.0)
    us = sorted({abs(c[0]) for c in calls if c[0] != 0.0})
    assert (FD_STEP_FIRST, FD_STEP_SECOND) == (1e-5, 5e-3)
    assert min(us) == pytest.approx(0.5 * FD_STEP_FIRST)
    assert max(us) == pytest.approx(FD_STEP_SECOND)


_JET_FIELDS = ("phi", "phi_u", "phi_v", "phi_uu", "phi_uv", "phi_vv")


def _product_member():
    """A member of the product classification (b1 = 1, b3 = 0.5) entered as
    a bare chart on the embedded E^1_1 x S^4 backend."""
    b1, b3 = 1.0, 0.5
    b2 = math.sqrt(1.0 / (b1 * b1 + 2.0) - b3 * b3)
    b0 = math.sqrt(1.0 - b2 * b2 - b3 * b3)
    lam = math.sqrt(1.0 + b1 * b1) / b0

    def chart(u, v):
        return (-b1 * u, b0 * math.cos(lam * u), b0 * math.sin(lam * u), b2,
                b3 * math.sin(v / b3), b3 * math.cos(v / b3))
    return (chart, rw.AmbientSpace.product_space_form(5, 1),
            (0.0, 2.0 * math.pi / lam), (0.0, 2.0 * math.pi * b3))


def _tube():
    """A tube about the time axis in a warped-flat space."""
    def chart(u, v):
        r = 0.3 * math.cosh(u)
        return (u, r * math.cos(v), r * math.sin(v), 0.7 * u)
    space = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.exponential(1.0))
    return chart, space, (-0.9, 0.9), (0.0, 2.0 * math.pi)


_FD_CASES = {"product": _product_member, "warped-flat": _tube}


def _pointwise_fd_jet(chart, u, v):
    """The adaptor's formulas at one point in Python floats, one chart call
    per abscissa and one numpy vector per call."""
    fn = lambda a, b: np.asarray(chart(a, b), dtype=float)
    su, sv = 1.0 + abs(u), 1.0 + abs(v)
    phi = fn(u, v)

    def first(f, x, h):
        d_h = (f(x + h) - f(x - h)) / (2 * h)
        d_h2 = (f(x + h / 2) - f(x - h / 2)) / h
        return (4.0 * d_h2 - d_h) / 3.0

    def second(f, x, h):
        d_h = (f(x + h) - 2.0 * phi + f(x - h)) / (h * h)
        d_h2 = (f(x + h / 2) - 2.0 * phi + f(x - h / 2)) / (h * h / 4)
        return (4.0 * d_h2 - d_h) / 3.0

    def mixed(h, k):
        return (fn(u + h, v + k) - fn(u + h, v - k) - fn(u - h, v + k)
                + fn(u - h, v - k)) / (4 * h * k)

    fu, fv = (lambda x: fn(x, v)), (lambda x: fn(u, x))
    h2u, h2v = FD_STEP_SECOND * su, FD_STEP_SECOND * sv
    return (phi, first(fu, u, FD_STEP_FIRST * su),
            first(fv, v, FD_STEP_FIRST * sv), second(fu, u, h2u),
            (4.0 * mixed(h2u / 2, h2v / 2) - mixed(h2u, h2v)) / 3.0,
            second(fv, v, h2v))


@pytest.mark.parametrize("case", sorted(_FD_CASES))
def test_batched_fd_jet_is_bitwise_the_pointwise_jet(case):
    chart, space, u_dom, v_dom = _FD_CASES[case]()
    fd = finite_difference_jet(chart, space, u_dom, v_dom)
    assert fd.batched
    pointwise = rw.Jet2Immersion(space, fd.evaluator, u_dom, v_dom,
                                 batched=False)
    us, vs = np.meshgrid(np.linspace(u_dom[0] + 0.1, u_dom[1] - 0.1, 7),
                         np.linspace(v_dom[0] + 0.1, v_dom[1] - 0.1, 5),
                         indexing="ij")
    got, errors = fd.jet(us, vs)
    want, want_errors = pointwise.jet(us, vs)
    assert errors == want_errors == {}
    for name in _JET_FIELDS:
        assert getattr(got, name).shape == us.shape + (space.ambient_dim,)
        assert (getattr(got, name) == getattr(want, name)).all(), name
    for i, j in ((0, 0), (3, 2), (6, 4)):
        u, v = float(us[i, j]), float(vs[i, j])
        one = fd.jet(u, v)
        for name, ref in zip(_JET_FIELDS, _pointwise_fd_jet(chart, u, v)):
            assert (getattr(one, name) == ref).all(), name
            assert (getattr(got, name)[i, j] == ref).all(), name


def test_fd_report_is_the_same_on_both_routes():
    chart, space, u_dom, v_dom = _product_member()
    fd = finite_difference_jet(chart, space, u_dom, v_dom, name="member")
    pointwise = dataclasses.replace(fd, batched=False)
    batched_json = rw.verify_surface(fd, grid=(9, 9)).to_json()
    assert batched_json == rw.verify_surface(pointwise, grid=(9, 9)).to_json()
    assert '"verdict": "pass"' in batched_json


def test_fd_grid_fill_is_one_evaluator_call_per_record():
    # the chart refuses anything but floats: the pin of the per-point path
    member, space, u_dom, v_dom = _product_member()
    calls = {"evaluator": [], "chart": 0}

    def chart(u, v):
        calls["chart"] += 1
        assert type(u) is float and type(v) is float
        return member(u, v)

    fd = finite_difference_jet(chart, space, u_dom, v_dom)

    def evaluator(u, v):
        calls["evaluator"].append(np.size(u))
        return fd.evaluator(u, v)

    counted = dataclasses.replace(fd, evaluator=evaluator)
    grid = SurfaceGrid(counted, np.linspace(0.5, 3.0, 6),
                       np.linspace(0.5, 2.5, 4))
    assert grid.degeneracies == []
    # one call for the 6 x 4 nodes, one for their 8 cross-stencil points
    # each, and 25 chart calls per point after one refused stack call per
    # record: 5402 calls
    assert calls == {"evaluator": [6 * 4, 8 * 6 * 4],
                     "chart": 2 + 25 * 6 * 4 * 9}


@pytest.mark.filterwarnings("error")  # a ComplexWarning fails the test
def test_fd_jet_refuses_complex_points():
    # a user chart is called at floats: a complex point is that point's chart
    # failure, never a sample at its real part
    chart, space, u_dom, v_dom = _product_member()
    fd = finite_difference_jet(chart, space, u_dom, v_dom)
    uv = np.array([0.5, 1.0]) + 0j
    data, errors = evaluate_point(fd, uv, uv)
    assert sorted(errors) == [0, 1]
    assert all(e.startswith("ChartDomainError: chart failed at")
               for e in errors.values())
    for x in (data.jet.phi, data.ginv, data.frame.vectors, data.sfd.H):
        assert np.isnan(x).all()
    # int points are float points, bitwise
    ints = fd.evaluator(np.array([1, 2]), np.array([1, 1]))
    floats = fd.evaluator(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ints, floats))


def _faulty_fd_chart(calls):
    """The warped-flat chart (0.1u, u, cos v, sin v), counted, raising
    ValueError at one abscissa and a GeometryError at another."""
    def chart(u, v):
        calls["chart"] += 1
        if u == 0.5 and v == 0.5:
            raise ValueError("bad point")
        if u == 0.25 and v == 0.75:
            raise ChartDomainError("outside the chart's atlas")
        return (0.1 * u, u, math.cos(v), math.sin(v))
    space = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.exponential(1.0))
    return chart, space


def test_fd_fallback_halves_the_stack_and_keeps_point_errors():
    # each failing point keeps the message of the pointwise rerun, and every
    # jet is bitwise the one-point jet
    calls = {"chart": 0, "evaluator": 0}
    chart, space = _faulty_fd_chart(calls)
    fd = finite_difference_jet(chart, space, (-1, 2), (-1, 2))

    def evaluator(u, v):
        calls["evaluator"] += 1
        return fd.evaluator(u, v)

    halving = dataclasses.replace(fd, evaluator=evaluator)
    pointwise = dataclasses.replace(fd, batched=False)
    us, vs = np.meshgrid(np.linspace(0, 1, 17), np.linspace(0, 1, 17),
                         indexing="ij")
    got, errors = halving.jet(us, vs)
    assert calls["evaluator"] < 40  # the pointwise rerun made 1 + 289
    want, want_errors = pointwise.jet(us, vs)
    assert errors == want_errors
    assert sorted(errors) == [4 * 17 + 12, 8 * 17 + 8]
    assert errors[8 * 17 + 8] == ("ChartDomainError: chart failed at "
                                  "(u,v)=(0.5,0.5): ValueError: bad point")
    assert errors[4 * 17 + 12] == "ChartDomainError: outside the chart's atlas"
    for name in _JET_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name


# A chart that is a plain function gets one call per offset on the whole
# stack of points; where that call cannot be shown to equal the float calls,
# the record's remaining offsets go per point.

CHARTS = pathlib.Path(__file__).resolve().parent / "charts"
# the chart files that take the stack call; nan_chart and holed_plane branch
# on their point
STACK_CHARTS = {"bicons_e3", "bicons_e3_twin", "constant_chart", "h4_chart",
                "horizontal_slice", "log_chart", "one_coordinate_chart", "plane",
                "printing_chart", "six_coordinate_chart", "sphere_chart",
                "vanishing_chart"}


def _code_calls(code, run):
    """``run()`` and the number of calls into the code object ``code`` it
    made (a chart's stack twin shares its code)."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls[0]


def test_fd_stack_call_is_bitwise_the_float_calls_for_every_chart_file():
    us, vs = np.meshgrid(np.linspace(1.55, 2.95, 6), np.linspace(0.25, 1.25, 5),
                         indexing="ij")
    us, vs = us.ravel(), vs.ravel()
    evaluated, stacked = set(), set()
    for path in sorted(CHARTS.glob("*.py")):
        try:
            chart = cli._load_chart(str(path))
            d = len(chart(1.6, 0.7))
        except Exception:  # no chart, or none that evaluates
            continue
        evaluated.add(path.stem)
        fd = finite_difference_jet(chart, types.SimpleNamespace(ambient_dim=d),
                                   (1.5, 3.0), (0.2, 1.3))
        jet, calls = _code_calls(chart.__code__, lambda: fd.evaluator(us, vs))
        for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            for got, want in zip(jet, fd.evaluator(u, v)):
                assert got[k].tobytes() == want.tobytes(), path.name
        if calls == 25:
            stacked.add(path.stem)
        else:  # one refused stack call, then 25 float calls per point
            assert calls == 1 + 25 * len(us), path.name
    assert stacked == STACK_CHARTS
    assert evaluated == STACK_CHARTS | {"nan_chart", "holed_plane"}


def _float_operators(u, v):
    w = u + 0.25
    w **= 1.5
    return (u ** 2.5, pow(v, 3), math.pow(u, v), u // 0.3, v % 0.7, w,
            2.0 ** u, 7.3 // v, 5.0 % u, u ** v)


def test_fd_stack_power_floor_division_and_modulo_are_python_floats():
    # numpy's power differs from Python's in the last bit on some inputs;
    # on a stack, ** and its kin run element by element as Python floats
    us, vs = np.linspace(0.3, 2.9, 40), np.linspace(0.2, 1.9, 40)
    fd = finite_difference_jet(_float_operators,
                               types.SimpleNamespace(ambient_dim=10),
                               (0.0, 3.0), (0.0, 2.0))
    jet, calls = _code_calls(_float_operators.__code__,
                             lambda: fd.evaluator(us, vs))
    assert calls == 25
    floats = [_float_operators(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    assert jet[0].tobytes() == np.array(floats).tobytes()
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        for got, want in zip(jet, fd.evaluator(u, v)):
            assert got[k].tobytes() == want.tobytes()


_HELPER = types.ModuleType("helper")  # reads math through its own globals
exec("import math\ndef z(x):\n    return math.exp(x)\n", _HELPER.__dict__)


def _if_on_the_point(u, v):
    return (0.1 * u, u, v, 1.0 if u > 1.2 else 0.0)


def _numpy_exp(u, v):
    return (0.1 * u, u, v, np.exp(u))


def _warning(u, v):
    warnings.warn("a chart that warns")
    return (0.1 * u, u, v, 0.0)


def _invalid_at_one_point(u, v):  # np.sqrt of a negative at u = 0.5
    return (0.1 * u, u, v, np.sqrt(u - 0.75))


def _helper_module(u, v):
    return (0.1 * u, u, v, _HELPER.z(u))


def _one_array(u, v):  # a scalar at a point, an (N,) array on a stack
    return u + v


def _scaled(s, u, v):
    return (0.1 * u, s * u, v, 0.0)


class _Instance:
    def __call__(self, u, v):
        return (0.1 * u, u, v, math.cos(u))


_FALLBACKS = {
    "if": _if_on_the_point, "np.exp": _numpy_exp, "warning": _warning,
    "fp-exception": _invalid_at_one_point, "helper-module": _helper_module,
    "one-array": _one_array, "partial": functools.partial(_scaled, 2.0),
    "instance": _Instance(),
    "bool": lambda u, v: (0.1 * u, u, v, u > 1.2),
    "complex": lambda u, v: (0.1 * u, u, v, 0j),
    "str": lambda u, v: (0.1 * u, u, v, "0.5"),
    # numpy's nan / 0 sets no flag where the float / raises
    "nan-over-zero": lambda u, v: (0.1 * u, u, v, math.nan * u / (u - 1.0)),
    "index": lambda u, v: (0.1 * u, u, v, v[0]),
}


def _jet_or_error(surface, us, vs):
    try:
        sample, errors = surface.jet(us, vs)
    except Exception as exc:
        return type(exc), str(exc)
    return [getattr(sample, name).tobytes() for name in _JET_FIELDS], errors


@pytest.mark.filterwarnings("ignore:a chart that warns")
@pytest.mark.parametrize("case", sorted(_FALLBACKS))
def test_fd_stack_call_falls_back_to_the_float_calls(case, minkowski4):
    # four points and four coordinates: a chart returning one (N,) array
    # cannot pass for N columns
    chart = _FALLBACKS[case]
    fd = finite_difference_jet(chart, minkowski4, (0.0, 3.0), (0.0, 1.0))
    pointwise = dataclasses.replace(fd, batched=False)
    us, vs = np.array([0.5, 1.0, 1.5, 2.0]), np.array([0.1, 0.2, 0.3, 0.4])
    code = {"partial": _scaled, "instance": _Instance.__call__}.get(
        case, chart).__code__
    got, calls = _code_calls(code, lambda: _jet_or_error(fd, us, vs))
    assert got == _jet_or_error(pointwise, us, vs)
    if case in ("partial", "instance"):  # no plain function: per point
        assert calls == 25 * 4
    elif case not in ("fp-exception", "one-array", "complex", "nan-over-zero",
                      "index"):
        assert calls == 1 + 25 * 4
    if case == "fp-exception":
        assert list(got[1]) == [0]
        assert got[1][0].startswith("ChartDomainError: chart failed at "
                                    "(u,v)=(0.5,0.1): RuntimeWarning")
    if case == "one-array":
        assert got == (DimensionMismatchError, "the chart returned a scalar of "
                       "type float for an ambient space of dimension 4")


def test_fd_memo_is_cleared_when_a_record_raises(tmp_path, minkowski4):
    # the stack call maps math.cos's twin, then divides by zero; every float
    # call raises, so every record ends in its first call's error
    path = tmp_path / "zero_division.py"
    path.write_text("import math\ndef chart(u, v):\n"
                    "    return (u, math.cos(u), v, 1.0 / (u - u))\n")
    fd = finite_difference_jet(cli._load_chart(str(path)), minkowski4,
                               (0.0, 1.0), (0.0, 1.0))
    report = rw.verify_surface(fd, grid=(9, 9))
    assert report.verdict == "degenerate"
    assert immersion._MEMO == {}


def test_fd_grid_fill_calls_a_module_chart_once_per_offset(tmp_path):
    # 25 calls per record on the stack, the grid's nodes and stencil points
    # being its two records
    path = tmp_path / "counted.py"
    path.write_text("import math\nS, C = math.sinh(0.8), math.cosh(0.8)\n"
                    "calls = []\ndef chart(u, v):\n    calls.append(u)\n"
                    "    return (S * u, C * u, v, math.sin(u) * 0.0)\n")
    chart = cli._load_chart(str(path))
    space = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant(1.0))
    fd = finite_difference_jet(chart, space, (0.0, 1.0), (0.0, 1.0))
    grid = SurfaceGrid(fd, np.linspace(0.1, 0.9, 17), np.linspace(0.1, 0.9, 17))
    assert grid.degeneracies == []
    assert len(chart.__globals__["calls"]) == 50
    assert rw.verify_surface(fd, grid=(17, 17)).verdict == "pass"
    assert len(chart.__globals__["calls"]) == 100


@pytest.mark.parametrize("bad", [[0], [37], [5, 900]])
def test_batched_fallback_calls_grow_like_log_n(bad, minkowski4):
    # one bad point in N = 2^m costs 2m - 1 batched calls and two float calls
    # (the bad point and its last partner); the parent reran all N points
    def run(n):
        calls = {"batched": 0, "float": 0}

        def evaluator(u, v):
            calls["batched" if np.ndim(u) else "float"] += 1
            if np.isin(u, bad).any():
                raise ValueError("bad point")
            cols = lambda *c: np.stack(np.broadcast_arrays(*c), axis=-1)
            z = cols(0 * u, 0.0, 0.0, 0.0)
            return (cols(0 * u, u, v, 0.0), cols(0 * u, 1.0, 0.0, 0.0),
                    cols(0 * u, 0.0, 1.0, 0.0), z, z, z)

        surface = rw.Jet2Immersion(minkowski4, evaluator, (0, n), (-1, 1),
                                   batched=True)
        sample, errors = surface.jet(np.arange(n, dtype=float), np.zeros(n))
        assert sorted(errors) == [k for k in bad if k < n]
        assert np.isfinite(np.delete(sample.phi, list(errors), axis=0)).all()
        return calls

    for m in (6, 10, 14):
        calls = run(2 ** m)
        hit = len([k for k in bad if k < 2 ** m])
        assert calls["float"] == 2 * hit
        assert calls["batched"] <= hit * (2 * m - 1)
