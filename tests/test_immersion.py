import math
import pickle

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.errors import (ChartDomainError, HorizontalSliceError,
                           NotSpaceLikeError)
from rwsurf.immersion import (FD_STEP_FIRST, FD_STEP_SECOND,
                              finite_difference_jet)
from rwsurf.shape import evaluate_point


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


def test_adapted_frame_orthonormal_and_reassembles(l4_surface):
    space = l4_surface.space
    jet = l4_surface.jet(0.06, 1.1)
    fr = evaluate_point(l4_surface, 0.06, 1.1).frame
    G = space.metric_at(jet.phi, space.warp_state(jet.phi))
    vecs = [fr.e1, fr.e2, *fr.normals]
    signs = [1, 1, *fr.normal_signs]
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
    for a, b in zip(frames, frames[1:]):
        phi = surface.jet(a.u, a.v).phi
        G = surface.space.metric_at(phi, surface.space.warp_state(phi))
        signs = (1, 1, *a.normal_signs)
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
