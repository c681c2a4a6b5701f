import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.catalog import (default_warp_domain, nonexistence_scan_e11h4,
                            nonexistence_slice_scan)
from rwsurf.errors import ConstraintError, InapplicableError

from conftest import L5_CONSTANTS


def test_default_warp_domain_shrinks_five_percent(l4_solution):
    lo, hi = l4_solution.warp.interval
    dlo, dhi = default_warp_domain(l4_solution.warp)
    span = hi - lo
    assert abs(dlo - (lo + 0.05 * span)) < 1e-15
    assert abs(dhi - (hi - 0.05 * span)) < 1e-15


def test_l4_first_coordinate_is_parameter(l4_surface):
    for (u, v) in [(0.02, 0.3), (0.12, 2.8)]:
        assert l4_surface.jet(u, v).phi[0] == u


def test_l4_circle_radius(l4_surface, l4_constants):
    warp = l4_surface.space.warp
    a = l4_constants.a
    for u in (0.03, 0.11):
        f, _, _ = warp(u)
        phi = l4_surface.jet(u, 0.7).phi
        radius = math.hypot(phi[1], phi[2])
        assert abs(radius - 1.0 / (a * f)) < 1e-14


def test_l4_chart_orthogonality_and_spacelike(l4_surface):
    rng = np.random.default_rng(4)
    space = l4_surface.space
    for _ in range(20):
        u = float(rng.uniform(*l4_surface.u_domain))
        v = float(rng.uniform(*l4_surface.v_domain))
        jet = l4_surface.jet(u, v)
        G = space.metric_at(jet.phi, space.warp_state(jet.phi))
        assert abs(rw.inner(jet.phi_u, jet.phi_v, G)) < 1e-13
        assert rw.inner(jet.phi_u, jet.phi_u, G) > 0


def test_l4_period(l4_surface, l4_constants):
    period = 2 * math.pi / l4_constants.a
    p1 = l4_surface.jet(0.05, 0.3).phi
    p2 = l4_surface.jet(0.05, 0.3 + period).phi if \
        0.3 + period <= l4_surface.v_domain[1] + 1e-9 else None
    if p2 is not None:
        np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_l5_plane_constraint_exact(l5_surface, l5_constants):
    # c2 y + c3 z - (2 H0 / a) x = 0 holds to round-off by construction
    a, H0, c2, c3 = L5_CONSTANTS
    for (u, v) in [(0.1, 0.5), (0.45, 2.2), (0.7, 1.0)]:
        phi = l5_surface.jet(u, v).phi
        x = math.hypot(phi[1], phi[2])
        res = c2 * phi[3] + c3 * phi[4] - (2 * H0 / a) * x
        assert abs(res) < 1e-12


def test_l5_circle_radius(l5_surface, l5_constants):
    warp = l5_surface.space.warp
    for u in (0.2, 0.6):
        f, _, _ = warp(u)
        phi = l5_surface.jet(u, 1.1).phi
        assert abs(math.hypot(phi[1], phi[2]) - 1.0 / (l5_constants.a * f)) < 1e-14


def test_l5_first_coordinate_is_parameter(l5_surface):
    assert l5_surface.jet(0.33, 0.9).phi[0] == 0.33


def test_product_fiber_norm_identity(product_surface):
    # (b1^2+1)/(b1^2+2) + b2^2 + b3^2 = 1: the image lies on the unit sphere
    for (u, v) in [(0.0, 0.0), (1.3, 2.1), (3.0, 0.7)]:
        phi = product_surface.jet(u, v).phi
        fiber = phi[1:]
        assert abs(np.dot(fiber, fiber) - 1.0) < 1e-14


def test_product_mean_curvature_value(product_grid):
    for (i, j) in [(0, 0), (4, 4), (8, 8)]:
        pd = product_grid.point(i, j)
        H0 = math.sqrt(abs(rw.inner(pd.sfd.H, pd.sfd.H, pd.G)))
        assert abs(H0 - 0.5) < 1e-10


def test_product_constant_angle(product_grid):
    thetas = [product_grid.point(i, j).frame.theta
              for i, j in product_grid.nodes()]
    assert np.var(thetas) < 1e-12


def test_product_family_requires_room_on_fiber():
    with pytest.raises(ConstraintError):
        rw.product_surface_family(1.0, 0.9, 0.5)
    with pytest.raises(ConstraintError):
        rw.product_surface_family(1.0, 0.0, 0.5)


def test_scan_h4_pointwise_value():
    # sinh(1) cosh(1) + 4 tanh(1), evaluated directly
    res = nonexistence_scan_e11h4(np.array([1.0]), np.array([2.0]))
    want = math.sinh(1) * math.cosh(1) + 4.0 * math.tanh(1)
    assert abs(res.residuals[0, 0] - want) < 1e-15
    assert abs(res.min_abs - abs(want)) < 1e-15


def test_scan_h4_lower_bound_certified():
    res = nonexistence_scan_e11h4(np.linspace(0.1, 3.0, 301),
                                  np.linspace(0.0, 5.0, 501))
    assert res.bound_holds
    assert res.min_abs >= math.tanh(0.1)
    assert abs(res.lower_bound - math.tanh(0.1)) < 1e-15


def test_scan_h4_rejects_trivial_theta():
    with pytest.raises(ConstraintError):
        nonexistence_scan_e11h4(np.array([0.0, 0.5]), np.array([1.0]))
    with pytest.raises(ConstraintError):
        nonexistence_scan_e11h4(np.array([]), np.array([1.0]))


def test_scan_slice_values_and_signs():
    res = nonexistence_slice_scan(1, np.array([0.5]))
    assert abs(res.min_abs - math.sinh(0.5) * math.cosh(0.5)) < 1e-15
    res_neg = nonexistence_slice_scan(-1, np.array([0.5]))
    assert abs(res_neg.min_abs - res.min_abs) < 1e-15
    assert res.bound_holds and res_neg.bound_holds


def test_scan_slice_flat_fiber_inapplicable():
    with pytest.raises(InapplicableError):
        nonexistence_slice_scan(0, np.array([0.5]))


def test_scan_rows_export():
    res = nonexistence_scan_e11h4(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    rows = list(res.rows())
    assert len(rows) == 4
    assert rows[0][0] == 0.5 and rows[0][1] == 0.0
    res2 = nonexistence_slice_scan(1, np.array([0.5, 1.0]))
    rows2 = list(res2.rows())
    assert rows2[0][1] is None


@pytest.mark.parametrize("surface_name", ["l4", "l5", "product"])
def test_analytic_jets_differentiate_consistently(surface_name, l4_surface,
                                                  l5_surface, product_surface):
    # central differences of phi against the declared first partials
    surf, (u, v) = {
        "l4": (l4_surface, (0.06, 0.8)),
        "l5": (l5_surface, (0.35, 1.2)),
        "product": (product_surface, (1.1, 1.9)),
    }[surface_name]
    h = 1e-6
    jet = surf.jet(u, v)
    du = (surf.jet(u + h, v).phi - surf.jet(u - h, v).phi) / (2 * h)
    dv = (surf.jet(u, v + h).phi - surf.jet(u, v - h).phi) / (2 * h)
    np.testing.assert_allclose(du, jet.phi_u, atol=5e-9)
    np.testing.assert_allclose(dv, jet.phi_v, atol=5e-9)
    duu = (surf.jet(u + h, v).phi_u - surf.jet(u - h, v).phi_u) / (2 * h)
    np.testing.assert_allclose(duu, jet.phi_uu, atol=5e-8)
    duv = (surf.jet(u, v + h).phi_u - surf.jet(u, v - h).phi_u) / (2 * h)
    np.testing.assert_allclose(duv, jet.phi_uv, atol=5e-9)
