import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.ambient import curvature_rw_values
from rwsurf.errors import (ChartDomainError, DimensionMismatchError,
                           SingularWarpError)

from oracles import christoffel_at, curvature_rw, fixed_step_warp


def exp_space(n=4):
    return rw.AmbientSpace.warped_flat(n, rw.WarpingFunction.exponential())


def test_warp_closed_forms():
    w = rw.WarpingFunction.exponential(0.5)
    f, fp, fpp = w(2.0)
    assert abs(f - math.exp(1.0)) < 1e-14
    assert abs(fp - 0.5 * math.exp(1.0)) < 1e-14
    assert abs(fpp - 0.25 * math.exp(1.0)) < 1e-14
    w = rw.WarpingFunction.hyperbolic_cosine()
    f, fp, fpp = w(0.3)
    assert abs(fp - math.sinh(0.3)) < 1e-15
    w = rw.WarpingFunction.polynomial([2.0, 0.0, 1.0], (-1, 1))  # 2 + t^2
    f, fp, fpp = w(0.5)
    assert (f, fp, fpp) == (2.25, 1.0, 2.0)


def test_warp_interval_and_zero_guards():
    w = rw.WarpingFunction.polynomial([0.0, 1.0], (0.5, 2.0))  # f = t
    with pytest.raises(ChartDomainError):
        w(3.0)
    w2 = rw.WarpingFunction.polynomial([0.0, 1.0], (-1.0, 1.0))
    with pytest.raises(SingularWarpError):
        w2(0.0)
    with pytest.raises(SingularWarpError):
        rw.WarpingFunction.constant(0.0)
    nan_slope = rw.WarpingFunction(lambda t: (1.0, float("nan"), 0.0))
    with pytest.raises(SingularWarpError):
        nan_slope(0.0)


def test_warp_interval_slack_is_relative_1e12():
    w = rw.WarpingFunction(rw.WarpingFunction.exponential(1.0).fn, (0.0, 2.0))
    # the slack is 1e-12 x max(1, |lo|, |hi|) = 2e-12 past either end
    assert w(2.0 + 1e-12)[0] == pytest.approx(math.exp(2.0 + 1e-12), rel=1e-15)
    for t in (2.0 + 5e-11, -5e-12):
        with pytest.raises(ChartDomainError, match="^warp evaluated at"):
            w(t)


def test_warp_reads_the_leading_three_values():
    # a solved system's cached state is (f, f', f'', y, y', y''): the warp
    # reads its leading three, and a fn with fewer values fails to unpack
    six = rw.WarpingFunction(lambda t: (2.0, 1.0, 0.5, 9.0, 8.0, 7.0))
    assert six(0.0) == (2.0, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"expected 3, got 2"):
        rw.WarpingFunction(lambda t: (2.0, 1.0))(0.0)
    # values of other types still come back as Python floats
    assert all(type(x) is float for x in rw.WarpingFunction.exponential()(0.5))


def test_arithmetic_error_of_the_warp_is_singular():
    def overflowing(t):
        return (1.0, 1e200 ** 2, 0.0)  # OverflowError: float ** int

    with pytest.raises(SingularWarpError,
                       match=r"not finite at t=0\.5 \(OverflowError: "):
        rw.WarpingFunction(overflowing)(0.5)
    with pytest.raises(SingularWarpError, match="ZeroDivisionError"):
        rw.WarpingFunction(lambda t: (1.0 / t, 0.0, 0.0))(0.0)


@pytest.mark.parametrize("warp, t", [
    (rw.WarpingFunction.exponential(1e10), 0.5),
    (rw.WarpingFunction.hyperbolic_cosine(), 1000.0),
    (rw.WarpingFunction.polynomial([1.0, 1e300, 1e300], (-1e6, 1e6)), 1e5)],
    ids=["exp", "cosh", "poly"])
def test_closed_form_overflow_is_singular_not_a_warning(warp, t):
    # numpy's overflow raises inside the closed form, so the sample names it
    # and no RuntimeWarning reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularWarpError, match=re.escape(
                f"not finite at t={t} (FloatingPointError: overflow")):
            warp(t)


def overflowing_warp_surface():
    """thm4 over a dense output whose rows step across the blow-up (fixed
    steps of 0.0625, which end 'monitor:warp-positive' after 3 steps): its
    dense state overflows in the completion (f'**4) near the end of the
    interval."""
    constants = rw.validate_constants_l4(2.0, 0.5)
    warp, *_ = fixed_step_warp(constants, 0.90625,
                               -math.sqrt(3 * 0.90625**2 + 1), (0.0, -1.0),
                               0.0625)
    return rw.rotational_surface_l41(constants, warp)


def test_grid_over_an_overflowing_solved_warp_records_degeneracies():
    surface = overflowing_warp_surface()
    with pytest.raises(SingularWarpError, match="OverflowError"):
        surface.space.warp(surface.space.warp.interval[0])
    rep = rw.verify_surface(surface, grid=(9, 5))
    assert rep.verdict == "degenerate"
    assert rep.degeneracies and all(
        "SingularWarpError: warping function is not finite" in text
        for _, _, text in rep.degeneracies)


def test_backend_validation():
    # c decides the layout: a product space form's c is +-1, and no c
    # outside {-1, 0, +1} is an ambient space
    with pytest.raises(DimensionMismatchError, match=r"^product-space-form "
                       r"backend requires c in \{-1, \+1\}$"):
        rw.AmbientSpace.product_space_form(5, 0)
    with pytest.raises(DimensionMismatchError, match="^c must be -1, 0 or "
                       r"\+1, got c = 2$"):
        rw.AmbientSpace(4, 2)


@pytest.mark.parametrize("n, c, text", [
    (4.5, 0, "n must be an integer, got n = 4.5"),
    (5.0, 0, "n must be an integer, got n = 5.0"),
    ("5", 0, "n must be an integer, got n = '5'"),
    (True, 0, "n must be an integer, got n = True"),
    (5, True, "c must be an integer, got c = True"),
    (5, 1.0, "c must be an integer, got c = 1.0"),
])
def test_n_and_c_must_be_integers_and_not_bools(n, c, text):
    # refused where they are given, not later by numpy (dt_vector's zeros)
    # or by a comparison with a string; bools are refused as the grid is
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(text)}$"):
        rw.AmbientSpace(n, c)
    assert rw.AmbientSpace(np.int64(5), np.int64(-1)).ambient_dim == 6


def test_a_product_space_reads_its_warp():
    # c = +-1 takes any warp: warp_state reads it at the point's time, and
    # the metric's fiber weights are (c, 1, ..., 1) times f^2
    warp = rw.WarpingFunction.polynomial([1.0, 0.0, 0.0, 5.0], (-10, 10))
    p = np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0])  # on the locus for either c
    f2 = 1.625 ** 2
    for c in (1, -1):
        space = dataclasses.replace(rw.AmbientSpace.product_space_form(5, c),
                                    warp=warp)
        assert space == rw.AmbientSpace(5, c, warp) and space.warp is warp
        state = space.warp_state(p)
        assert state == warp(0.5) == (1.625, 3.75, 15.0)
        assert space.metric_at(p, state).tolist() == [-1.0, c * f2, f2, f2,
                                                      f2, f2]
        # the unit warp alone is read at no time, a complex one included
        unit = rw.AmbientSpace.product_space_form(5, c)
        assert unit.warp is rw.AmbientSpace(5, -c).warp
        assert unit.warp_state(np.array([0.5j, 1.0])) == (1.0, 0.0, 0.0)


def test_c_zero_is_the_warped_flat_minkowski_space():
    space = rw.AmbientSpace(4, 0)
    assert not space.is_embedded and space.ambient_dim == 4
    assert space == rw.AmbientSpace.warped_flat(
        4, rw.AmbientSpace.product_space_form(5, 1).warp)
    assert space.warp_state(np.array([0.7, 0.0, 0.0, 0.0])) == (1.0, 0.0, 0.0)
    np.testing.assert_array_equal(space.metric_at(np.zeros(4), (1.0, 0.0, 0.0)),
                                  [-1.0, 1.0, 1.0, 1.0])


def test_warped_flat_refuses_a_product_normal_and_a_short_point():
    space = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant())
    with pytest.raises(DimensionMismatchError, match="^product normal exists "
                       "only on the product-space-form backend$"):
        space.product_normal(np.zeros(4))
    with pytest.raises(DimensionMismatchError, match=r"^point has shape "
                       r"\(3,\), backend expects \(4,\)$"):
        space.metric_at(np.zeros(3), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("make", [
    lambda n: rw.AmbientSpace.warped_flat(n, rw.WarpingFunction.constant()),
    lambda n: rw.AmbientSpace.product_space_form(n, 1),
], ids=["warped-flat", "product"])
def test_an_ambient_with_no_room_for_e4_is_refused(make):
    # the adapted frame is e1, e2, e3, e4 (and on the product backend the
    # normal of the embedding besides): n = 3 leaves no room for e4
    for n in (2, 3):
        with pytest.raises(DimensionMismatchError, match=r"^need n >= 4 \(the "
                           rf"adapted frame needs room for e4\), got n = {n}$"):
            make(n)
    assert make(4).n == 4


def test_metric_warped_exponential():
    space = exp_space()
    p0 = np.array([0.0, 0.3, -1.0, 2.0])
    np.testing.assert_allclose(space.metric_at(p0, space.warp_state(p0)),
                               [-1.0, 1, 1, 1], atol=1e-15)
    p1 = np.array([math.log(2.0), 0.0, 0.0, 0.0])
    np.testing.assert_allclose(space.metric_at(p1, space.warp_state(p1)),
                               [-1.0, 4, 4, 4], rtol=1e-14)


def test_metric_product_constant_and_locus():
    space = rw.AmbientSpace.product_space_form(5, 1)
    p = np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0])  # on E^1_1 x S^4
    np.testing.assert_allclose(space.metric_at(p, space.warp_state(p)),
                               [-1.0, 1, 1, 1, 1, 1], atol=1e-15)
    off = np.array([3.0, 1.1, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ChartDomainError):
        space.metric_at(off, space.warp_state(off))


def test_metric_product_hyperbolic_signature():
    space = rw.AmbientSpace.product_space_form(5, -1)
    p = np.zeros(6)
    p[1] = 1.0  # -x2^2 + ... = -1 on the hyperboloid
    G = space.metric_at(p, space.warp_state(p))
    np.testing.assert_allclose(G, [-1.0, -1.0, 1, 1, 1, 1], atol=1e-15)


@pytest.mark.parametrize("kind", ["warped-flat", "product"])
def test_metric_at_returns_the_diagonal_on_stacks(kind):
    # a (3, 2) stack of points gives (3, 2, d) weights, each the diagonal
    # of the metric at its point
    rng = np.random.default_rng(3)
    if kind == "warped-flat":
        space = exp_space(5)
        p = np.concatenate([rng.uniform(-1, 1, (3, 2, 1)),
                            rng.normal(size=(3, 2, 4))], axis=-1)
        f = np.exp(p[..., 0])
        g = space.metric_at(p, (f, f, f))
        want = np.concatenate([-np.ones((3, 2, 1)),
                               np.repeat((f * f)[..., None], 4, axis=-1)],
                              axis=-1)
    else:
        space = rw.AmbientSpace.product_space_form(5, -1)
        fiber = rng.normal(size=(3, 2, 5))
        fiber[..., 0] = np.sqrt(1.0 + np.sum(fiber[..., 1:] ** 2, axis=-1))
        p = np.concatenate([rng.normal(size=(3, 2, 1)), fiber], axis=-1)
        g = space.metric_at(p, (1.0, 0.0, 0.0))
        want = np.broadcast_to([-1.0, -1.0, 1, 1, 1, 1], (3, 2, 6))
    assert g.shape == p.shape == want.shape
    assert np.array_equal(g, want)
    for i, j in np.ndindex(3, 2):
        one = space.metric_at(p[i, j], space.warp_state(p[i, j]))
        np.testing.assert_allclose(one, want[i, j], rtol=1e-15)


def test_metric_at_locus_check_marks_off_points_in_a_stack():
    space = rw.AmbientSpace.product_space_form(5, 1)
    p = np.zeros((5, 6))
    p[:, 1] = [1.0, 1.1, 1.0, 0.9, np.nan]  # a NaN point is off it too
    with pytest.raises(ChartDomainError, match="off the embedded") as exc:
        space.metric_at(p, (1.0, 0.0, 0.0))
    assert exc.value.where.tolist() == [False, True, False, True, True]


def test_christoffel_exponential_at_zero():
    space = exp_space()
    gamma = christoffel_at(space, np.zeros(4))
    assert abs(gamma[0, 1, 1] - 1.0) < 1e-15  # f f' = 1
    assert abs(gamma[1, 0, 1] - 1.0) < 1e-15  # f'/f = 1
    assert gamma[0, 0, 0] == 0.0 and gamma[2, 1, 1] == 0.0


def test_christoffel_flat_and_cosh():
    flat = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant(1.0))
    assert np.all(christoffel_at(flat, np.zeros(4)) == 0.0)
    cosh = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.hyperbolic_cosine())
    gamma = christoffel_at(cosh, np.zeros(4))
    assert abs(gamma[0, 1, 1]) < 1e-15 and abs(gamma[1, 0, 1]) < 1e-15


def test_christoffel_symmetric_lower_indices():
    space = rw.AmbientSpace.warped_flat(
        5, rw.WarpingFunction.polynomial([2.0, 0.3, 0.4], (-1, 1)))
    gamma = christoffel_at(space, np.array([0.37, 0, 0, 0, 0]))
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-15)


def test_christoffel_metric_compatibility():
    # d_t g_ij = Gamma^l_ti g_lj + Gamma^l_tj g_li, finite differences in t
    space = rw.AmbientSpace.warped_flat(
        4, rw.WarpingFunction(
            lambda t: (math.exp(t) + 2.0, math.exp(t), math.exp(t)), (-2, 2)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = float(rng.uniform(-1, 1))
        p = np.array([t, *rng.normal(size=3)])
        h = 1e-6
        pp, pm = np.array([t + h, 0, 0, 0]), np.array([t - h, 0, 0, 0])
        Gp = np.diag(space.metric_at(pp, space.warp_state(pp)))
        Gm = np.diag(space.metric_at(pm, space.warp_state(pm)))
        dG = (Gp - Gm) / (2 * h)
        gamma = christoffel_at(space, p)
        G = np.diag(space.metric_at(p, space.warp_state(p)))
        contr = np.einsum("lka,lb->kab", gamma, G)[0] + \
            np.einsum("lkb,la->kab", gamma, G)[0]
        np.testing.assert_allclose(dG, contr, atol=1e-6)


def test_covariant_derivative_flat_constant_field():
    flat = rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant(1.0))
    p = np.zeros(4)
    out = rw.ambient_covariant_derivative(
        flat, p, np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]),
        np.zeros(4), flat.metric_at(p, flat.warp_state(p)), flat.warp_state(p))
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-15)


def test_covariant_derivative_warped_correction():
    # moving a spatial coordinate field along itself bends into the comoving
    # direction with factor f f' (= 1 for the exponential warp at t = 0)
    space = exp_space()
    e1 = np.array([0.0, 1.0, 0, 0])
    p = np.zeros(4)
    state = space.warp_state(p)
    out = rw.ambient_covariant_derivative(space, p, e1, e1, np.zeros(4),
                                          space.metric_at(p, state), state)
    np.testing.assert_allclose(out, [1.0, 0, 0, 0], atol=1e-15)


def test_covariant_derivative_product_great_circle():
    # a great circle of the sphere fiber is a geodesic of the product
    space = rw.AmbientSpace.product_space_form(5, 1)
    s = 0.7
    p = np.array([0.0, math.cos(s), math.sin(s), 0, 0, 0])
    Y = np.array([0.0, -math.sin(s), math.cos(s), 0, 0, 0])  # circle tangent
    dY = np.array([0.0, -math.cos(s), -math.sin(s), 0, 0, 0])  # flat d/ds
    state = space.warp_state(p)
    out = rw.ambient_covariant_derivative(space, p, Y, Y, dY,
                                          space.metric_at(p, state), state)
    np.testing.assert_allclose(out, np.zeros(6), atol=1e-14)


def test_covariant_derivative_product_correction_term(product_grid):
    # the product covariant derivative differs from the flat one by
    # +c <fiber(X), fiber(Y)> nu along surface tangents
    sg = product_grid
    space = sg.space
    for (i, j) in [(2, 2), (5, 6)]:
        pd = sg.point(i, j)
        nu = space.product_normal(pd.jet.phi)
        flat = pd.jet.phi_uu
        cov = rw.ambient_covariant_derivative(space, pd.jet.phi,
                                              pd.jet.phi_u, pd.jet.phi_u, flat,
                                              pd.G, pd.warp_state)
        xf = pd.jet.phi_u.copy(); xf[0] = 0.0
        expected = flat + space.c * rw.inner(xf, xf, pd.G) * nu
        np.testing.assert_allclose(cov, expected, atol=1e-12)


@pytest.mark.parametrize("warp", [
    rw.WarpingFunction.exponential(0.7),
    rw.WarpingFunction.polynomial([2.0, 0.3, 0.4], (-1, 1)),
])
def test_covariant_derivative_matches_christoffel_oracle(warp):
    # the connection the program runs agrees with the Christoffel tensor
    space = rw.AmbientSpace.warped_flat(5, warp)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = np.array([rng.uniform(-0.9, 0.9), *rng.normal(size=4)])
        x, y, dy = rng.normal(size=(3, 5))
        state = space.warp_state(p)
        got = rw.ambient_covariant_derivative(space, p, x, y, dy,
                                              space.metric_at(p, state), state)
        want = dy + np.einsum("kij,i,j", christoffel_at(space, p), x, y)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_covariant_derivative_checks_shapes():
    space = exp_space()
    p = np.zeros(4)
    state = space.warp_state(p)
    with pytest.raises(DimensionMismatchError):
        rw.ambient_covariant_derivative(space, p, np.zeros(4), np.zeros(3),
                                        np.zeros(4), space.metric_at(p, state),
                                        state)


def test_curvature_scalars_closed_form():
    # exponential warp: k1 = k2 = rate^2 when c = 0
    k1, k2 = rw.curvature_scalars(*rw.WarpingFunction.exponential(0.5)(1.3), 0.0)
    assert abs(k1 - 0.25) < 1e-15 and abs(k2 - 0.25) < 1e-15
    assert rw.curvature_scalars(2.0, 1.0, 4.0, -1.0) == (2.0, 0.0)


def test_curvature_fiber_plane_annihilates_comoving():
    space = exp_space()
    rng = np.random.default_rng(2)
    dt = space.dt_vector()
    for _ in range(10):
        Xb = np.array([0.0, *rng.normal(size=3)])
        Yb = np.array([0.0, *rng.normal(size=3)])
        p = np.array([rng.uniform(-1, 1), 0, 0, 0])
        out = curvature_rw(space, Xb, Yb, dt, p)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-14)


def test_curvature_exponential_timelike_plane():
    space = exp_space()
    dt = space.dt_vector()
    Xb = np.array([0.0, 0.4, -0.2, 1.0])
    out = curvature_rw(space, dt, Xb, dt, np.zeros(4))
    np.testing.assert_allclose(out, Xb, atol=1e-14)  # f''/f = 1


def test_curvature_antisymmetry_exact():
    space = exp_space(5)
    rng = np.random.default_rng(9)
    for _ in range(30):
        X, Y, Z = rng.normal(size=(3, 5))
        p = np.array([rng.uniform(-1, 1), 0, 0, 0, 0])
        a = curvature_rw(space, X, Y, Z, p)
        b = curvature_rw(space, Y, X, Z, p)
        assert np.array_equal(a, -b)


def test_curvature_first_bianchi():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4, 7))
        f, fp, fpp = rng.uniform(0.5, 2.0), rng.normal(), rng.normal()
        c = float(rng.choice([-1.0, 0.0, 1.0]))
        G = np.array([-1.0] + [f * f] * (n - 1))
        X, Y, Z = rng.normal(size=(3, n))
        cyc = (curvature_rw_values(X, Y, Z, G, f, fp, fpp, c)
               + curvature_rw_values(Y, Z, X, G, f, fp, fpp, c)
               + curvature_rw_values(Z, X, Y, G, f, fp, fpp, c))
        assert np.linalg.norm(cyc) < 1e-10 * max(1.0, np.linalg.norm(X))


@pytest.mark.parametrize("warp,c", [
    (rw.WarpingFunction.exponential(), 0.0),
    (rw.WarpingFunction.hyperbolic_cosine(), 1.0),
])
def test_curvature_constant_curvature_form(warp, c):
    # when f''/f == (f'^2 + c)/f^2 the tensor collapses to
    # kappa (<Y,Z> X - <X,Z> Y)
    rng = np.random.default_rng(21)
    for _ in range(30):
        t = float(rng.uniform(-1, 1))
        f, fp, fpp = warp(t)
        kappa = fpp / f
        n = 5
        G = np.array([-1.0] + [f * f] * (n - 1))
        X, Y, Z = rng.normal(size=(3, n))
        got = curvature_rw_values(X, Y, Z, G, f, fp, fpp, c)
        want = kappa * (rw.inner(Y, Z, G) * X - rw.inner(X, Z, G) * Y)
        assert np.linalg.norm(got - want) < 1e-9 * max(1.0, np.linalg.norm(want))


def test_is_constant_curvature_cases():
    const = rw.WarpingFunction.constant(1.0)
    flag, dev = rw.is_constant_curvature(const, 0.0, (-1, 1))
    assert flag and dev == 0.0
    flag, _ = rw.is_constant_curvature(rw.WarpingFunction.exponential(), 0.0,
                                       (-1, 1))
    assert flag
    flag, dev = rw.is_constant_curvature(const, 1.0, (-1, 1))
    assert not flag and abs(dev - 1.0) < 1e-15
    # refused before linspace and the warp see the end
    for interval in [(0, math.inf), (-math.inf, 1), (0, math.nan)]:
        with pytest.raises(ValueError, match=re.escape(
                f"interval must have finite ends, got {interval}")):
            rw.is_constant_curvature(rw.WarpingFunction.exponential(), 0.0,
                                     interval)


def test_is_constant_curvature_generic_warp_fails():
    warp = rw.WarpingFunction(
        lambda t: (math.exp(t) + 2.0, math.exp(t), math.exp(t)), (-1, 1))
    flag, dev = rw.is_constant_curvature(warp, 0.0, (-1, 1))
    assert not flag and dev > 0.1


def test_is_constant_curvature_propagates_nan():
    # f, f', f'' finite, but k1 - k2 = inf - inf at every sample
    warp = rw.WarpingFunction(lambda t: (1e-10, 1e200, 1e300), (0, 1))
    flag, dev = rw.is_constant_curvature(warp, 0.0, (0, 1))
    assert not flag and math.isnan(dev)
