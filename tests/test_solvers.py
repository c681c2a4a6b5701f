import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.errors import (AdmissibilityError, ChartDomainError,
                           ConstraintError)
from rwsurf.solvers import SolverConfig, rk_integrate, system_equation_residuals

from conftest import L5_CONSTANTS


def test_exponential_growth():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    y, _ = res.dense(1.0)
    assert abs(y[0] - math.e) < 1e-8
    assert res.stop_reason == "completed"


def test_harmonic_oscillator():
    res = rk_integrate(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                       (0.0, math.pi / 2))
    y, _ = res.dense(math.pi / 2)
    assert abs(y[0] - 1.0) < 1e-8


def test_backward_integration():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, -1.0))
    y, _ = res.dense(-1.0)
    assert abs(y[0] - math.exp(-1.0)) < 1e-8


def test_integrator_order_ratio():
    # fixed-step runs at h and h/2: a 5th-order propagated pair shrinks the
    # global error by ~2^5
    errs = []
    for h in (0.2, 0.1):
        res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0),
                           SolverConfig(fixed_step=h))
        y, _ = res.dense(1.0)
        errs.append(abs(y[0] - math.e))
    ratio = errs[0] / errs[1]
    assert 24.0 <= ratio <= 40.0


def test_dense_output_interpolates_endpoints():
    res = rk_integrate(lambda t, y: np.array([y[1], -y[0]]), [0.3, 0.7],
                       (0.0, 3.0))
    d = res.dense
    for k in range(len(d.ts)):
        y, _ = d(float(d.ts[k]))
        np.testing.assert_allclose(y, d.ys[k], rtol=0, atol=1e-13)
    # right endpoints: start of the next step
    for k in range(len(d.ts) - 1):
        y, _ = d(float(d.ts[k] + d.hs[k]))
        np.testing.assert_allclose(y, d.ys[k + 1], rtol=0, atol=1e-13)


def test_dense_output_outside_interval():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    with pytest.raises(ChartDomainError):
        res.dense(1.5)


def test_dense_output_derivative_consistency():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    for t in np.linspace(0.05, 0.95, 20):
        y, yp = res.dense(float(t))
        assert abs(yp[0] - y[0]) < 1e-8  # y' = y


def test_monitor_truncates_with_reason():
    res = rk_integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
                       monitors=[("ceiling", lambda t, y: 2.0 - y[0])])
    assert res.stop_reason == "monitor:ceiling"
    assert abs(res.t_end - 2.0) < 1e-9
    y, _ = res.dense(res.t_end)
    assert abs(y[0] - 2.0) < 1e-9


def test_nan_monitor_value_stops_integration():
    res = rk_integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
                       monitors=[("nan-past-2", lambda t, y:
                                  math.nan if y[0] > 2.0 else 1.0)])
    assert res.stop_reason == "monitor:nan-past-2"
    assert abs(res.t_end - 2.0) < 1e-9


def test_degenerate_interval_rejected():
    with pytest.raises(ConstraintError):
        rk_integrate(lambda t, y: y, [1.0], (1.0, 1.0))


# -- constants ---------------------------------------------------------------


def test_validate_l4_derives_c2():
    c = rw.validate_constants_l4(2.0, 0.5)
    assert abs(c.c2 - math.sqrt(3) / 2) < 1e-15
    assert c.b2 == 3.0


def test_validate_l4_rejects_bad_closure():
    with pytest.raises(ConstraintError, match="c2"):
        rw.validate_constants_l4(2.0, 0.5, c2=0.5)
    with pytest.raises(ConstraintError, match="a\\^2"):
        rw.validate_constants_l4(1.0, 0.6)
    with pytest.raises(ConstraintError):
        rw.validate_constants_l4(2.0, 0.0)


def test_validate_l5():
    c = rw.validate_constants_l5(*L5_CONSTANTS)
    assert abs(c.c4 - (4 * 0.64**2 + 4 * 0.36)) < 1e-12
    with pytest.raises(ConstraintError, match="c2\\^2"):
        rw.validate_constants_l5(2.0, 0.5, 1.0, 1.0)
    with pytest.raises(ConstraintError):
        rw.validate_constants_l5(2.0, 0.5, 0.0, math.sqrt(0.75))


def test_validate_product_derives_member():
    c = rw.validate_constants_product(1.0, None, 0.5)
    assert abs(c.b2 - 1.0 / math.sqrt(12.0)) < 1e-15
    assert abs(c.theta0 - math.asinh(1.0)) < 1e-15
    with pytest.raises(ConstraintError, match="b2\\^2"):
        rw.validate_constants_product(1.0, 0.4, 0.5)
    with pytest.raises(ConstraintError):
        rw.validate_constants_product(0.0, 0.3, 0.4)
    with pytest.raises(ConstraintError):
        rw.validate_constants_product(1.0, None, 0.7)  # b3^2 > 1/3


# -- the rotational-family warp ODE ------------------------------------------


def test_rotational_warp_initial_second_derivative(l4_solution):
    f, fp, fpp = l4_solution.warp(0.0)
    assert (f, fp) == (1.0, 2.0)
    assert abs(fpp - 17.0 / 3.0) < 1e-12


def test_rotational_warp_inadmissible_start():
    c = rw.validate_constants_l4(2.0, 0.5)
    with pytest.raises(AdmissibilityError):
        rw.solve_rotational_warp(c, 1.0, 0.0, (0.0, 1.0))


def test_rotational_warp_blowup_stop(l4_solution):
    # the canonical initial data blow up in finite time; the integrator must
    # stop with step underflow before the horizon, around t ~ 0.1784
    assert l4_solution.integration.stop_reason == "step-underflow"
    assert 0.17 < l4_solution.warp.interval[1] < 0.19


def test_rotational_warp_ode_residual(l4_solution):
    c = l4_solution.constants
    lo, hi = l4_solution.warp.interval
    span = hi - lo
    # absolute tolerance on the surface-usable subinterval; at the blow-up
    # tail f'^4 ~ 1e19 puts plain round-off far above any fixed threshold,
    # so there the residual is checked relative to the term scale
    for t in np.linspace(lo + 0.05 * span, hi - 0.05 * span, 100):
        f, fp, fpp = l4_solution.warp(float(t))
        res = c.b2 * f**3 * fpp - (fp**2 - c.b2 * f**2) ** 2 - fp**4
        assert abs(res) < 1e-7
    for t in np.linspace(lo, hi, 100):
        f, fp, fpp = l4_solution.warp(float(t))
        res = c.b2 * f**3 * fpp - (fp**2 - c.b2 * f**2) ** 2 - fp**4
        scale = max(1.0, abs(c.b2 * f**3 * fpp), fp**4)
        assert abs(res) < 1e-12 * scale


def test_rotational_warp_admissible_along_output(l4_solution):
    b2 = l4_solution.constants.b2
    lo, hi = l4_solution.warp.interval
    for t in np.linspace(lo, hi, 50):
        f, fp, _ = l4_solution.warp(float(t))
        assert fp * fp - b2 * f * f > 0


def test_warp_self_consistency_off_mesh(l4_solution):
    # derivative of the dense f' component against the ODE right-hand side;
    # absolute on the tame part, scale-relative where f'' grows toward the
    # blow-up
    dense = l4_solution.integration.dense
    lo, hi = l4_solution.warp.interval
    for t in np.linspace(lo + 1e-3, lo + 0.8 * (hi - lo), 60):
        _, yp = dense(float(t))
        _, _, fpp = l4_solution.warp(float(t))
        assert abs(yp[1] - fpp) < 1e-6
    for t in np.linspace(lo + 1e-3, hi - 1e-3, 60):
        _, yp = dense(float(t))
        _, _, fpp = l4_solution.warp(float(t))
        assert abs(yp[1] - fpp) < 1e-6 * (1.0 + abs(fpp))


# -- the coupled (f, y) system -----------------------------------------------


def test_system_completes_on_fixture(l5_solution):
    assert l5_solution.integration.stop_reason == "completed"
    assert l5_solution.interval == (0.0, 0.8)


def test_system_equation_residuals_along_trajectory(l5_solution):
    assert l5_solution.max_equation_residual(200) < 1e-6


def test_system_back_substitution_pointwise(l5_solution):
    c = l5_solution.constants
    for t in np.linspace(0.0, 0.8, 40):
        f, fp, fpp = l5_solution.warp(float(t))
        y, yp, ypp = l5_solution.y_state(float(t))
        r1, r2 = system_equation_residuals(c, f, fp, fpp, yp, ypp)
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6


def test_system_constraint_checked_before_integration():
    # the typed constants come from the validator, so a closure violation
    # never reaches the integrator
    with pytest.raises(ConstraintError):
        rw.validate_constants_l5(2.0, 0.5, 1.0, 1.0)


def test_system_spacelike_floor_guard(l5_constants):
    with pytest.raises(AdmissibilityError):
        rw.solve_warp_system(l5_constants, (1.0, 0.0, 0.0, 0.0), (0.0, 0.5))


def test_system_all_zero_matrix_is_singular(l5_constants):
    # f' = y' = 0 makes every entry of the (f'', y'') system matrix vanish;
    # the determinant test must reject it rather than read 0 < 0 * scale
    with pytest.raises(AdmissibilityError, match="singular"):
        rw.solve_warp_system(l5_constants, (1.0, 0.0, 0.0, 0.0), (0.0, 0.5))


def test_system_spacelike_margin_at_start(l5_constants):
    # a non-singular initial state below the space-likeness margin
    with pytest.raises(AdmissibilityError, match="space-likeness"):
        rw.solve_warp_system(l5_constants, (1.0, 0.1, 0.0, 0.0), (0.0, 0.5))


def test_system_warp_self_consistency(l5_solution):
    dense = l5_solution.integration.dense
    for t in np.linspace(1e-3, 0.799, 60):
        _, yp = dense(float(t))
        _, _, fpp = l5_solution.warp(float(t))
        yv, ypv, ypp = l5_solution.y_state(float(t))
        assert abs(yp[1] - fpp) < 1e-6
        assert abs(yp[3] - ypp) < 1e-6
