import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.errors import (AdmissibilityError, ChartDomainError,
                           ConstraintError)
from rwsurf import solvers
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


def _matrix_form(d, t):
    """Dense output as ys[k] + h qs[k] @ [th, th^2, th^3, th^4] with numpy,
    at the step that holds t."""
    k = int(np.searchsorted(d.ts * np.sign(d.hs[0]), t * np.sign(d.hs[0]),
                            side="right")) - 1
    k = min(max(k, 0), len(d.hs) - 1)
    th = (t - d.ts[k]) / d.hs[k]
    y = d.ys[k] + d.hs[k] * (d.qs[k] @ np.array([th, th**2, th**3, th**4]))
    return y, d.qs[k] @ np.array([1.0, 2 * th, 3 * th**2, 4 * th**3])


_OSCILLATOR = (lambda t, y: np.array([y[1], -y[0]]), [0.3, 0.7])


@pytest.mark.parametrize("rhs, y0, t_span, monitors", [
    (*_OSCILLATOR, (0.0, 3.0), ()),
    (*_OSCILLATOR, (0.0, -3.0), ()),
    (lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
     [("ceiling", lambda t, y: 2.0 - y[0])]),
    (lambda t, y: np.ones(1), [0.0], (0.0, -5.0),
     [("floor", lambda t, y: 2.0 + y[0])]),
], ids=["forward", "backward", "forward-monitor", "backward-monitor"])
def test_dense_output_matches_matrix_form(rhs, y0, t_span, monitors):
    res = rk_integrate(rhs, y0, t_span, monitors=monitors)
    d = res.dense
    assert res.stop_reason == ("monitor:" + monitors[0][0] if monitors
                               else "completed")
    # step starts, step interiors, and the last step up to its (possibly
    # truncated) end
    ts = list(d.ts) + [res.t_end]
    ts += [float(d.ts[k] + th * d.hs[k]) for k in range(len(d.ts) - 1)
           for th in (0.1, 0.5, 0.93)]
    ts += [float(d.ts[-1] + th * (res.t_end - d.ts[-1])) for th in (0.3, 0.999)]
    for t in ts:
        y, yp = d(float(t))
        y_ref, yp_ref = _matrix_form(d, float(t))
        assert isinstance(y, np.ndarray) and isinstance(yp, np.ndarray)
        np.testing.assert_allclose(y, y_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(yp, yp_ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.0, -1.0)])
def test_dense_output_slack_clamps_and_rejects(t_span):
    d = rk_integrate(lambda t, y: y, [1.0], t_span).dense
    lo, hi = d.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    for edge, outward in ((lo, -1.0), (hi, 1.0)):
        inside, _ = d(edge + 0.5 * outward * slack)
        at_edge, _ = d(edge)
        np.testing.assert_array_equal(inside, at_edge)
        with pytest.raises(ChartDomainError, match="outside"):
            d(edge + 2.0 * outward * slack)


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


@pytest.mark.parametrize("build, args, name", [
    (rw.validate_constants_l4, (math.nan, 0.5), "a"),
    (rw.validate_constants_l4, (2.0, math.nan), "H0"),
    (rw.validate_constants_l4, (2.0, 0.5, math.inf), "c2"),
    (rw.validate_constants_l5, (2.0, 0.6, math.nan, 0.64), "c2"),
    (rw.validate_constants_l5, (2.0, 0.6, 0.48, -math.inf), "c3"),
    (rw.validate_constants_product, (math.nan, None, 0.5), "b1"),
    (rw.validate_constants_product, (1.0, math.nan, 0.5), "b2"),
    (rw.validate_constants_product, (1.0, None, math.inf), "b3"),
    (rw.product_surface_family, (math.nan, 0.4, 0.5), "b1"),
    (rw.product_surface_family, (1.0, 0.4, math.nan), "b3"),
])
def test_non_finite_constants_are_rejected(build, args, name):
    # every comparison with NaN is False, so "reject when bad" lets it through
    with pytest.raises(ConstraintError, match=f"^{name} must be finite"):
        build(*args)


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


def test_max_equation_residual_propagates_nan(l5_solution, monkeypatch):
    # a NaN residual at one sample must not vanish into the reduction
    calls = []

    def nan_at_100th(*args):
        calls.append(None)
        r1, r2 = system_equation_residuals(*args)
        return (math.nan, r2) if len(calls) == 100 else (r1, r2)

    monkeypatch.setattr(solvers, "system_equation_residuals", nan_at_100th)
    assert math.isnan(l5_solution.max_equation_residual(200))
    assert len(calls) == 200
    monkeypatch.undo()
    assert 0.0 < l5_solution.max_equation_residual(200) < 1e-6
    assert l5_solution.max_equation_residual(0) == 0.0


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


def _family_equations_literal(c, fv, fp, yp):
    """The two family equations as A @ (f'', y'') = -R, written out in the
    constants exactly as derived (independent of the folded coefficients)."""
    a, H0, c2, c3, b2, c4 = c.a, c.H0, c.c2, c.c3, c.b2, c.c4
    A11 = -a**4 * c3**2 * c4 * fv**3 * fp - 2 * a**6 * c2 * c3**2 * H0 * fv**5 * yp
    A12 = -a**6 * b2 * c3**2 * fv**7 * yp - 2 * a**6 * c2 * c3**2 * H0 * fv**5 * fp
    R1 = (-2 * a**2 * c4 * fv**2 * fp**3 * (a**2 * c3**2 - 8 * c2 * H0 * fp * yp)
          - 4 * a**4 * b2 * fv**6 * fp * yp**2 * (a**2 * c3**2 - 4 * c2 * H0 * fp * yp)
          + a**2 * fv**4 * fp * (-12 * a**4 * c2 * c3**2 * H0 * fp * yp
                                 + 4 * (a**4 * c3**2 - 12 * a**2 * (c3**2 - 1) * H0**2
                                        - 48 * H0**4) * fp**2 * yp**2)
          + 2 * a**4 * b2**2 * fv**8 * fp * yp**4
          + a**8 * c3**4 * fv**4 * fp
          + 2 * c4**2 * fp**5)
    A21 = -a**4 * c3**2 * fv**3 * yp
    A22 = a**4 * c3**2 * fv**3 * fp
    R2 = (-a**2 * b2**2 * fv**6 * yp**3
          + a**2 * b2 * fv**4 * yp * (a**2 * c3**2 - 6 * c2 * H0 * fp * yp)
          + fv**2 * fp * (2 * a**4 * c2 * c3**2 * H0
                          + (a**4 * c3**2 + 12 * a**2 * (c3**2 - 1) * H0**2
                             + 48 * H0**4) * fp * yp)
          - 2 * c2 * c4 * H0 * fp**3)
    return np.array([[A11, A12], [A21, A22]]), np.array([R1, R2])


def _admissible_l5_states(seed, count):
    """(constants, f, f', y') near the fixture, on the constants' closure,
    with a non-singular system and a space-like start."""
    rng = np.random.default_rng(seed)
    while count:
        a = 2.0 * (1 + 0.05 * rng.uniform(-1, 1))
        h0 = 0.6 * (1 + 0.1 * rng.uniform(-1, 1))
        r = math.sqrt(1 - 4 * h0 * h0 / (a * a))
        phi = math.atan2(0.64, 0.48) + 0.1 * rng.uniform(-1, 1)
        c = rw.validate_constants_l5(a, h0, r * math.cos(phi), r * math.sin(phi))
        fv, fp, yp = rng.uniform(0.5, 2.5), rng.uniform(-3, 3), rng.uniform(-3, 3)
        entries = solvers._system_matrices(c, fv, fp, yp)[:4]
        if (solvers._det_margin(*entries)[0] > 0
                and solvers.spacelike_margin(c, fv, fp, yp) > solvers._SPACELIKE_FLOOR):
            count -= 1
            yield c, fv, fp, yp


def test_system_matrices_match_the_family_equations():
    for c, fv, fp, yp in _admissible_l5_states(7, 300):
        A, R = _family_equations_literal(c, fv, fp, yp)
        got = np.array(solvers._system_matrices(c, fv, fp, yp))
        want = np.concatenate([A.ravel(), R])
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def test_closed_form_solve_matches_linalg_solve():
    for c, fv, fp, yp in _admissible_l5_states(11, 500):
        a11, a12, a21, a22, r1, r2 = solvers._system_matrices(c, fv, fp, yp)
        want = np.linalg.solve(np.array([[a11, a12], [a21, a22]]),
                               -np.array([r1, r2]))
        got = np.array(solvers._second_derivatives(c, fv, fp, yp))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_system_solve_makes_no_linalg_solve_call(l5_constants, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    sol = rw.solve_warp_system(l5_constants, (1.5, 1.2, 0.4, -0.7), (0.0, 0.2))
    sol.warp(0.1)
    sol.y_state(0.1)
    assert sol.max_equation_residual(20) < 1e-9


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_system_entry_is_singular(l5_constants, monkeypatch,
                                             position, bad):
    # one non-finite entry anywhere must fail the determinant test; Python's
    # max() drops a NaN that is not its first argument, so the margin relies
    # on the determinant carrying it
    entries = [-3.0, 1.5, -0.25, 2.0]
    entries[position] = bad
    assert not solvers._det_margin(*entries)[0] > 0.0
    monkeypatch.setattr(solvers, "_system_matrices",
                        lambda *args: (*entries, 1.0, -1.0))
    with pytest.raises(np.linalg.LinAlgError, match="near-singular"):
        solvers._second_derivatives(l5_constants, 1.5, 1.2, -0.7)
