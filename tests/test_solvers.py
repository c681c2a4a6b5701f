import dataclasses
import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf.errors import (AdmissibilityError, ChartDomainError,
                           ConstraintError)
from rwsurf import solvers
from rwsurf.solvers import SolverConfig, rk_integrate, system_equation_residuals

from conftest import L5_CONSTANTS, L5_ICS, L5_INTERVAL


def test_exponential_growth():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    y = res.dense(1.0)
    assert abs(y[0] - math.e) < 1e-8
    assert res.stop_reason == "completed"


def test_harmonic_oscillator():
    res = rk_integrate(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                       (0.0, math.pi / 2))
    y = res.dense(math.pi / 2)
    assert abs(y[0] - 1.0) < 1e-8


def test_backward_integration():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, -1.0))
    y = res.dense(-1.0)
    assert abs(y[0] - math.exp(-1.0)) < 1e-8


def test_integrator_order_ratio():
    # fixed-step runs at h and h/2: a 5th-order propagated pair shrinks the
    # global error by ~2^5
    errs = []
    for h in (0.2, 0.1):
        res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0),
                           SolverConfig(fixed_step=h))
        y = res.dense(1.0)
        errs.append(abs(y[0] - math.e))
    ratio = errs[0] / errs[1]
    assert 24.0 <= ratio <= 40.0


def _rows(d):
    """The dense output's step rows as arrays (ts, hs, ys, qs) of shapes
    (m,), (m,), (m, d) and (m, d, 4)."""
    return tuple(np.array(column) for column in zip(*d.steps))


def test_dense_output_interpolates_endpoints():
    res = rk_integrate(lambda t, y: np.array([y[1], -y[0]]), [0.3, 0.7],
                       (0.0, 3.0))
    d = res.dense
    ts, hs, ys, _ = _rows(d)
    for k in range(len(ts)):
        y = d(float(ts[k]))
        np.testing.assert_allclose(y, ys[k], rtol=0, atol=1e-13)
    # right endpoints: start of the next step
    for k in range(len(ts) - 1):
        y = d(float(ts[k] + hs[k]))
        np.testing.assert_allclose(y, ys[k + 1], rtol=0, atol=1e-13)


def test_dense_output_holds_no_arrays():
    d = rk_integrate(lambda t, y: np.array([y[1], -y[0]]), [0.3, 0.7],
                     (0.0, 3.0)).dense
    assert [f.name for f in dataclasses.fields(d)] == ["steps", "t_end"]
    assert not any(isinstance(v, np.ndarray) for v in vars(d).values())
    for t, h, y, q in d.steps:
        assert all(type(v) is float
                   for v in (t, h, d.t_end, *y, *(c for row in q for c in row)))


def test_dense_output_outside_interval():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    with pytest.raises(ChartDomainError):
        res.dense(1.5)


def _matrix_form(d, t):
    """Dense output as ys[k] + h qs[k] @ [th, th^2, th^3, th^4] with numpy,
    at the step that holds t."""
    ts, hs, ys, qs = _rows(d)
    k = int(np.searchsorted(ts * np.sign(hs[0]), t * np.sign(hs[0]),
                            side="right")) - 1
    k = min(max(k, 0), len(hs) - 1)
    th = (t - ts[k]) / hs[k]
    y = ys[k] + hs[k] * (qs[k] @ np.array([th, th**2, th**3, th**4]))
    return y, qs[k] @ np.array([1.0, 2 * th, 3 * th**2, 4 * th**3])


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
    starts, hs, _, _ = _rows(d)
    ts = list(starts) + [d.t_end]
    ts += [float(starts[k] + th * hs[k]) for k in range(len(starts) - 1)
           for th in (0.1, 0.5, 0.93)]
    ts += [float(starts[-1] + th * (d.t_end - starts[-1])) for th in (0.3, 0.999)]
    for t in ts:
        y, yp = d(float(t)), d.derivative(float(t))
        y_ref, yp_ref = _matrix_form(d, float(t))
        assert all(type(v) is float for v in (*y, *yp))
        np.testing.assert_allclose(y, y_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(yp, yp_ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.0, -1.0)])
def test_dense_output_slack_clamps_and_rejects(t_span):
    d = rk_integrate(lambda t, y: y, [1.0], t_span).dense
    lo, hi = d.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    for edge, outward in ((lo, -1.0), (hi, 1.0)):
        inside = d(edge + 0.5 * outward * slack)
        at_edge = d(edge)
        np.testing.assert_array_equal(inside, at_edge)
        np.testing.assert_array_equal(d.derivative(edge + 0.5 * outward * slack),
                                      d.derivative(edge))
        for evaluate in (d, d.derivative):
            with pytest.raises(ChartDomainError, match="outside"):
                evaluate(edge + 2.0 * outward * slack)


def test_dense_output_derivative_consistency():
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    for t in np.linspace(0.05, 0.95, 20):
        y, yp = res.dense(float(t)), res.dense.derivative(float(t))
        assert abs(yp[0] - y[0]) < 1e-8  # y' = y


def test_monitor_truncates_with_reason():
    res = rk_integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
                       monitors=[("ceiling", lambda t, y: 2.0 - y[0])])
    assert res.stop_reason == "monitor:ceiling"
    assert abs(res.dense.t_end - 2.0) < 1e-9
    y = res.dense(res.dense.t_end)
    assert abs(y[0] - 2.0) < 1e-9


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan])
def test_monitor_crossed_at_the_initial_state_raises(value):
    seen = []

    def rhs(t, y):
        seen.append(t)
        return [y[0]]

    monitors = [("pos", lambda t, y: 1.0), ("neg", lambda t, y: value)]
    with pytest.raises(AdmissibilityError,
                       match=rf"^monitor 'neg' reads {value!r} at the initial "
                             r"state t=0\.0; it must be > 0$"):
        rk_integrate(rhs, [1.0], (0, 1), monitors=monitors)
    assert seen == []  # before the first step


def test_nan_monitor_value_stops_integration():
    res = rk_integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
                       monitors=[("nan-past-2", lambda t, y:
                                  math.nan if y[0] > 2.0 else 1.0)])
    assert res.stop_reason == "monitor:nan-past-2"
    assert abs(res.dense.t_end - 2.0) < 1e-9


def test_degenerate_interval_rejected():
    with pytest.raises(ConstraintError):
        rk_integrate(lambda t, y: y, [1.0], (1.0, 1.0))


@pytest.mark.parametrize("name", ["rtol", "atol", "fixed_step"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_solver_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConstraintError, match=f"^{name} must be finite"):
        SolverConfig(**{name: value})


def test_solver_config_still_rejects_non_positive_tolerances():
    for kwargs in ({"rtol": 0.0}, {"atol": -1e-13}):
        with pytest.raises(ConstraintError, match="must be positive"):
            SolverConfig(**kwargs)
    assert SolverConfig(fixed_step=None).fixed_step is None


@pytest.mark.parametrize("value", [0.0, -0.1])
def test_solver_config_rejects_non_positive_fixed_step(value):
    with pytest.raises(ConstraintError,
                       match=f"^fixed_step must be positive, got {value}"):
        SolverConfig(fixed_step=value)


@pytest.mark.parametrize("t_span", [(math.nan, 1.0), (0.0, math.nan)])
def test_nan_interval_endpoint_rejected(t_span):
    with pytest.raises(ConstraintError, match="NaN endpoint"):
        rk_integrate(lambda t, y: y, [1.0], t_span)


def test_infinite_interval_endpoint_still_integrates():
    # an infinite end time runs until the solver stops on its own
    res = rk_integrate(lambda t, y: [y[0] * y[0]], [1.0], (0.0, math.inf))
    assert res.stop_reason == "step-underflow"
    assert abs(res.dense.t_end - 1.0) < 1e-3


def test_zero_division_in_rhs_rejects_the_step():
    # y' = 1 / (2 - y), y(0) = 0 reaches y = 2 at t = 2, where y' blows up; a
    # float right-hand side past it divides by zero, which must reject the
    # step as a numpy inf would, not escape the integrator
    res = rk_integrate(lambda t, y: [1 / (2 - y[0]) if y[0] < 2 else 1 / 0.0],
                       [0.0], (0.0, 5.0))
    assert res.stop_reason == "step-underflow"
    assert abs(res.dense.t_end - 2.0) < 1e-6


def _matrix_form_steps(rhs, y0, h, n):
    """Fixed-step Dormand-Prince in the matrix form of the tableau: the
    (ys, qs) of ``n`` steps of size ``h`` from t = 0."""
    y = np.array(y0, dtype=float)
    ys, qs = [], []
    for step in range(n):
        t = step * h
        K = np.empty((7, y.size))
        K[0] = rhs(t, y)
        for i in range(1, 7):
            K[i] = rhs(t + solvers._C[i] * h, y + h * (solvers._A[i] @ K[:i]))
        ys.append(y)
        qs.append(K.T @ solvers._P)
        y = y + h * (solvers._B @ K)
    return np.array(ys), np.array(qs)


@pytest.mark.parametrize("M, y0", [
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), [0.3, 0.7]),
    (np.array([[-0.5, 1.0, 0.0, 0.2],
               [-1.0, -0.1, 0.3, 0.0],
               [0.0, 0.4, -0.2, 1.5],
               [0.1, 0.0, -1.5, -0.3]]), [1.0, -0.5, 0.25, 2.0]),
], ids=["2d", "4d"])
def test_float_loop_matches_matrix_form_tableau(M, y0):
    def rhs(t, y):
        return (M @ np.asarray(y)).tolist()

    res = rk_integrate(rhs, y0, (0.0, 2.0), SolverConfig(fixed_step=0.05))
    ys, qs = _matrix_form_steps(rhs, y0, 0.05, 40)
    _, _, got_ys, got_qs = _rows(res.dense)
    assert res.n_accepted == 40 and got_ys.shape == ys.shape
    for got, want in ((got_ys, ys), (got_qs, qs)):
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())


def test_rhs_and_monitors_receive_lists_of_floats():
    seen = []

    def rhs(t, y):
        seen.append(y)
        return (y[1], -y[0])

    def monitor(t, y):
        seen.append(y)
        return 0.7 - y[0]

    res = rk_integrate(rhs, np.array([0.3, 0.7]), (0.0, 3.0),
                       monitors=[("ceiling", monitor)])
    assert res.stop_reason == "monitor:ceiling"
    assert len(seen) > 100
    assert all(type(y) is list and len(y) == 2 and all(type(v) is float for v in y)
               for y in seen)


def test_family_rhs_return_float_tuples(l4_constants, l5_constants, monkeypatch):
    returned = []
    real = solvers.rk_integrate

    def record_first_value(rhs, y0, *args):
        returned.append(rhs(0.0, list(y0)))
        return real(rhs, y0, *args)

    monkeypatch.setattr(solvers, "rk_integrate", record_first_value)
    rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 0.1))
    rw.solve_warp_system(l5_constants, (1.5, 1.2, 0.4, -0.7), (0.0, 0.1))
    assert [len(v) for v in returned] == [2, 4]
    assert all(type(v) is tuple and all(type(x) is float for x in v)
               for v in returned)


class _NumpyLookups:
    """Stands in for ``solvers.np`` and counts the attribute lookups."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        self.count += 1
        return getattr(np, name)


def _oscillator_steps(**kwargs):
    """A run whose size is the number of accepted steps."""
    return lambda: rk_integrate(lambda t, y: (y[1], -y[0]), [0.3, 0.7],
                                **kwargs).n_accepted


def _dense_samples(n):
    """A run whose size is the number of dense-output samples (state and
    derivative) of one fixed solve."""
    def run():
        d = rk_integrate(lambda t, y: (y[1], -y[0]), [0.3, 0.7], (0.0, 3.0)).dense
        lo, hi = d.interval
        for k in range(n):
            t = lo + (hi - lo) * k / (n - 1)
            d(t)
            d.derivative(t)
        return n
    return run


@pytest.mark.parametrize("short, long", [
    (_oscillator_steps(t_span=(0.0, 1.0), config=SolverConfig(fixed_step=0.1)),
     _oscillator_steps(t_span=(0.0, 1.0), config=SolverConfig(fixed_step=0.001))),
    (_oscillator_steps(t_span=(0.0, 1.0)), _oscillator_steps(t_span=(0.0, 100.0))),
    (_dense_samples(10), _dense_samples(1000)),
], ids=["fixed-step", "adaptive", "dense-samples"])
def test_numpy_calls_do_not_grow_with_steps(monkeypatch, short, long):
    counts = []
    for run in (short, long):
        proxy = _NumpyLookups()
        monkeypatch.setattr(solvers, "np", proxy)
        counts.append((run(), proxy.count))
    (n_short, c_short), (n_long, c_long) = counts
    assert n_long >= 50 * n_short
    assert c_short == c_long


# The end time of the thm4 warp when it stopped by 'step-underflow', before
# the blow-up monitor: the last time before the blow-up the integrator could
# step to.
_THM4_UNDERFLOW_T_END = 0.17842196609216815

# The thm4 warp (a 2, H0 0.5, f0 1, f0' 2 on [0, 1]) and the thm5 system (the
# conftest L5 item): stop reason, accepted and rejected steps, end time, the
# end of the sampled span, and the dense state at 10 evenly spaced times
# lo + (span end - lo) k / 10 and at the end time, as the solver gave them
# when this test was written.  A change to the integrator that moves the
# warp the certificates read shows here first.  The thm4 samples before the
# end were recorded on the 'step-underflow' interval; the blow-up monitor
# only truncates the solve, so they must hold bitwise, and only the end state
# is new.
_PINNED_WARPS = {
    "thm4": ('monitor:blow-up', 506, 0, 0.17842178764648978,
             _THM4_UNDERFLOW_T_END, [
        (1.0, 2.0),
        (1.0366199705758665, 2.1068661020272947),
        (1.0752624880492752, 2.2272659893240316),
        (1.1162027662220233, 2.3652472813823695),
        (1.1598054654987098, 2.526984657278048),
        (1.2065762840298193, 2.722522907836247),
        (1.2572609494192375, 2.9696954192967535),
        (1.3130603196555801, 3.3044455626938793),
        (1.3761956176966337, 3.8156235539477756),
        (1.4520015176181424, 4.831884683347825),
        (1.581079164461626, 222.90902633604415),
    ]),
    "thm5": ('completed', 142, 1, 0.8, 0.8, [
        (1.5, 1.2, 0.4, -0.7),
        (1.5959367583742754, 1.1915861789372026,
         0.3446720437922183, -0.684481518400491),
        (1.6892174333674481, 1.128848540829579,
         0.29027460939013916, -0.676738382006669),
        (1.774159798917849, 0.975908291634512,
         0.23620973270403434, -0.6757678944067881),
        (1.8417037476427502, 0.6863520478717672,
         0.18210391971277287, -0.6763038843070038),
        (1.8797024882516027, 0.24038863044985428,
         0.12829688080683235, -0.66566630609088),
        (1.8781259102352048, -0.27866147018246606,
         0.07624174371976525, -0.6316700423312005),
        (1.837450459801606, -0.7140078496430817,
         0.02767841514693462, -0.5812865495888307),
        (1.7681838238067915, -0.9917261071049072,
         -0.016829525318827098, -0.5329402412639193),
        (1.6823382730207728, -1.1362329653109602,
         -0.05791509966221063, -0.4964039786692549),
        (1.588692414840651, -1.1937764429642432,
         -0.09659437805970535, -0.4725464122904337),
    ]),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_WARPS))
def test_pinned_warps(kind, l4_constants, l5_constants):
    if kind == "thm4":
        res = rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 1.0))
    else:
        res = rw.solve_warp_system(l5_constants, L5_ICS, L5_INTERVAL)
    res = res.integration
    (stop_reason, n_accepted, n_rejected, t_end, span_end,
     samples) = _PINNED_WARPS[kind]
    assert (res.stop_reason, res.n_accepted, res.n_rejected) == (
        stop_reason, n_accepted, n_rejected)
    assert math.isclose(res.dense.t_end, t_end, rel_tol=1e-14, abs_tol=0.0)
    lo = res.dense.interval[0]
    for k, want in enumerate(samples[:10]):
        assert res.dense(lo + (span_end - lo) * k / 10) == want, k
    np.testing.assert_allclose(res.dense(res.dense.t_end), samples[10],
                               rtol=1e-14, atol=0.0)


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


_L4 = rw.validate_constants_l4(2.0, 0.5)
_L5 = rw.validate_constants_l5(*L5_CONSTANTS)


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
    (rw.solve_rotational_warp, (_L4, math.nan, 2.0, (0.0, 1.0)), "f0"),
    (rw.solve_rotational_warp, (_L4, 1.0, math.inf, (0.0, 1.0)), "f0p"),
    (rw.solve_rotational_warp, (_L4, 1.0, math.nan, (0.0, 1.0)), "f0p"),
    (rw.solve_warp_system, (_L5, (math.nan, 1.2, 0.4, -0.7), (0.0, 0.5)), "f0"),
    (rw.solve_warp_system, (_L5, (1.5, math.nan, 0.4, -0.7), (0.0, 0.5)), "f0p"),
    (rw.solve_warp_system, (_L5, (1.5, 1.2, -math.inf, -0.7), (0.0, 0.5)), "y0"),
    (rw.solve_warp_system, (_L5, (1.5, 1.2, 0.4, math.nan), (0.0, 0.5)), "y0p"),
])
def test_non_finite_constants_are_rejected(build, args, name):
    # every comparison with NaN is False, so "reject when bad" lets it through;
    # the warp solvers check their initial conditions the same way
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
    # stop on the blow-up monitor before the horizon, around t ~ 0.1784
    assert l4_solution.integration.stop_reason == "monitor:blow-up"
    assert 0.17 < l4_solution.warp.interval[1] < 0.19


def _l4_solve(f0, f0p, interval):
    return rw.solve_rotational_warp(rw.validate_constants_l4(2.0, 0.5), f0,
                                    f0p, interval)


def test_blow_up_monitor_follows_the_signs():
    # f -> -f maps the ODE to itself, and so does t -> -t with f' -> -f', so
    # the monitor must fire exactly where |f'| grows toward the blow-up
    base = _l4_solve(1.0, 2.0, (0.0, 1.0))
    mirrored = _l4_solve(-1.0, -2.0, (0.0, 1.0))
    for sol in (base, mirrored):
        assert sol.integration.stop_reason == "monitor:blow-up"
        assert sol.integration.n_accepted == 506
    dense, mirror = base.integration.dense, mirrored.integration.dense
    assert mirror.t_end == dense.t_end
    assert mirrored.blow_up_time == base.blow_up_time
    for t in np.linspace(0.0, dense.t_end, 101).tolist():
        assert mirror(t) == tuple(-x for x in dense(t))

    backward = _l4_solve(1.0, -2.0, (0.0, -1.0))
    assert backward.integration.stop_reason == "monitor:blow-up"
    assert backward.integration.dense.t_end == -dense.t_end
    assert backward.blow_up_time == -base.blow_up_time

    # backward from f' = 2 the slope shrinks: nothing blows up, and the
    # solve takes the 130 steps it took before the monitor existed
    calm = _l4_solve(1.0, 2.0, (0.0, -1.0))
    assert calm.integration.stop_reason == "completed"
    assert calm.integration.n_accepted == 130
    assert calm.blow_up_time is None


def test_blow_up_stop_moves_the_end_by_at_most_delta_length(l4_solution):
    # the monitor stops once the time left falls below delta |t - t0|, so
    # the end moves back from the blow-up by about delta x length, and the
    # recorded estimate lands on the step-underflow end
    delta, length = solvers._BLOW_UP_DELTA, _THM4_UNDERFLOW_T_END
    t_end = l4_solution.integration.dense.t_end
    assert _THM4_UNDERFLOW_T_END - 1.01 * delta * length <= t_end
    assert t_end < _THM4_UNDERFLOW_T_END
    assert abs(l4_solution.blow_up_time - _THM4_UNDERFLOW_T_END) \
        <= 1e-3 * delta * length


def test_blow_up_monitor_reads_nan_as_a_crossing(l4_constants, monkeypatch):
    # a NaN state or time-left estimate must read as a crossing, like any
    # NaN monitor value
    seen = {}

    def capture(rhs, y0, t_span, config, monitors):
        seen.update(monitors)
        return rk_integrate(rhs, y0, t_span, config, monitors)

    monkeypatch.setattr(solvers, "rk_integrate", capture)
    rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 1.0))
    g = seen["blow-up"]
    assert g(0.1, [1.0, 2.0]) > 0.0
    assert g(0.1, [1.0, -2.0]) > 0.0  # |f'| shrinks: inactive
    for state in ([1.0, math.nan], [math.nan, 2.0]):
        assert not g(0.1, state) > 0.0
    time_left = solvers._blow_up_time_left
    # NaN everywhere: the monitor is crossed at the initial state already
    monkeypatch.setattr(solvers, "_blow_up_time_left",
                        lambda b2, fv, fp: math.nan)
    with pytest.raises(AdmissibilityError, match="monitor 'blow-up' reads nan"):
        rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 1.0))
    # NaN away from the initial state: the first step is a crossing
    monkeypatch.setattr(solvers, "_blow_up_time_left", lambda b2, fv, fp:
                        time_left(b2, fv, fp) if fv == 1.0 else math.nan)
    sol = rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 1.0))
    assert sol.integration.stop_reason == "monitor:blow-up"
    assert sol.integration.n_accepted == 1


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
        yp = dense.derivative(float(t))
        _, _, fpp = l4_solution.warp(float(t))
        assert abs(yp[1] - fpp) < 1e-6
    for t in np.linspace(lo + 1e-3, hi - 1e-3, 60):
        yp = dense.derivative(float(t))
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
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            l5_solution.max_equation_residual(samples)


def test_system_completes_on_fixture(l5_solution):
    assert l5_solution.integration.stop_reason == "completed"
    assert l5_solution.warp.interval == (0.0, 0.8)


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
        yp = dense.derivative(float(t))
        _, _, fpp = l5_solution.warp(float(t))
        yv, ypv, ypp = l5_solution.y_state(float(t))
        assert abs(yp[1] - fpp) < 1e-6
        assert abs(yp[3] - ypp) < 1e-6


def _counting(monkeypatch):
    """Count DenseOutput.__call__ and _second_derivatives calls from here on."""
    calls = {"dense": 0, "solve": 0}
    dense_call, second = solvers.DenseOutput.__call__, solvers._second_derivatives

    def counted_dense(self, t):
        calls["dense"] += 1
        return dense_call(self, t)

    def counted_second(*args):
        calls["solve"] += 1
        return second(*args)

    monkeypatch.setattr(solvers.DenseOutput, "__call__", counted_dense)
    monkeypatch.setattr(solvers, "_second_derivatives", counted_second)
    return calls


def _fresh_l5_solution(l5_constants):
    # not the session fixture: its cache holds what earlier tests asked
    return rw.solve_warp_system(l5_constants, (1.5, 1.2, 0.4, -0.7), (0.0, 0.8))


def test_state_cache_evaluates_each_time_once(l5_constants, monkeypatch):
    sol = _fresh_l5_solution(l5_constants)
    ts = np.linspace(*sol.warp.interval, 50).tolist()
    calls = _counting(monkeypatch)
    warps = [sol.warp(t) for t in ts]
    assert calls == {"dense": 50, "solve": 50}
    ys = [sol.y_state(t) for t in ts]
    residual = sol.max_equation_residual(50)
    assert calls == {"dense": 50, "solve": 50}
    assert [w + y for w, y in zip(warps, ys)] == [sol.state(t) for t in ts]
    assert 0.0 < residual < 1e-6
    assert sol.state.cache_info().maxsize == solvers._STATE_CACHE_SIZE


def test_state_cache_equals_direct_evaluation(l5_constants):
    sol = _fresh_l5_solution(l5_constants)
    dense = sol.integration.dense
    for t in np.linspace(*sol.warp.interval, 37).tolist() * 2:
        fv, fp, yv, yp = dense(t)
        fpp, ypp = solvers._second_derivatives(l5_constants, fv, fp, yp)
        want = (fv, fp, fpp, yv, yp, ypp)
        assert sol.state(t) == want
        assert sol.warp(t) == want[:3] and sol.y_state(t) == want[3:]


def test_state_cache_does_not_cache_errors(l5_constants, monkeypatch):
    sol = _fresh_l5_solution(l5_constants)
    calls = _counting(monkeypatch)
    for _ in range(3):
        with pytest.raises(ChartDomainError):
            sol.y_state(1.5)
        with pytest.raises(ChartDomainError):
            sol.state(-0.5)
    assert calls["dense"] == 6 and sol.state.cache_info().currsize == 0
    assert sol.y_state(0.4) == sol.state(0.4)[3:]
    assert calls == {"dense": 7, "solve": 1}


def test_state_cache_is_per_solution(l5_constants, monkeypatch):
    first, second = (_fresh_l5_solution(l5_constants) for _ in range(2))
    assert first.state is not second.state
    ts = np.linspace(*first.warp.interval, 20).tolist()
    calls = _counting(monkeypatch)
    assert [first.warp(t) for t in ts] == [second.warp(t) for t in ts]
    assert calls == {"dense": 40, "solve": 40}
    assert first.state.cache_info().currsize == second.state.cache_info().currsize == 20


def _non_singular(c, fv, fp, yp) -> bool:
    """Whether the pointwise (f'', y'') system passes the solver's
    determinant test."""
    try:
        solvers._second_derivatives(c, fv, fp, yp)
    except np.linalg.LinAlgError:
        return False
    return True


def test_accepted_states_have_a_non_singular_system(l5_solution):
    # the RHS raises on a near-singular system, which rejects the step, so
    # every accepted state keeps a positive determinant margin without a
    # monitor for it
    draws = [(c, (fv, fp, 0.4, yp)) for c, fv, fp, yp in _admissible_l5_states(0, 3)]
    solutions = [l5_solution] + [rw.solve_warp_system(c, ics, (0.0, 0.8))
                                 for c, ics in draws]
    assert {s.integration.stop_reason for s in solutions} == {
        "completed", "step-underflow"}
    for sol in solutions:
        dense = sol.integration.dense
        for fv, fp, _, yp in [*_rows(dense)[2].tolist(), dense(dense.t_end)]:
            assert _non_singular(sol.constants, fv, fp, yp)


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
        if (_non_singular(c, fv, fp, yp)
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
    monkeypatch.setattr(solvers, "_system_matrices",
                        lambda *args: (*entries, 1.0, -1.0))
    with pytest.raises(np.linalg.LinAlgError, match="near-singular"):
        solvers._second_derivatives(l5_constants, 1.5, 1.2, -0.7)
