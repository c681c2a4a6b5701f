import copy
import dataclasses
import functools
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rwsurf as rw
from rwsurf.errors import (AdmissibilityError, ChartDomainError,
                           ConstraintError)
from rwsurf import solvers
from rwsurf.solvers import SolverConfig, rk_integrate, system_equation_residuals

from conftest import (L5_CONSTANTS, L5_ICS, L5_INTERVAL,
                      count_generated_samples, l4_draws)
from oracles import (ReferenceDense, fixed_step_dense, fixed_step_warp,
                     reference_rk_integrate, reference_rotational_warp,
                     reference_warp_system, rotational_warp_rhs,
                     system_completion, system_matrices)


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
    # the generated step at constant h and h/2: a 5th-order propagated pair
    # shrinks the global error by ~2^5
    errs = []
    for h in (0.2, 0.1):
        y = fixed_step_dense(lambda t, y: y, [1.0], (0.0, 1.0), h)(1.0)
        errs.append(abs(y[0] - math.e))
    ratio = errs[0] / errs[1]
    assert 24.0 <= ratio <= 40.0


@pytest.mark.parametrize("t_span", [(-1.0, 1e-20), (1.0, -1e-20),
                                    (-2.0, -1e-18), (0.3, -3e-17)])
def test_run_that_covers_its_span_completes(t_span):
    # the last step, of t1 - t, ends where t + (t1 - t) rounds: short of t1
    # by less than 1e-14 max(1, |t|), a remainder no step can take; the span
    # is covered, so the run ends 'completed' where it stands
    res = rk_integrate(lambda t, y: y, [1.0], t_span)
    assert (res.stop_reason, res.n_rejected) == ("completed", 0)
    assert res.dense.t_end == res.dense.steps[-1][0] + res.dense.steps[-1][1]
    assert 0.0 < abs(res.dense.t_end - t_span[1]) < 1e-14


@pytest.mark.parametrize("y0", [[math.nan], [1.0, math.inf], [-math.inf, 0.0]])
def test_non_finite_initial_state_is_refused_before_any_rhs_call(y0):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return y

    with pytest.raises(ConstraintError, match="y0 must be finite"):
        rk_integrate(rhs, y0, (0.0, 1.0))
    assert calls == []


@pytest.mark.parametrize("y0, shape", [([], "(0,)"), ([[1.0], [2.0]], "(2, 1)")],
                         ids=["empty", "2-d"])
def test_initial_state_that_is_no_vector_is_refused_before_any_call(y0, shape):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return []

    monitor = ("positive", lambda t, y: calls.append(t) or 1.0)
    with pytest.raises(ConstraintError, match=re.escape(
            f"initial state y0 must be a non-empty 1-D vector, got shape {shape}")):
        rk_integrate(rhs, y0, (0.0, 1.0), monitors=[monitor])
    assert calls == []


@pytest.mark.parametrize("y0, t_span, first", [
    ([1.0], (0.0, 1.0), 1e-6), ([0.0, 0.0], (0.0, -2.0), -1e-6),
], ids=["forward", "backward"])
def test_flat_start_takes_a_first_step_of_1e_6(y0, t_span, first):
    # a zero derivative that stays zero (d1 and d2 at most 1e-15): the
    # initial step is max(1e-6, h0 1e-3) with h0 = 1e-6
    res = rk_integrate(lambda t, y: [0.0] * len(y), y0, t_span)
    assert res.dense.steps[0][1] == first
    assert (res.stop_reason, res.n_accepted, res.n_rejected) == (
        "completed", 10, 0)
    assert res.dense(t_span[1] / 2) == tuple(y0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("integrate", [rk_integrate, reference_rk_integrate],
                         ids=["adaptive-rk_integrate", "adaptive-reference"])
def test_non_finite_derivative_at_the_initial_state_is_refused(value, integrate):
    # an infinite right-hand side divided by zero in the initial step size,
    # and a NaN one failed every step; both are refused before any step
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [value, 1.0]

    with pytest.raises(AdmissibilityError,
                       match=r"derivative at the initial state t=0\.0 is not "
                             r"finite: \[-?(inf|nan), 1\.0\]"):
        integrate(rhs, [1.0, 2.0], (0.0, 1.0))
    assert calls == [0.0]


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
@pytest.mark.parametrize("integrate", [rk_integrate, reference_rk_integrate],
                         ids=["adaptive-rk_integrate", "adaptive-reference"])
def test_arithmetic_error_at_the_initial_state_is_refused(error, integrate):
    # an rhs that raises at (t0, y0) has no derivative there: refused as a
    # non-finite one, naming the error, before any step
    calls = []

    def rhs(t, y):
        calls.append(t)
        raise error("boom")

    with pytest.raises(AdmissibilityError,
                       match=r"^the derivative at the initial state t=0\.0 is "
                             rf"not finite \({error.__name__}: boom\)$") as exc:
        integrate(rhs, [1.0, 2.0], (0.0, 1.0))
    assert isinstance(exc.value.__cause__, error)
    assert calls == [0.0]


@pytest.mark.parametrize("integrate", [rk_integrate, reference_rk_integrate],
                         ids=["rk_integrate", "reference"])
def test_initial_step_that_underflows_takes_no_step(integrate):
    # |f| / (atol + rtol |y|) overflows the RMS, so the initial step size is
    # 0.0, returned before a second rhs call, and no step can start
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [1e300]

    assert solvers._initial_step(rhs, 0.0, [1.0], [1e300], 1.0, 1e-11, 1e-13,
                                 1.0) == 0.0
    assert calls == []
    with pytest.raises(AdmissibilityError,
                       match="^integration could not take a single step$"):
        integrate(rhs, [1.0], (0.0, 1.0))
    assert calls == [0.0]


@pytest.mark.parametrize("f0p", [1e10, 1e40, 1e50, 1e60, 1.158e77, 1e80])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_huge_admissible_initial_slope_is_refused(f0p, sign):
    # from 1e50 the initial step size is 0.0; from 1.158e77 f'**4 overflows
    # in the right-hand side at the initial state
    message = ("^integration could not take a single step$" if f0p < 1e77 else
               r"^the derivative at the initial state t=0\.0 is not finite "
               r"\(OverflowError: ")
    with pytest.raises(AdmissibilityError, match=message):
        _l4_solve(1.0, sign * f0p, (0.0, 1.0))


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
    assert [f.name for f in dataclasses.fields(d)] == [
        "steps", "t_end", "completion"]
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
    return ys[k] + hs[k] * (qs[k] @ np.array([th, th**2, th**3, th**4]))


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
        y = d(float(t))
        assert all(type(v) is float for v in y)
        np.testing.assert_allclose(y, _matrix_form(d, float(t)), rtol=1e-14,
                                   atol=1e-15)


@pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.0, -1.0)])
def test_dense_output_slack_clamps_and_rejects(t_span):
    d = rk_integrate(lambda t, y: y, [1.0], t_span).dense
    lo, hi = d.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    for edge, outward in ((lo, -1.0), (hi, 1.0)):
        inside = d(edge + 0.5 * outward * slack)
        at_edge = d(edge)
        np.testing.assert_array_equal(inside, at_edge)
        with pytest.raises(ChartDomainError, match="outside"):
            d(edge + 2.0 * outward * slack)


def test_dense_output_derivative_consistency():
    # the rows' quartic coefficients, differentiated by the oracle
    res = rk_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    derivative = ReferenceDense(res.dense.steps, res.dense.t_end).derivative
    for t in np.linspace(0.05, 0.95, 20):
        y, yp = res.dense(float(t)), derivative(float(t))
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
    # named with the interval, as the NaN-endpoint and infinite-start refusals
    with pytest.raises(ConstraintError, match=r"^integration interval "
                       r"\[1\.0, 1\.0\] is degenerate$"):
        rk_integrate(lambda t, y: y, [1.0], (1.0, 1.0))


def test_rhs_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="^rhs returned 2 components for a "
                       "state of 1$"):
        rk_integrate(lambda t, y: [1.0, 2.0], [0.0], (0.0, 1.0))


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_solver_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConstraintError, match=f"^{name} must be finite"):
        SolverConfig(**{name: value})


def test_solver_config_still_rejects_non_positive_tolerances():
    for kwargs in ({"rtol": 0.0}, {"atol": -1e-13}):
        with pytest.raises(ConstraintError, match="must be positive"):
            SolverConfig(**kwargs)


def test_solver_config_is_the_two_tolerances():
    # every step is under error control: there is no step-size field
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["rtol", "atol"]
    with pytest.raises(TypeError, match="fixed_step"):
        SolverConfig(fixed_step=0.1)


@pytest.mark.parametrize("t_span", [(math.nan, 1.0), (0.0, math.nan)])
def test_nan_interval_endpoint_rejected(t_span):
    with pytest.raises(ConstraintError, match="NaN endpoint"):
        rk_integrate(lambda t, y: y, [1.0], t_span)


@pytest.mark.parametrize("t_span", [(math.inf, 1.0), (-math.inf, 0.0),
                                    (math.inf, math.inf)])
def test_infinite_start_time_rejected_before_any_call(t_span):
    # no step can start at an infinite time (its round-off floor is inf):
    # refused naming the interval, before any monitor or rhs call
    calls = []

    def called(t, y):
        calls.append(t)
        return 1.0

    with pytest.raises(ConstraintError, match=re.escape(
            f"integration interval [{t_span[0]}, {t_span[1]}] has an "
            "infinite start")):
        rk_integrate(called, [1.0], t_span, monitors=[("m", called)])
    assert calls == []


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

    dense = fixed_step_dense(rhs, y0, (0.0, 2.0), 0.05)
    ys, qs = _matrix_form_steps(rhs, y0, 0.05, 40)
    _, _, got_ys, got_qs = _rows(dense)
    assert got_ys.shape == ys.shape
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
    """A run whose size is the number of dense-output samples of one fixed
    solve."""
    def run():
        d = rk_integrate(lambda t, y: (y[1], -y[0]), [0.3, 0.7], (0.0, 3.0)).dense
        lo, hi = d.interval
        for k in range(n):
            t = lo + (hi - lo) * k / (n - 1)
            d(t)
        return n
    return run


@pytest.mark.parametrize("short, long", [
    (_oscillator_steps(t_span=(0.0, 1.0)), _oscillator_steps(t_span=(0.0, 100.0))),
    (_dense_samples(10), _dense_samples(1000)),
], ids=["adaptive", "dense-samples"])
def test_numpy_calls_do_not_grow_with_steps(monkeypatch, short, long):
    counts = []
    for run in (short, long):
        proxy = _NumpyLookups()
        monkeypatch.setattr(solvers, "np", proxy)
        counts.append((run(), proxy.count))
    (n_short, c_short), (n_long, c_long) = counts
    assert n_long >= 50 * n_short
    assert c_short == c_long


def _coupled_rhs(seed, d, form):
    """A mildly nonlinear float right-hand side of d components, returning
    a list, a tuple or an array."""
    rng = np.random.default_rng(seed)
    M = (0.8 * rng.standard_normal((d, d))).tolist()
    c = (0.3 * rng.standard_normal(d)).tolist()
    wrap = {"list": list, "tuple": tuple, "array": np.array}[form]

    def rhs(t, y):
        return wrap([sum([m * x for m, x in zip(row, y)])
                     + ci * math.sin(t + y[i - 1])
                     for i, (row, ci) in enumerate(zip(M, c))])
    return rhs, (rng.uniform(-1.0, 1.0, d) + 0.5).tolist()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from(["list", "tuple", "array"]),
       span=st.floats(0.2, 2.0) | st.floats(-2.0, -0.2), monitored=st.booleans())
def test_generated_kernels_match_the_per_component_form_bitwise(
        d, seed, form, span, monitored):
    # steps rows, end time, stop reason, step counts and dense samples all
    # equal the list-comprehension form's, bit for bit
    # (repr of a float round-trips and tells -0.0 from 0.0)
    rhs, y0 = _coupled_rhs(seed, d, form)
    # crosses zero within 1e-3 of mid-span, wherever the state goes
    half_span = lambda t, y: 0.5 * abs(span) - abs(t) + 1e-3 * math.tanh(y[0])
    monitors = [("half-span", half_span)] if monitored else []
    res = rk_integrate(rhs, y0, (0.0, span), monitors=monitors)
    ref, stop_reason, n_acc, n_rej = reference_rk_integrate(
        rhs, y0, (0.0, span), monitors=monitors)
    assert (res.stop_reason, res.n_accepted, res.n_rejected) == (
        stop_reason, n_acc, n_rej)
    assert res.stop_reason.startswith("monitor:") == monitored
    dense = res.dense
    assert repr((dense.steps, dense.t_end)) == repr((ref.steps, ref.t_end))
    ts = np.linspace(*dense.interval, 50).tolist() + _path_times(dense.interval)
    assert _samples(dense, ts) == _samples(ref, ts)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       span=st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
       value=st.sampled_from([math.inf, -math.inf, math.nan]),
       where=st.integers(3, 150) | st.floats(0.1, 0.9))
# after the initial state's two calls, six per attempt: call 44 is the
# seventh stage alone of the seventh attempt, and call 35 the fourth stage
# of the sixth, in a run of 27 attempts
@example(d=1, seed=0, span=1.0, value=math.inf, where=44)
@example(d=2, seed=1, span=1.0, value=math.nan, where=35)
def test_non_finite_stages_are_rejected_as_in_the_per_component_form(
        d, seed, span, value, where):
    # the right-hand side reads ``value`` at its call number ``where`` (an
    # int past the calls at the initial state: one stage, so at times the
    # seventh alone, which leaves y_new finite and only the error estimate
    # not) or, for a float, wherever its first component is past the level
    # it has at that share of the span (a region every later step runs
    # into).  Such steps must be rejected with x0.25, and everything the
    # run records must equal the per-component form's
    rhs, y0 = _coupled_rhs(seed, d, "list")
    if isinstance(where, float):
        level = rk_integrate(rhs, y0, (0.0, span)).dense(where * span)[0]
        side = 1.0 if level >= y0[0] else -1.0

    def outcome(integrate):  # a run that takes no step raises in both
        calls = []

        def poisoned(t, y):
            calls.append(t)
            hit = (len(calls) == where if isinstance(where, int)
                   else (y[0] - level) * side > 0.0)
            return [value] * d if hit else rhs(t, y)

        try:
            res = integrate(poisoned, y0, (0.0, span))
        except AdmissibilityError as exc:
            return str(exc)
        if isinstance(res, tuple):
            dense, stop_reason, n_acc, n_rej = res
        else:
            dense, stop_reason = res.dense, res.stop_reason
            n_acc, n_rej = res.n_accepted, res.n_rejected
        return repr((stop_reason, n_acc, n_rej, dense.steps, dense.t_end))

    assert outcome(rk_integrate) == outcome(reference_rk_integrate)


def test_generated_kernels_are_built_once_per_state_length(monkeypatch):
    built = []

    def counting_compile(source, filename, mode):
        built.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(solvers, "compile", counting_compile, raising=False)
    solvers._kernels.cache_clear()
    for d in (1, 2, 4, 2, 1, 4, 2):
        rhs, y0 = _coupled_rhs(d, d, "tuple")
        dense = rk_integrate(rhs, y0, (0.0, 0.5)).dense
        solvers.DenseOutput(dense.steps, dense.t_end)(0.25)
    assert built == [f"<rwsurf.solvers._kernels({d})>" for d in (1, 2, 4)]


def test_rms_sums_left_to_right():
    # Python 3.12's sum compensates float sums and reads ...258 here; the
    # step norm and the initial step must not move with the Python version
    values = [1.0, 1e-8, 1e-8]
    want = math.sqrt((((0.0 + 1.0) + 1e-16) + 1e-16) / 3)
    assert repr(solvers._rms(values)) == repr(want) == "0.5773502691896257"


def test_run_that_exhausts_the_step_budget_ends_max_steps(monkeypatch):
    # an oscillator over (0, 100) takes hundreds of steps: with a budget of
    # 50 the run ends for it, after exactly that many attempts, where the
    # last accepted step ended
    monkeypatch.setattr(solvers, "_MAX_STEPS", 50)
    oscillator = (lambda t, y: (y[1], -y[0]), [0.3, 0.7], (0.0, 100.0))
    res = rk_integrate(*oscillator)
    assert res.stop_reason == "max-steps"
    assert res.n_accepted + res.n_rejected == 50
    assert res.dense.t_end == res.dense.steps[-1][0] + res.dense.steps[-1][1]
    assert res.dense.t_end < 100.0
    ref, stop_reason, n_acc, n_rej = reference_rk_integrate(*oscillator)
    assert (stop_reason, n_acc, n_rej, ref.t_end) == (
        "max-steps", res.n_accepted, res.n_rejected, res.dense.t_end)
    # rejected attempts count against the budget too: a budget one short of
    # the attempts of a run that underflows ends it by the budget
    monkeypatch.undo()
    blow_up = (lambda t, y: [1 / (2 - y[0]) if y[0] < 2 else 1 / 0.0], [0.0],
               (0.0, 5.0))
    res = rk_integrate(*blow_up)
    attempts = res.n_accepted + res.n_rejected
    assert res.stop_reason == "step-underflow" and res.n_rejected > 100
    monkeypatch.setattr(solvers, "_MAX_STEPS", attempts - 1)
    res = rk_integrate(*blow_up)
    assert res.stop_reason == "max-steps"
    assert res.n_accepted + res.n_rejected == attempts - 1


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
    # c2 is derived, and c2 > 0 is b^2 = a^2 - 4 H0^2 > 0: the member whose
    # c2 would be 0 is refused by the b^2 rule, and no c2 is taken
    with pytest.raises(ConstraintError,
                       match="a\\^2 - 4 H0\\^2 > 0 violated: 0.0"):
        rw.validate_constants_l4(1.0, 0.5)
    with pytest.raises(TypeError):
        rw.validate_constants_l4(2.0, 0.5, 0.5)
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
    c = rw.validate_constants_product(1.0, 0.4)
    assert (c.b2, c.b3) == (0.4, math.sqrt(1.0 / 3.0 - 0.4 * 0.4))
    with pytest.raises(ConstraintError, match="b2\\^2"):
        rw.validate_constants_product(1.0, 0.4, 0.5)
    with pytest.raises(ConstraintError):
        rw.validate_constants_product(0.0, 0.3, 0.4)
    for b2, b3, name in ((None, 0.7, "b3"), (0.7, None, "b2")):  # 0.49 > 1/3
        with pytest.raises(ConstraintError,
                           match=f"unsolvable: {name}\\^2 exceeds 0.333"):
            rw.validate_constants_product(1.0, b2, b3)
    with pytest.raises(ConstraintError,
                       match="^at least one of b2, b3 must be given$"):
        rw.validate_constants_product(1.0)


_L4 = rw.validate_constants_l4(2.0, 0.5)
_L5 = rw.validate_constants_l5(*L5_CONSTANTS)


@pytest.mark.parametrize("build, args, name", [
    (rw.validate_constants_l4, (math.nan, 0.5), "a"),
    (rw.validate_constants_l4, (2.0, math.nan), "H0"),
    (rw.validate_constants_l4, (math.inf, math.nan), "a"),  # the first one
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


def test_warp_over_a_sub_interval_samples_the_dense_output(l4_solution):
    # a solved warp's fn is its completed output's generated dense sample,
    # over the solve's interval; a warp over a sub-interval wraps that same
    # sample in the same checks, and only its interval test differs
    warp = l4_solution.warp
    lo, hi = warp.interval
    assert warp.interval == l4_solution.integration.dense.interval
    assert warp.fn.__code__.co_filename == "<rwsurf.solvers._kernels(l4)>"
    assert warp.fn.__qualname__ == "dense.<locals>.sample"
    sub = (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))
    restricted = rw.WarpingFunction(warp.fn, sub)
    for t in np.linspace(*sub, 41).tolist():
        assert restricted(t) == warp(t)
    for t in (lo, hi):
        with pytest.raises(ChartDomainError,
                           match=re.escape(f"outside interval [{sub[0]}, {sub[1]}]")):
            restricted(t)


def test_solved_warp_refuses_times_past_its_slack_itself(l4_solution):
    # the warp's slack is the dense output's: past it, the warp's own error
    warp = l4_solution.warp
    lo, hi = warp.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert warp(hi + 0.5 * slack) == warp(hi)
    assert warp(lo - 0.5 * slack) == warp(lo)
    for t in (hi + 5e-11, lo - 5e-11):
        with pytest.raises(ChartDomainError, match="^warp evaluated at"):
            warp(t)


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
    # the monitor computes its time left in its own frame, so a NaN margin
    # comes in through delta: NaN everywhere, and the monitor is crossed at
    # the initial state already
    monkeypatch.setattr(solvers, "_BLOW_UP_DELTA", math.nan)
    with pytest.raises(AdmissibilityError, match="monitor 'blow-up' reads nan"):
        rw.solve_rotational_warp(l4_constants, 1.0, 2.0, (0.0, 1.0))

    class NanAwayFromStart(float):  # delta x |t - t0|: 0 at t0, NaN after
        def __mul__(self, other):
            return 0.0 if other == 0.0 else math.nan

    # NaN away from the initial state: the first step is a crossing
    monkeypatch.setattr(solvers, "_BLOW_UP_DELTA", NanAwayFromStart())
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
    # the oracle's derivative of the interpolated f' against the ODE's f'';
    # absolute on the tame part, scale-relative where f'' grows toward the
    # blow-up
    raw = l4_solution.integration.dense
    dense = ReferenceDense(raw.steps, raw.t_end)
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
    residuals = solvers._residuals(l5_solution.constants)

    def nan_at_100th(*args):
        calls.append(None)
        r1, r2 = residuals(*args)
        return (math.nan, r2) if len(calls) == 100 else (r1, r2)

    monkeypatch.setattr(solvers, "_residuals", lambda constants: nan_at_100th)
    assert math.isnan(l5_solution.max_equation_residual())
    assert len(calls) == 200
    monkeypatch.undo()
    assert 0.0 < l5_solution.max_equation_residual() < 1e-6


def test_system_completes_on_fixture(l5_solution):
    assert l5_solution.integration.stop_reason == "completed"
    assert l5_solution.warp.interval == (0.0, 0.8)


def test_system_equation_residuals_along_trajectory(l5_solution):
    assert l5_solution.max_equation_residual() < 1e-6


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
    raw = l5_solution.integration.dense
    dense = ReferenceDense(raw.steps, raw.t_end)
    for t in np.linspace(1e-3, 0.799, 60):
        yp = dense.derivative(float(t))
        _, _, fpp = l5_solution.warp(float(t))
        yv, ypv, ypp = l5_solution.y_state(float(t))
        assert abs(yp[1] - fpp) < 1e-6
        assert abs(yp[3] - ypp) < 1e-6


def _counting(monkeypatch):
    """Count the calls into the generated dense samples (the interpolant
    evaluations that the state cache wraps) and the 2x2 solves they run
    inline (those past the interval test) of the solutions built from here
    on; the caller zeroes the counts after its solves."""
    calls = {"dense": 0, "solve": 0}
    count_generated_samples(monkeypatch, calls, inline="solve")
    return calls


def _fresh_l5_solution(l5_constants):
    # not the session fixture: its cache holds what earlier tests asked
    return rw.solve_warp_system(l5_constants, (1.5, 1.2, 0.4, -0.7), (0.0, 0.8))


def test_state_cache_evaluates_each_time_once(l5_constants, monkeypatch):
    calls = _counting(monkeypatch)
    sol = _fresh_l5_solution(l5_constants)
    calls.update(dense=0, solve=0)
    # the 200 times max_equation_residual reads
    ts = np.linspace(*sol.warp.interval, 200).tolist()
    warps = [sol.warp(t) for t in ts]
    assert calls == {"dense": 200, "solve": 200}
    ys = [sol.y_state(t) for t in ts]
    residual = sol.max_equation_residual()
    assert calls == {"dense": 200, "solve": 200}
    assert [w + y for w, y in zip(warps, ys)] == [sol.state(t) for t in ts]
    assert 0.0 < residual < 1e-6
    assert sol.state.cache_info().maxsize == solvers._STATE_CACHE_SIZE


def test_state_cache_equals_direct_evaluation(l5_constants):
    sol = _fresh_l5_solution(l5_constants)
    dense = sol.integration.dense
    for t in np.linspace(*sol.warp.interval, 37).tolist() * 2:
        want = system_completion(l5_constants)(dense(t))
        assert sol.state(t) == want
        assert sol.warp(t) == want[:3] and sol.y_state(t) == want[3:]


def test_state_cache_does_not_cache_errors(l5_constants, monkeypatch):
    calls = _counting(monkeypatch)
    sol = _fresh_l5_solution(l5_constants)
    calls.update(dense=0, solve=0)
    for _ in range(3):
        with pytest.raises(ChartDomainError):
            sol.y_state(1.5)
        with pytest.raises(ChartDomainError):
            sol.state(-0.5)
    assert calls["dense"] == 6 and sol.state.cache_info().currsize == 0
    assert sol.y_state(0.4) == sol.state(0.4)[3:]
    assert calls == {"dense": 7, "solve": 1}


def test_state_cache_is_per_solution(l5_constants, monkeypatch):
    calls = _counting(monkeypatch)
    first, second = (_fresh_l5_solution(l5_constants) for _ in range(2))
    calls.update(dense=0, solve=0)
    assert first.state is not second.state
    ts = np.linspace(*first.warp.interval, 20).tolist()
    assert [first.warp(t) for t in ts] == [second.warp(t) for t in ts]
    assert calls == {"dense": 40, "solve": 40}
    assert first.state.cache_info().currsize == second.state.cache_info().currsize == 20


# Members near the reference constants, sampled at the ends of the solved
# interval and between them, and past each end within the 1e-12 slack band
# (clamped) and beyond it (rejected).  repr compares bits (and tells -0.0
# and a numpy float from a float); a sample that raises compares by its
# type and message.
_PATH_SAMPLES = 41


def _path_times(interval):
    lo, hi = interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    return np.linspace(lo, hi, _PATH_SAMPLES).tolist() + [
        lo - 0.5 * slack, hi + 0.5 * slack, lo - 2.0 * slack, hi + 2.0 * slack]


def _samples(fn, ts):
    out = []
    for t in ts:
        try:
            out.append(repr(fn(t)))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@settings(max_examples=25, deadline=None)
@given(a=st.floats(1.9, 2.1), h0=st.floats(0.45, 0.55), f0=st.floats(0.9, 1.1),
       q=st.floats(0.5, 1.5), f0_sign=st.sampled_from([1.0, -1.0]),
       f0p_sign=st.sampled_from([1.0, -1.0]), backward=st.booleans())
def test_rotational_warp_path_matches_the_reference(a, h0, f0, q, f0_sign,
                                                    f0p_sign, backward):
    c = rw.validate_constants_l4(a, h0)
    f0 *= f0_sign
    f0p = f0p_sign * math.sqrt(c.b2 * f0 * f0 + q)
    interval = (0.0, -1.0 if backward else 1.0)
    sol = rw.solve_rotational_warp(c, f0, f0p, interval)
    warp, blow_up_time, *ending = reference_rotational_warp(c, f0, f0p,
                                                            interval)
    res = sol.integration
    assert [res.stop_reason, res.n_accepted, res.n_rejected] == ending
    assert repr(sol.blow_up_time) == repr(blow_up_time)
    ts = _path_times(sol.warp.interval)
    assert _samples(sol.warp, ts) == _samples(warp, ts)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(1.9, 2.1), h0=st.floats(0.54, 0.66), dphi=st.floats(-0.1, 0.1),
       f0=st.floats(1.425, 1.575), f0p=st.floats(1.14, 1.26),
       y0=st.floats(0.35, 0.45), y0p=st.floats(-0.735, -0.665))
def test_warp_system_path_matches_the_reference(a, h0, dphi, f0, f0p, y0, y0p):
    r = math.sqrt(1.0 - 4.0 * h0 * h0 / (a * a))
    phi = math.atan2(0.64, 0.48) + dphi
    c = rw.validate_constants_l5(a, h0, r * math.cos(phi), r * math.sin(phi))
    ics = (f0, f0p, y0, y0p)
    try:
        sol = rw.solve_warp_system(c, ics, L5_INTERVAL)
    except AdmissibilityError:
        assume(False)
    state, warp, max_residual, *ending = reference_warp_system(c, ics,
                                                               L5_INTERVAL)
    res = sol.integration
    assert [res.stop_reason, res.n_accepted, res.n_rejected] == ending
    ts = _path_times(sol.warp.interval)
    # the warp first, so y_state and state read what it left in the cache
    assert _samples(sol.warp, ts) == _samples(warp, ts)
    assert _samples(sol.y_state, ts) == _samples(lambda t: state(t)[3:], ts)
    assert _samples(sol.state, ts) == _samples(state, ts)
    assert repr(sol.max_equation_residual()) == repr(max_residual())


def test_fixed_step_warp_across_its_blow_up_matches_the_reference():
    # fixed steps of 0.005 carry this member past its blow-up before the
    # blow-up monitor fires: the last step crosses it and the run ends
    # 'monitor:warp-positive', and inside that step the interpolant reaches
    # an f' whose f'^4 in the completion overflows.  The warp sample over
    # those rows must match the per-sample completion
    c = rw.validate_constants_l4(2.0, 0.5)
    f0p = math.sqrt(c.b2 + 0.5)
    solved, *ending = fixed_step_warp(c, 1.0, f0p, (0.0, 1.0), 0.005)
    assert ending == ["monitor:warp-positive", 61, 1]
    warp = reference_rotational_warp(c, 1.0, f0p, (0.0, 1.0),
                                     fixed_step=0.005)[0]
    ts = _path_times(solved.interval) + np.linspace(
        *solved.interval, 401).tolist()
    got = _samples(solved, ts)
    assert got == _samples(warp, ts)
    overflow = [g for g in got if "(OverflowError: " in g]
    assert overflow and all(g.startswith(
        "SingularWarpError: warping function is not finite at t=")
        for g in overflow)
    with pytest.raises(rw.SingularWarpError) as exc:
        solved(0.30072533418659664)
    assert isinstance(exc.value.__cause__, OverflowError)


def test_warp_samples_are_python_floats(l4_solution, l5_solution):
    warps = [l4_solution.warp, l5_solution.warp,
             rw.WarpingFunction(rw.WarpingFunction.exponential(0.5).fn,
                                (-1.0, 1.0))]
    for warp in warps:
        for t in _path_times(warp.interval)[:-2]:  # those past the band raise
            assert all(type(x) is float for x in warp(t))
    for t in _path_times(l5_solution.warp.interval)[:-2]:
        assert all(type(x) is float for x in l5_solution.state(t))


def _second_derivatives(c, fv, fp, yp):
    """(f'', y'') of the pointwise 2x2 solve at (f, f', y'); y does not
    enter it."""
    _, complete = solvers._bind(solvers._L5, c._factors)
    _, _, fpp, _, _, ypp = complete((fv, fp, 0.0, yp))
    return fpp, ypp


def _non_singular(c, fv, fp, yp) -> bool:
    """Whether the pointwise (f'', y'') system passes the solver's
    determinant test."""
    try:
        _second_derivatives(c, fv, fp, yp)
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


def _system_matrices(c, fv, fp, yp):
    """(A11, A12, A21, A22, R1, R2) of the package's compiled equations, read
    off their residuals A @ (f'', y'') + R at (f'', y'') = (0, 0), (1, 0) and
    (0, 1): each entry of A to round-off in the larger of it and R."""
    r = lambda fpp, ypp: system_equation_residuals(c, fv, fp, fpp, yp, ypp)
    R, fpp1, ypp1 = r(0.0, 0.0), r(1.0, 0.0), r(0.0, 1.0)
    return (fpp1[0] - R[0], ypp1[0] - R[0], fpp1[1] - R[1], ypp1[1] - R[1],
            *R)


def test_system_matrices_match_the_family_equations():
    for c, fv, fp, yp in _admissible_l5_states(7, 300):
        A, R = _family_equations_literal(c, fv, fp, yp)
        got = np.array(_system_matrices(c, fv, fp, yp))
        want = np.concatenate([A.ravel(), R])
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def test_closed_form_solve_matches_linalg_solve():
    for c, fv, fp, yp in _admissible_l5_states(11, 500):
        a11, a12, a21, a22, r1, r2 = system_matrices(c)(fv, fp, yp)
        want = np.linalg.solve(np.array([[a11, a12], [a21, a22]]),
                               -np.array([r1, r2]))
        got = np.array(_second_derivatives(c, fv, fp, yp))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("duplicate", [
    lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_l5_constants_round_trip(l5_constants, duplicate):
    # the constants keep their text's factors beside the fields, and a copy
    # carries them over
    c = duplicate(l5_constants)
    assert c == l5_constants and type(c) is solvers.ConstantsL5
    args = (1.5, 1.2, 0.7, 0.4, -0.7)
    assert (repr(system_equation_residuals(c, *args))
            == repr(system_equation_residuals(l5_constants, *args)))


def test_system_solve_makes_no_linalg_solve_call(l5_constants, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    sol = rw.solve_warp_system(l5_constants, (1.5, 1.2, 0.4, -0.7), (0.0, 0.2))
    sol.warp(0.1)
    sol.y_state(0.1)
    assert sol.max_equation_residual() < 1e-9


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_system_entry_is_singular(position, bad):
    # one non-finite entry anywhere must fail the determinant test; Python's
    # max() drops a NaN that is not its first argument, so the margin relies
    # on the determinant carrying it.  The test runs compiled as in the L5
    # family, here with the entries of A and R given as the factors
    entries = [-3.0, 1.5, -0.25, 2.0]
    entries[position] = bad
    cramer = solvers._Family("cramer", "fv, fp, yv, yp",
                             "A11, A12, A21, A22, R1, R2", solvers._CRAMER)
    _, complete = solvers._bind(cramer, (*entries, 1.0, -1.0))
    with pytest.raises(np.linalg.LinAlgError, match="near-singular"):
        complete((1.5, 1.2, 0.4, -0.7))


def _l5_member(dphi):
    """Constants of the L5 family near the fixture's, turned by dphi."""
    r = math.sqrt(1.0 - 4.0 * 0.6 * 0.6 / 4.0)
    phi = math.atan2(0.64, 0.48) + dphi
    return rw.validate_constants_l5(2.0, 0.6, r * math.cos(phi),
                                    r * math.sin(phi))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


_coordinate = (st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])
               | st.floats(-1e100, 1e100))  # f'**4 overflows past 1e77


@settings(max_examples=80, deadline=None)
@given(l5=st.booleans(), dphi=st.floats(-0.1, 0.1),
       state=st.lists(_coordinate, min_size=4, max_size=4),
       slopes=st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
       h=st.floats(-0.2, 0.2), th=st.floats(0.0, 1.0),
       singular=st.booleans())
# f' = y' = 0: all of A is zero; a huge f' overflows f'**4 in the L4 text
@example(l5=True, dphi=0.0, state=[1.5, 0.0, 0.4, 0.0], slopes=[0.0] * 20,
         h=0.1, th=0.5, singular=False)
@example(l5=False, dphi=0.0, state=[1.0, 1e90, 0.0, 0.0], slopes=[0.0] * 20,
         h=0.1, th=0.5, singular=False)
def test_family_kernels_match_the_generic_path_bitwise(l5, dphi, state, slopes,
                                                       h, th, singular):
    # each family's compiled step and state sample, and a warp over that
    # sample, against the generic kernels of its state length around the
    # closures of tests/oracles.py: results by repr, exceptions by type and
    # message
    if l5:
        c = _l5_member(dphi)
        family, factors, complete = solvers._L5, c._factors, system_completion(c)
        rhs = lambda t, s: complete(s)[1:3] + complete(s)[4:]
        if singular:
            state[1] = state[3] = 0.0
    else:
        c = rw.validate_constants_l4(2.0, 0.5 + 0.05 * dphi)
        family, factors, rhs = solvers._L4, (c.b2,), rotational_warp_rhs(c)
        complete = lambda s: (s[0], *rhs(0.0, s))
    d = 4 if l5 else 2
    y, k1 = state[:d], slopes[:d]
    family_rhs, family_complete = solvers._bind(family, factors)
    generic_step = solvers._kernels(d)[0](rhs)
    step = solvers._kernels(family)[0](*factors)
    args = (0.25, h, y, k1, 1e-13, 1e-11)
    assert _outcome(step, *args) == _outcome(generic_step, *args)
    assert _outcome(family_rhs, 0.25, y) == _outcome(rhs, 0.25, y)
    # one step row (0, 1, y, q) with drawn quartic coefficients
    q = [tuple(slopes[4 * i:4 * i + 4]) for i in range(d)]
    dense, generic = (solvers.DenseOutput([(0.0, 1.0, y, q)], 1.0, fn)
                      for fn in (family_complete, complete))
    for t in (th, 0.0, 1.0, 1.0 + 1e-13, -2e-12):
        assert _outcome(dense, t) == _outcome(generic, t)
        assert (_outcome(rw.WarpingFunction(dense, (0.0, 1.0)), t)
                == _outcome(rw.WarpingFunction(generic, (0.0, 1.0)), t))


def test_singular_solved_warp_sample_is_a_singular_warp_error():
    # A is all zero at f' = y' = 0: the state sample raises LinAlgError, and
    # a warp over it, cached or uncached, raises SingularWarpError naming t
    c = rw.validate_constants_l5(2.0, 0.6, 0.48, 0.64)
    _, complete = solvers._bind(solvers._L5, c._factors)
    dense = solvers.DenseOutput(
        [(0.0, 1.0, [1.0, 0.0, 0.0, 0.0], [(0.0,) * 4] * 4)], 1.0, complete)
    with pytest.raises(np.linalg.LinAlgError, match="near-singular"):
        dense(0.5)
    cached = rw.WarpingFunction(functools.lru_cache(maxsize=None)(dense),
                                (0.0, 1.0))
    uncached = rw.WarpingFunction(dense, (0.0, 1.0))
    for warp in (cached, uncached):
        space = rw.AmbientSpace(5, 0, warp)
        for evaluate in (warp, lambda t: space.warp_state((t,))):
            with pytest.raises(rw.SingularWarpError, match=(
                    r"not finite at t=0\.5 \(LinAlgError: pointwise system "
                    r"is near-singular\)")) as exc:
                evaluate(0.5)
            assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_family_kernels_compile_on_first_use_once(monkeypatch):
    # importing the package compiles nothing; then each family compiles
    # once, and nothing else: the solve's raw dense output, which has no
    # completion, is never called, not even for the blow-up time, and
    # neither the warps over the solves nor the equation residuals compile
    # anything of their own
    code = ("import rwsurf.cli\n"
            "from rwsurf import solvers\n"
            "assert solvers._kernels.cache_info().currsize == 0\n")
    src = str(pathlib.Path(solvers.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    built = []

    def counting_compile(source, filename, mode):
        built.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(solvers, "compile", counting_compile, raising=False)
    monkeypatch.setattr(rw.ambient, "compile", counting_compile, raising=False)
    solvers._kernels.cache_clear()
    for _ in range(3):
        _l4_solve(1.0, 2.0, (0.0, 0.1))
        blown = _l4_solve(1.0, 2.0, (0.0, 1.0))
        assert blown.integration.stop_reason == "monitor:blow-up"
        assert blown.blow_up_time is not None
        l5 = rw.solve_warp_system(_l5_member(0.0), L5_ICS, (0.0, 0.1))
        l5.warp(0.05)
        assert l5.max_equation_residual() < 1e-9
    assert built == [f"<rwsurf.solvers._kernels({key})>" for key in ("l4", "l5")]


def test_a_blow_up_solve_binds_one_sample(monkeypatch):
    # a solve that stops by 'monitor:blow-up' binds the dense sample of its
    # completed output once (for the blow-up time), and its warp's fn is
    # that bound sample: a dense output has no other sample to bind
    kernels, bound = solvers._kernels, []

    def recording(key):
        step, quartic, dense, *bind = kernels(key)

        def factory(*args):  # lo, hi, low, high, steps, starts, ...
            bound.append((args[5], dense(*args)))
            return bound[-1][1]
        return (step, quartic, factory, *bind)

    monkeypatch.setattr(solvers, "_kernels", recording)
    blown = _l4_solve(1.0, 2.0, (0.0, 1.0))
    assert blown.integration.stop_reason == "monitor:blow-up"
    blown.warp(0.1)
    [(starts, sample)] = bound
    assert blown.warp.fn is sample
    rows = blown.integration.dense.steps
    assert starts == [row[0] for row in rows]
    assert not {"_bound", "_starts", "_warp_sample"} & set(dir(solvers.DenseOutput))


def _l4_sweep(n):
    """n thm4 members from the family sweep's sampler (seed 11), solved
    over (0, 1); about half stop by 'monitor:blow-up'."""
    for a, H0, f0, f0p in l4_draws(n):
        yield rw.solve_rotational_warp(rw.validate_constants_l4(a, H0), f0,
                                       f0p, (0.0, 1.0))


def test_raw_dense_output_binds_on_first_call(l5_solution, monkeypatch):
    # a family solve's raw interpolant (integration.dense) compiles and binds
    # nothing until it is called; then it is the completed output's leading
    # state, bitwise, at the end time and across the interval
    built = []

    def counting_compile(source, filename, mode):
        built.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(solvers, "compile", counting_compile, raising=False)
    solvers._kernels.cache_clear()
    l4 = list(_l4_sweep(40))
    l5 = rw.solve_warp_system(l5_solution.constants, L5_ICS, L5_INTERVAL)
    reasons = {sol.integration.stop_reason for sol in l4}
    assert {"completed", "monitor:blow-up"} <= reasons
    assert built == [f"<rwsurf.solvers._kernels({key})>" for key in ("l4", "l5")]
    for sol in (*l4, l5):
        assert "_sample" not in vars(sol.integration.dense)
    leading = [(sol.integration.dense, lambda t, w=sol.warp.fn: w(t)[:2])
               for sol in l4]
    leading.append((l5.integration.dense, lambda t: itemgetter(0, 1, 3, 4)(
        l5.state(t))))
    for raw, completed in leading:
        for t in [raw.t_end, *np.linspace(*raw.interval, 50).tolist()]:
            assert repr(raw(t)) == repr(completed(t))
    assert built[2:] == [f"<rwsurf.solvers._kernels({d})>" for d in (2, 4)]
