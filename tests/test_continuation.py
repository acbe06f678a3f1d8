"""Numeric continuation: charts, path validation, and seed verification."""

import math
import warnings

import numpy as np
import pytest

from pvilab import continuation
from pvilab.asymptotics import CriticalSeed, leading_term, make_seed, seed_value
from pvilab.continuation import ChartThrashError, PathPlan, from_chart, integrate, to_chart
from pvilab.numerics import clog, cpow
from pvilab.pvi import ThetaParams, rational_solution_theta0_1, rational_solution_theta0_minus2
from pvilab.series import solve_taylor

TH = ThetaParams(0.21, 0.33, 0.17, 0.52)


@pytest.mark.parametrize("chart", ["y", "inv_y"])
def test_chart_round_trip(chart):
    y, yp = 0.61 - 0.2j, 1.3 + 0.05j
    w, wp = to_chart(chart, y, yp)
    y2, yp2 = from_chart(chart, w, wp)
    assert abs(y2 - y) < 1e-13 and abs(yp2 - yp) < 1e-13


def test_pathplan_clearance_guards():
    with pytest.raises(ValueError):
        PathPlan((0.3,))  # one vertex
    with pytest.raises(ValueError):
        PathPlan((1e-9, 0.5))  # vertex on x = 0
    with pytest.raises(ValueError):
        PathPlan((0.5 - 1j, 0.5 + 1j, 2.0, -1.0))  # last segment crosses x = 1


def test_integrate_requires_matching_start():
    with pytest.raises(ValueError):
        integrate((0.2, 0.5, 0.1), TH, PathPlan((0.3, 0.6)))


def test_round_trip_and_tolerance_ordering():
    ser = solve_taylor(TH, "form1", N=12)
    x0, x1 = 5e-3, 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        y0, yp0 = ser.eval(x0), ser.eval_deriv(x0)
    errs = {}
    for tol in (1e-6, 1e-10):
        t = integrate((x0, y0, yp0), TH, PathPlan((x0, x1), tol), tol=tol)
        xf, yf, ypf = t.final()
        b = integrate((x1, yf, ypf), TH, PathPlan((x1, x0), tol), tol=tol)
        errs[tol] = abs(b.final()[1] - y0)
    assert errs[1e-10] < errs[1e-6]
    assert errs[1e-10] < 1e-9


def test_residual_audit_is_small():
    ser = solve_taylor(TH, "form1", N=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ic = (5e-3, ser.eval(5e-3), ser.eval_deriv(5e-3))
    t = integrate(ic, TH, PathPlan((5e-3, 0.1)), tol=1e-10)
    assert t.residual_audit() < 1e-12


def test_chart_thrash_raises(monkeypatch):
    # rational solution y = x/(x + 1.6) keeps 2 < |y| < 4 on x in [-2.6, -2.3];
    # inv_y is entered above |y| = 2 and left below |y| = 4, so the charts
    # ping-pong on every step
    monkeypatch.setattr(continuation, "SWITCH_THRESHOLD", 0.5)
    monkeypatch.setattr(continuation, "HYSTERESIS", 0.5)
    monkeypatch.setattr(continuation, "MAX_SWITCHES", 2)
    th = ThetaParams(1.0, 0.6, 0.0, -1.6)
    x0 = -2.3
    y0, yp0, _ = rational_solution_theta0_1(th, x0)
    with pytest.raises(ChartThrashError):
        integrate((x0, y0, yp0), th, PathPlan((x0, -2.6)), tol=1e-10)


def _rational_a(x):
    # th = (1, 0.4, -0.7, -0.7): y = x/(0.3 x + 1.4)
    return rational_solution_theta0_1(ThetaParams(1.0, 0.4, -0.7, -0.7), x)[:2]


def _rational_b(x):
    # th = (-2, 1.5, 0.2, 0.3): y = (q^2 - 1.5 - 0.2 x^2)/(0.7 q), q = 1.5 + 0.2 x
    return rational_solution_theta0_minus2(ThetaParams(-2.0, 1.5, 0.2, 0.3), x)[:2]


@pytest.mark.parametrize("theta, exact, path", [
    # y passes 1e-3 from y = 1 near x = 2, and from y = x near x = -4/3
    ((1.0, 0.4, -0.7, -0.7), _rational_a, (0.5 + 0.1j, 2.0 + 0.001j, 2.8 + 0.1j)),
    ((1.0, 0.4, -0.7, -0.7), _rational_a, (0.5 + 0.1j, -4.0 / 3.0 + 0.001j, -2.0 + 0.1j)),
    # y = 0 at x0 = (0.6 - sqrt(0.84))/0.32
    ((-2.0, 1.5, 0.2, 0.3), _rational_b,
     (-0.5 + 0.5j, (0.6 - math.sqrt(0.84)) / 0.32 - 0.001j, -1.5 + 0.3j)),
], ids=["y=1", "y=x", "y=0"])
def test_crossing_stays_in_y_chart(theta, exact, path):
    y0, yp0 = exact(path[0])
    t = integrate((path[0], y0, yp0), ThetaParams(*theta), PathPlan(path), tol=1e-10)
    xf, yf, ypf = t.final()
    y, yp = exact(xf)
    assert xf == path[-1]
    assert max(abs(yf - y) / (1.0 + abs(y)), abs(ypf - yp) / (1.0 + abs(yp))) < 1e-6
    assert t.events == []


@pytest.mark.parametrize("tol, bound", [(1e-10, 1e-8), (1e-12, 1e-10)])
@pytest.mark.parametrize("theta, exact, pole", [
    ((1.0, 0.4, -0.7, -0.7), _rational_a, -14.0 / 3.0),
    ((-2.0, 1.5, 0.2, 0.3), _rational_b, -7.5),
], ids=["th0=1", "th0=-2"])
def test_pole_pass_delivers_its_tolerance(theta, exact, pole, tol, bound):
    # a straight pass 3e-3 from the movable pole, in eight directions; the
    # unscaled pole chart w = 1/y missed these bounds by up to 60 times
    # (6e-7 at tol 1e-10 and 1.6e-9 at tol 1e-12, th0 = -2)
    for k in range(8):
        v = complex(math.cos(math.pi * k / 4), math.sin(math.pi * k / 4))
        mid = pole + 3e-3j * v
        path = (mid - 0.8 * v, mid + 0.8 * v)
        y0, yp0 = exact(path[0])
        t = integrate((path[0], y0, yp0), ThetaParams(*theta), PathPlan(path, tol), tol=tol)
        xf, yf, ypf = t.final()
        y, yp = exact(xf)
        assert max(abs(yf - y) / (1.0 + abs(y)), abs(ypf - yp) / (1.0 + abs(yp))) <= bound
        assert [e["to"] for e in t.events] == ["inv_y", "y"]


def test_pole_chart_is_one_where_it_is_entered():
    y, yp = 1.0 / continuation.SWITCH_THRESHOLD * (0.6 + 0.8j), -2.0e6 + 1.0e5j
    w, wp = to_chart("inv_y", y, yp)
    assert abs(abs(w) - 1.0) < 1e-15
    assert abs(wp + continuation.SWITCH_THRESHOLD * yp * w * w) <= 1e-15 * abs(wp)


def seed_and_verify(seed, theta, x_near, x_far, tol=1e-10):
    """Start from the seed at x_near, integrate to x_far, report drift.

    seed may be a CriticalSeed or a Taylor series with eval / eval_deriv.
    Diagnostics: the ratio of y to the seed's dominant printed term along the
    trajectory (power-type kinds), a least-squares fit of y/x against a
    quadratic in ln x (log-generic), or max |Delta y| against the series.
    """
    x_near, x_far = complex(x_near), complex(x_far)
    is_seed = isinstance(seed, CriticalSeed)
    if is_seed:
        y0, yp0 = seed_value(seed, x_near)
    else:
        y0, yp0 = seed.eval(x_near), seed.eval_deriv(x_near)
    traj = integrate((x_near, y0, yp0), theta, PathPlan((x_near, x_far), tol), tol=tol)
    xs = [s[0] for s in traj.samples]
    ys = [s[1] for s in traj.samples]
    if is_seed and seed.kind == "log-generic":
        L = np.array([clog(x) for x in xs])
        V = np.stack([L * L, L, np.ones_like(L)], axis=1)
        coef, *_ = np.linalg.lstsq(V, np.array(ys) / np.array(xs), rcond=None)
        return {"log_leading": coef[0]}
    if is_seed:
        c, e = leading_term(seed)
        return {"ratio_drift": max(abs(y / (c * cpow(x, e)) - 1.0)
                                   for x, y in zip(xs, ys))}
    return {"max_dy": max(abs(y - seed.eval(x)) for x, y in zip(xs, ys))}


def test_seed_and_verify_series_seed():
    ser = solve_taylor(TH, "form1", N=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = seed_and_verify(ser, TH, 1e-2, 1e-4, tol=1e-10)
    assert diag["max_dy"] < 1e-8


def test_seed_and_verify_power_seed_drift():
    th = ThetaParams(0.23, 0.57, 0.31, 0.44)
    seed = make_seed(0.3 + 0.2j, th, 0.8)
    diag = seed_and_verify(seed, th, 1e-4, 1e-3, tol=1e-10)
    assert diag["ratio_drift"] < 0.3


def test_seed_and_verify_log_generic_fit():
    th = ThetaParams(0.23, 0.57, 0.31, 0.44)
    seed = make_seed(0.0, th, 0.1)
    diag = seed_and_verify(seed, th, 1e-6, 1e-4, tol=1e-10)
    target = (th.thx ** 2 - th.th0 ** 2) / 4.0
    assert abs(diag["log_leading"] - target) < 0.02 * abs(target)
