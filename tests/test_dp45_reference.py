"""integrate.dp45 against a numpy copy of the same Dormand-Prince pair.

`integrate.dp45` keeps its state in a Python list and writes the stage sums
out in complex arithmetic.  `numpy_dp45` below is the same pair with the
tableau as arrays and the stages in a (7, n) array, as the integrator was
first written.  Both are driven with the program's own right-hand sides on
the loops of the monodromy oracle, the ODE frames of the connection oracle
and continuation legs through regular points and past a movable pole: the
results must agree to rounding and the two must evaluate the right-hand
side equally often.
"""

import cmath
import math

import numpy as np
import pytest

from pvilab import asymptotics, continuation, fuchsian, hypergeom, integrate
from pvilab.integrate import StepUnderflow, dp45
from pvilab.pvi import ThetaParams

_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _A[6] - _B4


def numpy_dp45(f, t0, t1, y0, tol=1e-10, h0=None, min_step=1e-14, step_cb=None):
    """The reference: the same pair, controller and callback contract on
    numpy arrays (f and step_cb receive an ndarray)."""
    t = float(t0)
    t1 = float(t1)
    y = np.asarray(y0, dtype=complex).copy()
    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0:
        return y
    h = h0 if h0 is not None else span / 50.0
    h = direction * min(abs(h), span)
    k = np.empty((7, y.size), dtype=complex)
    k[0] = f(t, y)
    while (t1 - t) * direction > 1e-16:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        for i in range(1, 7):
            yi = y + h * (_A[i, :i] @ k[:i])
            k[i] = f(t + _C[i] * h, yi)
        scale = tol * (1.0 + float(np.abs(yi).max()))
        err = float(np.abs(h * (_E @ k)).max()) / scale
        if err <= 1.0:
            t += h
            y = yi
            k[0] = k[6]
            if step_cb is not None:
                y2 = step_cb(t, y)
                if y2 is not None:
                    y = np.asarray(y2, dtype=complex)
                    k[0] = f(t, y)
            fac = 2.0 if err == 0 else min(2.0, 0.9 * err ** -0.2)
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= fac
        if abs(h) < min_step:
            raise StepUnderflow(f"step size underflow at t = {t}")
    return y


def _counting(kernel, counts):
    def run(f, *args, **kwargs):
        def counted(t, y):
            counts.append(t)
            return f(t, y)
        return kernel(counted, *args, **kwargs)
    return run


def _both(monkeypatch, module, call):
    """call() with module.dp45 set to each kernel: (new, reference) results
    and right-hand-side evaluation counts."""
    out = []
    for kernel in (integrate.dp45, numpy_dp45):
        counts = []
        monkeypatch.setattr(module, "dp45", _counting(kernel, counts))
        out.append((call(), len(counts)))
    (got, n_got), (want, n_want) = out
    return got, want, n_got, n_want


SYSTEMS = {
    "a": lambda: fuchsian.build_case_a(ThetaParams(0.21, 0.33, 0.17, 0.52), 1.0),
    "b": lambda: fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0),
    "c": lambda: fuchsian.build_case_c(0.23, 0.57, 0.6, 1.3),
}


@pytest.mark.parametrize("case", sorted(SYSTEMS))
@pytest.mark.parametrize("x", [1e-2, 1e-3])
@pytest.mark.parametrize("center", ["0", "x", "1"])
def test_loop_matches_numpy_kernel(monkeypatch, case, x, center):
    c = {"0": 0.0, "x": x, "1": 1.0}[center]
    system = SYSTEMS[case]()
    got, want, n_got, n_want = _both(
        monkeypatch, fuchsian, lambda: fuchsian.loop_monodromy(system, x, c, tol=1e-12))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert n_got == n_want


ORACLES = [("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), False),
           ("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), True),
           ("Cinf0", ThetaParams(0.23, 0.57, 0.0, 1.0), False),
           ("Cinf0", ThetaParams(0.41 + 0.1j, -0.27, 0.0, 1.0), False)]


@pytest.mark.parametrize("which,theta,flip", ORACLES)
def test_oracle_frame_matches_numpy_kernel(monkeypatch, which, theta, flip):
    frames = []
    real = hypergeom.ode_transport

    def recording(*args, **kwargs):
        frames.append(real(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(hypergeom, "ode_transport", recording)
    _, _, n_got, n_want = _both(
        monkeypatch, hypergeom, lambda: hypergeom.connection_oracle(which, theta, flip_th1=flip))
    got, want = frames
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert n_got == n_want


# Exact rational solutions on a vanishing theta sum (th0 = 1 and th0 = -2),
# with legs kept 0.3 away from x = 0, 1, the movable pole and the points
# where y meets 0, 1 or x.
THETA_A = (1.0, 0.4, -0.7, -0.7)
THETA_B = (-2.0, 1.5, 0.2, 0.3)
LEGS = [(THETA_A, (0.5 + 0.1j, 0.5 + 0.4j)),
        (THETA_A, (0.5 + 0.1j, 0.3 + 0.9j, -0.8 + 1.2j, -2.0 + 0.8j, -3.0 + 0.3j)),
        (THETA_B, (0.5 + 0.5j, 0.5 + 0.8j)),
        (THETA_B, (0.5 + 0.5j, 1.5 + 1.0j, 3.0 + 1.0j, 3.5 - 0.6j))]


def _exact(theta, x):
    t0, tx, t1, ti = theta
    if t0 == 1.0:
        dd, c0 = 1.0 + t1, t1 + ti
        return x / (dd * x - c0), -c0 / (dd * x - c0) ** 2
    q = 2.0 - (ti + t1) + t1 * x
    nu, de = q * q - 2.0 + ti + t1 - t1 * x * x, (1.0 - ti) * q
    nup, dep = 2.0 * t1 * q - 2.0 * t1 * x, (1.0 - ti) * t1
    return nu / de, nup / de - nu * dep / de ** 2


def _pole_pass():
    # the movable pole of THETA_A sits at x = -14/3; pass it at 3e-3
    v = cmath.exp(0.7j)
    mid = -14.0 / 3.0 + 3e-3j * v
    return THETA_A, (mid - 0.8 * v, mid + 0.8 * v)


def _leg(theta, verts):
    y0, yp0 = _exact(theta, verts[0])
    return continuation.integrate((verts[0], y0, yp0), ThetaParams(*theta),
                                  continuation.PathPlan(verts, 1e-10), tol=1e-10)


def _seed_round_trip():
    th = ThetaParams(2.3, 2.3, 0.31, 0.44)
    seed = asymptotics.make_seed(0.3 + 0.2j, th, 1.0)
    x0, x1 = 1e-4, 1e-2
    y0, yp0 = asymptotics.seed_value(seed, x0, three_term=True)
    fwd = continuation.integrate((x0, y0, yp0), th, continuation.PathPlan((x0, x1), 1e-10),
                                 tol=1e-10)
    xf, yf, ypf = fwd.final()
    return continuation.integrate((xf, yf, ypf), th, continuation.PathPlan((x1, x0), 1e-10),
                                  tol=1e-10)


def _events(traj):
    return [(e["kind"], e["from"], e["to"]) for e in traj.events]


@pytest.mark.parametrize("make", [*(lambda spec=spec: _leg(*spec) for spec in LEGS),
                                  lambda: _leg(*_pole_pass()), _seed_round_trip],
                         ids=["leg-a", "polyline-a", "leg-b", "polyline-b", "pole-pass",
                              "seed-round-trip"])
def test_continuation_matches_numpy_kernel(monkeypatch, make):
    got, want, n_got, n_want = _both(monkeypatch, continuation, make)
    for a, b in zip(got.final(), want.final()):
        assert abs(a - b) <= 1e-11 * abs(b)
    assert len(got.samples) == len(want.samples)
    assert _events(got) == _events(want)
    # a switch sits on a step boundary; the controller takes err**-0.2 of an
    # error estimate formed by cancellation, so boundaries drift by about
    # 1e-10, while a switch one step off would move by the step, about 1e-4
    for e, f in zip(got.events, want.events):
        assert abs(e["x"] - f["x"]) <= 1e-8 * abs(f["x"])
    assert n_got == n_want


def test_pole_pass_switches_charts():
    # the pole-pass case above is only a test of chart switching if it switches
    assert [e["to"] for e in _leg(*_pole_pass()).events][:1] == ["inv_y"]


@pytest.mark.parametrize("bad", [0, 1], ids=["nan-first", "nan-second"])
def test_nan_rejects_the_step(bad):
    def f(t, y):
        out = [1.0 + 0j, 1.0 + 0j]
        if t > 0.5:
            out[bad] = math.nan
        return out

    with pytest.raises(StepUnderflow):
        dp45(f, 0.0, 1.0, [1.0, 1.0])
