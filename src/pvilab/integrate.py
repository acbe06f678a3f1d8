"""Embedded Dormand-Prince 5(4) integrator for complex-vector ODEs.

Shared by three users: loop transport of the Fuchsian system in lambda
(`fuchsian.transport`), transport of Gauss ODE frames in z
(`hypergeom.ode_transport`) and continuation of PVI in x
(`continuation.integrate`).  scipy's RK45 works on real arrays only and its
event machinery does not fit per-step chart switching, hence this small
hand-rolled pair.  A tolerance below the float unit roundoff (machine
epsilon) is rejected: the mixed error test cannot meet it, and the step size
would shrink until rounding noise happened to pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepUnderflow", "dp45"]

# Dormand-Prince tableau (J. Comput. Appl. Math. 6, 1980).  Row 6 of _A is
# the fifth-order weight vector, so stage 7 is f at the new point: an
# accepted step hands it on as stage 1 of the next (first same as last).
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
_EPS = float(np.finfo(float).eps)


class StepUnderflow(RuntimeError):
    pass


def dp45(f, t0, t1, y0, tol=1e-10, h0=None, min_step=1e-14, step_cb=None):
    """Integrate y' = f(t, y) from t0 to t1 (real parameter t).

    y is a complex 1-D ndarray.  Local error per step <= tol (mixed
    absolute/relative).  step_cb, if given, is called as step_cb(t, y) after
    every accepted step and may return a replacement y (chart switches).
    Returns y(t1).

    f is evaluated once at the start and 6 times per attempted step: the
    last stage of an accepted step is f at the new point and serves as the
    first stage of the next one.  When step_cb returns a replacement, f is
    evaluated again at the new state, so f may read state that step_cb
    changes, provided step_cb then returns a replacement.

    Raises ValueError for tol below the unit roundoff np.finfo(float).eps.
    """
    if tol < _EPS:
        raise ValueError(f"tol = {tol} is below the float unit roundoff {_EPS:.3g} "
                         "that the error test can resolve")
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
        # yi is now the fifth-order solution and k[6] = f(t + h, yi); err
        # and scale are plain floats, so that t reaches f as a Python float
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
