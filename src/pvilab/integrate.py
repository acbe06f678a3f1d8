"""Embedded Dormand-Prince 5(4) integrator for complex-vector ODEs.

Shared by three users: loop transport of the Fuchsian system in lambda
(`fuchsian.transport`), transport of Gauss ODE frames in z
(`hypergeom.ode_transport`) and continuation of PVI in x
(`continuation.integrate`).  scipy's RK45 works on real arrays only and its
event machinery does not fit per-step chart switching, hence this small
hand-rolled pair.  A tolerance below the float unit roundoff (machine
epsilon) is rejected: the mixed error test cannot meet it, and the step size
would shrink until rounding noise happened to pass.

The state is a Python list of complex numbers, and the right-hand side takes
and returns such lists.  Every user integrates 2- or 4-vectors, where each
numpy operation costs more in dispatch than in arithmetic, so the stage sums
are written out in Python complex arithmetic with the tableau coefficients
as float literals.  A NaN in any component of a trial state or of its error
estimate rejects the step, as numpy's propagating max did; Python's max()
would drop it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StepUnderflow", "dp45"]

# Dormand-Prince tableau (J. Comput. Appl. Math. 6, 1980), written out in
# the stage sums of dp45:
#
#   c     a
#   1/5   1/5
#   3/10  3/40        9/40
#   4/5   44/45       -56/15       32/9
#   8/9   19372/6561  -25360/2187  64448/6561  -212/729
#   1     9017/3168   -355/33      46732/5247  49/176  -5103/18656
#   1     35/384      0            500/1113    125/192 -2187/6784   11/84
#
#   b4    5179/57600  0  7571/16695  393/640  -92097/339200  187/2100  1/40
#
# The last row of a is the fifth-order weight vector b5, so stage 7 is f at
# the new point: an accepted step hands it on as stage 1 of the next (first
# same as last).  The error weights are e = b5 - b4, each rounded from the
# two rounded weights.
_EPS = float(np.finfo(float).eps)


class StepUnderflow(RuntimeError):
    pass


def dp45(f, t0, t1, y0, tol=1e-10, h0=None, min_step=1e-14, step_cb=None):
    """Integrate y' = f(t, y) from t0 to t1 (real parameter t).

    y0 is any 1-D array-like of complex numbers.  f(t, y) receives the state
    as a Python list of complex numbers and returns a sequence of the same
    length.  Local error per step <= tol (mixed absolute/relative:
    max_j |h sum_i e_i k_i[j]| <= tol (1 + max_j |y_new[j]|)); a NaN in any
    component of the new state or of the error rejects the step.  step_cb,
    if given, is called as step_cb(t, y) with the list after every accepted
    step and may return a replacement sequence (chart switches).  Returns
    y(t1) as a complex ndarray.

    f is evaluated once at the start and 6 times per attempted step: the
    last stage of an accepted step is f at the new point and serves as the
    first stage of the next one.  When step_cb returns a replacement, f is
    evaluated again at the new state, so f may read state that step_cb
    changes, provided step_cb then returns a replacement.

    Raises ValueError for tol below the unit roundoff np.finfo(float).eps,
    and StepUnderflow when the step size falls below min_step.
    """
    if tol < _EPS:
        raise ValueError(f"tol = {tol} is below the float unit roundoff {_EPS:.3g} "
                         "that the error test can resolve")
    t = float(t0)
    t1 = float(t1)
    y = np.asarray(y0, dtype=complex).tolist()
    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0:
        return np.array(y, dtype=complex)
    h = h0 if h0 is not None else span / 50.0
    h = direction * min(abs(h), span)
    k1 = f(t, y)
    while (t1 - t) * direction > 1e-16:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        k2 = f(t + 1 / 5 * h, [v + h * (1 / 5 * a) for v, a in zip(y, k1)])
        k3 = f(t + 3 / 10 * h, [v + h * (3 / 40 * a + 9 / 40 * b)
                                for v, a, b in zip(y, k1, k2)])
        k4 = f(t + 4 / 5 * h, [v + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
                               for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = f(t + 8 / 9 * h, [v + h * (19372 / 6561 * a - 25360 / 2187 * b
                                        + 64448 / 6561 * c - 212 / 729 * d)
                               for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        k6 = f(t + h, [v + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                                + 49 / 176 * d - 5103 / 18656 * e)
                       for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        yi = [v + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                       - 2187 / 6784 * e + 11 / 84 * g)
              for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, yi)
        errs = [abs(h * ((35 / 384 - 5179 / 57600) * a + (500 / 1113 - 7571 / 16695) * c
                         + (125 / 192 - 393 / 640) * d
                         + (-2187 / 6784 + 92097 / 339200) * e
                         + (11 / 84 - 187 / 2100) * g - 1 / 40 * k))
                for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)]
        norms = [abs(v) for v in yi]
        # max() drops a NaN that does not come first; a sum of the
        # non-negative terms is NaN exactly when one of them is
        err = max(errs) / (tol * (1.0 + max(norms)))
        if math.isnan(sum(errs) + sum(norms)):
            err = math.nan
        if err <= 1.0:
            t += h
            y = yi
            k1 = k7
            if step_cb is not None:
                y2 = step_cb(t, y)
                if y2 is not None:
                    y = [complex(v) for v in y2]
                    k1 = f(t, y)
            fac = 2.0 if err == 0 else min(2.0, 0.9 * err ** -0.2)
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= fac
        if abs(h) < min_step:
            raise StepUnderflow(f"step size underflow at t = {t}")
    return np.array(y, dtype=complex)
