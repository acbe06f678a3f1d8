"""Embedded Dormand-Prince 8(5,3) integrator (DOP853) for complex-vector ODEs.

Shared by three users: loop transport of the Fuchsian system in lambda
(`fuchsian.transport`), transport of Gauss ODE frames in z
(`hypergeom.ode_transport`) and continuation of PVI in x
(`continuation.integrate`).  All three ask for tolerances of 1e-10 to 1e-12,
where an eighth-order method takes a fraction of the steps of a fifth-order
one (Hairer, Norsett & Wanner, Solving ODEs I, section II.10).  scipy is
not a dependency, and the event machinery of its DOP853 does not fit
per-step chart switching, hence this small hand-rolled method.  A tolerance
below the float unit roundoff (machine epsilon) is rejected: the mixed error
test cannot meet it, and the step size would shrink until rounding noise
happened to pass.

The state is a Python list of complex numbers, and the right-hand side takes
and returns such lists.  Every user integrates 2- or 4-vectors, where each
numpy operation costs more in dispatch than in arithmetic, so the stage sums
are written out in Python complex arithmetic with the tableau coefficients
as float literals.  A NaN in any component of a trial state or of its error
estimate rejects the step, as numpy's propagating max did; Python's max()
would drop it.

The integrator keeps the name dp45 that it had as a Dormand-Prince 5(4)
pair: the benchmark's tracer (bench/tracing.py) patches `integrate.dp45` and
each user's imported `dp45` by that name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StepUnderflow", "dp45"]

# DOP853 (P. J. Prince & J. R. Dormand, J. Comput. Appl. Math. 7 (1981);
# coefficients of Hairer's dop853.f), written out in the stage sums of dp45
# with each coefficient the double nearest the published 30-digit value.
# Stage i is f at t + c_i h with
#
#   c = 0, 0.0526, 0.0789, 0.1184, 0.2816, 1/3, 1/4, 4/13, 0.6513, 3/5, 6/7, 1
#
# and, from row 6 on, row i of a has nonzeros in columns 1 and 4 .. i-1
# only.  The eighth-order weights b are nonzero on stages 1 and 6 .. 12.
# Two embedded error estimates use the same stages: e5, against a
# fifth-order solution, with Hairer's weights, and e3 = b - bhh, against a
# third-order one, with bhh = (0.2441, 0.7338, 0.0221) on stages 1, 9 and 12
# (each e3 weight rounded from the two rounded weights).  Per component the
# error is |h| |e5|^2 / hypot(|e5|, 0.1 |e3|): h e5 is O(h^6) and h e3 is
# O(h^4), so for small steps it is about 10 |h| |e5|^2 / |e3| = O(h^8), and
# step control takes it to the power 1/8, with safety factor 0.85, growth
# <= 2x, shrink >= 0.2x, and no growth on the step after a rejection (as in
# dop853.f).
#
# Stage 12 sits at t + h but not at the new state, so f at the new point is
# evaluated only once a step is accepted and serves as stage 1 of the next:
# 12 evaluations per accepted step, 11 per rejected one.
_EPS = float(np.finfo(float).eps)


class StepUnderflow(RuntimeError):
    pass


def dp45(f, t0, t1, y0, tol=1e-10, h0=None, min_step=1e-14, step_cb=None):
    """Integrate y' = f(t, y) from t0 to t1 (real parameter t) with DOP853.

    y0 is any 1-D array-like of complex numbers.  f(t, y) receives the state
    as a Python list of complex numbers and returns a sequence of the same
    length.  Local error per step <= tol (mixed absolute/relative:
    max_j err_j <= tol (1 + max_j |y_new[j]|), where
    err_j = |h| |e5_j|^2 / hypot(|e5_j|, 0.1 |e3_j|) combines the fifth- and
    third-order embedded estimates of component j); a NaN in any
    component of the new state or of the error rejects the step.  step_cb,
    if given, is called as step_cb(t, y) with the list after every accepted
    step and may return a replacement sequence (chart switches).  Returns
    y(t1) as a complex ndarray.

    f is evaluated once at the start, 12 times per accepted step (stages 2
    to 12 and f at the new point, which is stage 1 of the next step) and 11
    times per rejected one.  When step_cb returns a replacement, f is
    evaluated again at the new state, so f may read state that step_cb
    changes, provided step_cb then returns a replacement.  The step grows by
    at most 2x, shrinks by at most 5x, and does not grow on the step after
    a rejection.

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
    rejected = False
    while (t1 - t) * direction > 1e-16:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        k2 = f(t + 0.05260015195876773 * h,
               [v + h * (0.05260015195876773 * a) for v, a in zip(y, k1)])
        k3 = f(t + 0.0789002279381516 * h,
               [v + h * (0.0197250569845379 * a + 0.0591751709536137 * b)
                for v, a, b in zip(y, k1, k2)])
        k4 = f(t + 0.1183503419072274 * h,
               [v + h * (0.02958758547680685 * a + 0.08876275643042054 * c)
                for v, a, c in zip(y, k1, k3)])
        k5 = f(t + 0.2816496580927726 * h,
               [v + h * (0.2413651341592667 * a - 0.8845494793282861 * c
                         + 0.924834003261792 * d)
                for v, a, c, d in zip(y, k1, k3, k4)])
        k6 = f(t + 0.3333333333333333 * h,
               [v + h * (0.037037037037037035 * a + 0.17082860872947386 * d
                         + 0.12546768756682242 * e)
                for v, a, d, e in zip(y, k1, k4, k5)])
        k7 = f(t + 0.25 * h,
               [v + h * (0.037109375 * a + 0.17025221101954405 * d
                         + 0.06021653898045596 * e - 0.017578125 * g)
                for v, a, d, e, g in zip(y, k1, k4, k5, k6)])
        k8 = f(t + 0.3076923076923077 * h,
               [v + h * (0.03709200011850479 * a + 0.17038392571223998 * d
                         + 0.10726203044637328 * e - 0.015319437748624402 * g
                         + 0.008273789163814023 * p)
                for v, a, d, e, g, p in zip(y, k1, k4, k5, k6, k7)])
        k9 = f(t + 0.6512820512820513 * h,
               [v + h * (0.6241109587160757 * a - 3.3608926294469414 * d
                         - 0.868219346841726 * e + 27.59209969944671 * g
                         + 20.154067550477894 * p - 43.48988418106996 * q)
                for v, a, d, e, g, p, q in zip(y, k1, k4, k5, k6, k7, k8)])
        k10 = f(t + 0.6 * h,
                [v + h * (0.47766253643826434 * a - 2.4881146199716677 * d
                          - 0.590290826836843 * e + 21.230051448181193 * g
                          + 15.279233632882423 * p - 33.28821096898486 * q
                          - 0.020331201708508627 * r)
                 for v, a, d, e, g, p, q, r in zip(y, k1, k4, k5, k6, k7, k8, k9)])
        k11 = f(t + 0.8571428571428571 * h,
                [v + h * (-0.9371424300859873 * a + 5.186372428844064 * d
                          + 1.0914373489967295 * e - 8.149787010746927 * g
                          - 18.52006565999696 * p + 22.739487099350505 * q
                          + 2.4936055526796523 * r - 3.0467644718982196 * s)
                 for v, a, d, e, g, p, q, r, s in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
        k12 = f(t + h,
                [v + h * (2.273310147516538 * a - 10.53449546673725 * d
                          - 2.0008720582248625 * e - 17.9589318631188 * g
                          + 27.94888452941996 * p - 2.8589982771350235 * q
                          - 8.87285693353063 * r + 12.360567175794303 * s
                          + 0.6433927460157636 * u)
                 for v, a, d, e, g, p, q, r, s, u
                 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
        yi = [v + h * (0.054293734116568765 * a + 4.450312892752409 * g
                       + 1.8915178993145003 * p - 5.801203960010585 * q
                       + 0.3111643669578199 * r - 0.1521609496625161 * s
                       + 0.20136540080403034 * u + 0.04471061572777259 * w)
              for v, a, g, p, q, r, s, u, w
              in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
        errs = []
        for a, g, p, q, r, s, u, w in zip(k1, k6, k7, k8, k9, k10, k11, k12):
            e5 = abs(0.01312004499419488 * a - 1.2251564463762044 * g
                     - 0.4957589496572502 * p + 1.6643771824549864 * q
                     - 0.35032884874997366 * r + 0.3341791187130175 * s
                     + 0.08192320648511571 * u - 0.022355307863886294 * w)
            e3 = abs(-0.18980075407240762 * a + 4.450312892752409 * g
                     + 1.8915178993145003 * p - 5.801203960010585 * q
                     - 0.4226823213237919 * r - 0.1521609496625161 * s
                     + 0.20136540080403034 * u + 0.02265179219836082 * w)
            # |e5|^2 / hypot(|e5|, 0.1 |e3|), formed without squaring e5 (no overflow)
            errs.append(abs(h) * e5 * (e5 / math.hypot(e5, 0.1 * e3)) if e5 else 0.0)
        norms = [abs(v) for v in yi]
        # max() drops a NaN that does not come first; a sum of the
        # non-negative terms is NaN exactly when one of them is
        err = max(errs) / (tol * (1.0 + max(norms)))
        if math.isnan(sum(errs) + sum(norms)):
            err = math.nan
        if err <= 1.0:
            t += h
            y = yi
            k1 = f(t, y)
            if step_cb is not None:
                y2 = step_cb(t, y)
                if y2 is not None:
                    y = [complex(v) for v in y2]
                    k1 = f(t, y)
            fac = 2.0 if err == 0 else min(2.0, 0.85 * err ** -0.125)
            if rejected:
                fac = min(fac, 1.0)
            rejected = False
        else:
            fac = max(0.2, 0.85 * err ** -0.125)
            rejected = True
        h *= fac
        if abs(h) < min_step:
            raise StepUnderflow(f"step size underflow at t = {t}")
    return np.array(y, dtype=complex)
