"""taylor-series: the order-by-order series solvers at x = 0.

Time goes to the series rings and `pvi_residual_series` inside the probe
loops of `solve_taylor`, `solve_log_series` and `solve_omega_series`; the
workload never integrates.
"""

from __future__ import annotations

import time

import numpy as np

from pvilab import series
from pvilab.pvi import ThetaParams

import common

PARTS = ("taylor", "log", "omega")
N_TAYLOR, N_LOG, K_OMEGA, M_OMEGA = 48, 5, 6, 2


# Base points: the ROADMAP baseline theta (0.23, 0.57, 0.31, 0.44) and, for
# the classes that pin some thetas, the nearest admissible points.  The seed
# moves every free parameter by up to JITTER (complex ones by up to 0.1).
# Larger moves reach strongly growing series, on which the solvers raise
# ObstructionError (see CHANGES.md).
BASE = (0.23, 0.57, 0.31, 0.44)
JITTER = 0.04


def build(seed):
    rng = common.rng_for(seed, 1)

    def j(v):
        return float(v + rng.uniform(-JITTER, JITTER))

    def jc(z):
        return complex(z) + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))

    def jt(th):
        return tuple(j(v) for v in th)

    t0, tx, t1 = jt(BASE[:3])
    t1p, tip = j(-0.7), j(-0.7)
    t2 = j(0.3)
    taylor = [
        ("form1", jt(BASE), None),
        ("riuffa", (t0, tx, t1, -(t0 + tx + t1)), None),       # vanishing theta sum
        ("form2", (t2, t2, -1.5, 1.5), jc(0.4)),               # thinf = 3/2
        ("form3", (j(0.3), j(0.5), 0.0, 1.0), jc(0.7)),
        ("taylor1+", (1.0, -1.0 - t1p - tip, t1p, tip), None),  # rational family
        # with a real th0 near the base the taylor1- coefficients grow like
        # 1e6 by order 48 and the solver meets near-vanishing linear
        # coefficients (ResonanceError); Im th0 = 0.3 keeps them O(1)
        ("taylor1-", (j(0.23) + 0.3j,) + jt(BASE[1:]), None),
    ]
    ti = j(0.44)
    taylor.append(("taylor2", (t2, 1.0 - t2, 1.0 - ti, ti), jc(0.3)))   # th1 = -(thinf - 1)
    taylor.append(("taylor3", (0.0, 0.0, j(0.31), j(0.44)), jc(0.5)))
    t0, tx, t1, ti = jt(BASE)
    t3 = j(0.3)
    log = [("shape2", (t0, tx, t1, ti), jc(0.4 + 0.1j)),
           ("shape3+", (t3, t3, t1, ti), jc(0.4 + 0.1j)),
           ("shape3-", (t3, -t3, t1, ti), jc(0.4 + 0.1j))]
    th = jt(BASE)
    omega = [(b, th, jc(0.5)) for b in ("riuffa", "form1")]
    return {"taylor": taylor, "log": log, "omega": omega}


def run_pass(inp, between=lambda: None):
    """One pass: (part times in s, outputs, attempted, failed)."""
    out, times = {}, []
    between()
    t = time.perf_counter()
    out["taylor"] = [series.solve_taylor(ThetaParams(*th), k, a=a, N=N_TAYLOR)
                     for k, th, a in inp["taylor"]]
    times.append(time.perf_counter() - t)
    between()
    t = time.perf_counter()
    out["log"] = [series.solve_log_series(ThetaParams(*th), sh, r, N=N_LOG)
                  for sh, th, r in inp["log"]]
    times.append(time.perf_counter() - t)
    between()
    t = time.perf_counter()
    out["omega"] = [series.solve_omega_series(ThetaParams(*th), b, a, K=K_OMEGA, M=M_OMEGA)
                    for b, th, a in inp["omega"]]
    times.append(time.perf_counter() - t)
    between()
    return times, out, sum(len(v) for v in inp.values()), 0


def _arrays(out):
    arrs = [s.c for s in out["taylor"]]
    arrs += [q for s in out["log"] for q in s.p]
    arrs += [s.c for s in out["omega"]]
    return arrs


def same(a, b):
    """Outputs of two passes are bit-identical."""
    xa, xb = _arrays(a), _arrays(b)
    return len(xa) == len(xb) and all(np.array_equal(u, v) for u, v in zip(xa, xb))


def _reducible_riuffa(theta, x):
    """The riuffa Taylor solution on a vanishing theta sum, in closed form:
    y = (th1 + thinf - 1 + x (1 + thx))/(thinf - 1) - x (1 - x) u'/((thinf - 1) u),
    u = 2F1(2 - thinf, 1 + thx; 2 - thinf - th1; x), evaluated by mpmath."""
    import mpmath
    mpmath.mp.dps = 30
    t0, tx, t1, ti = (mpmath.mpf(v) for v in theta)
    a, b, c = 2 - ti, 1 + tx, 2 - ti - t1
    x = mpmath.mpc(x)
    u = mpmath.hyp2f1(a, b, c, x)
    du = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, x)
    y = (t1 + ti - 1 + x * (1 + tx)) / (ti - 1) - x * (1 - x) * du / ((ti - 1) * u)
    return complex(y)


def _horner(c, x):
    acc = 0j
    for ck in c[::-1]:
        acc = acc * x + ck
    return acc


def _log_p1(shape, theta, r):
    t0, tx, _, _ = theta
    if shape == "shape2":
        d2 = tx * tx - t0 * t0
        return [4.0 * r * (r + t0) / d2, -2.0 * r - t0, d2 / 4.0]
    return [r, (1.0 if shape.endswith("+") else -1.0) * t0]


def check(inp, out, led):
    for (klass, th, a), s in zip(inp["taylor"], out["taylor"]):
        t0, tx, t1, ti = th
        c = s.c
        if klass == "form1":
            d = t1 - ti
            b0 = (d + 1.0) / (1.0 - ti)
            b1 = (t1 * (d * d + 2.0 * d + tx * tx - t0 * t0)
                  / (2.0 * (1.0 - ti) * (ti - t1) * (d + 2.0)))
            led.err("form1 printed b0/b1", common.rel(c[:2], [b0, b1]), 1e-12)
        elif klass == "form2":
            tgt = [-2.0, a, t0 * t0 - 1.0 + 1.5 * a - 0.5 * a * a]
            led.err("form2 thinf=3/2 vector", common.rel(c[:3], tgt), 1e-12)
        elif klass == "taylor1+":
            cc, q = t1 + ti, (1.0 + t1) / (t1 + ti)
            geo = np.array([0.0] + [-q ** k / cc for k in range(N_TAYLOR)], dtype=complex)
            led.err("taylor1+ vs rational geometric series", common.coeff_err(c, geo), 1e-10)
        elif klass == "riuffa":
            for x in (0.05, 0.05j, -0.05):
                ref = _reducible_riuffa(th, x)
                led.err("riuffa vs reducible 2F1 solution",
                        abs(_horner(c, x) - ref) / max(1.0, abs(ref)), 1e-12)
        ring = common.Ring("log", N_TAYLOR + 8, 1)
        led.err(f"{klass} residual through order {N_TAYLOR}",
                common.scaled_residual(ring.series(c), th, N_TAYLOR + 1), 1e-11)

    for (shape, th, r), s in zip(inp["log"], out["log"]):
        led.err(f"{shape} printed P1", common.rel(s.p[1], _log_p1(shape, th, r)), 1e-12)
        width = max(len(q) for q in s.p)
        c = np.zeros((len(s.p), width), dtype=complex)
        for i, q in enumerate(s.p):
            c[i, : len(q)] = q
        ring = common.Ring("log", N_LOG + 8, 8 * N_LOG + 16)
        led.err(f"{shape} residual through order {N_LOG}",
                common.scaled_residual(ring.series(c), th, N_LOG + 1), 1e-11)

    for (branch, th, a), s in zip(inp["omega"], out["omega"]):
        col = series.solve_taylor(ThetaParams(*th), branch, N=K_OMEGA).c
        led.err(f"omega {branch} N=0 column vs Taylor solve",
                common.coeff_err(s.c[:, 0], col), 1e-12)
        ring = common.Ring("omega", K_OMEGA + 8, M_OMEGA + 1, s.omega)
        led.err(f"omega {branch} residual through order {K_OMEGA}",
                common.scaled_residual(ring.series(s.c), th, K_OMEGA + 1), 1e-11)
