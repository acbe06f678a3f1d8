"""End-to-end cross-validation checks, one callable per claim.

Each check validates a closed form against an independent route: the
series engine against printed coefficients, the monodromy constructors
against trace identities and inversion formulas, the Gamma-product
connection matrices against the ODE-transport oracle, loop transport
against local exponents, and the critical-behavior seeds against direct
integration.  It returns its gates, each a measured value against a bound
written once; the check passes when every gate holds, and its detail text
is formatted from them.  Both the test suite and `pvilab selftest` iterate
CRITERIA.
"""

from __future__ import annotations

import cmath
import math
import operator
import time
from typing import NamedTuple

import numpy as np

from .asymptotics import leading_term, make_seed, seed_value, three_term_value
from .continuation import PathPlan, integrate
from .hypergeom import connection_matrix, connection_oracle
from .monodromy import (build_case_a, build_case_b, build_case_c,
                        check_identity, invert_s_case_b, invert_s_case_c)
from .numerics import SIGMA3, PoleError, inv2, mat2, tr2, det2
from .pvi import (ResonanceError, ThetaParams, _theta_draw, pvi_residual_expr,
                  pvi_residual_series, rational_solution_theta0_1,
                  rational_solution_theta0_minus2)
from .series import residual_leading_order, solve_taylor
from .symmetries import act_theta, transport_solution
from . import fuchsian

__all__ = ["CRITERIA", "Gate", "judge", "run_all"]


# ----------------------------------------------------------------------
# gates

_SENSES = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


class Gate(NamedTuple):
    """`measured sense bound`, one bound of a check.  A gate named "runtime"
    measures wall time, which stays out of its text and record, so that both
    are the same bytes on every run."""

    name: str
    measured: float
    sense: str
    bound: float

    def holds(self):
        return _SENSES[self.sense](self.measured, self.bound)

    def text(self):
        if self.name == "runtime":    # wall time, always gated by "<"
            return f"runtime {'<' if self.holds() else '>='} {self.bound:g}s"
        m = self.measured
        return (f"{self.name} {m if isinstance(m, int) else format(m, '.2e')} "
                f"({self.sense} {self.bound:g})")

    def record(self):
        if self.name == "runtime":
            return {"name": self.name, "sense": self.sense, "bound": self.bound}
        return {**self._asdict(), "margin": self.measured / self.bound}


def judge(gates):
    """(ok, detail): whether every gate holds, and the gates' text."""
    return all(g.holds() for g in gates), ", ".join(g.text() for g in gates)


# ----------------------------------------------------------------------
# parameter draws


def _retry(make, n=400):
    for _ in range(n):
        try:
            return make()
        except (ResonanceError, PoleError, ValueError):
            continue
    raise RuntimeError("could not draw admissible parameters")


def _nonint(rng, margin=0.1):
    while True:
        v = rng.uniform(0.12, 0.88) * (-1.0, 1.0)[rng.integers(2)]
        if abs(v - round(v)) > margin:
            return v


def _points(rng, n, bad=(), guard=0.1, box=1.2):
    """n complex sample points away from 0, 1 and the listed bad points."""
    out = []
    while len(out) < n:
        x = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if min(abs(x), abs(x - 1.0), *(abs(x - b) for b in bad)) >= guard:
            out.append(x)
    return out


# ----------------------------------------------------------------------
# 1. Taylor series of the y(0)=(th1-thinf+1)/(1-thinf) class


def taylor_form1_fidelity():
    rng = np.random.default_rng(101)
    t_start = time.perf_counter()
    worst, orders = 0.0, []
    for _ in range(5):
        th = _theta_draw(rng)
        t0, tx, t1, ti = th.as_tuple()
        ser = solve_taylor(th, "form1", N=12)
        d = t1 - ti
        b0 = (d + 1.0) / (1.0 - ti)
        b1 = (t1 * (d * d + 2.0 * d + tx * tx - t0 * t0)
              / (2.0 * (1.0 - ti) * (ti - t1) * (d + 2.0)))
        worst = max(worst, abs(ser.c[0] - b0), abs(ser.c[1] - b1))
        res = pvi_residual_series(ser, th)
        lead = residual_leading_order(res)
        # none nonzero: the first order past the residual's truncation
        orders.append(res.off + len(res.c) if lead is None else lead)
    return [Gate("b0/b1 deviation", worst, "<", 1e-12),
            Gate("residual first nonzero order", min(orders), ">=", 11),
            Gate("runtime", time.perf_counter() - t_start, "<", 2.0)]


# ----------------------------------------------------------------------
# 2. the thinf=3/2 branch coefficient vector (-2, a, th0^2-1+3a/2-a^2/2)


def taylor_special_vector():
    worst = 0.0
    for a, t0 in ((0.37, 0.61), (-1.2, 0.33), (2.4, -0.45)):
        th = ThetaParams(t0, t0, -1.5, 1.5)
        ser = solve_taylor(th, "form2", a=a, N=4)
        tgt = (-2.0, a, t0 * t0 - 1.0 + 1.5 * a - 0.5 * a * a)
        worst = max(worst, max(abs(ser.c[k] - tgt[k]) for k in range(3)))
    return [Gate("coefficient deviation", worst, "<", 1e-13)]


# ----------------------------------------------------------------------
# 3. rational and singular exact solutions, pointwise residual


def exact_solution_residuals():
    rng = np.random.default_rng(303)
    worst = 0.0

    th = ThetaParams(1.0, 0.4, -0.7, -0.7)
    pole = (th.th1 + th.thinf) / (1.0 + th.th1)
    for x in _points(rng, 100, bad=(pole,), guard=0.3):
        y, yp, ypp = rational_solution_theta0_1(th, x)
        worst = max(worst, abs(pvi_residual_expr(x, y, yp, ypp, th)))

    th = ThetaParams(-2.0, 1.5, 0.2, 0.3)
    t1, ti = th.th1, th.thinf
    for x in _points(rng, 100, bad=((ti + t1 - 2.0) / t1,), guard=0.3, box=1.0):
        y, yp, ypp = rational_solution_theta0_minus2(th, x)
        worst = max(worst, abs(pvi_residual_expr(x, y, yp, ypp, th)))

    singular = (
        (ThetaParams(0.0, 0.37, 0.83, 1.29), lambda x: (0.0, 0.0, 0.0)),
        (ThetaParams(0.37, 0.52, 0.0, 1.7), lambda x: (1.0, 0.0, 0.0)),
        (ThetaParams(0.41, 0.0, 0.67, 0.29), lambda x: (x, 1.0, 0.0)),
    )
    for th, jet in singular:
        for x in _points(rng, 100):
            y, yp, ypp = jet(x)
            worst = max(worst, abs(pvi_residual_expr(x, y, yp, ypp, th)))
    return [Gate("worst pointwise residual", worst, "<", 1e-12)]


# ----------------------------------------------------------------------
# 4. monodromy constructors: invariants, trace identity, s-inversions


def _ordered(rep):
    if not rep.order:
        raise ValueError("ambiguous product order")
    return rep


def _rep_checks(rep, targets, devs):
    for key, m in rep.matrices().items():
        devs["det"].append(abs(det2(m) - 1.0))
        devs["tr"].append(abs(tr2(m) - 2.0 * cmath.cos(math.pi * targets[key])))


def monodromy_constructors():
    rng = np.random.default_rng(404)
    devs = {k: [] for k in ("det", "tr", "m0mx", "ident", "inv")}

    for _ in range(20):
        def draw_a():
            th = _theta_draw(rng)
            return th, _ordered(build_case_a(th))
        th, rep = _retry(draw_a)
        _rep_checks(rep, {"M0": th.th0, "Mx": th.thx, "M1": th.th1,
                          "Minf": th.thinf}, devs)
        devs["ident"].append(abs(check_identity(rep, th)))

    for _ in range(20):
        def draw_b():
            thx, thinf = _nonint(rng), _nonint(rng)
            s = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            if abs(s) < 0.05 or abs(s + thx) < 0.05:
                raise ValueError("degenerate s")
            r = complex(rng.uniform(0.3, 1.5) * (-1.0, 1.0)[rng.integers(2)],
                        rng.uniform(-0.5, 0.5))
            return thx, thinf, s, _ordered(build_case_b(thx, thinf, s, r))
        thx, thinf, s, rep = _retry(draw_b)
        _rep_checks(rep, {"M0": thx, "Mx": thx, "M1": thinf, "Minf": thinf},
                    devs)
        devs["m0mx"].append(float(np.max(np.abs(rep.M0 @ rep.Mx - np.eye(2)))))
        th_eff = ThetaParams(thx, thx, thinf, thinf)
        devs["ident"].append(abs(check_identity(rep, th_eff)))
        devs["inv"].append(abs(invert_s_case_b(rep) - s) / (1.0 + abs(s)))

    for _ in range(20):
        def draw_c():
            th0, thx = _nonint(rng), _nonint(rng)
            s = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            if abs(s) < 0.05:
                raise ValueError("degenerate s")
            return th0, thx, s, _ordered(build_case_c(th0, thx, s))
        th0, thx, s, rep = _retry(draw_c)
        _rep_checks(rep, {"M0": th0, "Mx": thx, "M1": 0.0, "Minf": 1.0}, devs)
        devs["ident"].append(abs(check_identity(rep, rep.theta)))
        devs["inv"].append(abs(invert_s_case_c(rep) - s) / (1.0 + abs(s)))

    return [Gate("det", max(devs["det"]), "<", 1e-12),
            Gate("traces", max(devs["tr"]), "<", 1e-10),
            Gate("M0*Mx-I", max(devs["m0mx"]), "<", 1e-12),
            Gate("trace identity", max(devs["ident"]), "<", 1e-9),
            Gate("s round-trips", max(devs["inv"]), "<", 1e-10)]


# ----------------------------------------------------------------------
# 5. Gamma-product connection matrices vs the ODE-transport oracle


def connection_matrix_agreement():
    rng = np.random.default_rng(505)
    t_start = time.perf_counter()
    worst = 0.0
    for which in ("C0inf", "C01", "Cinf0", "C01c"):
        for _ in range(5):
            def draw():
                if which in ("C0inf", "C01"):
                    th = _theta_draw(rng)
                else:
                    t0, tx = _nonint(rng), _nonint(rng)
                    if (abs(t0 + tx - round(t0 + tx)) < 0.1
                            or abs(t0 - tx - round(t0 - tx)) < 0.1):
                        raise ValueError("resonant pair")
                    th = ThetaParams(t0, tx, 0.0, 1.0)
                return th, connection_matrix(which, th)
            th, cmat = _retry(draw)
            orc = connection_oracle(which, th)
            worst = max(worst, float(np.max(np.abs(cmat - orc)))
                        / max(1.0, float(np.max(np.abs(cmat)))))
    return [Gate("worst relative deviation", worst, "<", 1e-8),
            Gate("runtime", time.perf_counter() - t_start, "<", 10.0)]


# ----------------------------------------------------------------------
# 6. loop-transport trace about lambda=1 vs the local exponent
#
# Only the pole lambda=1 lies inside the loop, so tr M1 = 2cos(2 pi mu(x))
# with mu^2 = -det A1(x): the trace error is carried entirely by the
# eigenvalue defect -det A1(x) - thinf^2/4 of the stored residue, and its
# order in x is the order of that defect (3 at lambda=1 in case b, where
# orders x^0..x^2 cancel; 1 at lambda=0 and lambda=x in case a).


def loop_transport_scaling():
    thx, thinf, s, r = 0.31, 0.44, 0.27 + 0.1j, 1.0
    sys = fuchsian.build_case_b(thx, thinf, s, r)
    tgt = 2.0 * cmath.cos(math.pi * thinf)
    errs, mu2 = {}, {}
    for x in (1e-2, 1e-3):
        m = fuchsian.loop_monodromy(sys, x, 1.0, tol=1e-12)
        errs[x] = abs(tr2(m) - tgt)
        mu2[x] = -det2(sys.residue("1", x))
    gates = [Gate(f"trace err @ x={x:g}", e, "<=", 1.0 * x + 1e-8)
             for x, e in errs.items()]
    # the residue defect's order k predicts the two-point ratio 10^k
    k = round(math.log10(abs(mu2[1e-2] - thinf ** 2 / 4.0)
                         / abs(mu2[1e-3] - thinf ** 2 / 4.0)))
    ratio = errs[1e-2] / errs[1e-3]
    want = abs(2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(mu2[1e-2])) - tgt)
    return gates + [
        Gate("two-point ratio", ratio, ">=", 10.0 ** k / 2.0),
        Gate("two-point ratio", ratio, "<=", 2.0 * 10.0 ** k),
        Gate("rel dev of err @ x=0.01 from |2cos(2 pi mu)-2cos(pi thinf)|",
             abs(errs[1e-2] - want) / want, "<=", 0.01)]


# ----------------------------------------------------------------------
# 7. y reconstructed from the residue matrices vs the series coefficients


def _residue_cases():
    """(case, Fuchsian system, two-term Taylor series) of y_from_residues."""
    th_a = ThetaParams(0.21, 0.33, 0.17, 0.52)
    thx, thinf, s, r = 0.31, 0.44, 0.27, 1.0
    a_b = thinf * (2.0 * s + thx + 1.0) / (2.0 * (thinf - 1.0))
    th_b = ThetaParams(thx, thx, thinf, thinf)
    th0, thx_c, r1, rho = 0.23, 0.57, 0.6, 1.3
    th_c = ThetaParams(th0, thx_c, 0.0, 1.0)
    return (
        ("a", fuchsian.build_case_a(th_a, r=1.0),
         solve_taylor(th_a, "form1", N=2)),
        ("b", fuchsian.build_case_b(thx, thinf, s, r),
         solve_taylor(th_b, "form2", a=a_b, N=2)),
        ("c", fuchsian.build_case_c(th0, thx_c, r1, rho),
         solve_taylor(th_c, "form3", a=1.0 / (1.0 - r1 / rho), N=2)),
    )


def y_from_residues():
    gates = []
    for tag, sys, ser in _residue_cases():
        err = {x: abs(fuchsian.y_from_A(sys, x) - (ser.c[0] + ser.c[1] * x))
               for x in (1e-2, 1e-3)}
        c_est = err[1e-2] / 1e-4    # C x^2 at x = 1e-2 bounds it at x = 1e-3
        gates.append(Gate(f"case {tag} err @ x=0.001", err[1e-3], "<=",
                          2.0 * c_est * 1e-6 + 1e-14))
    return gates


# ----------------------------------------------------------------------
# 8. formal gauge recursions vs the closed forms of the matching matrices


def gauge_recursion_closed_forms():
    thx, thinf, s, r = 0.31 + 0.0j, 0.44 + 0.0j, 0.27 + 0.13j, 1.1 + 0.0j
    x = 1e-3 + 2e-4j
    g = mat2(1.0, 1.0, (s + thx) / r, s / r)
    gi = inv2(g)
    b = -x * thinf
    # leading form of G^{-1}(A0+Ax)G: zero diagonal, printed off-diagonals
    m = mat2(0.0, b * r, s * (s + thx) * b / r, 0.0)
    a_mat = -(thx / 2.0) * (g @ SIGMA3 @ gi)
    gs3g = gi @ SIGMA3 @ g
    devs = []

    # outward frame: z-leading x(thx/2)sigma3, constant tail -(thinf/2) G^-1 s3 G
    (g1,), om1 = fuchsian.appendix2_recursion(
        "IRR1", x * (thx / 2.0) * SIGMA3, [-m, -(thinf / 2.0) * gs3g], 1)
    g11 = (-thinf * (2.0 * s + thx) / (2.0 * thx)
           - s * (s + thx) * b * b / (x * thx))
    tgt = mat2(g11, r * b / (x * thx), -s * (s + thx) * b / (x * thx * r), -g11)
    devs.append(float(np.max(np.abs(g1 - tgt))))
    devs.append(float(np.max(np.abs(om1))))

    # inward frame: z-leading x(thinf/2)sigma3, coefficients [A0+Ax, A, A, ...]
    (g1i,), om1i = fuchsian.appendix2_recursion(
        "IRR1", x * (thinf / 2.0) * SIGMA3, [m, a_mat], 1)
    g11i = -a_mat[0, 0] - s * (s + thx) * b * b / (x * thinf)
    g22i = -a_mat[1, 1] + s * (s + thx) * b * b / (x * thinf)
    tgti = mat2(g11i, -r * b / (x * thinf),
                s * (s + thx) * b / (x * thinf * r), g22i)
    devs.append(float(np.max(np.abs(g1i - tgti))))
    devs.append(float(np.max(np.abs(om1i))))

    # quadratic-leading frame
    k1, k2, lam1 = fuchsian.appendix2_recursion(
        "IRR2", (thinf / 2.0) * SIGMA3, [m, a_mat, a_mat], 2, x=x)
    k1_tgt = mat2(-(s + thx / 2.0), 0.0, 0.0, s + thx / 2.0)
    devs.append(float(np.max(np.abs(k1 - k1_tgt))))
    devs.append(float(np.max(np.abs(lam1))))
    k2_12 = -m[0, 1] / (x * x * thinf)
    k2_21 = m[1, 0] / (x * x * thinf)
    devs.append(abs(k2[0, 1] - k2_12) / (1.0 + abs(k2_12)))
    devs.append(abs(k2[1, 0] - k2_21) / (1.0 + abs(k2_21)))
    for i in range(2):
        j = 1 - i
        bal = (a_mat[i, i] ** 2 - a_mat[i, i]
               - m[i, j] * (k2_21 if i == 0 else k2_12)) / 2.0
        devs.append(abs(k2[i, i] - bal) / (1.0 + abs(bal)))

    return [Gate("worst closed-form deviation", max(devs), "<", 1e-12)]


# ----------------------------------------------------------------------
# 9. power-type seed vs direct integration (drift and round trip)


def seed_self_consistency():
    t_start = time.perf_counter()
    th = ThetaParams(2.3, 2.3, 0.31, 0.44)
    seed = make_seed(0.3 + 0.2j, th, 1.0)
    x0, x1 = 1e-4, 1e-2
    y0, yp0 = seed_value(seed, x0, three_term=True)
    traj = integrate((x0, y0, yp0), th, PathPlan((x0, x1), 1e-10), tol=1e-10)
    c, e = leading_term(seed)
    drift = max(abs(y / (c * x ** e) - 1.0) for x, y, _, _ in traj.samples)
    back = integrate(traj.final(), th, PathPlan((x1, x0), 1e-10), tol=1e-10)
    _, yb, ypb = back.final()
    rt = max(abs(yb - y0) / (1.0 + abs(y0)), abs(ypb - yp0) / (1.0 + abs(yp0)))
    return [Gate("leading-term drift", drift, "<", 0.05),
            Gate("round-trip scaled error", rt, "<", 1e-8),
            Gate("runtime", time.perf_counter() - t_start, "<", 5.0)]


# ----------------------------------------------------------------------
# 10. symmetry generators transport exact solutions


def _map_jet(gen, x, y, yp, ypp):
    """(x, y, y', y'') of the transformed solution at the image point."""
    if gen == "x1":
        return 1.0 - x, 1.0 - y, yp, -ypp
    if gen == "x2":
        return (1.0 / x, 1.0 / y, x * x * yp / (y * y),
                -x * x * (2.0 * x * yp / (y * y) + x * x * ypp / (y * y)
                          - 2.0 * x * x * yp * yp / (y ** 3)))
    if gen == "x3":
        return (x / (x - 1.0), (x - y) / (x - 1.0),
                -(y - 1.0) + yp * (x - 1.0), -ypp * (x - 1.0) ** 3)
    if gen == "n":
        return (x, x / y, 1.0 / y - x * yp / (y * y),
                -2.0 * yp / (y * y) - x * ypp / (y * y)
                + 2.0 * x * yp * yp / (y ** 3))
    raise ValueError(gen)


def symmetry_transport():
    rng = np.random.default_rng(1010)
    th = ThetaParams(1.0, 0.4, -0.7, -0.7)
    pole = (th.th1 + th.thinf) / (1.0 + th.th1)
    worst = 0.0
    pts = _points(rng, 50, bad=(pole,), guard=0.15)
    for gen in ("x1", "x2", "x3", "n"):
        th2 = act_theta(gen, th)
        for x in pts:
            y, yp, ypp = rational_solution_theta0_1(th, x)
            xx, yy, yyp, yypp = _map_jet(gen, x, y, yp, ypp)
            worst = max(worst, abs(pvi_residual_expr(xx, yy, yyp, yypp, th2)))
    samples = [(x, rational_solution_theta0_1(th, x)[0]) for x in pts]
    ident = 0.0
    for gen in ("n", "x1"):
        twice = transport_solution(gen, transport_solution(gen, samples))
        ident = max(ident, max(max(abs(a - c), abs(b - d))
                               for (a, b), (c, d) in zip(samples, twice)))
    return [Gate("transported residual", worst, "<", 1e-8),
            Gate("double-application identity", ident, "<", 1e-13)]


# ----------------------------------------------------------------------
# 11. oscillatory closed form vs the three-power sum


def trig_three_term_identity():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(10):
        def draw():
            u = rng.uniform(0.15, 0.85) * (-1.0, 1.0)[rng.integers(2)]
            th = ThetaParams(*(_nonint(rng) for _ in range(4)))
            r = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
            return make_seed(1j * u, th, r)
        seed = _retry(draw)
        for k in range(20):
            x = 10.0 ** (-3.0 + 2.0 * k / 19.0) * cmath.exp(1j * math.pi / 6.0)
            y1, yp1 = seed_value(seed, x)
            y2, yp2 = three_term_value(seed.sigma, seed.theta, seed.r, x)
            worst = max(worst, abs(y1 - y2), abs(yp1 - yp2) * abs(x))
    return [Gate("worst pointwise deviation", worst, "<", 1e-10)]


# ----------------------------------------------------------------------

# (name, check): each name is its function's, with dashes
CRITERIA = tuple((fn.__name__.replace("_", "-"), fn) for fn in (
    taylor_form1_fidelity, taylor_special_vector, exact_solution_residuals,
    monodromy_constructors, connection_matrix_agreement, loop_transport_scaling,
    y_from_residues, gauge_recursion_closed_forms, seed_self_consistency,
    symmetry_transport, trig_three_term_identity))


def run_all():
    """[(name, ok, detail, gate records)] for every check in CRITERIA, read
    when called; no wall time enters them."""
    rows = []
    for name, fn in CRITERIA:
        gates = fn()
        rows.append((name, *judge(gates), [g.record() for g in gates]))
    return rows
