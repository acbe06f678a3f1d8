"""Numeric continuation of PVI solutions along complex-x paths.

Integrates the first-order system (y, y') with the DOP853 integrator
`integrate.dp45` in the y chart, switching to the one pole chart w = 1/y
where |y| grows large (movable poles).  Crossings of y = 0, 1, x at a
regular x are integrated in the y chart: there the simple pole of the
right-hand side is removable on a solution.  Also provides seed-consistency
diagnostics (series and critical-behavior seeds vs the integrated
trajectory).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import CriticalSeed, leading_term, seed_value
from .integrate import dp45
from .numerics import PRINCIPAL, cpow, clog
from .pvi import ThetaParams, pvi_rhs, pvi_residual_expr, theta_to_abgd

__all__ = [
    "ChartThrashError",
    "PathPlan",
    "Trajectory",
    "CHARTS",
    "to_chart",
    "from_chart",
    "integrate",
    "seed_and_verify",
]

CHARTS = ("y", "inv_y")

SWITCH_THRESHOLD = 1e-3
HYSTERESIS = 3.0
MAX_SWITCHES = 10      # per segment; more counts as thrash
X_CLEARANCE = 1e-6     # paths must stay this far from x = 0, 1


class ChartThrashError(RuntimeError):
    """MAX_SWITCHES or more chart switches within one path segment."""


def to_chart(chart: str, y, yp):
    """(y, y') -> chart state (w, w'); exact closed-form change of variables."""
    if chart == "y":
        return complex(y), complex(yp)
    w = 1.0 / y
    return w, -yp * w * w


def from_chart(chart: str, w, wp):
    if chart == "y":
        return complex(w), complex(wp)
    return 1.0 / w, -wp / (w * w)


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to segment [a, b]."""
    d = b - a
    t = ((p - a) / d).real if d else 0.0
    if 0.0 < t < 1.0:
        return abs(a + t * d - p)
    return min(abs(p - a), abs(p - b))    # a + t d can cancel to 0 at an end


@dataclass(frozen=True)
class PathPlan:
    """Polyline in x with per-segment tolerance and arg bookkeeping.

    Vertices (and the segments between them) must keep clearance from the
    fixed critical points x = 0, 1; arg(x) is accumulated continuously
    along the polyline for branch-sensitive seeds.
    """

    vertices: tuple
    tol: float = 1e-10
    clearance: float = X_CLEARANCE

    def __post_init__(self):
        vs = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        for v in vs:
            if abs(v) < self.clearance or abs(v - 1.0) < self.clearance:
                raise ValueError(f"vertex {v} within clearance of a fixed critical point")
        for a, b in zip(vs[:-1], vs[1:]):
            for p in (0.0, 1.0):
                if _seg_point_dist(a, b, p) < self.clearance:
                    raise ValueError(f"segment {a} -> {b} passes within clearance of x = {p}")

    def segments(self):
        return list(zip(self.vertices[:-1], self.vertices[1:]))

    def cumulative_args(self):
        """arg(x) at each vertex, continued continuously along the path."""
        args = [cmath.phase(self.vertices[0])]
        for a, b in self.segments():
            args.append(args[-1] + cmath.phase(b / a))
        return args


@dataclass
class Trajectory:
    theta: ThetaParams
    tol: float
    samples: list = field(default_factory=list)   # (x, y, yp, chart)
    events: list = field(default_factory=list)

    def record(self, x, y, yp, chart):
        self.samples.append((complex(x), complex(y), complex(yp), chart))

    def final(self):
        x, y, yp, _ = self.samples[-1]
        return x, y, yp

    def residual_audit(self):
        """Worst scaled PVI residual over the recorded samples.

        Cross-checks the partial-fraction right-hand side against the
        denominator-cleared residual polynomial; samples closer than 1e-5
        to the singular set, or beyond 1/1e-5, are skipped (pvi_rhs is
        ill-conditioned there).
        """
        worst = 0.0
        p = theta_to_abgd(self.theta)
        for x, y, yp, _ in self.samples:
            if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-5 or abs(y) > 1.0 / 1e-5:
                continue
            ypp = pvi_rhs(x, y, yp, p)
            res = pvi_residual_expr(x, y, yp, ypp, self.theta)
            scale = ((1.0 + abs(x)) ** 4 * (1.0 + abs(y)) ** 6 * (1.0 + abs(yp)) ** 2)
            worst = max(worst, abs(res) / scale)
        return worst


def integrate(ic, theta: ThetaParams, path, tol=1e-10) -> Trajectory:
    """Continue (y, y') from ic = (x0, y0, y0') along the path.

    Integrates in the y chart, and in the one pole chart w = 1/y while
    |y| is large: it enters inv_y when |y| > 1/SWITCH_THRESHOLD and
    leaves it when 1/|y| > HYSTERESIS * SWITCH_THRESHOLD.  Crossings of
    y = 0, 1, x stay in the y chart, where the pole of the right-hand side
    is removable on a solution; accuracy there falls as the path passes
    closer to the crossing.  MAX_SWITCHES switches within one segment
    raise ChartThrashError.
    """
    if not isinstance(path, PathPlan):
        path = PathPlan(tuple(path), tol)
    x0, y0, yp0 = (complex(v) for v in ic)
    if abs(x0 - path.vertices[0]) > 1e-12:
        raise ValueError("initial x must coincide with the first path vertex")

    traj = Trajectory(theta, tol)
    p = theta_to_abgd(theta)
    state = {"chart": "y"}
    y, yp = y0, yp0
    traj.record(x0, y0, yp0, "y")

    for a, b in path.segments():
        dx = b - a
        state["switches"] = 0

        def f(t, s, a=a, dx=dx):
            x = a + t * dx
            w, wp = s
            chart = state["chart"]
            yv, ypv = from_chart(chart, w, wp)
            ypp = pvi_rhs(x, yv, ypv, p)
            if chart == "y":
                wpp = ypp
            else:
                wpp = 2.0 * wp * wp / w - w * w * ypp
            return [dx * wp, dx * wpp]

        def cb(t, s, a=a, dx=dx):
            x = a + t * dx
            chart = state["chart"]
            yv, ypv = from_chart(chart, s[0], s[1])
            traj.record(x, yv, ypv, chart)
            if chart == "y":
                new = "inv_y" if abs(yv) > 1.0 / SWITCH_THRESHOLD else chart
            else:
                new = "y" if 1.0 / abs(yv) > HYSTERESIS * SWITCH_THRESHOLD else chart
            if new != chart:
                state["switches"] += 1
                if state["switches"] >= MAX_SWITCHES:
                    raise ChartThrashError(
                        f"{state['switches']} chart switches in segment to {b}")
                traj.events.append({"kind": "chart-switch", "x": x,
                                    "from": chart, "to": new, "y": yv})
                state["chart"] = new
                return list(to_chart(new, yv, ypv))
            return None

        w0, wp0 = to_chart(state["chart"], y, yp)
        s = dp45(f, 0.0, 1.0, [w0, wp0], tol=tol, step_cb=cb)
        y, yp = from_chart(state["chart"], s[0], s[1])

    if traj.samples[-1][0] != path.vertices[-1]:
        traj.record(path.vertices[-1], y, yp, state["chart"])
    return traj


def seed_and_verify(seed, theta: ThetaParams, x_near, x_far, tol=1e-10) -> dict:
    """Start from the seed at x_near, integrate to x_far, report drift.

    seed may be a CriticalSeed or a Taylor-series object with eval /
    eval_deriv.  Diagnostics: ratio of y to the seed's dominant printed
    term along the trajectory (power-type kinds), a least-squares fit of
    y/x against a quadratic in ln x (log-generic), or max |Delta y|
    against the series (series seeds).
    """
    x_near, x_far = complex(x_near), complex(x_far)
    is_seed = isinstance(seed, CriticalSeed)
    if is_seed:
        y0, yp0 = seed_value(seed, x_near)
    else:
        y0, yp0 = seed.eval(x_near), seed.eval_deriv(x_near)
    traj = integrate((x_near, y0, yp0), theta, PathPlan((x_near, x_far), tol), tol=tol)

    diag = {"trajectory": traj, "final": traj.final()}
    xs = [s[0] for s in traj.samples]
    ys = [s[1] for s in traj.samples]
    if is_seed and seed.kind in ("power-generic", "trig", "one-param-sum", "one-param-diff"):
        c, e = leading_term(seed)
        ratios = [y / (c * cpow(x, e, PRINCIPAL)) for x, y in zip(xs, ys)]
        diag["ratios"] = ratios
        diag["ratio_drift"] = max(abs(r - 1.0) for r in ratios)
    elif is_seed and seed.kind == "log-generic":
        L = np.array([clog(x, PRINCIPAL) for x in xs])
        V = np.stack([L * L, L, np.ones_like(L)], axis=1)
        coef, *_ = np.linalg.lstsq(V, np.array(ys) / np.array(xs), rcond=None)
        diag["log_fit"] = list(coef)
        diag["log_leading"] = coef[0]
    elif not is_seed:
        dy = [abs(y - seed.eval(x)) for x, y in zip(xs, ys)]
        diag["max_dy"] = max(dy)
    return diag
