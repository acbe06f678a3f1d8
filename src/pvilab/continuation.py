"""Numeric continuation of PVI solutions along complex-x paths.

Integrates the first-order system (y, y') with the DOP853 integrator
`integrate.dp45` in the y chart, switching to the one pole chart
w = 1/(eps y), eps = SWITCH_THRESHOLD, where |y| grows large (movable
poles).  The chart is scaled so that w = 1 where it is entered: the step
controller's mixed error test tol (1 + max|state|) then stays relative
there, as in the y chart, instead of becoming an absolute test on a state
of size eps.  Crossings of y = 0, 1, x at a regular x are integrated in
the y chart: there the simple pole of the right-hand side is removable on
a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .integrate import dp45
from .pvi import ThetaParams, pvi_rhs, pvi_residual_expr, theta_to_abgd

__all__ = [
    "ChartThrashError",
    "PathPlan",
    "Trajectory",
    "to_chart",
    "from_chart",
    "integrate",
]

SWITCH_THRESHOLD = 1e-3
HYSTERESIS = 3.0
MAX_SWITCHES = 10      # per segment; more counts as thrash
X_CLEARANCE = 1e-6     # paths must stay this far from x = 0, 1


class ChartThrashError(RuntimeError):
    """MAX_SWITCHES or more chart switches within one path segment."""


def to_chart(chart: str, y, yp):
    """(y, y') -> chart state (w, w'); exact closed-form change of variables.

    The pole chart is w = 1/(eps y) with eps = SWITCH_THRESHOLD, so that w
    is 1 where the chart is entered (|y| = 1/eps) and w' = -eps y' w^2.
    Unscaled, the state there would have size about eps, and the step
    controller's error test tol (1 + max|state|) would be absolute: it
    would allow about |y| times the relative error the y chart allows.
    """
    if chart == "y":
        return complex(y), complex(yp)
    w = 1.0 / (SWITCH_THRESHOLD * y)
    return w, -SWITCH_THRESHOLD * yp * w * w


def from_chart(chart: str, w, wp):
    """Chart state (w, w') -> (y, y'); in the pole chart y = 1/(eps w) and
    y' = -w'/(eps w^2), both from one reciprocal u = 1/w."""
    if chart == "y":
        return complex(w), complex(wp)
    u = 1.0 / w
    return u / SWITCH_THRESHOLD, -wp * u * u / SWITCH_THRESHOLD


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to segment [a, b]."""
    d = b - a
    t = ((p - a) / d).real if d else 0.0
    if 0.0 < t < 1.0:
        return abs(a + t * d - p)
    return min(abs(p - a), abs(p - b))    # a + t d can cancel to 0 at an end


@dataclass(frozen=True)
class PathPlan:
    """Polyline in x.  Vertices (and the segments between them) must keep
    X_CLEARANCE from the fixed critical points x = 0, 1."""

    vertices: tuple
    tol: float = 1e-10    # never read (integrate takes its own tol); callers pass it positionally

    def __post_init__(self):
        vs = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        for v in vs:
            if abs(v) < X_CLEARANCE or abs(v - 1.0) < X_CLEARANCE:
                raise ValueError(f"vertex {v} within clearance of a fixed critical point")
        for a, b in zip(vs[:-1], vs[1:]):
            for p in (0.0, 1.0):
                if _seg_point_dist(a, b, p) < X_CLEARANCE:
                    raise ValueError(f"segment {a} -> {b} passes within clearance of x = {p}")

    def segments(self):
        return list(zip(self.vertices[:-1], self.vertices[1:]))


@dataclass
class Trajectory:
    theta: ThetaParams
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


def integrate(ic, theta: ThetaParams, path: PathPlan, tol=1e-10) -> Trajectory:
    """Continue (y, y') from ic = (x0, y0, y0') along the PathPlan.

    Integrates in the y chart, and in the one pole chart w = 1/(eps y)
    (to_chart) while |y| is large: it enters inv_y when
    |y| > 1/SWITCH_THRESHOLD and leaves it when
    1/|y| > HYSTERESIS * SWITCH_THRESHOLD.  Crossings of y = 0, 1, x stay
    in the y chart, where the pole of the right-hand side is removable on a
    solution; accuracy there falls as the path passes closer to the
    crossing.  MAX_SWITCHES switches within one segment raise
    ChartThrashError.
    """
    x0, y0, yp0 = (complex(v) for v in ic)
    if abs(x0 - path.vertices[0]) > 1e-12:
        raise ValueError("initial x must coincide with the first path vertex")

    traj = Trajectory(theta)
    p = theta_to_abgd(theta)
    state = {"chart": "y"}
    y, yp = y0, yp0
    traj.record(x0, y0, yp0, "y")

    for a, b in path.segments():
        dx = b - a
        state["switches"] = 0

        def f(t, s, a=a, dx=dx):
            w, wp = s
            if state["chart"] == "y":
                return [dx * wp, dx * pvi_rhs(a + t * dx, w, wp, p)]
            u = 1.0 / w
            ypp = pvi_rhs(a + t * dx, u / SWITCH_THRESHOLD, -wp * u * u / SWITCH_THRESHOLD, p)
            return [dx * wp, dx * (2.0 * wp * wp * u - SWITCH_THRESHOLD * w * w * ypp)]

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
