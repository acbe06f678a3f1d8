"""The sixth Painleve equation: parameter maps, right-hand side, residual.

The residual operator and its partials are written once over duck-typed
"ring elements": anything with +, -, * (including scalars on either side)
works, so the same expression serves pointwise complex evaluation and every
kind of the truncated series ring in series.py (plain power, log-polynomial
and x^omega double series).  Both are formed from one set of shared factors
(`_factors`), so that pvi_residual_series can return the residual and the
partials from one pass, the partials on fewer rows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

__all__ = [
    "ThetaParams",
    "AbgdParams",
    "ResonanceError",
    "SingularConfigError",
    "theta_to_abgd",
    "abgd_to_theta",
    "pvi_rhs",
    "pvi_residual_expr",
    "pvi_linearization_expr",
    "pvi_residual_series",
    "rational_solution_theta0_1",
    "rational_solution_theta0_minus2",
    "reducible_solution",
    "is_int",
]

RESONANCE_TOL = 1e-10


class ResonanceError(ValueError):
    """An integer (or otherwise excluded) parameter combination was hit."""


class SingularConfigError(ValueError):
    pass


def is_int(z: complex) -> bool:
    z = complex(z)
    return abs(z.imag) < RESONANCE_TOL and abs(z.real - round(z.real)) < RESONANCE_TOL


@dataclass(frozen=True)
class ThetaParams:
    th0: complex
    thx: complex
    th1: complex
    thinf: complex

    def as_tuple(self):
        return (complex(self.th0), complex(self.thx), complex(self.th1), complex(self.thinf))

    def theta_sum(self) -> complex:
        return self.th0 + self.thx + self.th1 + self.thinf


def _theta_draw(rng, margin=0.08):
    """Real theta with every relevant combination away from the integers."""
    while True:
        t0, tx, t1, ti = (rng.uniform(0.12, 0.88) * rng.choice((-1.0, 1.0))
                          for _ in range(4))
        combos = (t0, tx, t1, ti, ti - 1.0, t1 - ti, t1 + ti, t0 + tx, t0 - tx)
        if all(abs(c - round(c)) > margin for c in combos):
            return ThetaParams(t0, tx, t1, ti)


@dataclass(frozen=True)
class AbgdParams:
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex


def theta_to_abgd(theta: ThetaParams) -> AbgdParams:
    t0, tx, t1, ti = theta.as_tuple()
    return AbgdParams(
        alpha=(ti - 1.0) ** 2 / 2.0,
        beta=-t0 ** 2 / 2.0,
        gamma=t1 ** 2 / 2.0,
        delta=0.5 - tx ** 2 / 2.0,
    )


def abgd_to_theta(p: AbgdParams, signs=(1, 1, 1, 1)) -> ThetaParams:
    """Invert theta_to_abgd; signs pick the square-root branches (0,x,1,inf).

    thinf is defined only up to thinf -> 2 - thinf, so the last sign selects
    1 + sqrt(2 alpha) vs 1 - sqrt(2 alpha).
    """
    s0, sx, s1, si = signs
    return ThetaParams(
        th0=s0 * cmath.sqrt(-2.0 * p.beta),
        thx=sx * cmath.sqrt(1.0 - 2.0 * p.delta),
        th1=s1 * cmath.sqrt(2.0 * p.gamma),
        thinf=1.0 + si * cmath.sqrt(2.0 * p.alpha),
    )


def pvi_rhs(x: complex, y: complex, yp: complex, p: AbgdParams) -> complex:
    """y'' as prescribed by PVI at a regular point.

    Takes the coefficients alpha, beta, gamma, delta as AbgdParams, not the
    thetas: a caller evaluating along a path maps them once with
    theta_to_abgd.  x-1, y-1, y-x, x (x-1) and the reciprocals of y, y-1,
    y-x and x (x-1) are each formed once and shared by the y'^2 term, the
    y' term and the bracket.
    """
    xm1 = x - 1.0
    if abs(x) < 1e-12 or abs(xm1) < 1e-12:
        raise SingularConfigError(f"x = {x} is a fixed critical point")
    ym1, ymx = y - 1.0, y - x
    if abs(y) < 1e-12 or abs(ym1) < 1e-12 or abs(ymx) < 1e-12:
        raise SingularConfigError(f"y = {y} within tolerance of 0, 1, x")
    iy, iy1, iyx = 1.0 / y, 1.0 / ym1, 1.0 / ymx
    xx1 = x * xm1
    ixx = 1.0 / xx1
    t1 = 0.5 * (iy + iy1 + iyx) * yp * yp
    t2 = ((x + xm1) * ixx + iyx) * yp          # 1/x + 1/(x-1) = (2x-1)/(x (x-1))
    pref = y * ym1 * ymx * ixx * ixx
    bracket = (p.alpha + p.beta * x * iy * iy + p.gamma * xm1 * iy1 * iy1
               + p.delta * xx1 * iyx * iyx)
    return t1 - t2 + pref * bracket


def _factors(x, y):
    """The factors the residual and its partials share: x-1, (x-1)^2, y-1,
    y-x, y (y-1), u = y (y-1) (y-x), v = (y-1) (y-x) and w = y (y-x)."""
    xm1, ym1, ymx = x - 1.0, y - 1.0, y - x
    yy1 = y * ym1
    return xm1, xm1 * xm1, ym1, ymx, yy1, yy1 * ymx, ym1 * ymx, y * ymx


def _residual(p: AbgdParams, x, yp, ypp, xm1, xm1_2, ym1, ymx, yy1, u, v, w):
    x2 = x * x
    # each shared product once, with its operands in the order of the
    # textbook form, so that the result keeps its bytes
    q = x2 * xm1_2          # x^2 (x-1)^2
    qy = q * yy1            # x^2 (x-1)^2 y (y-1)
    r = qy * ymx * ypp      # the full denominator times y''
    r = r - 0.5 * q * (v + w + yy1) * (yp * yp)
    r = r + (x * xm1_2 + x2 * xm1) * yy1 * ymx * yp + qy * yp
    r = r - p.alpha * u * u
    r = r - p.beta * x * v * v
    r = r - p.gamma * xm1 * w * w
    r = r - p.delta * x * xm1 * (yy1 * yy1)
    return r


def _linearization(p: AbgdParams, y, x, yp, ypp, xm1, xm1_2, ym1, ymx, yy1, u, v, w):
    xx1 = x * xm1           # x (x-1)
    xq = x * xm1_2          # x (x-1)^2
    q = x * xq              # x^2 (x-1)^2
    s = v + w + yy1         # du/dy
    ty = y + ym1            # 2y - 1, the y-derivative of y (y-1)
    f2 = xm1_2 * u
    f1 = (xm1_2 + xx1) * u + xq * (yy1 - s * yp)
    # ds/dy = 2 (3y - 1 - x), dv/dy = 2y - 1 - x, dw/dy = 2y - x
    f0 = s * (q * ypp + (xq + x * xx1) * yp) + q * yp * (ty - (ty + ymx) * yp)
    f0 = f0 - 2.0 * (p.alpha * (u * s) + p.beta * (x * v * (ymx + ym1))
                     + p.gamma * (xm1 * w * (ymx + y)) + p.delta * (xx1 * yy1 * ty))
    return f0, f1, f2


def pvi_residual_expr(x, y, yp, ypp, theta: ThetaParams):
    """PVI residual times the common denominator x^2 (x-1)^2 y (y-1) (y-x).

    Generic over the ring of x, y: vanishes identically (as a polynomial)
    on exact solutions, including the singular ones, instead of hitting 0/0.
    """
    return _residual(theta_to_abgd(theta), x, yp, ypp, *_factors(x, y))


def pvi_linearization_expr(x, y, yp, ypp, theta: ThetaParams):
    """(F0, F1, F2): the partials of pvi_residual_expr in y, y' and y'',
    the last two divided by x and x^2.

    Every y' in the residual carries a factor x and every y'' a factor x^2,
    so all three are polynomials, and a change delta of y moves the residual
    by F0 delta + F1 x delta' + F2 x^2 delta'' to first order.  Generic over
    the ring of x, y, like pvi_residual_expr.
    """
    return _linearization(theta_to_abgd(theta), y, x, yp, ypp, *_factors(x, y))


def pvi_residual_series(series, theta: ThetaParams, rows=0):
    """Residual of a series object; returns the residual in the same ring.

    Any ring works whose elements provide .variable() (the element x at the
    same truncation), .deriv() and .head(rows) (the first `rows` rows), such
    as series.Series of any kind.  With rows > 0 the same pass also forms
    (F0, F1, F2) of pvi_linearization_expr from its x, y, y', y'' and shared
    factors, each cut by .head(rows), and returns (residual, (F0, F1, F2)).
    """
    x, yp = series.variable(), series.deriv()
    ops, p = (x, yp, yp.deriv()) + _factors(x, series), theta_to_abgd(theta)
    r = _residual(p, *ops)
    return (r, _linearization(p, *(t.head(rows) for t in (series,) + ops))) if rows else r


# ----------------------------------------------------------------------
# exact solutions with vanishing theta sum (reducible monodromy family)


def rational_solution_theta0_1(theta: ThetaParams, x: complex) -> complex:
    """Closed rational solution on th0 = 1, th0+thx+th1+thinf = 0."""
    t1, ti = theta.th1, theta.thinf
    if abs(theta.th0 - 1.0) > RESONANCE_TOL or abs(theta.theta_sum()) > 1e-9:
        raise ResonanceError("requires th0 = 1 and vanishing theta sum")
    # the terminating branch of the reducible family: u = x^{th1+thinf-1}
    # (1 - (th1+1)/(th1+thinf) x) substituted into the u-to-y map
    return x / (x * (1.0 + t1) - (t1 + ti))


def rational_solution_theta0_minus2(theta: ThetaParams, x: complex) -> complex:
    """Closed rational solution on th0 = -2, vanishing theta sum."""
    t1, ti = theta.th1, theta.thinf
    if abs(theta.th0 + 2.0) > RESONANCE_TOL or abs(theta.theta_sum()) > 1e-9:
        raise ResonanceError("requires th0 = -2 and vanishing theta sum")
    q = 2.0 - (ti + t1) + t1 * x
    return (q * q - 2.0 + ti + t1 - t1 * x * x) / ((1.0 - ti) * q)


def reducible_solution(theta: ThetaParams, a: complex, x: complex) -> complex:
    """One-parameter family at vanishing theta sum, via a hypergeometric u.

    y = (th1 + thinf - 1 + x (1 + thx))/(thinf - 1)
        - x (1 - x) u'(x) / ((thinf - 1) u(x)),
    where u = u1 + a u2 solves the hypergeometric equation
    x(1-x) u'' + [(2 - thinf - th1) - (4 - thinf + thx) x] u'
              - (2 - thinf)(1 + thx) u = 0,
    u1 the regular-at-0 Gauss solution and u2 the second Frobenius solution.
    """
    t0, tx, t1, ti = theta.as_tuple()
    if abs(theta.theta_sum()) > 1e-9:
        raise ResonanceError("reducible solution requires vanishing theta sum")
    if is_int(ti - 1.0) and abs(ti - 1.0) < RESONANCE_TOL:
        raise ResonanceError("thinf = 1 degenerates the reducible formula")
    from .hypergeom import reducible_u
    u, du = reducible_u(theta, a, x)
    if abs(u) < 1e-14:
        raise SingularConfigError("u(x; a) = 0: movable singularity")
    return (t1 + ti - 1.0 + x * (1.0 + tx)) / (ti - 1.0) - x * (1.0 - x) * du / ((ti - 1.0) * u)
