"""The sixth Painleve equation: parameter maps, right-hand side, residual.

The residual operator and its partials are written once over duck-typed
"ring elements": anything with +, -, * (including scalars on either side)
works, so the same expression serves pointwise complex evaluation and every
kind of the truncated series ring in series.py (plain power, log-polynomial
and x^omega double series).  Both are formed from shared factors, those in
x alone (`_xfactors`, which a series ring forms once per truncation) and
those in y (`_factors`), so that pvi_residual_series can return the residual
and the partials from one pass, the partials on fewer rows.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ThetaParams",
    "AbgdParams",
    "ResonanceError",
    "SingularConfigError",
    "theta_to_abgd",
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
        t0, tx, t1, ti = (rng.uniform(0.12, 0.88) * (-1.0, 1.0)[rng.integers(2)]
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


def _xfactors(x):
    """x, x-1, (x-1)^2, x (x-1), x (x-1)^2, then x^2 (x-1)^2 and x (x-1) (2x-1)
    as the residual and as F0 form them, each keeping its bytes on scalars."""
    xm1 = x - 1.0
    xm1_2, x2, xx1 = xm1 * xm1, x * x, x * xm1
    xq = x * xm1_2
    return x, xm1, xm1_2, xx1, xq, x2 * xm1_2, xq + x2 * xm1, x * xq, xq + x * xx1


def _factors(x, y):
    """The factors in y: y-1, y-x, y (y-1), u = y (y-1) (y-x),
    v = (y-1) (y-x), w = y (y-x) and s = v + w + y (y-1) = du/dy."""
    ym1, ymx = y - 1.0, y - x
    yy1 = y * ym1
    v, w = ym1 * ymx, y * ymx
    return ym1, ymx, yy1, yy1 * ymx, v, w, v + w + yy1


def _residual(p: AbgdParams, xf, y, yp, ypp, ym1, ymx, yy1, u, v, w, s):
    x, xm1, _, _, _, q, xt, _, _ = xf
    # each product with its operands in the order of the textbook form, so
    # that the result keeps its bytes
    qy = q * yy1            # x^2 (x-1)^2 y (y-1)
    r = qy * ymx * ypp      # the full denominator times y''
    r = r - 0.5 * q * s * (yp * yp)
    r = r + xt * yy1 * ymx * yp + qy * yp
    r = r - p.alpha * u * u
    r = r - p.beta * x * v * v
    r = r - p.gamma * xm1 * w * w
    r = r - p.delta * x * xm1 * (yy1 * yy1)
    return r


def _linearization(p: AbgdParams, xf, y, yp, ypp, ym1, ymx, yy1, u, v, w, s):
    x, xm1, xm1_2, xx1, xq, _, _, q, xt = xf
    ty = y + ym1            # 2y - 1, the y-derivative of y (y-1)
    f2 = xm1_2 * u
    f1 = (xm1_2 + xx1) * u + xq * (yy1 - s * yp)
    # ds/dy = 2 (3y - 1 - x), dv/dy = 2y - 1 - x, dw/dy = 2y - x
    f0 = s * (q * ypp + xt * yp) + q * yp * (ty - (ty + ymx) * yp)
    f0 = f0 - 2.0 * (p.alpha * (u * s) + p.beta * (x * v * (ymx + ym1))
                     + p.gamma * (xm1 * w * (ymx + y)) + p.delta * (xx1 * yy1 * ty))
    return f0, f1, f2


def pvi_residual_expr(x, y, yp, ypp, theta: ThetaParams):
    """PVI residual times the common denominator x^2 (x-1)^2 y (y-1) (y-x).

    Generic over the ring of x, y: vanishes identically (as a polynomial)
    on exact solutions, including the singular ones, instead of hitting 0/0.
    """
    return _residual(theta_to_abgd(theta), _xfactors(x), y, yp, ypp, *_factors(x, y))


def pvi_linearization_expr(x, y, yp, ypp, theta: ThetaParams):
    """(F0, F1, F2): the partials of pvi_residual_expr in y, y' and y'',
    the last two divided by x and x^2.

    Every y' in the residual carries a factor x and every y'' a factor x^2,
    so all three are polynomials, and a change delta of y moves the residual
    by F0 delta + F1 x delta' + F2 x^2 delta'' to first order.  Generic over
    the ring of x, y, like pvi_residual_expr.
    """
    return _linearization(theta_to_abgd(theta), _xfactors(x), y, yp, ypp, *_factors(x, y))


def pvi_residual_series(series, theta: ThetaParams, rows=0):
    """Residual of a series object; returns the residual in the same ring.

    Any ring works whose elements provide .deriv(), .head(rows) (the first
    `rows` rows) and .xfactors(rows) (_xfactors of x on the same rows), such
    as series.Series of any kind.  With rows > 0 the same pass also forms
    (F0, F1, F2) of pvi_linearization_expr, from .xfactors(rows) and the
    rest cut by .head(rows), and returns (residual, (F0, F1, F2)).
    """
    yp, xf = series.deriv(), series.xfactors()
    ops, p = (series, yp, yp.deriv()) + _factors(xf[0], series), theta_to_abgd(theta)
    r = _residual(p, xf, *ops)
    return (r, _linearization(p, series.xfactors(rows), *(t.head(rows) for t in ops))) if rows else r


# ----------------------------------------------------------------------
# exact solutions with vanishing theta sum (reducible monodromy family)


def rational_solution_theta0_1(theta: ThetaParams, x: complex):
    """Closed rational solution on th0 = 1, th0+thx+th1+thinf = 0, as the
    jet (y, y', y'')."""
    if abs(theta.th0 - 1.0) > RESONANCE_TOL or abs(theta.theta_sum()) > 1e-9:
        raise ResonanceError("requires th0 = 1 and vanishing theta sum")
    # the terminating branch of the reducible family: u = x^{th1+thinf-1}
    # (1 - (th1+1)/(th1+thinf) x) substituted into the u-to-y map
    dd, c0 = 1.0 + theta.th1, theta.th1 + theta.thinf
    return x / (dd * x - c0), -c0 / (dd * x - c0) ** 2, 2.0 * c0 * dd / (dd * x - c0) ** 3


def rational_solution_theta0_minus2(theta: ThetaParams, x: complex):
    """Closed rational solution y = nu/de on th0 = -2, vanishing theta sum,
    as the jet (y, y', y'')."""
    t1, ti = theta.th1, theta.thinf
    if abs(theta.th0 + 2.0) > RESONANCE_TOL or abs(theta.theta_sum()) > 1e-9:
        raise ResonanceError("requires th0 = -2 and vanishing theta sum")
    q = 2.0 - (ti + t1) + t1 * x
    nu, de = q * q - 2.0 + ti + t1 - t1 * x * x, (1.0 - ti) * q
    nup, nupp, dep = 2.0 * t1 * q - 2.0 * t1 * x, 2.0 * t1 * t1 - 2.0 * t1, (1.0 - ti) * t1
    return (nu / de, nup / de - nu * dep / de ** 2,
            nupp / de - 2.0 * nup * dep / de ** 2 + 2.0 * nu * dep ** 2 / de ** 3)


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
