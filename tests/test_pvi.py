"""Parameter maps, right-hand side vs residual, and the exact solutions."""

import cmath

import numpy as np
import pytest

from pvilab.pvi import (AbgdParams, ResonanceError, SingularConfigError,
                        ThetaParams, _theta_draw, pvi_linearization_expr,
                        pvi_residual_expr, pvi_rhs, rational_solution_theta0_1,
                        rational_solution_theta0_minus2, reducible_solution,
                        theta_to_abgd)

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


def test_theta_draw_keeps_the_choice_stream():
    """The sign draws index (-1.0, 1.0) with rng.integers(2), which takes the
    same bits from the generator as rng.choice((-1.0, 1.0)): the draws and
    the generator state after them match a choice-based draw."""
    def reference(rng, margin=0.08):
        while True:
            t = [rng.uniform(0.12, 0.88) * rng.choice((-1.0, 1.0)) for _ in range(4)]
            t0, tx, t1, ti = t
            combos = (t0, tx, t1, ti, ti - 1.0, t1 - ti, t1 + ti, t0 + tx, t0 - tx)
            if all(abs(c - round(c)) > margin for c in combos):
                return tuple(t)

    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(500):
        assert _theta_draw(got_rng).as_tuple() == reference(want_rng)
    assert got_rng.random() == want_rng.random()


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


def test_theta_abgd_round_trip():
    p = theta_to_abgd(TH)
    back = abgd_to_theta(p, signs=(1, 1, 1, -1))  # thinf < 1 here
    for got, want in zip(back.as_tuple(), TH.as_tuple()):
        assert abs(got - want) < 1e-14


def test_thinf_sign_ambiguity():
    # thinf and 2 - thinf give the same alpha
    a1 = theta_to_abgd(TH).alpha
    a2 = theta_to_abgd(ThetaParams(TH.th0, TH.thx, TH.th1, 2.0 - TH.thinf)).alpha
    assert abs(a1 - a2) < 1e-15


def test_rhs_consistent_with_residual():
    # the cleared-denominator residual must vanish exactly when ypp = rhs
    for x, y, yp in ((0.3, 0.7 + 0.2j, 1.1), (0.5 + 0.1j, -0.4, 0.3 - 0.2j)):
        ypp = pvi_rhs(x, y, yp, theta_to_abgd(TH))
        assert abs(pvi_residual_expr(x, y, yp, ypp, TH)) < 1e-12


def test_rhs_guards():
    with pytest.raises(SingularConfigError):
        pvi_rhs(0.0, 0.5, 0.1, theta_to_abgd(TH))
    with pytest.raises(SingularConfigError):
        pvi_rhs(0.3, 0.3, 0.1, theta_to_abgd(TH))  # y = x


def _partial_fraction_rhs(x, y, yp, p):
    """pvi_rhs as first written: each reciprocal formed where it is used,
    1/y in the y'^2 term and again as x/(y*y) in the bracket."""
    if abs(x) < 1e-12 or abs(x - 1.0) < 1e-12:
        raise SingularConfigError(f"x = {x} is a fixed critical point")
    if min(abs(y), abs(y - 1.0), abs(y - x)) < 1e-12:
        raise SingularConfigError(f"y = {y} within tolerance of 0, 1, x")
    t1 = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - x)) * yp * yp
    t2 = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (y - x)) * yp
    pref = y * (y - 1.0) * (y - x) / (x * x * ((x - 1.0) * (x - 1.0)))
    bracket = (
        p.alpha
        + p.beta * x / (y * y)
        + p.gamma * (x - 1.0) / ((y - 1.0) * (y - 1.0))
        + p.delta * x * (x - 1.0) / ((y - x) * (y - x))
    )
    return t1 - t2 + pref * bracket


def _rhs_draws(rng, n, lo, hi):
    """n draws of complex (x, y, y'), five in six with x or y at a distance
    in [10^lo, 10^hi] from x = 0, x = 1, y = 0, y = 1 or y = x."""
    out = []
    for i in range(n):
        x, y, yp = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = 10.0 ** rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
        kind = i % 6
        if kind == 1:
            x = d
        elif kind == 2:
            x = 1.0 + d
        elif kind == 3:
            y = d
        elif kind == 4:
            y = 1.0 + d
        elif kind == 5:
            y = x + d
        out.append((complex(x), complex(y), complex(yp)))
    return out


def _outcome(rhs, x, y, yp, p):
    try:
        return rhs(x, y, yp, p), None
    except SingularConfigError as e:
        return None, str(e)


def test_rhs_matches_the_partial_fraction_form():
    rng = np.random.default_rng(25)
    p = theta_to_abgd(ThetaParams(0.23 + 0.1j, 0.57, -0.31, 0.44))
    for x, y, yp in _rhs_draws(rng, 200, -11.0, -6.0):
        got, want = pvi_rhs(x, y, yp, p), _partial_fraction_rhs(x, y, yp, p)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_rhs_guards_match_the_partial_fraction_form():
    # inside and at the edge of the 1e-12 guards, and exactly on them
    rng = np.random.default_rng(26)
    p = theta_to_abgd(TH)
    draws = _rhs_draws(rng, 120, -16.0, -11.5)
    draws += [(0.0, 0.5, 0.1), (1.0, 0.5, 0.1), (0.3, 0.0, 0.1), (0.3, 1.0, 0.1),
              (0.3 + 0.2j, 0.3 + 0.2j, 0.1), (1e-13, 1e-13, 0.1)]
    raised = 0
    for x, y, yp in draws:
        got, want = _outcome(pvi_rhs, x, y, yp, p), _outcome(_partial_fraction_rhs, x, y, yp, p)
        assert got[1] == want[1]
        if want[1] is None:
            assert abs(got[0] - want[0]) <= 1e-13 * max(1.0, abs(want[0]))
        raised += want[1] is not None
    assert raised >= 80     # 97 of 126: the generic draws and those past 1e-12 run through


def _second_derivative(f, x, h=1e-5):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_rational_solution_theta0_1():
    th = ThetaParams(1.0, 0.4, -0.7, -0.7)
    f = lambda x: rational_solution_theta0_1(th, x)[0]
    for x in (0.3, 0.7, 2.0, -1.1):
        y = f(x)
        yp = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
        ypp = _second_derivative(f, x)
        assert abs(pvi_residual_expr(x, y, yp, ypp, th)) < 1e-5
        assert abs(pvi_residual_expr(x, *rational_solution_theta0_1(th, x), th)) < 1e-12


def test_rational_solution_theta0_minus2():
    th = ThetaParams(-2.0, 1.5, 0.2, 0.3)
    f = lambda x: rational_solution_theta0_minus2(th, x)[0]
    for x in (0.3, 0.8, -0.5):
        y = f(x)
        yp = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
        ypp = _second_derivative(f, x)
        assert abs(pvi_residual_expr(x, y, yp, ypp, th)) < 1e-5
        assert abs(pvi_residual_expr(x, *rational_solution_theta0_minus2(th, x), th)) < 1e-12


def test_rational_solutions_reject_wrong_theta():
    with pytest.raises(ResonanceError):
        rational_solution_theta0_1(TH, 0.5)
    with pytest.raises(ResonanceError):
        rational_solution_theta0_minus2(ThetaParams(-2.0, 0.1, 0.2, 0.3), 0.5)


def test_reducible_solution_satisfies_pvi():
    # vanishing theta sum, generic otherwise
    th = ThetaParams(0.21, 0.33, 0.17, -0.71)
    a = 0.4 + 0.2j
    f = lambda x: reducible_solution(th, a, x)
    for x in (0.2, 0.45):
        y = f(x)
        yp = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
        ypp = _second_derivative(f, x)
        assert abs(pvi_residual_expr(x, y, yp, ypp, th)) < 1e-4


def test_reducible_solution_requires_zero_sum():
    with pytest.raises(ResonanceError):
        reducible_solution(TH, 0.1, 0.3)


def _textbook_residual(x, y, yp, ypp, theta):
    """pvi_residual_expr as first written, each product spelled out where it
    is used (35 ring products on a series)."""
    p = theta_to_abgd(theta)
    x2 = x * x
    xm1 = x - 1.0
    xm1_2 = xm1 * xm1
    ym1 = y - 1.0
    ymx = y - x
    yy1 = y * ym1
    d = x2 * xm1_2 * yy1 * ymx
    r = d * ypp
    r = r - 0.5 * (x2 * xm1_2) * (ym1 * ymx + y * ymx + yy1) * (yp * yp)
    r = r + (x * xm1_2 + x2 * xm1) * yy1 * ymx * yp + x2 * xm1_2 * yy1 * yp
    r = r - p.alpha * (yy1 * ymx) * (yy1 * ymx)
    r = r - p.beta * x * (ym1 * ymx) * (ym1 * ymx)
    r = r - p.gamma * xm1 * (y * ymx) * (y * ymx)
    r = r - p.delta * x * xm1 * (yy1 * yy1)
    return r


def test_residual_expr_keeps_the_bytes_of_the_textbook_form():
    from pvilab.series import Series
    rng = np.random.default_rng(3)
    th = ThetaParams(0.23 + 0.1j, 0.57, -0.31, 0.44)
    for _ in range(20):
        x, y, yp, ypp = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = pvi_residual_expr(x, y, yp, ypp, th)
        assert got == _textbook_residual(x, y, yp, ypp, th)
    for shape, omega in (((12,), None), ((9, 5), None), ((9, 3), 0.3 + 0.1j)):
        y = Series(rng.normal(size=shape) + 1j * rng.normal(size=shape), 0, omega)
        x, yp = y.variable(), y.deriv()
        ypp = yp.deriv()
        got = pvi_residual_expr(x, y, yp, ypp, th)
        want = _textbook_residual(x, y, yp, ypp, th)
        assert got.off == want.off and np.array_equal(got.c, want.c)


class _Dual:
    """a + b eps with eps^2 = 0: first-order forward-mode differentiation."""

    def __init__(self, a, b=0.0):
        self.a, self.b = complex(a), complex(b)

    @staticmethod
    def _lift(o):
        return o if isinstance(o, _Dual) else _Dual(o)

    def __add__(self, o):
        o = self._lift(o)
        return _Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return _Dual(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__


@pytest.mark.parametrize("theta", [TH, ThetaParams(-0.61, 0.12, 0.83, -0.35),
                                   ThetaParams(0.23 + 0.3j, 0.57, -0.31, 0.44 - 0.2j)])
def test_linearization_matches_forward_mode_partials(theta):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y, yp, ypp = rng.normal(size=4) + 1j * rng.normal(size=4)
        f0, f1, f2 = pvi_linearization_expr(x, y, yp, ypp, theta)
        # dr/dy, dr/dy', dr/dy'' as the eps-parts of the residual
        want = [pvi_residual_expr(x, *(_Dual(v, float(i == k)) for i, v in
                                       enumerate((y, yp, ypp))), theta).b
                for k in range(3)]
        for got, w in zip((f0, f1 * x, f2 * x * x), want):
            assert abs(got - w) <= 1e-13 * abs(w)
