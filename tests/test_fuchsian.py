"""Residue matrices, loop transport, and the diagonalizing recursions."""

import cmath
import math

import numpy as np
import pytest

from pvilab import fuchsian
from pvilab.numerics import SIGMA3, det2, inv2, mat2, tr2
from pvilab.pvi import ResonanceError, ThetaParams

TH = ThetaParams(0.21, 0.33, 0.17, 0.52)


@pytest.fixture(scope="module")
def sys_a():
    return fuchsian.build_case_a(TH, 1.0)


@pytest.fixture(scope="module")
def sys_b():
    return fuchsian.build_case_b(0.31, 0.44, 0.27, 1.0)


@pytest.fixture(scope="module")
def sys_c():
    return fuchsian.build_case_c(0.23, 0.57, 0.6, 1.3)


def _conjugated(system, c):
    """The system under the constant gauge C A C^{-1}, applied entrywise per
    power of x."""
    ci = inv2(c)
    new = {}
    for key, e in system.entries.items():
        powers = sorted({p for row in e for cell in row for p, _ in cell},
                        key=lambda z: (complex(z).real, complex(z).imag))
        out = [[[], []], [[], []]]
        for p in powers:
            m = c @ mat2(*(sum(cf for q, cf in cell if q == p) for row in e for cell in row)) @ ci
            for i in range(2):
                for j in range(2):
                    if m[i, j] != 0:
                        out[i][j].append((p, m[i, j]))
        new[key] = tuple(tuple(tuple(cell) for cell in row) for row in out)
    return fuchsian.LinearSystem(system.theta, system.tag + "+gauge", new, dict(system.params))


def test_sum_residues_case_b_quadratic(sys_b):
    # A0 + Ax + A1 = -(thinf/2) sigma3 up to the O(x^2) truncation tail
    devs = [np.max(np.abs(sys_b.sum_residues(x) + 0.44 / 2.0 * SIGMA3))
            for x in (1e-2, 1e-3)]
    assert devs[1] < 1e-7
    assert 50.0 < devs[0] / devs[1] < 200.0


def _d_residue(system, which, x):
    """dA/dx taken term by term from the stored (power, coeff) pairs."""
    e = system.entries[which]
    return np.array([[sum(p * c * x ** (p - 1) for p, c in e[i][j] if p != 0)
                      for j in range(2)] for i in range(2)], dtype=complex)


def test_schlesinger_case_b_quadratic(sys_b):
    # x dA0/dx = [Ax, A0] and (x-1) dA1/dx = [Ax, A1] hold through the
    # stored order, so both residuals are O(x^2)
    def residuals(x):
        a0, ax, a1 = (sys_b.residue(k, x) for k in ("0", "x", "1"))
        r0 = x * _d_residue(sys_b, "0", x) - (ax @ a0 - a0 @ ax)
        r1 = (x - 1.0) * _d_residue(sys_b, "1", x) - (ax @ a1 - a1 @ ax)
        return np.max(np.abs(r0)), np.max(np.abs(r1))

    (r0a, r1a), (r0b, r1b) = residuals(1e-2), residuals(1e-3)
    assert 50.0 < r0a / r0b < 200.0
    assert 50.0 < r1a / r1b < 200.0


def test_sum_residues_case_a_superlinear(sys_a):
    # the truncated entries deviate from -(thinf/2) sigma3 by o(x)
    devs = [np.max(np.abs(sys_a.sum_residues(x) + TH.thinf / 2.0 * SIGMA3))
            for x in (1e-2, 1e-3)]
    assert devs[0] < 1e-4
    assert devs[0] / devs[1] > 10.0


def test_sum_residues_case_c_linear_bound(sys_c):
    for x in (1e-2, 1e-3):
        dev = np.max(np.abs(sys_c.sum_residues(x) + 0.5 * SIGMA3))
        assert dev <= 0.5 * x


def test_builders_reject_bad_parameters():
    with pytest.raises(ResonanceError):
        fuchsian.build_case_a(ThetaParams(0.21, 0.33, 0.3, 1.3), 1.0)  # th1-thinf = -1
    with pytest.raises(ValueError):
        fuchsian.build_case_b(0.31, 0.44, 0.2, 0.0)
    with pytest.raises(ValueError):
        fuchsian.build_case_c(0.23, 0.57, 0.6, 0.0)


def test_loop_trace_errors_scale_linearly(sys_a):
    """Trace errors of the lambda = 0 and lambda = x loop monodromies are
    O(x): halving log10(x) divides the error by ~10."""
    errs0, errsx = [], []
    for x in (1e-2, 1e-3):
        m0 = fuchsian.loop_monodromy(sys_a, x, 0.0, tol=1e-12)
        mx = fuchsian.loop_monodromy(sys_a, x, x, tol=1e-12)
        errs0.append(abs(tr2(m0) - 2.0 * math.cos(math.pi * TH.th0)))
        errsx.append(abs(tr2(mx) - 2.0 * math.cos(math.pi * TH.thx)))
    assert 5.0 <= errs0[0] / errs0[1] <= 20.0
    assert 5.0 <= errsx[0] / errsx[1] <= 20.0


def test_transport_gauge_covariance(sys_a):
    c = mat2(1.0, 0.3 + 0.1j, -0.2, 1.1)
    x = 1e-2
    m = fuchsian.loop_monodromy(sys_a, x, 1.0, tol=1e-12)
    mg = fuchsian.loop_monodromy(_conjugated(sys_a, c), x, 1.0, tol=1e-12)
    assert np.max(np.abs(mg - c @ m @ inv2(c))) < 1e-10


def test_reversed_loop_is_the_inverse(sys_a):
    # the loop run clockwise, as a reversed polygon from the same start 1.2
    x = 1e-2
    ccw = fuchsian.transport(sys_a, x, fuchsian.Loop(1.0, 0.2), tol=1e-12)
    poly = [1.0 + 0.2 * cmath.exp(2j * math.pi * k / 16) for k in range(17)]
    cw = fuchsian.transport(sys_a, x, poly[::-1], tol=1e-12)
    assert np.max(np.abs(cw @ ccw - np.eye(2))) < 1e-10


def test_transport_determinant(sys_a):
    # det Psi solves d(det)/d lambda = tr A det; around lambda = 0 the loop
    # multiplies it by exp(2 pi i tr A0)
    x = 1e-2
    m = fuchsian.loop_monodromy(sys_a, x, 0.0, tol=1e-12)
    want = cmath.exp(2j * math.pi * tr2(sys_a.residue("0", x)))
    assert abs(det2(m) - want) < 1e-10


def test_basepoint_loop_is_conjugated_plain_loop(sys_a):
    """A loop based at b, as one polygon b -> c + r -> around c -> c + r -> b,
    is the plain loop conjugated by the transport U along the leg: transports
    compose, as the radius oracle in test_rhs_reference relies on."""
    x, c, r, b = 1e-2, 1.0, 0.2, 1.5 + 0.1j
    m = fuchsian.transport(sys_a, x, fuchsian.Loop(c, r), tol=1e-12)
    u = fuchsian.transport(sys_a, x, [b, c + r], tol=1e-12)
    circle = [c + r * cmath.exp(2j * math.pi * k / 64) for k in range(65)]
    mb = fuchsian.transport(sys_a, x, [b, *circle, b], tol=1e-12)
    assert np.max(np.abs(mb - inv2(u) @ m @ u)) < 1e-10


@pytest.mark.parametrize("center", [0.0, "x", 1.0])
def test_circle_matches_polygon(sys_a, center):
    x = 1e-2
    c = x if center == "x" else center
    r = fuchsian.default_radius(x)
    poly = [c + r * cmath.exp(2j * math.pi * k / 64) for k in range(65)]
    circle = fuchsian.loop_monodromy(sys_a, x, c, tol=1e-12)
    polygon = fuchsian.transport(sys_a, x, poly, tol=1e-12)
    assert np.max(np.abs(circle - polygon)) < 1e-10


def test_loop_rejects_degenerate_radius(sys_a):
    # x = 1e-318 gives a subnormal radius, whose circle keeps few bits
    for x in (0.0, 1.0, 1e-318):
        with pytest.raises(ValueError, match="x = "):
            fuchsian.loop_monodromy(sys_a, x, 1.0)
    for r in (0.0, -0.1, math.nan, 1e-320):
        with pytest.raises(ValueError):
            fuchsian.transport(sys_a, 1e-2, fuchsian.Loop(1.0, r))


@pytest.mark.parametrize("x", [1e-15, 1e-300])
def test_default_loop_runs_where_center_plus_radius_rounds_to_center(x):
    """Around 1 at x = 1e-15 the default radius is 1e-19, and 1 + r == 1.
    The circle is anchored at its centre and never forms center + radius, so
    the loop runs and keeps det M = 1 and tr M = 2 cos 2 pi mu, with
    mu^2 = -det A1(x)."""
    system = fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0)
    m = fuchsian.loop_monodromy(system, x, 1.0)
    mu = cmath.sqrt(-det2(system.residue("1", x)))
    assert abs(det2(m) - 1.0) <= 1e-9
    assert abs(tr2(m) - 2.0 * cmath.cos(2.0 * math.pi * mu)) <= 1e-9


@pytest.mark.parametrize("center", ["0", "x"])
def test_default_loops_at_x_1e_300(center):
    """At x = 1e-300 the default radius is 1e-304, still a normal float: the
    loops about 0 and x (about 1, see above) keep det M = 1 and
    tr M = 2 cos 2 pi mu, mu^2 = -det A_c(x), with x 1e4 radii away."""
    x = 1e-300
    system = fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0)
    m = fuchsian.loop_monodromy(system, x, {"0": 0.0, "x": x}[center])
    mu = cmath.sqrt(-det2(system.residue(center, x)))
    assert abs(det2(m) - 1.0) <= 1e-9
    assert abs(tr2(m) - 2.0 * cmath.cos(2.0 * math.pi * mu)) <= 1e-9


def test_default_loop_at_x_1e_306_is_refused():
    # the default radius 1e-310 is subnormal: |x| must be above about 2.2e-304
    system = fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0)
    with pytest.raises(ValueError, match=r"^loop radius 1e-310 at x = 1e-306 is not a finite "
                                         r"positive normal float \(x must stay away from 0 and 1\)$"):
        fuchsian.loop_monodromy(system, 1e-306, 0.0)


@pytest.mark.parametrize("x", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_loop_around_one_keeps_its_digits_as_x_goes_to_zero(x):
    """The loop around 1 has radius |x| / 1e4 about a centre of size 1.  Its
    trace, 2 cos 2 pi mu with mu^2 = -det A1(x), stays as accurate as x
    shrinks, because lambda - 1 is formed from the radius term alone."""
    system = fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0)
    m = fuchsian.loop_monodromy(system, x, 1.0, tol=1e-12)
    mu = cmath.sqrt(-det2(system.residue("1", x)))
    want = 2.0 * cmath.cos(2.0 * math.pi * mu)
    assert abs(tr2(m) - want) <= 1e-12 * max(abs(want), np.max(np.abs(m)))


def test_transport_rejects_residues_that_are_not_finite():
    # the residue series are expansions at small x: cpow(x, 2) overflows at
    # x = 1e300, and r x^2 is inf at x = 1e154, r = 1e10, without an exception
    with pytest.raises(ValueError, match=r"x = \(1e\+300\+0j\) overflow"):
        fuchsian.loop_monodromy(fuchsian.build_case_b(0.31, 0.44, 0.27, 1.0), 1e300, 0.0)
    with pytest.raises(ValueError, match=r"x = \(1e\+154\+0j\) are not finite"):
        fuchsian.loop_monodromy(fuchsian.build_case_b(0.31, 0.44, 0.27, 1e10), 1e154, 0.0)


def test_y_from_a_matches_series(sys_a):
    from pvilab.series import solve_taylor
    ser = solve_taylor(TH, "form1", N=8)
    x = 1e-3
    assert abs(fuchsian.y_from_A(sys_a, x) - ser.eval(x)) < 1e-6


def test_appendix2_irr1_first_coefficient():
    lead = np.diag([0.155, -0.155]).astype(complex)
    d1 = mat2(0.3, 0.5, -0.2, -0.1)
    gs, om1 = fuchsian.appendix2_recursion("IRR1", lead, [d1, np.zeros((2, 2))], 1)
    assert np.max(np.abs(om1 - np.diag(np.diag(d1)))) == 0
    assert abs(gs[0][0, 1] + d1[0, 1] / (lead[0, 0] - lead[1, 1])) < 1e-14
    assert abs(gs[0][1, 0] + d1[1, 0] / (lead[1, 1] - lead[0, 0])) < 1e-14


def test_appendix2_guards():
    with pytest.raises(ResonanceError):
        fuchsian.appendix2_recursion("IRR1", np.eye(2), [np.eye(2)], 1)
    with pytest.raises(ValueError):
        fuchsian.appendix2_recursion("IRR2", np.diag([1.0, -1.0]),
                                     [np.eye(2)] * 3, 2)  # no x
    with pytest.raises(ValueError, match="x must be nonzero"):
        fuchsian.appendix2_recursion("IRR2", np.diag([1.0, -1.0]),
                                     [np.eye(2)] * 3, 2, x=0)  # divides by x^2
    with pytest.raises(ValueError):
        fuchsian.appendix2_recursion("IRR9", np.diag([1.0, -1.0]), [np.eye(2)], 1)
