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
    mg = fuchsian.loop_monodromy(sys_a.conjugated(c), x, 1.0, tol=1e-12)
    assert np.max(np.abs(mg - c @ m @ inv2(c))) < 1e-10


def test_reversed_loop_is_the_inverse(sys_a):
    x = 1e-2
    ccw = fuchsian.transport(sys_a, x, fuchsian.Loop(1.0, 0.2), tol=1e-12)
    cw = fuchsian.transport(sys_a, x, fuchsian.Loop(1.0, 0.2, orientation=-1),
                            tol=1e-12)
    assert np.max(np.abs(cw @ ccw - np.eye(2))) < 1e-10


def test_transport_determinant(sys_a):
    # det Psi solves d(det)/d lambda = tr A det; around lambda = 0 the loop
    # multiplies it by exp(2 pi i tr A0)
    x = 1e-2
    m = fuchsian.loop_monodromy(sys_a, x, 0.0, tol=1e-12)
    want = cmath.exp(2j * math.pi * tr2(sys_a.residue("0", x)))
    assert abs(det2(m) - want) < 1e-10


def test_basepoint_loop_is_conjugated_plain_loop(sys_a):
    """Legs in from and out to a basepoint conjugate the plain loop by the
    transport U along the leg."""
    x, c, r, b = 1e-2, 1.0, 0.2, 1.5 + 0.1j
    m = fuchsian.transport(sys_a, x, fuchsian.Loop(c, r), tol=1e-12)
    u = fuchsian.transport(sys_a, x, [b, c + r], tol=1e-12)
    mb = fuchsian.transport(sys_a, x, fuchsian.Loop(c, r, basepoint=b), tol=1e-12)
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
    for x in (0.0, 1.0):
        with pytest.raises(ValueError, match="x = "):
            fuchsian.loop_monodromy(sys_a, x, 1.0)
    for r in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            fuchsian.transport(sys_a, 1e-2, fuchsian.Loop(1.0, r))
    # x = 1e-300 gives the loop about 1 a radius of 3.3e-301, and 1 + r == 1
    # would put lambda on the pole
    with pytest.raises(ValueError, match=r"3\.3+\d*e-301 .*center \(1\+0j\)"):
        fuchsian.loop_monodromy(sys_a, 1e-300, 1.0)
    with pytest.raises(ValueError, match="vanishes"):
        fuchsian.transport(sys_a, 1e-2, fuchsian.Loop(2.0 + 1.0j, 1e-17))


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
