"""Scalar special functions, principal-branch powers, 2x2 matrices."""

import cmath
import copy
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvilab.monodromy import build_case_b
from pvilab.numerics import (Mat2, PoleError, SIGMA3, SingularMatrixError, _diag, clog,
                             cpow, det2, digamma, gamma, inv2, mat2, tr2)

finite = st.floats(min_value=-30.0, max_value=30.0,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_gamma_matches_mpmath(re, im):
    z = complex(re, im)
    if abs(z.imag) < 1e-3 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-3:
        return  # too close to the pole line for a fair comparison
    ref = complex(mpmath.gamma(mpmath.mpc(z)))
    got = gamma(z)
    assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_digamma_matches_mpmath(re, im):
    z = complex(re, im)
    if abs(z.imag) < 1e-3 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-3:
        return
    ref = complex(mpmath.digamma(mpmath.mpc(z)))
    got = digamma(z)
    assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


def test_gamma_pole_raises():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0 + 1e-12j)
    with pytest.raises(PoleError):
        digamma(-1.0)


def test_gamma_functional_equation():
    for z in (0.3 + 0.7j, -2.4 + 0.1j, 5.5, 1e-3 + 1e-3j):
        assert abs(gamma(z + 1.0) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1.0))


def test_clog_branches():
    """The principal branch, arg in (-pi, pi]: just below the cut arg tends
    to -pi, but on the cut's lower edge, -2 - 0i, where cmath.phase gives
    -pi, it is +pi."""
    assert clog(-1.0 - 1e-9j).imag == pytest.approx(-math.pi, abs=1e-8)
    assert cmath.phase(complex(-2.0, -0.0)) == -math.pi
    assert clog(complex(-2.0, -0.0)).imag == math.pi


def test_cpow_branch_consistency():
    # both zeros of the negative real axis take the upper edge of the cut
    for w in (0.3 + 0.1j, -0.7, 1.0 + 0.5j):
        below, above = cpow(complex(-2.0, -0.0), w), cpow(complex(-2.0, 0.0), w)
        assert (below.real, below.imag) == (above.real, above.imag)


def test_cpow_at_zero():
    assert cpow(0.0, 2.0) == 0.0
    assert cpow(0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        cpow(0.0, -1.0)


def test_inv2_and_det2():
    m = mat2(1.0 + 2j, 0.5, -0.3j, 2.0)
    assert np.max(np.abs(m @ inv2(m) - np.eye(2))) < 1e-14
    assert det2(m) == pytest.approx(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    with pytest.raises(SingularMatrixError):
        inv2(mat2(1.0, 2.0, 2.0, 4.0))


def test_exp_diag_sigma3():
    th = 0.31 + 0.07j
    m = _diag(th)
    assert abs(m[0, 0] - cmath.exp(1j * math.pi * th)) < 1e-15
    assert abs(m[0, 0] * m[1, 1] - 1.0) < 1e-15
    assert m[0, 1] == m[1, 0] == 0
    assert np.max(np.abs(SIGMA3 @ SIGMA3 - np.eye(2))) == 0


def test_mat2_algebra_matches_numpy():
    a, b = mat2(1.0 + 2j, 0.5, -0.3j, 2.0), mat2(0.2, -1.1j, 3.0, 0.7 + 0.1j)
    na, nb = np.asarray(a), np.asarray(b)
    for got, want in ((a @ b, na @ nb), (a + b, na + nb), (a - b, na - nb), (-a, -na),
                      (a * 1.5j, na * 1.5j), (2 * a, 2 * na), (a / (1 - 2j), na / (1 - 2j))):
        assert type(got) is Mat2
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-15 * np.max(np.abs(want))
    assert [a[i, j] for i in range(2) for j in range(2)] == list(na.ravel())
    assert a[-1, -1] == a[1, 1]
    with pytest.raises(AttributeError):
        a.e = (0j, 0j, 0j, 0j)
    assert copy.deepcopy(a).e == a.e
    # any other operand is left to its own type
    assert a.__matmul__(na) is NotImplemented and a.__add__(na) is NotImplemented
    assert a.__mul__(na) is NotImplemented and a.__add__(1.0) is NotImplemented


def test_mat2_supports_the_benchmark_operations():
    """What the frozen benchmark does to library matrices: convert them,
    multiply by a numpy diagonal and by scalars, take |m|.max(), replace a
    representation's matrix, and take tr2 / det2 of both types."""
    rep = build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0)
    m = rep.M1
    assert np.asarray(m).shape == (2, 2) and np.asarray(m).dtype == complex
    prod = m @ np.diag([1.0 + 1e-6, 1.0 / (1.0 + 1e-6)])
    assert type(prod) is np.ndarray
    assert np.max(np.abs(prod - np.asarray(m) @ np.diag([1.0 + 1e-6, 1.0 / (1.0 + 1e-6)]))) == 0
    assert type(m * 1.5) is Mat2 and (m * 1.5).e == tuple(v * 1.5 for v in m.e)
    assert float(np.abs(m).max()) == max(abs(v) for v in m.e)
    r2 = dataclasses.replace(rep, M1=rep.M1 * 2)
    assert type(r2.M1) is Mat2 and r2.M1[0, 0] == 2 * rep.M1[0, 0] and r2.Mx is rep.Mx
    assert np.array_equal(m, np.asarray(m))
    for x in (m, np.asarray(m)):
        assert tr2(x) == m[0, 0] + m[1, 1]
        assert det2(x) == m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
