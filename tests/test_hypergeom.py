"""Hypergeometric series, reductions, connection matrices, and oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from pvilab import hypergeom
from pvilab.hypergeom import (GaussParams, connection_matrix,
                              connection_oracle, gauss_f, gauss_f_deriv,
                              kummer_bases, norlund_g1, ode_transport,
                              poch, reduction_matrices,
                              xi_from_phi)
from pvilab.numerics import det2, gamma, tr2
from pvilab.pvi import ResonanceError, ThetaParams, _theta_draw

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


@pytest.mark.parametrize("z", [0.3, -0.6, 0.5 + 0.4j, 0.95, -3.0, 0.5 + 0.6j])
def test_gauss_f_matches_mpmath(z):
    al, be, ga = 0.37, -0.82, 1.41
    ref = complex(mpmath.hyp2f1(al, be, ga, mpmath.mpc(z)))
    assert abs(gauss_f(al, be, ga, z) - ref) < 1e-12 * (1.0 + abs(ref))


def test_gauss_f_deriv_matches_mpmath():
    al, be, ga, z = 0.37, -0.82, 1.41, 0.3 + 0.2j
    h = 1e-6
    fd = (gauss_f(al, be, ga, z + h) - gauss_f(al, be, ga, z - h)) / (2.0 * h)
    assert abs(gauss_f_deriv(al, be, ga, z) - fd) < 1e-8


def test_gauss_f_nonpositive_gamma_raises():
    with pytest.raises(ResonanceError):
        gauss_f(0.3, 0.4, -2.0, 0.1)


def test_poch_negative_index():
    q = 0.7
    assert abs(poch(q, -2) - 1.0 / ((q - 1.0) * (q - 2.0))) < 1e-15
    assert poch(q, 0) == 1.0


def test_norlund_g1_satisfies_the_ode():
    u, v, w = 0.37, 0.83, 3
    z = -0.3
    h = 1e-5
    f, fp = norlund_g1(u, v, w, z)
    fpp = (norlund_g1(u, v, w, z + h)[1]
           - norlund_g1(u, v, w, z - h)[1]) / (2.0 * h)
    res = z * (1.0 - z) * fpp + (w - (u + v + 1.0) * z) * fp - u * v * f
    assert abs(res) < 1e-3


def test_norlund_g1_guards():
    with pytest.raises(ValueError):
        norlund_g1(0.3, 0.4, 0, -0.2)
    with pytest.raises(ValueError):
        norlund_g1(0.3, 0.4, 2, -1.5)


def test_reduction_eigenvalue_invariants():
    a, b, c, r = 0.37, -0.61, 0.83, 1.1
    B0, B1 = reduction_matrices(1, a=a, b=b, c=c, r=r)
    # spectra {0, -c} and {0, c-a-b}: check via trace and determinant
    assert abs(np.trace(B0) + c) < 1e-12
    assert abs(np.linalg.det(B0)) < 1e-12
    assert abs(np.trace(B1) - (c - a - b)) < 1e-12
    assert abs(np.linalg.det(B1)) < 1e-12
    s = B0 + B1
    assert abs(s[0, 0] + a) < 1e-12 and abs(s[1, 1] + b) < 1e-12
    assert abs(s[0, 1]) < 1e-12 and abs(s[1, 0]) < 1e-12


@pytest.mark.parametrize("case,kw", [
    (1, dict(a=0.37, b=-0.61, c=0.83, r=1.1)),
    (2, dict(a=0.0, b=-0.61, c=0.83, r=1.1)),
    (3, dict(a=0.37, b=0.0, c=0.83, r=1.1)),
    (4, dict(a=0.83, b=-0.61, c=0.83, r=1.1)),
    (5, dict(a=0.37, b=0.83, c=0.83, r=1.1)),
    (6, dict(a=0.83, b=0.83, c=0.83, r=1.1, s=0.4)),
    (7, dict(a=0.0, b=0.0, c=0.83, r=1.1, s=0.4)),
    (8, dict(a=0.37, b=0.37, c=0.83, r=-0.37)),
])
def test_xi_map_closes_the_first_row(case, kw):
    """For an arbitrary jet (phi, phi'), the printed second component must
    satisfy the first row of dY/dz = [B0/z + B1/(z-1)] Y exactly."""
    z = 0.37 + 0.21j
    phi, dphi = 1.3 - 0.4j, 0.7 + 0.2j
    B0, B1 = reduction_matrices(case, **kw)
    xi = xi_from_phi(case, phi, dphi, z, **kw)
    A = B0 / z + B1 / (z - 1.0)
    assert abs(A[0, 0] * phi + A[0, 1] * xi - dphi) < 1e-13


def test_xi_from_phi_case8_requires_jordan_r():
    with pytest.raises(ValueError):
        xi_from_phi(8, 1.0, 0.0, 0.3, a=0.4, c=0.7, r=0.1)
    # the triangular Jordan cases have no Gauss form: loop transport is the oracle
    for case in (9, 10):
        with pytest.raises(ValueError, match="fuchsian.transport"):
            xi_from_phi(case, 1.0, 0.0, 0.3, a=0.4, c=0.7, r=0.9)


def test_connection_matrix_vs_oracle_c01c():
    got = connection_matrix("C01c", TH)
    ref = connection_oracle("C01c", TH)
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("which", ["C0inf", "C01"])
def test_connection_oracle_flips_th1(which):
    got = connection_matrix(which, TH, flip_th1=True)
    ref = connection_oracle(which, TH, flip_th1=True)
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))
    assert np.max(np.abs(got - connection_oracle(which, TH))) > 1e-2 * np.max(np.abs(ref))


def test_reducible_u_matches_mpmath():
    # u = F(2 - thinf, 1 + thx; c; x) + a x^{1-c} F(th1 + 1, -th0; 2 - c; x),
    # c = 2 - thinf - th1, on a vanishing theta sum
    t0, tx, t1 = 0.23, -0.41, 0.17
    ti = -(t0 + tx + t1)
    a, x = 0.6 - 0.3j, 0.35 + 0.1j
    c = 2.0 - ti - t1
    ref = lambda z: (mpmath.hyp2f1(2.0 - ti, 1.0 + tx, c, z)
                     + a * z ** (1.0 - c) * mpmath.hyp2f1(t1 + 1.0, -t0, 2.0 - c, z))
    u, du = hypergeom.reducible_u(ThetaParams(t0, tx, t1, ti), a, x)
    assert type(u) is complex and type(du) is complex
    assert abs(u - complex(ref(x))) < 1e-13
    assert abs(du - complex(mpmath.diff(ref, mpmath.mpc(x)))) < 1e-12


@pytest.mark.parametrize("flip_th1,th1,sign", [(False, 0.44, "-"), (True, -0.44, "+")])
def test_connection_oracle_names_an_integer_thinf_minus_th1(flip_th1, th1, sign):
    # the basis at infinity is logarithmic; the closed form has a Gamma pole there
    theta = ThetaParams(0.23, 0.57, th1, 0.44)
    with pytest.raises(ResonanceError, match=rf"^C0inf: integer thinf \{sign} th1 = 0: "
                                             "the basis at infinity is logarithmic$"):
        connection_oracle("C0inf", theta, flip_th1=flip_th1)
    with pytest.raises(ResonanceError, match="^C0inf: "):
        connection_matrix("C0inf", theta, flip_th1=flip_th1)


@pytest.mark.parametrize("which,theta,reason", [
    ("C01", (0.23, 1.0, 0.31, 0.44), "integer thx = 1: the basis at 1 is logarithmic"),
    ("C01", (0.23, 0.0, 0.31, 0.44), "integer thx = 0: the basis at 1 is logarithmic"),
    ("C01c", (0.23, 1.0, 0.0, 1.0), "integer thx = 1: the basis at 1 is logarithmic"),
    ("Cinf0", (0.5, 0.5, 0.0, 1.0), "odd integer th0 \\+- thx: Norlund's frame at infinity degenerates"),
])
def test_connection_oracle_names_a_logarithmic_basis_at_1_or_infinity(monkeypatch, which, theta,
                                                                      reason):
    """Where the closed form has a Gamma pole and a basis at 1 or at infinity
    breaks down, the oracle raises ResonanceError naming the matrix before it
    forms a frame.  Unguarded, the frames raised an unnamed ResonanceError,
    SingularMatrixError or ZeroDivisionError."""
    theta = ThetaParams(*theta)
    with pytest.raises(ResonanceError, match=f"^{which}: "):
        connection_matrix(which, theta)
    monkeypatch.setattr(hypergeom, "_frame", lambda *a: pytest.fail("a frame was formed"))
    with pytest.raises(ResonanceError, match=f"^{which}: {reason}$"):
        connection_oracle(which, theta)


def test_connection_matrix_resonance_raises():
    with pytest.raises(ResonanceError):
        connection_matrix("C01", ThetaParams(0.23, 1.0, 0.31, 0.44))


def _written_out(which, theta, flip_th1):
    """The connection matrices with every Gamma factor evaluated where it
    appears: the reference the Gamma table must reproduce bit for bit."""
    g, mat2 = gamma, lambda *c: np.array([[c[0], c[1]], [c[2], c[3]]], dtype=complex)

    def eip(q):
        return cmath.exp(0.5j * math.pi * q)

    t0, tx, t1, ti = theta.as_tuple()
    if flip_th1:
        t1 = -t1
    if which == "C0inf":
        p = t1 - ti
        c11 = (g(1.0 + p) * g(1.0 + t0) * eip(t0 + tx + ti - t1)
               / (g(t0 / 2 + tx / 2 + t1 / 2 - ti / 2 + 1.0) * g(t0 / 2 - tx / 2 + t1 / 2 - ti / 2 + 1.0)))
        c12 = (g(1.0 + p) * g(1.0 - t0) * eip(tx - t0 + ti - t1)
               / (g(-t0 / 2 - tx / 2 - ti / 2 + t1 / 2 + 1.0) * g(tx / 2 - t0 / 2 + t1 / 2 - ti / 2 + 1.0)))
        c21 = (-g(-p - 1.0) * g(1.0 + t0) * eip(t0 + tx + t1 - ti)
               / (g(t0 / 2 + tx / 2 + ti / 2 - t1 / 2) * g(t0 / 2 - tx / 2 + ti / 2 - t1 / 2)))
        c22 = (-g(-p - 1.0) * g(1.0 - t0) * eip(tx - t0 + t1 - ti)
               / (g(-t0 / 2 - tx / 2 - t1 / 2 + ti / 2) * g(tx / 2 - t0 / 2 + ti / 2 - t1 / 2)))
        return mat2(c11, c12, c21, c22)
    if which == "C01":
        c11 = (g(-tx) * g(1.0 + t0)
               / (g(t0 / 2 - tx / 2 + t1 / 2 - ti / 2 + 1.0) * g(t0 / 2 - tx / 2 + ti / 2 - t1 / 2)))
        c12 = (g(-tx) * g(1.0 - t0)
               / (g(-t0 / 2 - tx / 2 - ti / 2 + t1 / 2 + 1.0) * g(-t0 / 2 - tx / 2 - t1 / 2 + ti / 2)))
        c21 = (g(tx) * g(1.0 + t0)
               / (g(t0 / 2 + tx / 2 + ti / 2 - t1 / 2) * g(t0 / 2 + tx / 2 + t1 / 2 - ti / 2 + 1.0)))
        c22 = (g(tx) * g(1.0 - t0)
               / (g(tx / 2 - t0 / 2 + ti / 2 - t1 / 2) * g(tx / 2 - t0 / 2 + t1 / 2 - ti / 2 + 1.0)))
        return mat2(c11, c12, c21, c22)
    if which == "Cinf0":
        c12 = (g(-t0) * cmath.exp(-1j * math.pi * (t0 / 2 + tx / 2 + 1.5))
               / (g(-t0 / 2 - tx / 2 + 1.5) * g(-t0 / 2 + tx / 2 + 1.5)))
        c21 = (-g(-t0 / 2 - tx / 2 - 0.5) * g(-t0 / 2 + tx / 2 - 0.5)
               / (g(1.0 - t0) * cmath.exp(-1j * math.pi * (t0 / 2 - tx / 2 - 1.5))))
        c22 = (g(t0) * cmath.exp(-1j * math.pi * (-t0 / 2 + tx / 2 + 1.5))
               / (g(t0 / 2 - tx / 2 + 1.5) * g(t0 / 2 + tx / 2 + 1.5)))
        return 2.0 * mat2(0.0, c12, c21, c22)
    c11 = g(-tx) * g(1.0 + t0) / (g(t0 / 2 - tx / 2 + 1.5) * g(t0 / 2 - tx / 2 - 0.5))
    c12 = g(-tx) * g(1.0 - t0) / (g(-t0 / 2 - tx / 2 + 1.5) * g(-t0 / 2 - tx / 2 - 0.5))
    c21 = g(tx) * g(1.0 + t0) / (g(t0 / 2 + tx / 2 + 1.5) * g(t0 / 2 + tx / 2 - 0.5))
    c22 = g(tx) * g(1.0 - t0) / (g(-t0 / 2 + tx / 2 + 1.5) * g(-t0 / 2 + tx / 2 - 0.5))
    return mat2(c11, c12, c21, c22)


@pytest.mark.parametrize("flip_th1", [False, True])
@pytest.mark.parametrize("which", ["C0inf", "C01", "Cinf0", "C01c"])
def test_connection_matrix_keeps_the_written_out_bits(which, flip_th1):
    rng = np.random.default_rng(23)
    for k in range(50):
        th = _theta_draw(rng)
        if k % 2:
            th = ThetaParams(*(t + 1j * rng.uniform(-0.3, 0.3) for t in th.as_tuple()))
        got = connection_matrix(which, th, flip_th1=flip_th1)
        assert np.asarray(got).tobytes() == _written_out(which, th, flip_th1).tobytes()


def test_gamma_pole_names_the_matrix():
    # Gamma(-1) is a factor of C01c alone, and of Cinf0 as well; each names itself
    th = ThetaParams(0.5, 0.5, 0.0, 1.0)
    for which in ("C01c", "Cinf0"):
        with pytest.raises(ResonanceError, match=f"^{which}: connection-matrix Gamma pole: "
                                                 r"Gamma pole at z = \(-1\+0j\)$"):
            connection_matrix(which, th)


def test_ode_transport_reproduces_series():
    p = GaussParams(0.37, -0.61, 1.41)
    z0, z1 = 0.2, 0.5

    def frame(z):
        return np.array([[gauss_f(p.alpha, p.beta, p.gamma, z), 0.0],
                         [gauss_f_deriv(p.alpha, p.beta, p.gamma, z), 1.0]],
                        dtype=complex)

    got = ode_transport(p, z0, frame(z0), [z1], tol=1e-13)
    assert abs(got[0, 0] - frame(z1)[0, 0]) < 1e-11


KUMMER = GaussParams(0.37 + 0.1j, -0.61, 1.41)
# Cinf0's Gauss parameters: b - a = 2, so the frame at infinity is logarithmic
UNIPOTENT = hypergeom._gauss_params("Cinf0", TH)


@pytest.mark.parametrize("p, frame, z0, z1", [
    (KUMMER, 0, 0.3, 0.5 + 0.2j),
    (KUMMER, 1, 0.7, 0.55 + 0.2j),
    (KUMMER, 2, 2.0j, 1.5 + 1.5j),
    (UNIPOTENT, 0, 0.3, 0.5 + 0.2j),
    (UNIPOTENT, 1, 0.7, 0.55 + 0.2j),
    (UNIPOTENT, "norlund", 2.0j, 1.5 + 1.5j),
])
def test_local_frames_solve_the_gauss_equation(p, frame, z0, z1):
    """Each local frame, carried by ODE transport, must match itself at the
    endpoint: value and derivative columns solve the same Gauss equation."""
    at = hypergeom._norlund_atinf(p) if frame == "norlund" else kummer_bases(p)[frame]
    got = ode_transport(p, z0, at(z0), [z1], tol=1e-13)
    want = at(z1)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("case", [2, 9, 10])
def test_reduction_loop_monodromy_exponents(case):
    """Loop transport of a reduction system around 0 and around 1 must carry
    the residue's exponents: det M = exp(2 pi i tr B), and tr M is the sum
    of exp(2 pi i eigenvalue)."""
    from pvilab import fuchsian

    B0, B1 = reduction_matrices(case, a=0.4, b=0.4, c=0.7, r=0.9)

    def cell(v):
        return ((0, complex(v)),) if v != 0 else ()

    entries = {k: tuple(tuple(cell(M[i][j]) for j in range(2)) for i in range(2))
               for k, M in (("0", B0), ("x", np.zeros((2, 2))), ("1", B1))}
    ls = fuchsian.LinearSystem(ThetaParams(0.0, 0.0, 0.0, 0.0), "reduction", entries)
    for center, B in ((0.0, B0), (1.0, B1)):
        m = fuchsian.transport(ls, 0.5, fuchsian.Loop(center, 0.15), tol=1e-12)
        assert abs(det2(m) - cmath.exp(2j * math.pi * np.trace(B))) < 1e-10
        want = sum(cmath.exp(2j * math.pi * e) for e in np.linalg.eigvals(B))
        assert abs(tr2(m) - want) < 1e-10
