"""Gauss hypergeometric machinery: series, logarithmic second solutions,
2x2 first-order reductions, and the closed-form connection matrices.

The connection matrices are pure Gamma/exponential products.  An
independent numeric oracle lives here too, so the closed forms are never
trusted on faith: one builder, `kummer_bases`, gives Kummer's local solution
bases at 0, 1 and infinity from the Gauss parameters (a, b, c) alone, and
ODE transport carries them between the singular points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .integrate import dp45
from .numerics import PoleError, clog, cpow, gamma, digamma, inv2, mat2
from .pvi import ThetaParams, ResonanceError, is_int

__all__ = [
    "GaussParams",
    "gauss_f",
    "gauss_f_deriv",
    "norlund_g1",
    "reduction_matrices",
    "xi_from_phi",
    "connection_matrix",
    "connection_oracle",
    "kummer_bases",
    "ode_transport",
    "reducible_u",
    "poch",
]


@dataclass(frozen=True)
class GaussParams:
    """Parameters of z(1-z) f'' + [gamma - (alpha+beta+1) z] f' - alpha beta f = 0.

    Not the PVI coefficients: just the classical (alpha, beta, gamma).
    """

    alpha: complex
    beta: complex
    gamma: complex


def poch(q: complex, n: int) -> complex:
    """Pochhammer (q)_n, n any integer; (q)_{-n} = 1/((q-1)...(q-n))."""
    if n >= 0:
        out = 1.0 + 0.0j
        for k in range(n):
            out *= q + k
        return out
    out = 1.0 + 0.0j
    for k in range(1, -n + 1):
        out /= q - k
    return out


def gauss_f(alpha, beta, gamma_, z) -> complex:
    """2F1(alpha, beta; gamma; z) by direct series (with a Pfaff fallback)."""
    if is_int(gamma_) and complex(gamma_).real < 0.5:
        raise ResonanceError(f"gamma = {gamma_} non-positive integer: series undefined")
    z = complex(z)
    if abs(z) > 0.8:
        w = z / (z - 1.0)
        if abs(w) <= 0.8:
            # Pfaff: F(a,b,c;z) = (1-z)^{-a} F(a, c-b, c; z/(z-1))
            return cpow(1.0 - z, -alpha) * gauss_f(alpha, gamma_ - beta, gamma_, w)
        if abs(1.0 - z) <= 0.8 and not is_int(gamma_ - alpha - beta):
            # principal branches; valid off the cut [1, +inf)
            e = gamma_ - alpha - beta
            t1 = (gamma(gamma_) * gamma(e) / (gamma(gamma_ - alpha) * gamma(gamma_ - beta))
                  * gauss_f(alpha, beta, 1.0 - e, 1.0 - z))
            t2 = (gamma(gamma_) * gamma(-e) / (gamma(alpha) * gamma(beta))
                  * cpow(1.0 - z, e)
                  * gauss_f(gamma_ - alpha, gamma_ - beta, e + 1.0, 1.0 - z))
            return t1 + t2
        raise ValueError(f"|z| = {abs(z):.3f}: outside the series/Pfaff domain; "
                         "use ode_transport for analytic continuation")
    term = 1.0 + 0.0j
    acc = term
    for n in range(4000):
        term *= (alpha + n) * (beta + n) / ((gamma_ + n) * (n + 1.0)) * z
        acc += term
        if abs(term) < 1e-16 * (1.0 + abs(acc)):
            return acc
    raise RuntimeError("hypergeometric series did not converge")


def gauss_f_deriv(alpha, beta, gamma_, z) -> complex:
    return alpha * beta / gamma_ * gauss_f(alpha + 1.0, beta + 1.0, gamma_ + 1.0, z)


def norlund_g1(u, v, w: int, z, ln_minus_z=None):
    """Norlund's logarithmic solution g1(u, v, w; z), w a positive integer,
    and its z-derivative, as the pair (g1, g1').

    g1 = sum_{n=1}^{w-1} (-1)^{n-1} (n-1)! (u)_{-n}(v)_{-n}/(w)_{-n} z^{-n}
         + F(u,v,w;z) ln(-z)
         + sum_{n>=0} (u)_n (v)_n / (n! (w)_n)
             [psi(1-u-n) + psi(v+n) - psi(w+n) - psi(1+n)] z^n,   |z| < 1.

    ln_minus_z overrides the branch of ln(-z); default is the principal
    value of log(-z) (negative real for -1 < z < 0).
    """
    if not (isinstance(w, int) or (is_int(w) and complex(w).real > 0)):
        raise ValueError("w must be a positive integer")
    w = int(round(complex(w).real))
    if w < 1:
        raise ValueError("w must be >= 1")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("g1 series requires |z| < 1")
    acc = dacc = 0.0 + 0.0j
    sign = 1.0
    for n in range(1, w):
        t = sign * math.factorial(n - 1) * poch(u, -n) * poch(v, -n) / poch(w, -n) * z ** (-n)
        acc += t
        dacc -= n * t / z
        sign = -sign
    if ln_minus_z is None:
        ln_minus_z = cmath.log(-z)
    f = gauss_f(u, v, w, z)
    acc += f * ln_minus_z
    dacc += gauss_f_deriv(u, v, w, z) * ln_minus_z + f / z
    coeff = 1.0 + 0.0j
    psum = dsum = 0.0 + 0.0j
    for n in range(4000):
        term = coeff * (digamma(1.0 - u - n) + digamma(v + n) - digamma(w + n) - digamma(1.0 + n))
        psum += term * z ** n
        dsum += term * n * z ** (n - 1)
        # stop once both tails are negligible
        if (n > 2 and abs(term * z ** n) < 1e-16 * (1.0 + abs(psum))
                and abs(term) * abs(z) ** (n - 1) * n < 1e-16 * (1.0 + abs(dsum))):
            break
        coeff *= (u + n) * (v + n) / ((n + 1.0) * (w + n))
    return acc + psum, dacc + dsum


# ----------------------------------------------------------------------
# first-order 2x2 reductions dY/dz = [B0/z + B1/(z-1)] Y
#
# Eigenvalues: B0 ~ {0, -c}, B1 ~ {0, c-a-b}; B0+B1 is diag(-a,-b) for the
# generic case and a Jordan block for cases 8-10.


def reduction_matrices(case: int, a=0.0, b=0.0, c=0.0, r=1.0, s=0.0):
    a, b, c, r, s = (complex(v) for v in (a, b, c, r, s))
    if case == 1:
        if abs(a - b) < 1e-12 or r == 0:
            raise ValueError("case 1 needs a != b, r != 0")
        B0 = mat2(a * (b - c) / (a - b), r,
                  a * b * (a - c) * (c - b) / (r * (a - b) ** 2), b * (c - a) / (a - b))
        B1 = mat2(a * (c - a) / (a - b), -r,
                  -a * b * (a - c) * (c - b) / (r * (a - b) ** 2), b * (b - c) / (a - b))
        return B0, B1
    if case == 2:  # a = 0
        return mat2(0, r, 0, -c), mat2(0, -r, 0, c - b)
    if case == 3:  # b = 0
        return mat2(-c, r, 0, 0), mat2(c - a, -r, 0, 0)
    if case == 4:  # a = c != b
        return mat2(-a, r, 0, 0), mat2(0, -r, 0, -b)
    if case == 5:  # b = c != a
        return mat2(0, r, 0, -b), mat2(-a, -r, 0, 0)
    if case == 6:  # a = b = c
        B0 = mat2(-c - s, r, -s * (c + s) / r, s)
        B1 = mat2(s, -r, s * (c + s) / r, -c - s)
        return B0, B1
    if case == 7:  # a = b = 0
        B0 = mat2(-c - s, r, -s * (c + s) / r, s)
        return B0, -B0
    if case == 8:  # Jordan, a = b, a != 0, a != c
        B0 = mat2(r, r * (r + c) / (a * (a - c)), a * (c - a), -c - r)
        B1 = mat2(-a - r, 1.0 - r * (r + c) / (a * (a - c)), a * (a - c), c - a + r)
        return B0, B1
    if case == 9:  # Jordan, a = b = 0 side
        return mat2(0, r, 0, -c), mat2(-a, 1.0 - r, 0, -a + c)
    if case == 10:
        return mat2(-c, r, 0, 0), mat2(c - a, 1.0 - r, 0, -a)
    raise ValueError(f"unknown reduction case {case}")


def xi_from_phi(case: int, phi, dphi, z, a=0.0, b=0.0, c=0.0, r=1.0, s=0.0):
    """Second component of Y = (phi, xi) for the Gauss-reducible cases."""
    a, b, c, r, s, z = (complex(v) for v in (a, b, c, r, s, z))
    zz1 = z * (1.0 - z)
    if case in (1, 4, 5):
        if abs(a - b) < 1e-12:
            raise ValueError("a != b required")
        return (zz1 * dphi - a * (z + (b - c) / (a - b)) * phi) / r
    if case == 2:  # a = 0: the phi-coefficient drops out
        return zz1 * dphi / r
    if case == 3:  # b = 0
        return (zz1 * dphi - (a * z - c) * phi) / r
    if case == 6:
        return (zz1 * dphi + (c + s - c * z) * phi) / r
    if case == 7:
        return (zz1 * dphi + (c + s) * phi) / r
    if case == 8:
        if abs(r + a) > 1e-12:
            raise ValueError("case 8 is Gauss-reducible only for r = -a")
        return z * dphi + a * phi
    raise ValueError(f"case {case} has no Gauss hypergeometric form; use "
                     "fuchsian.transport on the reduction_matrices system")


# ----------------------------------------------------------------------
# closed-form connection matrices


def _g(z):
    try:
        return gamma(z)
    except PoleError as e:
        raise ResonanceError(f"connection-matrix Gamma pole: {e}") from e


def _eip(q):
    """e^{i pi q / 2}."""
    return cmath.exp(0.5j * math.pi * q)


def connection_matrix(which: str, theta: ThetaParams, flip_th1=False) -> np.ndarray:
    """The four Gamma-product connection matrices.

    which: "C0inf" | "C01" (diagonalizable-at-1 constructions, optionally
    with th1 -> -th1 via flip_th1) or "Cinf0" | "C01c" (the unipotent
    construction, which only involves th0 and thx).
    """
    t0, tx, t1, ti = theta.as_tuple()
    if flip_th1:
        t1 = -t1
    if which == "C0inf":
        # row prefactors Gamma(1 + th1 - thinf), Gamma(thinf - th1 - 1): the
        # full exponent difference of the basis at infinity (see notes on the
        # half-angle slip in the printed form)
        p = t1 - ti
        c11 = (_g(1.0 + p) * _g(1.0 + t0) * _eip(t0 + tx + ti - t1)
               / (_g(t0 / 2 + tx / 2 + t1 / 2 - ti / 2 + 1.0) * _g(t0 / 2 - tx / 2 + t1 / 2 - ti / 2 + 1.0)))
        c12 = (_g(1.0 + p) * _g(1.0 - t0) * _eip(tx - t0 + ti - t1)
               / (_g(-t0 / 2 - tx / 2 - ti / 2 + t1 / 2 + 1.0) * _g(tx / 2 - t0 / 2 + t1 / 2 - ti / 2 + 1.0)))
        c21 = (-_g(-p - 1.0) * _g(1.0 + t0) * _eip(t0 + tx + t1 - ti)
               / (_g(t0 / 2 + tx / 2 + ti / 2 - t1 / 2) * _g(t0 / 2 - tx / 2 + ti / 2 - t1 / 2)))
        c22 = (-_g(-p - 1.0) * _g(1.0 - t0) * _eip(tx - t0 + t1 - ti)
               / (_g(-t0 / 2 - tx / 2 - t1 / 2 + ti / 2) * _g(tx / 2 - t0 / 2 + ti / 2 - t1 / 2)))
        return mat2(c11, c12, c21, c22)
    if which == "C01":
        c11 = (_g(-tx) * _g(1.0 + t0)
               / (_g(t0 / 2 - tx / 2 + t1 / 2 - ti / 2 + 1.0) * _g(t0 / 2 - tx / 2 + ti / 2 - t1 / 2)))
        c12 = (_g(-tx) * _g(1.0 - t0)
               / (_g(-t0 / 2 - tx / 2 - ti / 2 + t1 / 2 + 1.0) * _g(-t0 / 2 - tx / 2 - t1 / 2 + ti / 2)))
        c21 = (_g(tx) * _g(1.0 + t0)
               / (_g(t0 / 2 + tx / 2 + ti / 2 - t1 / 2) * _g(t0 / 2 + tx / 2 + t1 / 2 - ti / 2 + 1.0)))
        c22 = (_g(tx) * _g(1.0 - t0)
               / (_g(tx / 2 - t0 / 2 + ti / 2 - t1 / 2) * _g(tx / 2 - t0 / 2 + t1 / 2 - ti / 2 + 1.0)))
        return mat2(c11, c12, c21, c22)
    if which == "Cinf0":
        c12 = (_g(-t0) * cmath.exp(-1j * math.pi * (t0 / 2 + tx / 2 + 1.5))
               / (_g(-t0 / 2 - tx / 2 + 1.5) * _g(-t0 / 2 + tx / 2 + 1.5)))
        c21 = (-_g(-t0 / 2 - tx / 2 - 0.5) * _g(-t0 / 2 + tx / 2 - 0.5)
               / (_g(1.0 - t0) * cmath.exp(-1j * math.pi * (t0 / 2 - tx / 2 - 1.5))))
        c22 = (_g(t0) * cmath.exp(-1j * math.pi * (-t0 / 2 + tx / 2 + 1.5))
               / (_g(t0 / 2 - tx / 2 + 1.5) * _g(t0 / 2 + tx / 2 + 1.5)))
        return 2.0 * mat2(0.0, c12, c21, c22)
    if which == "C01c":
        c11 = _g(-tx) * _g(1.0 + t0) / (_g(t0 / 2 - tx / 2 + 1.5) * _g(t0 / 2 - tx / 2 - 0.5))
        c12 = _g(-tx) * _g(1.0 - t0) / (_g(-t0 / 2 - tx / 2 + 1.5) * _g(-t0 / 2 - tx / 2 - 0.5))
        # (2,1) denominator Gamma(th0/2 + thx/2 - 1/2): the standard 0-1
        # connection coefficient 1/[Gamma(alpha) Gamma(beta)] (see notes on
        # the sign slip in the printed form)
        c21 = _g(tx) * _g(1.0 + t0) / (_g(t0 / 2 + tx / 2 + 1.5) * _g(t0 / 2 + tx / 2 - 0.5))
        c22 = _g(tx) * _g(1.0 - t0) / (_g(-t0 / 2 + tx / 2 + 1.5) * _g(-t0 / 2 + tx / 2 - 0.5))
        return mat2(c11, c12, c21, c22)
    raise ValueError(f"unknown connection matrix {which!r}")


# ----------------------------------------------------------------------
# local solution bases (Kummer's solutions, DLMF 15.10.11-15.10.16)


def _frame(w, dw, dz, cols):
    """Frame [[w^e f, ...], [d/dmu of each]] from columns (e, f(z), f'(z)), where
    dw and dz are the mu-derivatives of w and z; principal powers."""
    out = np.empty((2, 2), dtype=complex)
    for j, (e, f, df) in enumerate(cols):
        pw = cpow(w, e)
        out[:, j] = pw * f, pw * (e * dw / w * f + df * dz)
    return out


def _gauss_pair(al, be, ga, z):
    return gauss_f(al, be, ga, z), gauss_f_deriv(al, be, ga, z)


def kummer_bases(p: GaussParams):
    """Kummer's local solution bases of the Gauss equation at 0, 1 and infinity.

    Returns (at0, at1, atinf); each maps mu to the frame [[f1, f2], [f1', f2']]:
      at 0:   F(a,b;c;mu),  mu^{1-c} F(a-c+1, b-c+1; 2-c; mu)
      at 1:   F(a,b;a+b-c+1;1-mu),  (1-mu)^{c-a-b} F(c-a, c-b; c-a-b+1; 1-mu)
      at inf: mu^{-a} F(a, a-c+1; a-b+1; 1/mu),  mu^{-b} F(b, b-c+1; b-a+1; 1/mu)
    with principal powers.  A frame raises ResonanceError when its series
    has a non-positive integer lower parameter (logarithmic case).
    """
    a, b, c = p.alpha, p.beta, p.gamma

    def at0(mu):
        return _frame(mu, 1.0, 1.0, [
            (0.0, *_gauss_pair(a, b, c, mu)),
            (1.0 - c, *_gauss_pair(a - c + 1.0, b - c + 1.0, 2.0 - c, mu))])

    def at1(mu):
        w = 1.0 - mu
        return _frame(w, -1.0, -1.0, [
            (0.0, *_gauss_pair(a, b, a + b - c + 1.0, w)),
            (c - a - b, *_gauss_pair(c - a, c - b, c - a - b + 1.0, w))])

    def atinf(mu):
        z = 1.0 / mu
        return _frame(mu, 1.0, -z * z, [
            (-a, *_gauss_pair(a, a - c + 1.0, a - b + 1.0, z)),
            (-b, *_gauss_pair(b, b - c + 1.0, b - a + 1.0, z))])

    return at0, at1, atinf


def _norlund_atinf(p: GaussParams):
    """Frame at infinity when w = b - a + 1 is a positive integer:
    mu^{-b} g1(b, b-c+1, w; 1/mu) with ln(-1/mu) = i pi - ln mu, and Kummer's
    mu^{-b} F(b, b-c+1; w; 1/mu)."""
    b, c = p.beta, p.gamma
    w = int(round((b - p.alpha).real)) + 1

    def atinf(mu):
        z = 1.0 / mu
        g1 = norlund_g1(b, b - c + 1.0, w, z, ln_minus_z=1j * math.pi - clog(mu))
        return _frame(mu, 1.0, -z * z, [(-b, *g1), (-b, *_gauss_pair(b, b - c + 1.0, w, z))])

    return atinf


def _gauss_params(which: str, theta: ThetaParams, flip_th1=False) -> GaussParams:
    """(a, b, c) behind connection matrix `which`: c = th0 + 1, a + b = th0 + thx + 1,
    and a - b + 1 = thinf - th1 (C0inf, C01; th1 -> -th1 with flip_th1) or -1
    (the unipotent Cinf0, C01c)."""
    t0, tx, t1, ti = theta.as_tuple()
    if which in ("C0inf", "C01"):
        d = ti + t1 if flip_th1 else ti - t1
    elif which in ("Cinf0", "C01c"):
        d = -1.0
    else:
        raise ValueError(f"unknown connection matrix {which!r}")
    h = (t0 + tx) / 2
    return GaussParams(h + d / 2, h - d / 2 + 1.0, t0 + 1.0)


# ----------------------------------------------------------------------
# numeric continuation of the hypergeometric ODE and the basis-change oracle


def ode_transport(p: GaussParams, z0, W0, path, tol=1e-12):
    """Continue a (value, derivative) frame of the Gauss ODE along a path.

    W0 is the 2x2 frame [[f1, f2], [f1', f2']] at z0; path is a list of
    complex waypoints starting after z0, each leg integrated by the DOP853
    integrator `integrate.dp45`.  Returns the frame at path[-1].

    The right-hand side is written out in Python complex arithmetic: on
    arrays of four entries each numpy operation costs more in dispatch than
    in arithmetic.
    """
    al, be, ga = p.alpha, p.beta, p.gamma

    def rhs_factory(za, zb):
        dz = zb - za

        def f(t, y):
            # y = [f1, f1', f2, f2']
            z = za + t * dz
            f1, d1, f2, d2 = y
            c = ga - (al + be + 1.0) * z
            den = z * (1.0 - z)
            return [d1 * dz, ((al * be) * f1 - c * d1) / den * dz,
                    d2 * dz, ((al * be) * f2 - c * d2) / den * dz]

        return f

    y = np.array([W0[0, 0], W0[1, 0], W0[0, 1], W0[1, 1]], dtype=complex)
    za = complex(z0)
    for zb in path:
        y = dp45(rhs_factory(za, complex(zb)), 0.0, 1.0, y, tol=tol)
        za = complex(zb)
    return np.array([[y[0], y[2]], [y[1], y[3]]], dtype=complex)


def connection_oracle(which: str, theta: ThetaParams, flip_th1=False):
    """Numeric basis-change matrix, computed with no Gamma functions at all.

    The local bases are `kummer_bases` of the Gauss parameters behind
    `which`; Cinf0 (b - a = 2) takes the Norlund logarithmic frame at
    infinity instead.  For the 0-1 connections both series bases converge at
    mu = 1/2 and the matrix is solved directly.  For the 0-infinity
    connections the basis at 0 is continued to mu = 2i through the upper
    half-plane, where arg mu stays in (0, pi) and the principal powers of mu
    at both ends are the continued ones.
    """
    p = _gauss_params(which, theta, flip_th1)
    at0, at1, atinf = kummer_bases(p)
    if which in ("C01", "C01c"):
        # [phi^(0)] = [phi^(1)] C
        return inv2(at1(0.5)) @ at0(0.5)
    mu_t = 2.0j
    W0 = ode_transport(p, 0.3, at0(0.3), [0.3 + 0.9j, mu_t])
    if which == "Cinf0":
        # [phi^(inf)] = [phi^(0)] C
        return inv2(W0) @ _norlund_atinf(p)(mu_t)
    # [phi^(0)] = [phi^(inf)] C
    return inv2(atinf(mu_t)) @ W0


def reducible_u(theta: ThetaParams, a, x):
    """u = u1 + a u2 and u' for the vanishing-theta-sum solution family,
    (u1, u2) the Kummer basis at 0 of 2F1(2 - thinf, 1 + thx; 2 - thinf - th1)."""
    _, tx, t1, ti = theta.as_tuple()
    at0 = kummer_bases(GaussParams(2.0 - ti, 1.0 + tx, 2.0 - ti - t1))[0]
    u, du = at0(x) @ (1.0, a)
    return complex(u), complex(du)
