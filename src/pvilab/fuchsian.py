"""The 2x2 Fuchsian system in lambda attached to the Taylor classes.

Truncated residue matrices A0(x), Ax(x), A1(x) with entrywise power series
(off-diagonal entries may carry non-integer powers of x), numeric loop
transport of fundamental solutions (the monodromy oracle), recovery of y(x)
from the residues, and the formal diagonalizing recursions for the two
irregular model systems.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .integrate import dp45
from .numerics import Mat2, cpow, mat2
from .pvi import ResonanceError, ThetaParams, is_int

__all__ = [
    "LinearSystem",
    "Loop",
    "build_case_a",
    "build_case_b",
    "build_case_c",
    "transport",
    "loop_monodromy",
    "y_from_A",
    "default_radius",
    "appendix2_recursion",
]

_KEYS = ("0", "x", "1")


def _ev(terms, x):
    """Evaluate a list of (power, coeff) terms at x (principal powers)."""
    return sum(c * cpow(x, p) for p, c in terms)


@dataclass(frozen=True)
class LinearSystem:
    """Residues of dPsi/dlambda = [A0/lambda + Ax/(lambda-x) + A1/(lambda-1)] Psi.

    entries[key][i][j] is a tuple of (power, coeff) pairs; powers may be
    complex (the case-a off-diagonals carry x^{+-(th1-thinf+1)} prefactors)
    or negative (the case-c (1,2) entries have a 1/x pole).
    """

    theta: ThetaParams
    tag: str
    entries: dict
    params: dict = field(default_factory=dict)

    def residue(self, which: str, x) -> Mat2:
        (a, b), (c, d) = self.entries[which]
        return mat2(_ev(a, x), _ev(b, x), _ev(c, x), _ev(d, x))

    def sum_residues(self, x) -> Mat2:
        a0, ax, a1 = (self.residue(k, x) for k in _KEYS)
        return a0 + ax + a1


def _pack(a0, ax, a1):
    def t(cell):
        return tuple((p, complex(c)) for p, c in cell)
    return {k: tuple(tuple(t(m[i][j]) for j in range(2)) for i in range(2))
            for k, m in (("0", a0), ("x", ax), ("1", a1))}


def build_case_b(thx, thinf, s, r) -> LinearSystem:
    """System whose isomonodromic solution is the y(0)=1/(1-thinf) class.

    A0, Ax through O(x), A1 through O(x^2), all entries plain Taylor.
    """
    if r == 0:
        raise ValueError("r must be nonzero")
    thx, thinf, s, r = complex(thx), complex(thinf), complex(s), complex(r)
    sx = s + thx
    ax = [[[(0, s + thx / 2), (1, -2 * sx * s * thinf)],
           [(0, -r), (1, r * (2 * s + thx - 1) * thinf)]],
          [[(0, s * sx / r), (1, -s * sx * (2 * s + thx + 1) * thinf / r)],
           [(0, -(s + thx / 2)), (1, 2 * sx * s * thinf)]]]
    a0 = [[[(0, -(s + thx / 2)), (1, 2 * sx * s * thinf)],
           [(0, r), (1, -r * (2 * s + thx) * thinf)]],
          [[(0, -s * sx / r), (1, s * sx * (2 * s + thx) * thinf / r)],
           [(0, s + thx / 2), (1, -2 * sx * s * thinf)]]]
    a1 = [[[(0, -thinf / 2), (2, sx * s * thinf)],
           [(1, r * thinf), (2, -r * thinf * (thinf + 1) * (2 * s + thx - 1) / 2)]],
          [[(1, s * thinf * sx / r),
            (2, -s * thinf * (thinf - 1) * sx * (2 * s + thx + 1) / (2 * r))],
           [(0, thinf / 2), (2, -sx * s * thinf)]]]
    # rows above are stored [[11,12],[21,22]]
    theta = ThetaParams(thx, thx, thinf, thinf)
    return LinearSystem(theta, "case-b", _pack(a0, ax, a1),
                        {"s": s, "r": r, "thx": thx, "thinf": thinf})


def build_case_a(theta: ThetaParams, r) -> LinearSystem:
    """System for the y(0)=(th1-thinf+1)/(1-thinf) class.

    Off-diagonal entries carry x^{+-(th1-thinf+1)} prefactors.
    """
    t0, tx, t1, ti = theta.as_tuple()
    if is_int(t1 - ti):
        raise ResonanceError("th1 - thinf integer: representation breaks down")
    if is_int(ti - 1.0) and abs(ti - 1.0) < 1e-10:
        raise ResonanceError("thinf = 1 excluded")
    if r == 0:
        raise ValueError("r must be nonzero")
    r = complex(r)
    d = t1 - ti                       # th1 - thinf
    p = d + 1.0                       # off-diagonal prefactor exponent
    q = (d * d - (t0 - tx) ** 2) * (d * d - (t0 + tx) ** 2)
    ax = [[[(0, (d * d + tx * tx - t0 * t0) / (4.0 * d)),
            (1, t1 / 8.0 * q / (d * d * (d * d - 1.0)))],
           [(p - 1.0, -r),
            (p, r * t1 * ((d + 2.0) * d + t0 * t0 - tx * tx) / (2.0 * d * (-d - 1.0)))]],
          [[(1.0 - p, q / (16.0 * r * d * d)),
            (2.0 - p, -q / (16.0 * r * d * d)
             * t1 * ((-d) * (-d + 2.0) + t0 * t0 - tx * tx) / (2.0 * (-d) ** 3 * (-d + 1.0)))],
           [(0, -(d * d + tx * tx - t0 * t0) / (4.0 * d)),
            (1, -t1 / 8.0 * q / (d * d * (d * d - 1.0)))]]]
    a0 = [[[(0, (d * d + t0 * t0 - tx * tx) / (4.0 * d)),
            (1, -t1 / 8.0 * q / (d * d * (d * d - 1.0)))],
           [(p - 1.0, r),
            (p, -r * t1 * (d * d + t0 * t0 - tx * tx) / (2.0 * d * (-d - 1.0)))]],
          [[(1.0 - p, -q / (16.0 * r * d * d)),
            (2.0 - p, q / (16.0 * r * d * d)
             * t1 * (d * d + t0 * t0 - tx * tx) / (2.0 * (-d) ** 3 * (-d + 1.0)))],
           [(0, -(d * d + t0 * t0 - tx * tx) / (4.0 * d)),
            (1, t1 / 8.0 * q / (d * d * (d * d - 1.0)))]]]
    a1 = [[[(0, -t1 / 2.0),
            (2, -t1 * q / (16.0 * (d * d - 1.0) * d * d))],
           [(p, -r * t1 / (-d - 1.0)),
            (p + 1.0, -r * t1 / (-d - 1.0)
             * (t1 + 1.0) * ((-d) * (-d - 2.0) + t0 * t0 - tx * tx) / (2.0 * (-d) * (-d - 2.0)))]],
          [[(2.0 - p, t1 * q / (16.0 * r * (-d + 1.0) * d * d))],
           [(0, t1 / 2.0),
            (2, t1 * q / (16.0 * (d * d - 1.0) * d * d))]]]
    return LinearSystem(theta, "case-a", _pack(a0, ax, a1), {"r": r})


def build_case_c(th0, thx, r1, rho) -> LinearSystem:
    """System for the unipotent class (thinf=1, th1=0); y(0)=(1-r1/rho)^{-1}."""
    if rho == 0:
        raise ValueError("rho must be nonzero")
    t0, tx, r1, rho = complex(th0), complex(thx), complex(r1), complex(rho)
    pk = (1.0 - (t0 - tx) ** 2) * (1.0 - (t0 + tx) ** 2) / 16.0
    a0 = [[[(0, (tx * tx - t0 * t0 - 1.0) / 4.0), (1, r1 / rho * pk)],
           [(-1, -rho), (0, r1 * (t0 * t0 - tx * tx + 1.0) / 2.0),
            (1, -(r1 * r1 / rho) * pk)]],
          [[(1, pk / rho)],
           [(0, -(tx * tx - t0 * t0 - 1.0) / 4.0), (1, -r1 / rho * pk)]]]
    ax = [[[(0, (t0 * t0 - tx * tx - 1.0) / 4.0), (1, -r1 / rho * pk)],
           [(-1, rho), (0, r1 * (tx * tx - t0 * t0 + 1.0) / 2.0),
            (1, (r1 * r1 / rho) * pk)]],
          [[(1, -pk / rho)],
           [(0, -(t0 * t0 - tx * tx - 1.0) / 4.0), (1, r1 / rho * pk)]]]
    a1 = [[[(2, r1 / rho * pk / 2.0)],
           [(0, -r1), (1, r1 * (t0 * t0 - tx * tx - 1.0) / 2.0)]],
          [[(4, r1 / (rho * rho) * pk * pk / 4.0)],
           [(2, -r1 / rho * pk / 2.0)]]]
    theta = ThetaParams(t0, tx, 0.0, 1.0)
    return LinearSystem(theta, "case-c", _pack(a0, ax, a1), {"r1": r1, "rho": rho})


def default_radius(x) -> float:
    """Radius of the default loop: min(|x|, |1 - x|, 1) / 1e4.

    Most of a loop's time is the integrator's fixed cost per step, and the
    step count is set by the width ln(d / r) / 2 pi of the strip of
    analyticity in the loop parameter t, d being the distance from the
    centre to the nearest other pole.  For the loops around 0 and x, d / r
    is the divisor itself.  A loop that encloses one pole alone has trace
    2 cos 2 pi mu at any radius, so the circle is kept small: it then
    integrates little more than exp(2 pi i A_c t).  RHS evaluations of the
    18 loops of the `monodromy-oracles` bench at tol 1e-12 (three systems,
    x = 1e-2 and 1e-3, centres 0, x and 1), averaged over its seeds 1-3:

        divisor       30    100   1e3   1e4   1e5   1e6   1e8
        evaluations 3610   3178  2522  2065  1887  1822  1810

    1810 is the floor, reached at 1e8 and below; 1e4 costs within 15 % of
    it.  The worst trace error against 2 cos 2 pi mu is 1.9e-13 to 4.0e-13
    and the worst |det M - 1| 4.9e-13 or less at every divisor from 30 to
    1e10, within the tolerance.  `transport` forms lambda - p from the exact
    centre offset, so the smaller circle costs no digits.  The radius is a
    normal float for |x| down to about 2.2e-304.
    """
    return min(abs(complex(x)), abs(1.0 - complex(x)), 1.0) / 1e4


@dataclass(frozen=True)
class Loop:
    """Counterclockwise circle lambda = center + radius e^{2 pi i t}, t in [0, 1],
    based at its start center + radius."""

    center: complex
    radius: float


def transport(sys: LinearSystem, x, loop_or_vertices, tol=1e-10) -> Mat2:
    """Monodromy of the fundamental solution normalized to I at the start.

    Integrates dPsi/dlambda = A(lambda) Psi with the DOP853 integrator around
    a Loop (its circle in one dp45 call, in the parameter t of Loop) or edge
    by edge along a polygon given as a list of vertices.  The result M
    satisfies Psi_continued = Psi * M for Psi(start) = I.  A loop based
    elsewhere is a composition: transport along the legs to and from
    center + radius, on both sides of the plain loop's matrix.

    Each leg writes lambda = anchor + d(t): a circle is anchored at its
    centre with d = radius e^{2 pi i t}, a straight edge at its first vertex
    with d = t (z1 - z0).  The offsets of the anchor from the poles 0, x and
    1 are formed once per leg, and lambda - p is formed as (anchor - p) + d,
    so a circle's centre term is exact: forming c + d first and subtracting
    c again would give d a relative error of about eps |c| / radius, which
    is 1e4 eps / |x| for the default loop around 1.  The circle never forms
    center + radius, so it runs where that sum rounds to the centre.

    The state and the right-hand side are Python lists of the four entries
    of Psi, row-major, in Python complex arithmetic.  Raises ValueError
    naming x when the residues at x overflow or are not finite, and when a
    loop's radius is not a finite positive normal float.
    """
    if isinstance(loop_or_vertices, Loop):
        r = loop_or_vertices.radius
        if not (math.isfinite(r) and r >= 2.0 ** -1022):    # subnormal radii lose bits
            raise ValueError(f"loop radius {r} at x = {x} is not a finite positive normal "
                             "float (x must stay away from 0 and 1)")
    xc = complex(x)
    try:
        res = [sys.residue(k, x).e for k in _KEYS]
    except OverflowError as e:
        raise ValueError(f"the residues at x = {xc} overflow "
                         "(their series are expansions at small x)") from e
    if not all(cmath.isfinite(v) for row in res for v in row):
        raise ValueError(f"the residues at x = {xc} are not finite "
                         "(their series are expansions at small x)")
    (p00, p01, p10, p11), (q00, q01, q10, q11), (s00, s01, s10, s11) = res

    def leg(m, anchor, path):
        # path(t) = (d, dlambda/dt) for t in [0, 1] with lambda = anchor + d;
        # y is Psi row-major
        o0, ox, o1 = anchor, anchor - xc, anchor - 1.0

        def f(t, y):
            d, dlam = path(t)
            u, v, w = dlam / (o0 + d), dlam / (ox + d), dlam / (o1 + d)
            b00 = u * p00 + v * q00 + w * s00
            b01 = u * p01 + v * q01 + w * s01
            b10 = u * p10 + v * q10 + w * s10
            b11 = u * p11 + v * q11 + w * s11
            y00, y01, y10, y11 = y
            return [b00 * y00 + b01 * y10, b00 * y01 + b01 * y11,
                    b10 * y00 + b11 * y10, b10 * y01 + b11 * y11]

        return mat2(*dp45(f, list(m.e), tol=tol))

    m = mat2(1.0, 0.0, 0.0, 1.0)
    if isinstance(loop_or_vertices, Loop):
        r = float(loop_or_vertices.radius)
        w = 2j * math.pi

        def circle(t):
            d = r * cmath.exp(w * t)
            return d, w * d

        return leg(m, complex(loop_or_vertices.center), circle)
    verts = [complex(v) for v in loop_or_vertices]
    for z0, z1 in zip(verts[:-1], verts[1:]):
        dz = z1 - z0
        if dz != 0:
            m = leg(m, z0, lambda t, dz=dz: (t * dz, dz))
    return m


def loop_monodromy(sys: LinearSystem, x, center, tol=1e-10) -> Mat2:
    """Transport around the default counterclockwise loop at one singularity."""
    return transport(sys, x, Loop(complex(center), default_radius(x)), tol=tol)


def y_from_A(sys: LinearSystem, x) -> complex:
    """y = x (A0)_{12} / (x [(A0)_{12} + (A1)_{12}] - (A1)_{12})."""
    x = complex(x)
    n0 = sys.residue("0", x)[0, 1]
    n1 = sys.residue("1", x)[0, 1]
    den = x * (n0 + n1) - n1
    if abs(den) < 1e-14:
        raise ZeroDivisionError("vanishing denominator in the y reconstruction")
    return x * n0 / den


# ----------------------------------------------------------------------
# formal diagonalizing recursions for the irregular model systems


def _dn(d_list, n):
    # coefficient matrices beyond the stored list repeat the last one
    return d_list[min(n, len(d_list)) - 1]


def appendix2_recursion(kind, leading, coeff_list, n_max, x=None):
    """Gauge series removing the z^{-n} (n >= 2) tails of the model systems.

    kind "IRR1": dY/dz = [Omega + D1/z + D2/z^2 + ...] Y with Omega = leading
    diagonal; returns ([G1..G_{n_max}], Omega1) where Y ~ (I + sum G_n z^{-n})
    exp(Omega z) z^{Omega1} and Omega1 = diagonal part of D1.

    kind "IRR2": dY/dz = [x^2 Lambda z + x Lambda + E1/z + E2/z^2 + ...] Y;
    returns (K1, K2, Lambda1): K1 diagonal with (K1)_ii = -(E2)_ii,
    Lambda1 = diagonal part of E1, and K2 assembled from the z^{-1} and
    z^{-2} balances.

    coeff_list entries beyond the last stored matrix repeat the last one
    (the systems at hand have constant tails).  Raises ValueError for IRR2
    at x = 0, since the recursion divides by x^2.  An overflow gives
    coefficients that are not finite, without a warning.
    """
    import numpy as np
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lead = np.asarray(leading, dtype=complex)
        w = np.diag(lead)
        if abs(w[0] - w[1]) < 1e-12 * (1.0 + abs(w).max()):
            raise ResonanceError("leading diagonal must have distinct eigenvalues")
        ds = [np.asarray(m, dtype=complex) for m in coeff_list]

        if kind == "IRR1":
            om1 = np.diag(np.diag(ds[0]))
            g = [np.zeros((2, 2), dtype=complex) for _ in range(n_max + 2)]  # g[n] = G_n, g[0]=I
            g[0] = np.eye(2, dtype=complex)
            for i in range(2):
                for j in range(2):
                    if i != j:
                        g[1][i, j] = -ds[0][i, j] / (w[i] - w[j])
            for n in range(2, n_max + 2):
                # power 1/z^n fixes diag of G_{n-1} and offdiag of G_n
                # D_n G_0 + ... + D_2 G_{n-2}
                acc = sum(_dn(ds, n - k) @ g[k] for k in range(0, n - 1))
                for i in range(2):
                    j = 1 - i
                    g[n - 1][i, i] = (-acc[i, i] - ds[0][i, j] * g[n - 1][j, i]) / (n - 1.0)
                if n <= n_max + 1:
                    for i in range(2):
                        j = 1 - i
                        g[n][i, j] = ((om1[j, j] - om1[i, i] - (n - 1.0)) * g[n - 1][i, j]
                                      - ds[0][i, j] * g[n - 1][j, j] - acc[i, j]) / (w[i] - w[j])
            return [g[n] for n in range(1, n_max + 1)], om1

        if kind == "IRR2":
            if x is None:
                raise ValueError("IRR2 recursion needs the deformation parameter x")
            x = complex(x)
            if x == 0:
                raise ValueError("IRR2 recursion divides by x^2: x must be nonzero")
            es = ds
            lam1 = np.diag(np.diag(es[0]))
            k1 = np.diag([-es[1][0, 0], -es[1][1, 1]]).astype(complex)
            k2 = np.zeros((2, 2), dtype=complex)
            for i in range(2):
                j = 1 - i
                k2[i, j] = -es[0][i, j] / (x * x * (w[i] - w[j]))
            e3 = _dn(es, 3)
            for i in range(2):
                j = 1 - i
                k2[i, i] = (es[1][i, i] ** 2 - e3[i, i] - es[0][i, j] * k2[j, i]) / 2.0
            return k1, k2, lam1

        raise ValueError(f"unknown recursion kind {kind}")
