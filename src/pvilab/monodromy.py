"""Closed-form 2x2 monodromy representations for the three Taylor-solution
classes at x=0, the trace identity, sigma extraction, and the r-inversion.

The product-order relation between M0, Mx, M1 and Minf is discovered
numerically at build time and recorded as data (the loop basis fixes it,
and we do not assert one basis).  The four matrices are `numerics.Mat2`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .numerics import Mat2, _diag, _entries, _mat, gamma, inv2, mat2, tr2
from .pvi import ResonanceError, ThetaParams, is_int
from .hypergeom import _cinf0_row2, _connection

__all__ = [
    "MonodromyRep",
    "TraceData",
    "build_case_a",
    "build_case_b",
    "build_case_c",
    "discover_order",
    "check_identity",
    "sigma_from_traces",
    "r_from_monodromy",
    "invert_s_case_b",
    "invert_s_case_c",
]

_LABELS = ("M0", "Mx", "M1")


@dataclass(frozen=True)
class TraceData:
    t0x: complex
    t1x: complex
    t01: complex


@dataclass(frozen=True)
class MonodromyRep:
    M0: Mat2
    Mx: Mat2
    M1: Mat2
    Minf: Mat2
    order: tuple                  # product orders found to reproduce Minf
    case: str = ""
    theta: ThetaParams | None = None
    params: dict = field(default_factory=dict)

    def traces(self) -> TraceData:
        return TraceData(tr2(self.M0 @ self.Mx), tr2(self.M1 @ self.Mx),
                         tr2(self.M0 @ self.M1))

    def matrices(self):
        return {"M0": self.M0, "Mx": self.Mx, "M1": self.M1, "Minf": self.Minf}


def _conj(L, D, R):
    """L D R for a diagonal D: the columns of L scaled, times R."""
    l00, l01, l10, l11 = L.e
    d0, _, _, d1 = D.e
    return _mat(l00 * d0, l01 * d1, l10 * d0, l11 * d1) @ R


def _rep(M0, Mx, M1, Minf, **fields):
    return MonodromyRep(M0, Mx, M1, Minf, discover_order(M0, Mx, M1, Minf), **fields)


def discover_order(M0, Mx, M1, Minf):
    """All orderings of M0*Mx*M1 (up to inversion) that reproduce Minf to
    within 1e-8 of the largest entry of the four matrices.

    The matrices are Mat2 or 2x2 ndarrays.
    """
    M0, Mx, M1, Minf = (M if isinstance(M, Mat2) else mat2(*_entries(M))
                        for M in (M0, Mx, M1, Minf))
    mats = dict(zip(_LABELS, (M0, Mx, M1)))
    tol = 1e-8 * max(abs(v) for m in (M0, Mx, M1, Minf) for v in m.e)
    t00, t01, t10, t11 = Minf.e
    found = []
    for perm in itertools.permutations(_LABELS):
        p00, p01, p10, p11 = (mats[perm[0]] @ mats[perm[1]] @ mats[perm[2]]).e
        if (abs(p00 - t00) < tol and abs(p01 - t01) < tol
                and abs(p10 - t10) < tol and abs(p11 - t11) < tol):
            found.append("*".join(perm))
        # P Minf - I, entry by entry as Mat2's @ forms P Minf
        if (abs(p00 * t00 + p01 * t10 - 1.0) < tol and abs(p00 * t01 + p01 * t11) < tol
                and abs(p10 * t00 + p11 * t10) < tol and abs(p10 * t01 + p11 * t11 - 1.0) < tol):
            found.append("*".join(perm) + "=inv")
    return tuple(found)


def _nonresonant(*thetas):
    for t in thetas:
        if is_int(t):
            raise ResonanceError(f"integer exponent {t}: Theorem hypotheses fail")


def build_case_a(theta: ThetaParams, flip_th1=False) -> MonodromyRep:
    """Representation attached to the Taylor solutions with y(0)=(th1-thinf+1)/(1-thinf).

    flip_th1 gives the companion class via th1 -> -th1.
    """
    t0, tx, t1, ti = theta.as_tuple()
    if flip_th1:
        t1 = -t1
    _nonresonant(t0, tx, t1, ti)
    table = {}
    C0i = mat2(*_connection("C0inf", theta, flip_th1, table))
    C01 = mat2(*_connection("C01", theta, flip_th1, table))
    C0i_i = inv2(C0i)
    Mx = _conj(C0i @ inv2(C01), _diag(tx), C01) @ C0i_i
    return _rep(_conj(C0i, _diag(t0), C0i_i), Mx, _diag(-t1), _diag(-ti),
                case="a", theta=theta, params={"flip_th1": 1.0 if flip_th1 else 0.0})


def build_case_b(thx, thinf, s, r) -> MonodromyRep:
    """Representation of the one-parameter class with y(0)=1/(1-thinf).

    The series parameter is a = thinf (2s + thx + 1) / (2 (thinf - 1)).
    """
    _nonresonant(thx, thinf)
    if r == 0:
        raise ValueError("r must be nonzero")
    G = mat2(1.0, 1.0, (s + thx) / r, s / r)
    Gi = inv2(G)
    M1 = _diag(-thinf)
    return _rep(_conj(G, _diag(thx), Gi), _conj(G, _diag(-thx), Gi), M1, M1, case="b", theta=None,
                params={"thx": thx, "thinf": thinf, "s": s, "r": r})


def build_case_c(th0, thx, s) -> MonodromyRep:
    """Representation of the unipotent class (thinf=1, th1=0), parameter a=(1-s)^{-1}."""
    _nonresonant(th0, thx)
    theta = ThetaParams(th0, thx, 0.0, 1.0)
    table = {}
    Ci0 = mat2(*_connection("Cinf0", theta, False, table))
    C01 = mat2(*_connection("C01c", theta, False, table))
    Ci0_i = inv2(Ci0)
    Mx = _conj(Ci0_i @ inv2(C01), _diag(thx), C01) @ Ci0
    return _rep(_conj(Ci0_i, _diag(th0), Ci0), Mx, mat2(1.0, 0.0, 2j * math.pi * s, 1.0),
                mat2(-1.0, 0.0, 2j * math.pi * (1.0 - s), -1.0), case="c", theta=theta,
                params={"s": s})


def check_identity(rep_or_traces, theta: ThetaParams) -> complex:
    """Residual of the trace relation forced by M_i M_j M_k = Minf.

    Expanding tr(M_i M_j M_k) over SL2 gives

        cos(pi th0) t1x + cos(pi th1) t0x + cos(pi thx) t01
            = cos(pi thinf) + tr(M_k M_j M_i)/2
              + 4 cos(pi th1) cos(pi th0) cos(pi thx),

    valid under the recorded loop-order convention (i,j,k).  The trace of
    the reversed product is an invariant of the triple (it does not depend
    on which cyclic order is recorded, nor on the loop basis), and equals
    2 cos(pi thinf) exactly when both orderings of the product are
    conjugate to Minf -- then the right side collapses to
    2 cos(pi thinf) + 4 cos cos cos, which is the form used when only
    trace data (no matrices) is supplied.
    """
    t0, tx, t1, ti = theta.as_tuple()
    c0, cx, c1, ci = (cmath.cos(math.pi * v) for v in (t0, tx, t1, ti))
    if isinstance(rep_or_traces, MonodromyRep):
        t = rep_or_traces.traces()
        order = rep_or_traces.order[0].split("=")[0].split("*") if rep_or_traces.order else None
    else:
        t = rep_or_traces
        order = None
    lhs = c0 * t.t1x + c1 * t.t0x + cx * t.t01
    if order is not None:
        mats = rep_or_traces.matrices()
        rev = mats[order[2]] @ mats[order[1]] @ mats[order[0]]
        return lhs - ci - 0.5 * tr2(rev) - 4.0 * c1 * c0 * cx
    return lhs - 2.0 * ci - 4.0 * c1 * c0 * cx


def sigma_from_traces(t0x) -> complex:
    """sigma with tr(M0 Mx) = 2 cos(pi sigma), normalized to the strip
    0 <= Re sigma <= 1 (Im >= 0 on the strip boundary)."""
    s = cmath.acos(complex(t0x) / 2.0) / math.pi
    s = complex(s.real if s.real != 0.0 else 0.0, s.imag if s.imag != 0.0 else 0.0)
    for cand in (s, -s):
        re, im = cand.real, cand.imag
        if -1e-14 <= re <= 1.0 + 1e-14:
            if (abs(re) < 1e-14 or abs(re - 1.0) < 1e-14) and im < 0:
                continue
            return cand
    return s


def r_from_monodromy(sigma, theta: ThetaParams, traces: TraceData) -> complex:
    """The Gamma-product inversion of the generic two-sided behavior at x=0."""
    t0, tx, t1, ti = theta.as_tuple()
    s = complex(sigma)
    if abs(s) < 1e-12:
        raise ValueError("sigma = 0: formula undefined")
    for comb in (s + t0 + tx, s - t0 - tx, s + t0 - tx, s - t0 + tx,
                 s + t1 + ti, s - t1 - ti, s + t1 - ti, s - t1 + ti):
        if is_int(comb / 2.0):
            raise ResonanceError(f"{comb} is an even integer: inversion assumption fails")
    g = gamma
    F = (g(1.0 + s) ** 2 * g((t0 + tx - s) / 2.0 + 1.0) * g((tx - t0 - s) / 2.0 + 1.0)
         / (g(1.0 - s) ** 2 * g((t0 + tx + s) / 2.0 + 1.0) * g((tx - t0 + s) / 2.0 + 1.0))
         * g((ti + t1 - s) / 2.0 + 1.0) * g((t1 - ti - s) / 2.0 + 1.0)
         / (g((ti + t1 + s) / 2.0 + 1.0) * g((t1 - ti + s) / 2.0 + 1.0)))
    sp = cmath.sin(math.pi * s)
    c0, cx, c1, ci = (cmath.cos(math.pi * v) for v in (t0, tx, t1, ti))
    U = ((0.5j * sp * traces.t1x - cx * ci - c0 * c1) * cmath.exp(1j * math.pi * s)
         + 0.5j * sp * traces.t01 + cx * c1 + ci * c0)
    V = (4.0 * cmath.sin(math.pi / 2.0 * (t0 + tx - s))
         * cmath.sin(math.pi / 2.0 * (t0 - tx + s))
         * cmath.sin(math.pi / 2.0 * (ti + t1 - s))
         * cmath.sin(math.pi / 2.0 * (ti - t1 + s)))
    if abs(U) < 1e-14:
        raise ValueError("U = 0: degenerate trace data")
    F = F * V / U
    return ((t0 - tx + s) * (t0 + tx - s) * (ti + t1 - s)
            / (4.0 * s * (ti + t1 + s))) / F


def invert_s_case_b(rep: MonodromyRep) -> complex:
    """s from tr(M1 M0) for the y(0)=1/(1-thinf) class."""
    thx, thinf = rep.params["thx"], rep.params["thinf"]
    tr10 = tr2(rep.M1 @ rep.M0)
    num = thx * (2.0 * cmath.cos(math.pi * (thinf + thx)) - tr10)
    den = 2.0 * (cmath.cos(math.pi * (thinf - thx)) - cmath.cos(math.pi * (thinf + thx)))
    if abs(den) < 1e-14:
        raise ValueError("degenerate (thx, thinf): inversion denominator vanishes")
    return num / den


def invert_s_case_c(rep: MonodromyRep) -> complex:
    """s from tr(M1 M0) for the unipotent class."""
    th0, thx, _, _ = rep.theta.as_tuple()
    c21, c22 = _cinf0_row2(th0, thx, {})
    tr10 = tr2(rep.M1 @ rep.M0)
    sp = cmath.sin(math.pi * th0)
    if abs(sp) < 1e-14:
        raise ResonanceError("sin(pi th0) = 0")
    return (tr10 - 2.0 * cmath.cos(math.pi * th0)) / (4.0 * math.pi * sp) \
        * c21 / c22
