"""Complex scalar special functions, branch-controlled powers, 2x2 matrix helpers.

Everything downstream (connection matrices, monodromy, series evaluation)
goes through these routines, so they are deliberately small and pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoleError",
    "SingularMatrixError",
    "BranchSpec",
    "PRINCIPAL",
    "ARG_0_2PI",
    "gamma",
    "digamma",
    "cpow",
    "clog",
    "mat2",
    "det2",
    "tr2",
    "inv2",
    "exp_diag_sigma3",
    "SIGMA3",
]


class PoleError(ValueError):
    """Argument hit (or came too close to) a pole of Gamma/digamma."""


class SingularMatrixError(ValueError):
    pass


# ----------------------------------------------------------------------
# branch bookkeeping


@dataclass(frozen=True)
class BranchSpec:
    """Half-open argument interval (lower, lower + 2*pi] for log and power.

    The default reproduces the principal branch arg in (-pi, pi].  A
    non-principal branch is passed explicitly at its call site, never via
    global state.
    """

    lower: float = -math.pi

    def __post_init__(self):
        if not math.isfinite(self.lower):
            raise ValueError("branch base point must be finite")

    def arg(self, z: complex) -> float:
        a = cmath.phase(z)  # (-pi, pi]
        # shift into (lower, lower + 2pi]
        while a <= self.lower:
            a += 2.0 * math.pi
        while a > self.lower + 2.0 * math.pi:
            a -= 2.0 * math.pi
        return a


PRINCIPAL = BranchSpec()
ARG_0_2PI = BranchSpec(0.0)


def clog(z: complex, branch: BranchSpec = PRINCIPAL) -> complex:
    if z == 0:
        raise ValueError("log of zero")
    return complex(math.log(abs(z)), branch.arg(z))


def cpow(z: complex, w: complex, branch: BranchSpec = PRINCIPAL) -> complex:
    """z**w with the argument of z taken in the given branch."""
    z = complex(z)
    w = complex(w)
    if z == 0:
        if w == 0:
            return 1.0 + 0.0j
        if w.real > 0:
            return 0.0 + 0.0j
        raise ValueError("0 raised to exponent with non-positive real part")
    return cmath.exp(w * clog(z, branch))


# ----------------------------------------------------------------------
# Gamma / digamma
#
# Lanczos approximation, g = 7, 9 coefficients (the classical double
# precision set), plus reflection for Re z < 1/2.

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-8


def _near_nonpositive_int(z: complex) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < _POLE_TOL


def gamma(z: complex) -> complex:
    """Complex Gamma function.

    Raises PoleError within 1e-8 of a non-positive integer: the callers'
    non-resonance hypotheses are enforced here rather than silently
    returning a huge number.
    """
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    zz = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * s


def digamma(z: complex) -> complex:
    """psi(z) = d/dz ln Gamma(z), by recurrence + asymptotic series."""
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError(f"digamma pole at z = {z}")
    if z.real < 0.5:
        # psi(1-z) - psi(z) = pi cot(pi z)
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    s = 0.0 + 0.0j
    while z.real < 16.0:
        s -= 1.0 / z
        z += 1.0
    # asymptotic expansion, Bernoulli numbers B2..B14
    zi2 = 1.0 / (z * z)
    h = (
        1.0 / 12.0
        - zi2
        * (
            1.0 / 120.0
            - zi2
            * (
                1.0 / 252.0
                - zi2
                * (1.0 / 240.0 - zi2 * (1.0 / 132.0 - zi2 * (691.0 / 32760.0 - zi2 / 12.0)))
            )
        )
    )
    return s + cmath.log(z) - 0.5 / z - zi2 * h


# ----------------------------------------------------------------------
# 2x2 complex matrices (plain ndarray, helpers enforce the invariants)

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def tr2(m: np.ndarray) -> complex:
    return m[0, 0] + m[1, 1]


def inv2(m: np.ndarray) -> np.ndarray:
    d = det2(m)
    scale = max(float(abs(m).max()), 1.0)    # a float, whose square overflows to inf silently
    if abs(d) < 1e-14 * scale * scale:
        raise SingularMatrixError(f"matrix is singular to tolerance, det = {d}")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


def exp_diag_sigma3(theta: complex) -> np.ndarray:
    """diag(e^{i pi theta}, e^{-i pi theta}) = exp(i pi theta sigma3)."""
    e = cmath.exp(1j * math.pi * theta)
    return np.array([[e, 0.0], [0.0, 1.0 / e]], dtype=complex)
