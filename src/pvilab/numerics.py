"""Complex scalar special functions, principal-branch powers, 2x2 matrices.

Everything downstream (connection matrices, monodromy, series evaluation)
goes through these routines, so they are deliberately small and pure.
"""

from __future__ import annotations

import cmath
import math
from numbers import Number

__all__ = [
    "PoleError",
    "SingularMatrixError",
    "gamma",
    "digamma",
    "cpow",
    "clog",
    "Mat2",
    "mat2",
    "det2",
    "tr2",
    "inv2",
    "SIGMA3",
]


class PoleError(ValueError):
    """Argument hit (or came too close to) a pole of Gamma/digamma."""


class SingularMatrixError(ValueError):
    pass


# ----------------------------------------------------------------------
# principal log and power


def clog(z: complex) -> complex:
    """Principal log, arg in (-pi, pi].  cmath.phase gives -pi at z = -x - 0i,
    below the cut; that edge is taken to +pi, so both zeros of the negative
    real axis have arg pi."""
    if z == 0:
        raise ValueError("log of zero")
    a = cmath.phase(z)
    return complex(math.log(abs(z)), math.pi if a == -math.pi else a)


def cpow(z: complex, w: complex) -> complex:
    """z**w = exp(w clog z), on the principal branch of clog."""
    z = complex(z)
    w = complex(w)
    if z == 0:
        if w == 0:
            return 1.0 + 0.0j
        if w.real > 0:
            return 0.0 + 0.0j
        raise ValueError("0 raised to exponent with non-positive real part")
    return cmath.exp(w * clog(z))


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
# 2x2 complex matrices


class Mat2:
    """An immutable 2x2 complex matrix: four Python complex numbers, row-major
    in `e`, with @, + and - between Mat2, * and / by a scalar, m[i, j] and
    rows m[i].  Other operands get NotImplemented, so an ndarray takes over
    through __array__, which imports numpy only when it is called."""

    __slots__ = ("e",)

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "e", (complex(a), complex(b), complex(c), complex(d)))

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    def __reduce__(self):
        return Mat2, self.e

    def __repr__(self):
        return "Mat2({}, {}, {}, {})".format(*self.e)

    def __getitem__(self, index):
        rows = (self.e[:2], self.e[2:])
        if isinstance(index, tuple):
            i, j = index
            return rows[i][j]
        return rows[index]

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        return np.array([self.e[:2], self.e[2:]], dtype=dtype or complex)

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b, c, d = self.e
        p, q, r, s = other.e
        return _mat(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)

    def __mul__(self, k):
        if not isinstance(k, Number):
            return NotImplemented
        k = complex(k)
        return _mat(*(v * k for v in self.e))

    __rmul__ = __mul__

    def __truediv__(self, k):
        if not isinstance(k, Number):
            return NotImplemented
        k = complex(k)
        return _mat(*(v / k for v in self.e))

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return _mat(*(u + v for u, v in zip(self.e, other.e)))

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return _mat(*(u - v for u, v in zip(self.e, other.e)))

    def __neg__(self):
        return _mat(*(-v for v in self.e))


def _mat(a, b, c, d):
    """A Mat2 of entries that are already Python complex numbers."""
    m = object.__new__(Mat2)
    _SET_E(m, (a, b, c, d))
    return m


_SET_E = Mat2.e.__set__
mat2 = Mat2
SIGMA3 = Mat2(1.0, 0.0, 0.0, -1.0)


def _entries(m):
    """The row-major entries of a Mat2 or of a 2x2 ndarray.

    The library passes only Mat2, but the ndarray path stays: the benchmark's
    negative checks (bench/negative.py) plant `m @ np.diag(...)`, an ndarray,
    and its monodromy check (bench/wl_monodromy.py) calls tr2 and det2 on it."""
    return m.e if isinstance(m, Mat2) else (m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def det2(m) -> complex:
    a, b, c, d = _entries(m)
    return a * d - b * c


def tr2(m) -> complex:
    a, _, _, d = _entries(m)
    return a + d


def inv2(m) -> Mat2:
    a, b, c, d = _entries(m)
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)    # its square may overflow to inf
    if abs(det) < 1e-14 * scale * scale:
        raise SingularMatrixError(f"matrix is singular to tolerance, det = {det}")
    return Mat2(d / det, -b / det, -c / det, a / det)


def _diag(theta) -> Mat2:
    """diag(e^{i pi theta}, e^{-i pi theta}) = exp(i pi theta sigma3)."""
    e = cmath.exp(1j * math.pi * theta)
    return _mat(e, 0j, 0j, 1.0 / e)
