"""Shared pieces of the benchmark: seeded parameter draws, the calibrations
behind reference seconds, the accuracy ledger behind `correct` and
`digits`, and an independent residual of PVI.

The residual here is written from the equation itself, in a dense 2-D
truncated series ring of the benchmark's own, and carries a majorant (the
same expression evaluated on coefficient magnitudes).  A residual
coefficient is judged relative to its majorant, so the check scales with
the size of the coefficients instead of using an absolute floor.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def pvilab_env():
    """Environment for a fresh interpreter that imports pvilab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ----------------------------------------------------------------------
# seeded draws and their command-line form


def seed_value(seed):
    """The seed as a non-negative integer (numpy and `pvilab sweep` reject
    negative ones)."""
    return int(seed) % 2 ** 63


def rng_for(seed, stream):
    """Independent generator per (seed, stream) so workloads never share draws."""
    return np.random.default_rng([seed_value(seed), int(stream)])


def fmt_c(z):
    """A complex number as the CLI parses it (round-trips exactly)."""
    z = complex(z)
    return f"{z.real!r}{'+' if math.copysign(1.0, z.imag) > 0 else '-'}{abs(z.imag)!r}i"


# ----------------------------------------------------------------------
# calibration
#
# A shared host's speed can alternate between states (on the 2-core VM the
# benchmark was written on, about 1.8x apart, lasting seconds).  A time is
# therefore reported in reference seconds: measured seconds over the seconds
# of a fixed calibration computation run next to it, times that
# computation's reference seconds.  Neither calibration imports pvilab, so
# no change to the program moves it.

_CAL_THETA = (0.23, 0.57, 0.31, 0.44)
_CAL_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import common; "
              "common.calibrate(); common.calibrate()")


def calibrate():
    """Seconds of a fixed computation of the benchmark's own (the residual
    of a log series in the ring below): small numpy arrays and Python
    dispatch, the mix the program's solvers and integrators run on."""
    ring = Ring("log", 14, 40)
    c = np.zeros((4, 7), dtype=complex)
    c[1, :3], c[2, :5], c[3, :7] = (0.3, 0.2, 0.1), 0.1, 0.05
    t = time.perf_counter()
    scaled_residual(ring.series(c), _CAL_THETA, 6)
    return time.perf_counter() - t


def calibrate_process():
    """Seconds of a fresh interpreter that imports numpy and runs
    `calibrate` twice: the calibration for times of fresh interpreters,
    which the in-process one does not follow."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", _CAL_PROBE, str(BENCH)], check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t


# (calibration, its reference seconds)
SAME_PROCESS = (calibrate, 0.010)
FRESH_PROCESS = (calibrate_process, 0.15)


# ----------------------------------------------------------------------
# accuracy ledger


class Ledger:
    """Scaled errors against references, each with its tolerance.

    `worst` feeds the `digits` metric; any error above its tolerance (or a
    failed property) makes the run incorrect.
    """

    def __init__(self):
        self.worst = 0.0
        self.worst_name = ""
        self.failures = []

    def err(self, name, value, tol):
        value = float(value)
        if not value <= tol:
            self.failures.append(f"{name}: {value:.3e} > tol {tol:.1e}")
        if value > self.worst:
            self.worst, self.worst_name = value, name

    def prop(self, name, cond, detail=""):
        if not cond:
            self.failures.append(f"{name}: {detail or 'failed'}")

    @property
    def ok(self):
        return not self.failures

    def digits(self):
        return -math.log10(max(self.worst, 1e-17))


def rel(a, b):
    """|a - b| relative to the reference b (floored at 1)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def coeff_err(c, ref):
    """Worst coefficient error, the error at order n judged against the
    largest reference coefficient up to order n + 1.  Decaying coefficients
    are only determined to rounding of the leading ones, and a coefficient
    near a sign change has no size of its own."""
    c, ref = np.asarray(c, dtype=complex), np.asarray(ref, dtype=complex)
    mag = np.abs(ref)
    scale = np.maximum.accumulate(np.concatenate((mag[1:], [0.0])))
    scale = np.maximum(scale, np.maximum.accumulate(mag))
    scale = np.where(scale > 0, scale, 1.0)
    return float(np.max(np.abs(c - ref) / scale))


# ----------------------------------------------------------------------
# dense 2-D truncated series with a majorant


class Ring:
    """x-orders below `top` are kept; the second index is ln(x)^j ("log")
    or Y^j with Y = a x^omega ("omega"), truncated at `width`."""

    def __init__(self, kind, top, width, omega=0.0):
        self.kind, self.top, self.width, self.omega = kind, top, width, complex(omega)

    def series(self, coeffs, off=0):
        c = np.zeros((self.top - off, self.width), dtype=complex)
        a = np.asarray(coeffs, dtype=complex)
        if a.ndim == 1:
            a = a[:, None]
        rows, cols = min(a.shape[0], c.shape[0]), min(a.shape[1], self.width)
        c[:rows, :cols] = a[:rows, :cols]
        return Ser2(self, off, c, np.abs(c))

    def var(self):
        return self.series([0.0, 1.0])


class Ser2:
    __slots__ = ("ring", "off", "c", "m")

    def __init__(self, ring, off, c, m):
        self.ring, self.off, self.c, self.m = ring, off, c, m

    def _at(self, off):
        pad = self.off - off
        if pad == 0:
            return self.c, self.m
        shape = (self.ring.top - off, self.ring.width)
        c, m = np.zeros(shape, dtype=complex), np.zeros(shape)
        c[pad:], m[pad:] = self.c, self.m
        return c, m

    def _lift(self, other):
        if isinstance(other, Ser2):
            return other
        return self.ring.series([complex(other)])

    def _combine(self, other, sign):
        o = self._lift(other)
        off = min(self.off, o.off)
        (ca, ma), (cb, mb) = self._at(off), o._at(off)
        return Ser2(self.ring, off, ca + sign * cb, ma + mb)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return self._lift(other)._combine(self, -1.0)

    def __neg__(self):
        return Ser2(self.ring, self.off, -self.c, self.m)

    def __mul__(self, other):
        if not isinstance(other, Ser2):
            s = complex(other)
            return Ser2(self.ring, self.off, self.c * s, self.m * abs(s))
        ring = self.ring
        off = self.off + other.off
        rows, w = ring.top - off, ring.width
        if rows <= 0:
            return ring.series([0.0], off=ring.top - 1)
        if w == 1:
            c = np.convolve(self.c[:, 0], other.c[:, 0])[:rows]
            m = np.convolve(self.m[:, 0], other.m[:, 0])[:rows]
            cc, mm = np.zeros((rows, 1), complex), np.zeros((rows, 1))
            cc[: len(c), 0], mm[: len(m), 0] = c, m
            return Ser2(ring, off, cc, mm)
        c, m = np.zeros((rows, w), complex), np.zeros((rows, w))
        nz_a = np.nonzero(self.m.any(axis=1))[0]
        nz_b = np.nonzero(other.m.any(axis=1))[0]
        for i in nz_a:
            for j in nz_b:
                k = i + j
                if k >= rows:
                    break
                c[k] += np.convolve(self.c[i], other.c[j])[:w]
                m[k] += np.convolve(self.m[i], other.m[j])[:w]
        return Ser2(ring, off, c, m)

    __rmul__ = __mul__

    def deriv(self):
        ring = self.ring
        n = np.arange(self.off, self.off + self.c.shape[0])[:, None]
        if ring.kind == "log":
            # x^n L^j -> n x^(n-1) L^j + j x^(n-1) L^(j-1)
            j = np.arange(1, ring.width)
            c = n * self.c
            m = np.abs(n) * self.m
            c[:, :-1] += j * self.c[:, 1:]
            m[:, :-1] += j * self.m[:, 1:]
        else:
            # x^k Y^N -> (k + N omega) x^(k-1) Y^N
            e = n + np.arange(ring.width)[None, :] * ring.omega
            c, m = e * self.c, np.abs(e) * self.m
        out_c = np.zeros((ring.top - self.off + 1, ring.width), complex)
        out_m = np.zeros(out_c.shape)
        out_c[: c.shape[0]], out_m[: m.shape[0]] = c, m
        return Ser2(ring, self.off - 1, out_c, out_m)


def pvi_residual(x, y, yp, ypp, theta):
    """PVI times x^2 (x-1)^2 y (y-1) (y-x), written from the equation."""
    t0, tx, t1, ti = (complex(t) for t in theta)
    alpha, beta = (ti - 1.0) ** 2 / 2.0, -t0 * t0 / 2.0
    gamma, delta = t1 * t1 / 2.0, (1.0 - tx * tx) / 2.0
    xm1, ym1, ymx = x - 1.0, y - 1.0, y - x
    p = y * ym1 * ymx
    q = x * x * xm1 * xm1
    return (q * p * ypp
            - 0.5 * q * (ym1 * ymx + y * ymx + y * ym1) * yp * yp
            + x * xm1 * (2.0 * x - 1.0) * p * yp
            + q * y * ym1 * yp
            - alpha * p * p
            - beta * x * (ym1 * ymx) * (ym1 * ymx)
            - gamma * xm1 * (y * ymx) * (y * ymx)
            - delta * x * xm1 * (y * ym1) * (y * ym1))


def scaled_residual(y, theta, orders):
    """Worst residual over x-orders 0..orders-1, each order judged against
    the largest majorant entry of that order."""
    x = y.ring.var()
    yp = y.deriv()
    r = pvi_residual(x, y, yp, yp.deriv(), theta)
    lo = -r.off
    c = np.abs(r.c[lo: lo + orders]).max(axis=1)
    m = r.m[lo: lo + orders].max(axis=1)
    if np.any((m == 0) & (c != 0)):
        return math.inf
    return float(np.max(c / np.where(m > 0, m, 1.0)))
