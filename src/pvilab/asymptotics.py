"""Critical-behavior seeds at x = 0: classification and leading terms.

Seeds provide (y, y') at small |x| inside a sector, used to start numeric
continuation and to verify trajectories against the predicted behavior.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import clog, cpow
from .pvi import ThetaParams

__all__ = [
    "OutOfStripError",
    "CriticalSeed",
    "classify",
    "make_seed",
    "seed_value",
    "leading_term",
    "trig_amp_phase",
    "three_term_value",
]

_TOL = 1e-10


class OutOfStripError(ValueError):
    """|Re sigma| >= 1: spiral-domain regime, representable but not evaluated."""


@dataclass(frozen=True)
class CriticalSeed:
    kind: str           # power-generic | trig | one-param-sum | one-param-diff |
                        # log-generic | log-special+ | log-special-
    theta: ThetaParams
    sigma: complex = 0.0
    r: complex = 0.0
    sigma_sign: int = 1          # for one-param kinds: sigma = sign*(th0 +- thx)
    arg_sector: tuple = (-math.pi / 4.0, math.pi / 4.0)


def classify(sigma: complex, theta: ThetaParams) -> str:
    """Which leading-term formula applies for this (sigma, theta)."""
    sigma = complex(sigma)
    if abs(sigma.real) >= 1.0:
        raise OutOfStripError(
            f"Re sigma = {sigma.real}: outside the strip |Re sigma| < 1 "
            "(spiral-domain regime, not evaluated)")
    t0, tx = theta.th0, theta.thx
    if abs(sigma) < _TOL:
        if abs(t0 - tx) < _TOL or abs(t0 + tx) < _TOL:
            return "log-special+" if abs(t0 - tx) < _TOL else "log-special-"
        return "log-generic"
    for s in (1, -1):
        if abs(sigma - s * (t0 + tx)) < _TOL:
            return "one-param-sum"
        if abs(sigma - s * (t0 - tx)) < _TOL:
            return "one-param-diff"
    if abs(sigma.real) < _TOL:
        return "trig"
    return "power-generic"


def make_seed(sigma, theta: ThetaParams, r):
    kind = classify(sigma, theta)
    sign = 1
    if kind in ("one-param-sum", "one-param-diff"):
        t0, tx = theta.th0, theta.thx
        base = t0 + tx if kind == "one-param-sum" else t0 - tx
        sign = 1 if abs(sigma - base) < _TOL else -1
    if kind in ("trig", "power-generic", "one-param-sum", "one-param-diff") and abs(complex(r)) == 0:
        raise ValueError(f"kind {kind} requires r != 0")
    return CriticalSeed(kind=kind, theta=theta, sigma=complex(sigma), r=complex(r),
                        sigma_sign=sign)


def _generic_term(k, s, t0, tx, r):
    """(coefficient, exponent) of x^{1-sigma}, x or x^{1+sigma} (k = 0, 1, 2) in the generic behavior."""
    if k == 0:
        return ((s * s - (t0 + tx) ** 2) * ((t0 - tx) ** 2 - s * s)) / (16.0 * s ** 3 * r), 1.0 - s
    return ((t0 * t0 - tx * tx + s * s) / (2.0 * s * s), 1.0) if k == 1 else (-r / s, 1.0 + s)


def _power_sum(terms, x, k=0):
    """The k-th x-derivative of the sum of c x^e over the (c, e) terms."""
    return sum(math.prod((e - j for j in range(k)), start=c) * cpow(x, e - k) for c, e in terms)


def _power_terms(seed: CriticalSeed):
    """List of (coefficient, exponent) pairs for the power-type kinds."""
    t0, tx, t1, ti = seed.theta.as_tuple()
    s, r = seed.sigma, seed.r
    if seed.kind == "power-generic":
        # the lead is formed on both sides: its overflow raises for either sign
        lead, sub = _generic_term(0, s, t0, tx, r), _generic_term(2, s, t0, tx, r)
        return [lead if s.real > 0 else sub]
    if seed.kind == "trig":
        A, phi = trig_amp_phase(s, seed.theta, r)
        return [(A / 2.0 * cmath.exp(1j * phi), 1.0 - s),
                _generic_term(1, s, t0, tx, r),
                (-A / 2.0 * cmath.exp(-1j * phi), 1.0 + s)]
    if seed.kind in ("one-param-sum", "one-param-diff"):
        base = t0 + tx if seed.kind == "one-param-sum" else t0 - tx
        # sigma = sign*base; second term is -(sign) r/base x^{1+sigma}
        return [(t0 / base, 1.0), (-seed.sigma_sign * r / base, 1.0 + s)]
    raise ValueError(seed.kind)


def leading_term(seed: CriticalSeed):
    """(coefficient, exponent) of the dominant printed term of a power-type
    seed, the one of smallest Re exponent, for drift ratios."""
    return min(_power_terms(seed), key=lambda t: complex(t[1]).real)


def three_term_value(sigma, theta: ThetaParams, r, x):
    """Leading + two subleading powers of the generic behavior, and derivative."""
    t0, tx, _, _ = theta.as_tuple()
    terms = [_generic_term(k, complex(sigma), t0, tx, r) for k in range(3)]
    return _power_sum(terms, x), _power_sum(terms, x, 1)


def seed_value(seed: CriticalSeed, x, three_term=False):
    """(y, y') of the seed's printed leading behavior at x."""
    t0, tx, t1, ti = seed.theta.as_tuple()
    r = seed.r
    if seed.kind in ("power-generic", "trig", "one-param-sum", "one-param-diff"):
        if three_term and seed.kind == "power-generic":
            return three_term_value(seed.sigma, seed.theta, r, x)
        terms = _power_terms(seed)
        return _power_sum(terms, x), _power_sum(terms, x, 1)
    lg = clog(x)
    if seed.kind == "log-generic":
        d = t0 * t0 - tx * tx
        u = lg + (4.0 * r + 2.0 * t0) / d
        f = -d / 4.0 * u * u + t0 * t0 / d
        # y = x f(ln x); y' = f + f'
        fp = -d / 2.0 * u
        return x * f, f + fp
    if seed.kind in ("log-special+", "log-special-"):
        sgn = 1.0 if seed.kind.endswith("+") else -1.0
        f = r + sgn * t0 * lg
        return x * f, f + sgn * t0
    raise ValueError(f"unknown seed kind {seed.kind}")


def seed_second(seed: CriticalSeed, x):
    """Closed-form y'' of the seed (for residual diagnostics)."""
    t0, tx, t1, ti = seed.theta.as_tuple()
    if seed.kind in ("power-generic", "trig", "one-param-sum", "one-param-diff"):
        return _power_sum(_power_terms(seed), x, 2)
    lg = clog(x)
    r = seed.r
    if seed.kind == "log-generic":
        d = t0 * t0 - tx * tx
        u = lg + (4.0 * r + 2.0 * t0) / d
        # y = x(-d/4 u^2 + t0^2/d); y'' = f'(L)/x + f''(L)/x
        return (-d / 2.0 * u - d / 2.0) / x
    if seed.kind in ("log-special+", "log-special-"):
        sgn = 1.0 if seed.kind.endswith("+") else -1.0
        return sgn * t0 / x
    raise ValueError(seed.kind)


def trig_amp_phase(sigma, theta: ThetaParams, r):
    """Amplitude A and phase phi of the oscillatory (Re sigma = 0) form."""
    t0, tx, _, _ = theta.as_tuple()
    s = complex(sigma)
    if abs(s) < _TOL or abs(s.real) > _TOL:
        raise ValueError("trig form needs sigma nonzero and purely imaginary")
    B = _generic_term(1, s, t0, tx, r)[0]
    A = cmath.sqrt(t0 * t0 / (s * s) - B * B)
    if abs(A) < 1e-14:
        raise ValueError("degenerate amplitude A = 0")
    phi = 1j * cmath.log(2.0 * r / (s * A))
    return A, phi

