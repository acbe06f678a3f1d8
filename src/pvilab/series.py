"""The truncated series ring at x = 0 and the order-by-order PVI solvers.

One ring, `Series`, holds sum c[k, j] x^(k + off) B^j, where B is

  ln x              (omega is None): the logarithmic families;
  Y = a x^omega     (omega given):   the one-parameter families.

A 1-D `c` is the width-1 case, a plain power series (the Taylor classes).
Products are truncated 2-D convolutions; only the derivative depends on
the kind of B.  The three solvers seed the printed low-order coefficients
and find the rest with one kernel, `_solve_slots`, through the generic
residual expression in pvi.py: evaluate the residual, take the move of each
unknown coefficient, then solve at the controlling order.  Each solver takes
PVI's linearization once, from three probes (`_probe`) with consecutive
exponents, once it no longer changes on the rows a step solves on; then
every move follows from one formula (`_move`) and each step costs one
residual evaluation.  Only Taylor orders below _WINDOW are probed singly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .numerics import BranchSpec, PRINCIPAL, clog, cpow
from .pvi import ThetaParams, ResonanceError, is_int, pvi_residual_series

__all__ = [
    "Series",
    "PSeries",
    "LogSeries",
    "OmegaSeries",
    "ObstructionError",
    "TrustRadiusWarning",
    "solve_taylor",
    "solve_log_series",
    "solve_omega_series",
    "residual_leading_order",
    "TAYLOR_CLASSES",
]


class ObstructionError(RuntimeError):
    """The order-n linear solve had zero coefficient and nonzero right side."""


class TrustRadiusWarning(UserWarning):
    pass


# ----------------------------------------------------------------------
# the ring


def _horner(c, z):
    acc = 0.0 + 0.0j
    for ck in c[::-1]:
        acc = acc * z + ck
    return acc


class Series:
    """sum c[k, j] x^(k + off) B^j with B = ln x (omega None) or Y = a x^omega.

    c has one row per x-order, off .. off + rows - 1, all of them known: a
    product keeps the smaller number of rows, a sum the lower top order,
    and a derivative the top order (with coefficient 0 there, as for a
    polynomial).  A 1-D c is the width-1 case, a plain power series.
    """

    # p: the per-order ln-polynomials, set on solve_log_series results only
    __slots__ = ("c", "off", "omega", "a", "meta", "p")

    def __init__(self, c, off=0, omega=None, a=None, meta=None):
        self.c = np.asarray(c, dtype=complex)
        self.off = off
        self.omega = None if omega is None else complex(omega)
        self.a = a
        self.meta = meta or {}

    def _new(self, c, off):
        """A series of the same kind; c is already a complex array."""
        out = object.__new__(Series)
        out.c, out.off, out.omega, out.a, out.meta = c, off, self.omega, self.a, {}
        return out

    def rows(self):
        """c as a (rows, width) view."""
        return self.c.reshape(len(self.c), -1)

    def _monomial(self, value, order):
        """value x^order at the same truncation as self."""
        c = np.zeros_like(self.c)
        if 0 <= order - self.off < len(c):
            c.reshape(len(c), -1)[order - self.off, 0] = value
        return self._new(c, self.off)

    def variable(self):
        return self._monomial(1.0, 1)

    def _lift(self, other):
        return other if isinstance(other, Series) else self._monomial(complex(other), 0)

    def _window(self, off, top):
        """c over the orders off .. top - 1, zero below self.off."""
        if off == self.off and top == self.off + len(self.c):
            return self.c
        out = np.zeros((top - off,) + self.c.shape[1:], dtype=complex)
        out[self.off - off:] = self.c[: top - self.off]
        return out

    def _combine(self, other, op):
        o = self._lift(other)
        off = min(self.off, o.off)
        top = min(self.off + len(self.c), o.off + len(o.c))
        return self._new(op(self._window(off, top), o._window(off, top)), off)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._lift(other)._combine(self, np.subtract)

    def __neg__(self):
        return self._new(-self.c, self.off)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._new(self.c * complex(other), self.off)
        n = min(len(self.c), len(other.c))
        off = self.off + other.off
        if self.c.ndim == 1:
            return self._new(np.convolve(self.c, other.c)[:n], off)
        # rows padded to stride 2w - 1: c[i, p] d[j, q] lands on row i + j,
        # column p + q <= 2w - 2, so one 1-D convolution does the 2-D one
        w = self.c.shape[1]
        s = 2 * w - 1
        a = np.zeros((n, s), dtype=complex)
        b = np.zeros((n, s), dtype=complex)
        a[:, :w], b[:, :w] = self.c[:n], other.c[:n]
        prod = np.convolve(a.ravel(), b.ravel())[: n * s]
        return self._new(prod.reshape(n, s)[:, :w], off)

    __rmul__ = __mul__

    def deriv(self):
        """d/dx: x^n B^j -> x^(n-1) (n + d/dB) B^j for ln x, (n + j omega) for Y.

        The new bottom order x^(off-1) is kept unless the series is a plain
        power series from x^0, where it vanishes identically.
        """
        c = self.rows()
        n = np.arange(self.off, self.off + len(c))[:, None]
        if self.omega is None:
            d = n * c
            d[:, :-1] += np.arange(1, c.shape[1]) * c[:, 1:]
        else:
            d = (n + np.arange(c.shape[1]) * self.omega) * c
        out = np.zeros((len(c) + 1,) + self.c.shape[1:], dtype=complex)
        out[:-1] = d.reshape((len(c),) + self.c.shape[1:])
        if self.c.ndim == 1 and self.off == 0:
            return self._new(out[1:], 0)
        return self._new(out, self.off - 1)

    # -- evaluation ----------------------------------------------------

    def trust_radius(self):
        """0.5 |b_{N-1}/b_N| clamped to [1e-6, 0.3]; N = last nonzero order.

        Of a plain power series only.
        """
        nz = np.nonzero(np.abs(self.c) > 0)[0]
        if len(nz) < 2:
            return 0.3
        n = nz[-1]
        r = 0.5 * abs(self.c[n - 1]) / abs(self.c[n]) if self.c[n] != 0 else 0.3
        return min(max(r, 1e-6), 0.3)

    def eval(self, x, a=None, branch: BranchSpec = PRINCIPAL):
        """Value at x; Y = a x^omega takes a from self.a unless given.

        A plain power series warns beyond its trust radius.
        """
        if self.c.ndim == 1:
            if abs(x) > self.trust_radius():
                warnings.warn(f"|x| = {abs(x):.3g} beyond trust radius "
                              f"{self.trust_radius():.3g}", TrustRadiusWarning)
            return _horner(self.c, x)
        if self.omega is None:
            B = clog(x, branch)
        else:
            a = self.a if a is None else a
            if a is None:
                raise ValueError("parameter a required for evaluation")
            B = a * cpow(x, self.omega, branch)
        return sum(_horner(row, B) * cpow(x, k + self.off, branch)
                   for k, row in enumerate(self.c))

    def eval_deriv(self, x, a=None, branch: BranchSpec = PRINCIPAL):
        return self.deriv().eval(x, a, branch)

    def to_json(self):
        """The JSON document of a Taylor-class solution."""
        m = self.meta
        th = m.get("theta")
        return {
            "class": m.get("class"),
            "theta": [[t.real, t.imag] for t in th.as_tuple()] if th else None,
            "a": [m["a"].real, m["a"].imag] if m.get("a") is not None else None,
            "N": int(m.get("N", len(self.c) - 1)),
            "coeffs": [[z.real, z.imag] for z in self.c],
        }


# the ring under the names of the three kinds it covers
PSeries = LogSeries = OmegaSeries = Series


# ----------------------------------------------------------------------
# leading-order report


def residual_leading_order(res, floor=1e-9):
    """First x-order of `res` with a coefficient above the noise floor.

    Returns None if every stored coefficient is below it (exact solution to
    truncation).  The floor is relative to the largest stored coefficient.
    """
    mags = np.abs(res.rows()).max(axis=1)
    scale = mags.max()
    if scale == 0:
        return None
    idx = np.nonzero(mags > floor * max(scale, 1.0))[0]
    if len(idx) == 0:
        return None
    return int(res.off + idx[0])


# ----------------------------------------------------------------------
# the order-by-order kernel


# A slot is probed at 1 where its square reaches its rows, else at _LINEAR: a
# power of two, so the move scales exactly, above the base residual's rounding.
_LINEAR = 2.0 ** 20


def _probe(residual_of, c, slots, t=1.0):
    """The residual of c, and the move of its rows per unit of each slot alone,
    probed at t.  residual_of(c) is the PVI residual of the series with
    coefficients c; the slots are zero on entry and on exit."""
    res = residual_of(c)
    r0 = res.rows()
    moves = []
    for s in slots:
        c[s] = t
        moves.append((residual_of(c).rows() - r0) / t)
        c[s] = 0.0
    return res, moves


def _linearize(g0, g1, g2):
    """lin = (G, G', G''/2) at lambda_0 from G at lambda_0, lambda_0 + 1 and
    lambda_0 + 2 (see _move): G is quadratic in lambda."""
    c = (g2 - 2.0 * g1 + g0) / 2.0
    return g0, g1 - g0 - c, c


def _move(lin, d, shape, j=0, ln=False):
    """The move of residual rows of `shape` per unit of the slot x^k B^j, from
    lin = (G, G', G''/2) at lambda_0, with d = lambda - lambda_0.

    The residual is F(x, y, x y', x^2 y'') with F a polynomial (every y' in
    pvi_residual_expr carries a factor x, every y'' a factor x^2).  On rows
    linear in a slot delta its move is F_0 delta + F_1 x delta' + F_2 x^2 delta''
    with F_i the partials of F in its last three arguments; let
    G(lambda) = F_0 + lambda F_1 + lambda(lambda-1) F_2.  On delta = x^k Y^j,
    Y = a x^omega, x d/dx is lambda = k + j omega, so the move is
    x^k Y^j G(lambda); on delta = x^k L^j, L = ln x, it is k + d/dL, so
      move = x^k (L^j G(k) + j L^(j-1) G'(k) + j(j-1) L^(j-2) G''/2);
    j = 0 of either is the Taylor case.  G is quadratic in lambda, so
    G(lambda) = G + d G' + d^2 G''/2 and G'(lambda) = G' + 2d G''/2.  y, x y'
    and x^2 y'' keep x-orders, so row i of G depends on y through x^i alone:
    lin holds the rows of G the window shows from x^k up, the same for every
    slot once those coefficients are final.  They fill the top rows, column 0
    at column j.
    """
    g, g1, g2 = lin
    terms = [(j, g + d * g1 + d * d * g2)]
    if ln:
        terms += [(j - 1, j * (g1 + 2.0 * d * g2)), (j - 2, j * (j - 1) * g2)]
    out = np.zeros(shape, dtype=complex)
    for col, t in terms:
        if col >= 0:
            t = t[:, : shape[1] - col]
            out[-len(t):, col: col + t.shape[1]] += t
    return out


def _solve_slots(res, moves, c, slots, what, cols=slice(None)):
    """Solve the unknown coefficients c[slots] (zero on entry) in place.

    res is the residual at c and moves[i] the move of its rows when c[slots[i]]
    is set to 1: probed (_probe) or assembled (_move); every check below
    treats both alike.  The controlling x-order m is the first where a move in
    the residual columns `cols` exceeds 1e-8 of the largest move; every lower
    order must already vanish to 1e-9 of the residual.  One slot, paired with
    one column, is solved by division (a linear coefficient below 1e-10 is a
    resonance); several slots, the ln-coefficients of one P_n, by least
    squares over the columns of order m, consistent to 1e-7.  `what` names
    the step in error messages.
    """
    r0 = res.rows()[:, cols]
    diffs = [d[:, cols] for d in moves]
    reach = np.max([np.abs(d).max(axis=1) for d in diffs], axis=0)
    if reach.max() == 0:
        raise ObstructionError(f"{what}: coefficient does not enter the residual")
    m = int(np.nonzero(reach > 1e-8 * reach.max())[0][0])
    noise = 1e-9 * max(1.0, np.abs(r0).max())
    bad = np.nonzero(np.abs(r0[:m]).max(axis=1) > noise)[0]
    if len(bad):
        raise ObstructionError(
            f"{what}: residual obstruction at order {res.off + bad[0]} (resonance?)")
    if len(slots) == 1:
        clin = diffs[0][m, 0]
        if abs(clin) < 1e-10 * max(1.0, np.abs(r0 + diffs[0]).max()):
            raise ResonanceError(f"{what}: resonant (vanishing linear coefficient)")
        c[slots[0]] = -r0[m, 0] / clin
        return
    A = np.stack([d[m] for d in diffs], axis=1)
    sol, *_ = np.linalg.lstsq(A, -r0[m], rcond=None)
    resid = np.abs(A @ sol + r0[m]).max()
    if resid > 1e-7 * max(1.0, np.abs(r0[m]).max()):
        raise ObstructionError(f"{what}: inconsistent linear system (residual {resid:.2e})")
    for s, v in zip(slots, sol):
        c[s] = v


# ----------------------------------------------------------------------
# Taylor classes


def _check(cond, msg):
    if not cond:
        raise ResonanceError(msg)


def _taylor_seed(theta: ThetaParams, klass: str, a):
    """Returns (fixed: {order: value}, free: {order: value-or-None})."""
    t0, tx, t1, ti = theta.as_tuple()
    if klass == "form1":
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded for class form1")
        _check(not is_int(t1 - ti), "th1 - thinf integer: class form1 hypothesis violated")
        return {0: (t1 - ti + 1.0) / (1.0 - ti)}, {}
    if klass == "riuffa":
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded")
        _check(not is_int(t1 + ti), "th1 + thinf integer: hypothesis violated")
        return {0: (t1 + ti - 1.0) / (ti - 1.0)}, {}
    if klass == "form2":
        _check(abs(t1 - ti) < 1e-10 or abs(t1 + ti) < 1e-10,
               "class form2 needs th1 = +-thinf")
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded")
        _check(abs(t0 - tx) < 1e-10 or abs(t0 + tx) < 1e-10, "class form2 needs th0 = +-thx")
        return {0: 1.0 / (1.0 - ti)}, {1: a}
    if klass == "form3":
        _check(abs(ti - 1.0) < 1e-10 and abs(t1) < 1e-10, "class form3 needs thinf = 1, th1 = 0")
        if a is None:
            raise ValueError("class form3 carries the free parameter a = y(0)")
        return {0: a}, {}
    if klass in ("taylor1+", "taylor1-"):
        s = 1.0 if klass.endswith("+") else -1.0
        _check(abs(t0) > 1e-10, "th0 = 0 excluded for taylor1")
        _check(not is_int(t0 + s * tx), "th0 +- thx integer: taylor1 hypothesis violated")
        return {0: 0.0, 1: t0 / (t0 + s * tx)}, {}
    if klass == "taylor2":
        _check(abs(t0 + tx - 1.0) < 1e-10 and abs(t0) > 1e-10, "taylor2 needs th0 + thx = 1, th0 != 0")
        _check(abs(t1 - (ti - 1.0)) < 1e-10 or abs(t1 + (ti - 1.0)) < 1e-10,
               "taylor2 needs th1 = +-(thinf - 1)")
        return {0: 0.0, 1: t0}, {2: a}
    if klass == "taylor3":
        _check(abs(t0) < 1e-10 and abs(tx) < 1e-10, "taylor3 needs th0 = thx = 0")
        return {0: 0.0}, {1: a}
    if klass == "generic":
        if a is None:
            raise ValueError("class generic needs the leading coefficient a = y(0)")
        return {0: a}, {}
    raise ValueError(f"unknown Taylor class {klass!r}")


TAYLOR_CLASSES = ("form1", "riuffa", "form2", "form3",
                  "taylor1+", "taylor1-", "taylor2", "taylor3", "generic")


# W: order n of a Taylor class is solved on the residual rows x^0 .. x^(n+W-1).
# b_n^2 first enters at x^(2n), so from n = W on those rows are linear in b_n.
_WINDOW = 8


def solve_taylor(theta: ThetaParams, klass: str, a=None, N: int = 12) -> Series:
    """Order-by-order solution of PVI in the given Taylor class.

    Seed the class's fixed low-order coefficients, then solve each b_n from
    the first residual order it reaches, on the residual through
    x^(n + _WINDOW - 1).  Below _WINDOW the move of b_n is probed at 1, then
    at _LINEAR through _WINDOW + 2; those three probes fix G (see _move) on
    the rows it shows, which depend on b_0 .. b_(W-1) alone, and every later
    order takes its move from _move and one residual evaluation.
    Free parameters are inserted at the orders where the class's resonance
    makes the linear coefficient vanish.
    """
    fixed, free = _taylor_seed(theta, klass, a)
    b = np.zeros(N + _WINDOW, dtype=complex)
    for k, v in fixed.items():
        b[k] = v
    blocks, lin = [], None    # every class fixes or frees only orders below W
    for n in range(max(fixed) + 1, N + 1):
        if n in free:
            b[n] = free[n] if free[n] is not None else 0.0
            continue

        def residual_of(v):
            return pvi_residual_series(Series(v[: n + _WINDOW]), theta)
        if lin is None:
            res, moves = _probe(residual_of, b, [n], _LINEAR if n >= _WINDOW else 1.0)
            if n >= _WINDOW:
                blocks.append(moves[0][n:])
                lin = _linearize(*blocks) if len(blocks) == 3 else None
        else:
            res = residual_of(b)
            moves = [_move(lin, n - _WINDOW, res.rows().shape)]
        _solve_slots(res, moves, b, [n], f"order {n}")
    return Series(b[: N + 1], meta={"class": klass, "theta": theta, "a": a, "N": N})


# ----------------------------------------------------------------------
# log-polynomial families (sigma = 0)


def solve_log_series(theta: ThetaParams, shape: str, r: complex, N: int = 3,
                     B1=None) -> Series:
    """Logarithmic x=0 families, sum_n P_n(ln x) x^n.

    shape2 (th0 != +-thx): P1(ln x) = (thx^2-th0^2)/4 ln^2 x - 2(r+th0/2) ln x
                          + 4 r (r+th0)/(thx^2-th0^2)
    shape3+/- (th0 = +-thx): P1 = r +- th0 ln x

    If B1 is given for shape2 it overrides r via B1 = -2r - th0.
    Higher P_n are found by a linear least-squares solve against the
    residual, with the ln-degree of P_n capped at 2n+2 and that of the
    ring at 2N+10.  Each P_n is solved on the residual through its
    controlling order x^(n+2) (rows x^-2 .. x^(n+2)); there G (see _move)
    depends on P_1 alone, so it is taken once, from x^2, x^3 and x^4 probed
    at _LINEAR, and each order costs one residual evaluation.
    The result keeps x-orders through N+6 (zero above N) and carries `.p`,
    the list of P_n with trailing zeros trimmed.
    """
    t0, tx, t1, ti = theta.as_tuple()
    if shape == "shape2":
        _check(abs(t0 - tx) > 1e-10 and abs(t0 + tx) > 1e-10, "shape2 needs th0 != +-thx")
        if B1 is not None:
            r = -(B1 + t0) / 2.0
        d2 = tx * tx - t0 * t0
        P1 = [4.0 * r * (r + t0) / d2, -2.0 * r - t0, d2 / 4.0]
    elif shape in ("shape3+", "shape3-"):
        sgn = 1.0 if shape.endswith("+") else -1.0
        _check(abs(t0 - sgn * tx) < 1e-10, f"{shape} needs th0 = {'+' if sgn>0 else '-'}thx")
        P1 = [r, sgn * t0]
    else:
        raise ValueError(f"unknown log shape {shape!r}")

    c = np.zeros((N + 7, 2 * N + 11), dtype=complex)
    c[1, : len(P1)] = P1
    if N >= 2:
        # G at lambda = 2, 3, 4 on the rows x^k .. x^(k+2) of x^k, k = 2, 3, 4
        base, probed = _probe(lambda v: pvi_residual_series(Series(v[:9]), theta),
                              c, [(2, 0), (3, 0), (4, 0)], _LINEAR)
        lin = _linearize(*(m[k + 2: k + 5] for k, m in zip((2, 3, 4), probed)))
    for n in range(2, N + 1):
        # the rows x^-2 .. x^(n+2); at n = 2 those of the probes' base
        res = (Series(base.c[:7], -2) if n == 2
               else pvi_residual_series(Series(c[: n + 5]), theta))
        moves = [_move(lin, n - 2, res.rows().shape, j, ln=True) for j in range(2 * n + 3)]
        _solve_slots(res, moves, c, [(n, j) for j in range(2 * n + 3)], f"x-order {n}")
    out = Series(c, meta={"shape": shape, "theta": theta, "r": r, "N": N})
    out.p = [np.trim_zeros(q, "b") if q.any() else q[:1] for q in c]
    return out


# ----------------------------------------------------------------------
# one-parameter omega double series


def solve_omega_series(theta: ThetaParams, branch: str, a, K: int = 6, M: int = 2,
                       omega_sign: int = 1) -> Series:
    """One-parameter family y = sum_N y_N(x) (a x^omega)^N.

    branch selects the N=0 Taylor column: riuffa (omega = +-(th1+thinf-1))
    or form1 (omega = +-(thinf-th1-1)).  The N=1, x^0 coefficient is the
    normalization b0/(thinf-1) * sign so the two leading terms reproduce the
    printed one-parameter asymptotics with a identified with r.  Each
    c[k, N] is solved from column N of the residual through x^(k+2), where
    its move is x^k Y^N G_0(k + N omega) (see _move).  G_0, column 0 of G,
    depends on the Taylor column alone: x^k Y, k = 0, 1, 2, probed at _LINEAR
    before the normalization is set, fix it, and each slot costs one residual.
    """
    t0, tx, t1, ti = theta.as_tuple()
    if branch == "riuffa":
        omega = omega_sign * (t1 + ti - 1.0)
    elif branch == "form1":
        omega = omega_sign * (ti - t1 - 1.0)
    else:
        raise ValueError("branch must be form1 or riuffa")
    if is_int(omega):
        raise ResonanceError(
            "omega integer: the family degenerates to the Taylor classes (form2/form3)")
    if abs(omega.real) >= 1.0 or abs(omega) < 1e-12:
        raise ResonanceError(f"omega = {omega} outside |Re omega| < 1, omega != 0")

    y0 = solve_taylor(theta, branch, N=K)
    g = np.zeros((max(K, 2) + 5, M + 1), dtype=complex)
    g[: K + 1, 0] = y0.c
    # G_0 at lambda = k + omega: column 1 of the rows x^k .. x^(k+2) of x^k Y
    _, probed = _probe(lambda v: pvi_residual_series(Series(v[:7], omega=omega), theta),
                       g, [(0, 1), (1, 1), (2, 1)], _LINEAR)
    lin = _linearize(*(m[k + 2: k + 5, 1:2] for k, m in enumerate(probed)))
    g[0, 1] = omega_sign * y0.c[0] / (ti - 1.0)
    for N in range(1, M + 1):
        for k in range(1 if N == 1 else 0, K + 1):
            res = pvi_residual_series(Series(g[: k + 5], omega=omega), theta)
            move = _move(lin, k + (N - 1) * omega, res.rows().shape, N)
            _solve_slots(res, [move], g, [(k, N)], f"slot (k={k}, N={N})",
                         cols=slice(N, N + 1))
    return Series(g[: K + 1], omega=omega, a=a,
                  meta={"branch": branch, "theta": theta, "a": a, "K": K, "M": M,
                        "omega": omega})
