"""The truncated series ring at x = 0 and the order-by-order PVI solvers.

One ring, `Series`, holds sum c[k, j] x^(k + off) B^j, where B is

  ln x              (omega is None): the logarithmic families;
  Y = a x^omega     (omega given):   the one-parameter families.

A 1-D `c` is the width-1 case, a plain power series (the Taylor classes).
Products are truncated 2-D convolutions of the blocks their operands occupy;
only the derivative depends on the kind of B.  The solvers seed the printed
coefficients and free parameters and find the rest through the generic
residual expression in pvi.py: an evaluation forms the factors in y and the
products, those in x alone coming from the ring once per shape
(`Series.xfactors`).  Each unknown's move comes from the exact partials
(`_lin`), and it is solved at its controlling order.  The Taylor and omega
solvers have one unknown per order and solve a block of orders with one
kernel, `_solve_block`: the residual is linear in the block's coefficients
on its rows, so it is evaluated once, every order's move is a row of one
matrix (`_block_moves`), and forward substitution adds each solved
coefficient's move to the stored residual.  A Taylor block from n0 holds
while the controlling order stays below x^(2 n0), its residual and partials
from one pass; an omega block is one column of the double series.  The log
solver evaluates once per order and solves the ln-coefficients of each P_n
together by least squares (`_moves`, `_solve_slots`).
"""

from __future__ import annotations

import warnings

import numpy as np

from .numerics import BranchSpec, PRINCIPAL, clog, cpow
from .pvi import (ThetaParams, ResonanceError, _xfactors, is_int,
                  pvi_linearization_expr, pvi_residual_series)

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


_XMEMO, _XMEMO_SIZE = {}, 64    # Series.xfactors: (off, shape) -> ((c, off, _nz), ...)


class Series:
    """sum c[k, j] x^(k + off) B^j with B = ln x (omega None) or Y = a x^omega.

    c has one row per x-order, off .. off + rows - 1, all of them known: a
    product keeps the smaller number of rows, a sum the lower top order,
    and a derivative the top order (with coefficient 0 there, as for a
    polynomial).  A 1-D c is the width-1 case, a plain power series.

    A 2-D c is zero outside its block c[:_nz[0], :_nz[1]], and a product
    convolves the operands' blocks alone.  _nz, at least (1, 1), is found by
    one scan when a series is built from an array, exact for a monomial, and
    carried through the ring's operations by arithmetic; a 1-D c has None.
    It is an upper bound, valid until c is written: the solvers write into c
    and into a residual's rows() in place, and multiply no series after
    writing into it.
    """

    # p: the per-order ln-polynomials, set on solve_log_series results only
    __slots__ = ("c", "off", "omega", "a", "meta", "p", "_nz")

    def __init__(self, c, off=0, omega=None, a=None, meta=None):
        self.c = np.asarray(c, dtype=complex)
        self.off = off
        self.omega = None if omega is None else complex(omega)
        self.a = a
        self.meta = meta or {}
        self._nz = None
        if self.c.ndim > 1:
            i, j = np.nonzero(self.c)
            self._nz = int(i.max(initial=0)) + 1, int(j.max(initial=0)) + 1

    def _new(self, c, off, nz):
        """A series of the same kind; c is already a complex array."""
        out = object.__new__(Series)
        out.c, out.off, out.omega, out.a, out.meta, out._nz = c, off, self.omega, self.a, {}, nz
        return out

    def head(self, rows):
        """self truncated to its first `rows` rows, as a product with a shorter operand is."""
        return self._new(self.c[:rows], self.off, self._nz and (min(self._nz[0], rows), self._nz[1]))

    def rows(self):
        """c as a (rows, width) view."""
        return self.c.reshape(len(self.c), -1)

    def _monomial(self, value, order):
        """value x^order at the truncation of self, from x^order if below self.off."""
        off = min(order, self.off)
        c, k = np.zeros((self.off + len(self.c) - off,) + self.c.shape[1:], dtype=complex), order - off
        if k < len(c):
            c.reshape(len(c), -1)[k, 0] = value
        return self._new(c, off, self._nz and (k + 1, 1))

    def variable(self):
        return self._monomial(1.0, 1)

    def xfactors(self, rows=0):
        """pvi._xfactors of x at the truncation of self, or of self.head(rows),
        formed once per (off, shape) into _XMEMO (read-only, cleared when full)
        and wrapped by _new on each call, so omega and a are those of self."""
        s = self.head(rows) if rows else self
        got = _XMEMO.get((s.off, s.c.shape))
        if got is None:
            got = tuple((f.c, f.off, f._nz) for f in _xfactors(s.variable()))
            for c, _, _ in got:
                c.flags.writeable = False
            if len(_XMEMO) >= _XMEMO_SIZE:
                _XMEMO.clear()
            _XMEMO[s.off, s.c.shape] = got
        return tuple(self._new(c, off, nz) for c, off, nz in got)

    def _window(self, off, top):
        """c over the orders off .. top - 1, zero below self.off."""
        if off == self.off and top == self.off + len(self.c):
            return self.c
        out = np.zeros((top - off,) + self.c.shape[1:], dtype=complex)
        if top > self.off:      # else no order of self lies in the window
            out[self.off - off:] = self.c[: top - self.off]
        return out

    def _scalar(self, value, op):
        """op(self, value) for a number lifted to value x^0 at the truncation
        of self: the other entries meet the lift's zeros, as through a
        monomial, so that signed zeros come out the same.  A series from
        above x^0 is first extended down to x^0 with zero rows."""
        c, off, nz = self.c, self.off, self._nz
        if off > 0:
            c, nz, off = self._window(0, off + len(c)), nz and (nz[0] + off, nz[1]), 0
        out, k = op(c, 0.0), -off
        if k < len(out):
            out.reshape(len(out), -1)[k, 0] = op(c.reshape(len(c), -1)[k, 0], value)
        return self._new(out, off, nz and (nz[0] if nz[0] > k else k + 1, nz[1]))

    def _combine(self, other, op):
        if other.__class__ is not Series:
            return self._scalar(complex(other), op)
        o, off = other, self.off
        if o.off == off and o.c.shape == self.c.shape:    # no window to cut
            a, b = self.c, o.c
        else:
            off = min(self.off, o.off)
            top = min(self.off + len(self.c), o.off + len(o.c))
            a, b = self._window(off, top), o._window(off, top)
        nz = None
        if self._nz and o._nz:    # conditionals, not max(): the call would cost more
            (ra, wa), (rb, wb) = self._nz, o._nz
            ra, rb = ra + self.off - off, rb + o.off - off
            nz = (ra if ra > rb else rb, wa if wa > wb else wb)
        return self._new(op(a, b), off, nz)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._scalar(complex(other), lambda c, v: v - c)

    def __neg__(self):
        return self._new(-self.c, self.off, self._nz)

    def __mul__(self, other):
        if other.__class__ is not Series:
            return self._new(self.c * complex(other), self.off, self._nz)
        a, b = self.c, other.c
        n, off = len(a) if len(a) < len(b) else len(b), self.off + other.off
        if self._nz is None:
            return self._new(np.convolve(a, b)[:n], off, None)
        # the occupied blocks, c[:ra, :wa] and d[:rb, :wb], in rows padded to
        # stride s = wa + wb - 1: c[i, p] d[j, q] lands on row i + j, column
        # p + q < s, so one 1-D convolution does the 2-D one; the product keeps
        # its rows below k = ra + rb - 1 (and n), and its columns below w
        (ra, wa), (rb, wb), w = self._nz, other._nz, self.c.shape[1]
        ca, cb, s = self.c[:ra, :wa], other.c[:rb, :wb], wa + wb - 1
        a, b = np.zeros((len(ca), s), dtype=complex), np.zeros((len(cb), s), dtype=complex)
        a[:, :wa], b[:, :wb] = ca, cb
        k = len(ca) + len(cb) - 1
        k = n if k > n else k
        prod = np.convolve(a.ravel(), b.ravel())[: k * s].reshape(k, s)
        if k == n and s >= w:
            return self._new(prod[:, :w], off, (n, w))
        out = np.zeros((n, w), dtype=complex)
        out[:k, :s] = prod[:, :w]
        return self._new(out, off, (k, s if s < w else w))

    __rmul__ = __mul__

    def deriv(self):
        """d/dx: x^n B^j -> x^(n-1) (n + d/dB) B^j for ln x, (n + j omega) for Y.

        The new bottom order x^(off-1) is kept unless the series is a plain
        power series from x^0, where it vanishes identically.
        """
        if self.c.ndim == 1:
            out = np.zeros(len(self.c) + 1, dtype=complex)
            np.multiply(np.arange(self.off, self.off + len(self.c)), self.c, out=out[:-1])
            if self.off == 0:
                return self._new(out[1:], 0, None)
            return self._new(out, self.off - 1, None)
        c = self.c
        n = np.arange(self.off, self.off + len(c))[:, None]
        if self.omega is None:
            d = n * c
            d[:, :-1] += np.arange(1, c.shape[1]) * c[:, 1:]
        else:
            d = (n + np.arange(c.shape[1]) * self.omega) * c
        out = np.zeros((len(c) + 1, c.shape[1]), dtype=complex)
        out[:-1] = d
        return self._new(out, self.off - 1, self._nz)

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


# the ring under the names of the three kinds it covers
PSeries = LogSeries = OmegaSeries = Series


# ----------------------------------------------------------------------
# leading-order report


_LEADING_FLOOR = 1e-9    # relative to the largest stored coefficient, or 1


def residual_leading_order(res):
    """First x-order of `res` with a coefficient above _LEADING_FLOOR, or
    None if there is none (exact solution to truncation)."""
    mags = np.abs(res.rows()).max(axis=1)
    scale = mags.max()
    if scale == 0:
        return None
    idx = np.nonzero(mags > _LEADING_FLOOR * max(scale, 1.0))[0]
    if len(idx) == 0:
        return None
    return int(res.off + idx[0])


# ----------------------------------------------------------------------
# the solve kernels


def _partials(theta, s):
    """(F0, F1, F2) of pvi_linearization_expr at the series s."""
    yp = s.deriv()
    return pvi_linearization_expr(s.variable(), s, yp, yp.deriv(), theta)


def _lin(f, lam, rows):
    """lin = (G, G', G''/2) at lambda_0 = lam (see _moves) on the orders
    x^0 .. x^(rows-1), from the partials f = (F0, F1, F2) of the residual."""
    f0, f1, f2 = f
    g = f0 + lam * f1 + lam * (lam - 1.0) * f2
    g1 = f1 + (2.0 * lam - 1.0) * f2
    return tuple(t.rows()[-t.off: rows - t.off] for t in (g, g1, f2))


def _moves(lin, d, shape, count):
    """moves[j]: the move of residual rows of `shape` per unit of the slot
    x^k B^j, for every j < count, from lin = (G, G', G''/2) at lambda_0, with
    d = lambda - lambda_0.

    A slot delta moves the residual by F_0 delta + F_1 x delta' + F_2 x^2 delta''
    (pvi_linearization_expr); let G(lambda) = F_0 + lambda F_1 + lambda(lambda-1) F_2.
    On delta = x^k Y^j, Y = a x^omega, x d/dx is lambda = k + j omega, so the
    move is x^k Y^j G(lambda); on delta = x^k L^j, L = ln x, it is k + d/dL, so
      move = x^k (L^j G(k) + j L^(j-1) G'(k) + j(j-1) L^(j-2) G''/2);
    j = 0 of either is the Taylor case.  An omega slot is solved on its own
    column, as j = 0 with j omega in d, so j > 0 is the ln case here.  G is
    quadratic in lambda, so G(lambda) = G + d G' + d^2 G''/2 and G'(lambda)
    = G' + 2d G''/2.  The F_i are polynomials in x, y, x y' and x^2 y'',
    which keep x-orders, so row i of G depends on y through x^i alone: lin
    holds the rows of G the window shows from x^k up, the same for every
    slot once those coefficients are final.  They fill the top rows, column
    0 at column j, each term added into zeros after the one before it.
    """
    g, g1, g2 = lin
    j = np.arange(count)
    at = count + np.arange(shape[1]) - j[:, None]    # slot j, column c: term column c - j
    out = np.zeros((count,) + shape, dtype=complex)
    for i, (t, scale) in enumerate(((g + d * g1 + d * d * g2, None), (g1 + 2.0 * d * g2, j),
                                    (g2, j * (j - 1)))):
        pad = np.concatenate([np.zeros((len(t), count)), t], axis=1)
        t = pad[:, at[i:] + i].transpose(1, 0, 2)
        out[i:, -len(pad):] += scale[i:, None, None] * t if i else t
    return out


# The thresholds of every solve.  A move's controlling row is the first
# above _REACH of the move's largest entry; the residual rows below it must
# stay under _NOISE of max(1, largest residual entry); a single slot whose
# linear coefficient is below _RESONANT of max(1, largest entry of residual
# plus move) is a resonance; a least-squares solve must be consistent to
# _CONSISTENT of max(1, largest entry of the controlling residual row).
_REACH, _NOISE, _RESONANT, _CONSISTENT = 1e-8, 1e-9, 1e-10, 1e-7


def _solve_slots(r, moves, c, what, off=0):
    """Solve the unknown coefficients c[:len(moves)] (zero on entry) in
    place, by least squares: c is P_n, its ln-coefficients the slots.

    r is the residual at P_n, its rows from x^off, and moves[i] the move of
    r per unit of c[i] (_moves).  The controlling x-order is the first
    row where a move exceeds _REACH of the largest; every lower order must
    vanish to _NOISE of the residual, and the system at the controlling
    order be consistent to _CONSISTENT.  Under the solvers' np.errstate, a
    residual or move that is not finite (an overflow) raises
    FloatingPointError.  `what` names the step in error messages.
    """
    scale = np.abs(r).max()
    if not np.isfinite(scale):
        raise FloatingPointError(f"{what}: the residual is not finite (overflow)")
    reach = np.abs(moves).max(axis=(0, 2))
    top = reach.max()
    if not np.isfinite(top):
        raise FloatingPointError(f"{what}: the move is not finite (overflow)")
    if top == 0:
        raise ObstructionError(f"{what}: coefficient does not enter the residual")
    m = int(np.argmax(reach > _REACH * top))
    noise = _NOISE * max(1.0, scale)
    bad = np.nonzero(np.abs(r[:m]).max(axis=1) > noise)[0]
    if len(bad):
        raise ObstructionError(
            f"{what}: residual obstruction at order {off + bad[0]} (resonance?)")
    A = moves[:, m].T.copy()
    sol, *_ = np.linalg.lstsq(A, -r[m], rcond=None)
    resid = np.abs(A @ sol + r[m]).max()
    if resid > _CONSISTENT * max(1.0, np.abs(r[m]).max()):
        raise ObstructionError(f"{what}: inconsistent linear system (residual {resid:.2e})")
    c[: len(sol)] = sol


def _block_moves(lin, ds):
    """moves[j]: the move G + d G' + d^2 G''/2 at d = ds[j] (see _moves, j = 0)
    of the residual rows that lin = (G, G', G''/2) covers, one row a slot.

    d^2 is formed in Python, as _moves forms it, and each product is numpy's
    scalar-times-array one, so that every entry keeps the bits of _moves.
    """
    g, g1, g2 = (t[:, 0] for t in lin)
    d = np.array(ds, dtype=complex)[:, None]
    dd = np.array([v * v for v in ds], dtype=complex)[:, None]
    return g + d * g1 + dd * g2


def _solve_block(r, moves, c, first, wlen, what, off=0, end=None):
    """Solve the single slots c[first], c[first + 1], .. (zero on entry) in
    place; return the residual rows each solved slot saw, one row a slot.

    r is the residual on one column, its rows from x^off.  Slot first + j
    enters it at its own order x^(first + j), above x^off: moves[j][i] is
    its move (_block_moves) on the row x^(first + j + i), down to r's last
    row.  It is solved at its controlling order, the first row of the window
    x^(first + j) .. x^(first + j + wlen - 1) where the move exceeds _REACH
    of its largest entry there.  With `end`, the block stops before the
    first later slot whose controlling order reaches x^end.

    Forward substitution adds each solved slot's move to the residual with
    numpy's array update r += c_j move_j, so that every coefficient keeps
    the bits of an order-by-order solve.  Then every slot's checks run at
    once on the residual it saw, through its window: finite, below _NOISE
    under the controlling row, a linear coefficient above _RESONANT.  The
    first slot that fails raises what an order-by-order solve raised: its
    residual is checked before its move at the first slot and in a block
    without `end`, after it at the later slots of a block with `end`.
    `what(slot)` names the step in error messages.
    """
    count, width = moves.shape
    rows, start = len(r), first - off
    A = np.abs(moves[:, :wlen])
    top = A.max(axis=1)
    m = start + np.arange(count) + (A > _REACH * top[:, None]).argmax(axis=1)
    ctrl = m.tolist()
    broken = (~np.isfinite(top) | (top == 0)).tolist()    # the move, in the window
    solved = next((j for j in range(count)
                   if broken[j] or j and end is not None and off + ctrl[j] >= end), count)
    # each move on the whole column, zero above its slot's row
    full = np.zeros((count, start + width + count), dtype=complex)
    step = full.strides[1]
    np.lib.stride_tricks.as_strided(full[:, start:], moves.shape,
                                    (full.strides[0] + step, step))[...] += moves
    full = full[:, :rows]
    seen = np.empty((solved + 1, rows), dtype=complex)
    seen[0] = r
    for j, i in enumerate(ctrl[:solved]):
        c[first + j] = v = -seen[j, i] / full[j, i]
        np.add(seen[j], v * full[j], out=seen[j + 1])
    # the checks of the solved slots and of one whose move stopped the block
    at = np.arange(min(solved + 1, count))
    win = start + at + wlen - 1
    P = np.maximum.accumulate(np.abs(seen[: len(at)]), axis=1)
    scale = P[at, win]
    noise = _NOISE * np.maximum(1.0, scale)
    obstructed = P[at, m[: len(at)] - 1] > noise
    near = np.maximum.accumulate(np.abs(seen[:solved] + full[:solved]), axis=1)
    resonant = (np.abs(full[at[:solved], ctrl[:solved]])
                < _RESONANT * np.maximum(1.0, near[at[:solved], win[:solved]]))
    failed = (~np.isfinite(scale) | obstructed)[:solved] | resonant
    if failed.any():
        j = int(failed.argmax())
    elif solved < count and broken[solved]:
        j = solved
    else:
        return seen[:solved]
    name = what(first + j)
    if j == solved and (j and end is not None or np.isfinite(scale[j])):
        if np.isfinite(top[j]):
            raise ObstructionError(f"{name}: coefficient does not enter the residual")
        raise FloatingPointError(f"{name}: the move is not finite (overflow)")
    if not np.isfinite(scale[j]):
        raise FloatingPointError(f"{name}: the residual is not finite (overflow)")
    if obstructed[j]:
        bad = int(np.argmax(np.abs(seen[j, : ctrl[j]]) > noise[j]))
        raise ObstructionError(f"{name}: residual obstruction at order {off + bad} (resonance?)")
    raise ResonanceError(f"{name}: resonant (vanishing linear coefficient)")


# ----------------------------------------------------------------------
# Taylor classes


def _check(cond, msg):
    if not cond:
        raise ResonanceError(msg)


def _taylor_seed(theta: ThetaParams, klass: str, a):
    """{order: value} below _WINDOW: the printed coefficients, then the free
    parameter a (0 if None) at the order whose linear coefficient vanishes."""
    t0, tx, t1, ti = theta.as_tuple()
    if a is not None and klass in ("form1", "riuffa", "taylor1+", "taylor1-"):
        raise ValueError(f"class {klass} has no free parameter: a = {a} would be ignored")
    free = 0.0 if a is None else a
    if klass == "form1":
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded for class form1")
        _check(not is_int(t1 - ti), "th1 - thinf integer: class form1 hypothesis violated")
        return {0: (t1 - ti + 1.0) / (1.0 - ti)}
    if klass == "riuffa":
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded")
        _check(not is_int(t1 + ti), "th1 + thinf integer: hypothesis violated")
        return {0: (t1 + ti - 1.0) / (ti - 1.0)}
    if klass == "form2":
        _check(abs(t1 - ti) < 1e-10 or abs(t1 + ti) < 1e-10,
               "class form2 needs th1 = +-thinf")
        _check(abs(ti - 1.0) > 1e-10, "thinf = 1 excluded")
        _check(abs(t0 - tx) < 1e-10 or abs(t0 + tx) < 1e-10, "class form2 needs th0 = +-thx")
        return {0: 1.0 / (1.0 - ti), 1: free}
    if klass == "form3":
        _check(abs(ti - 1.0) < 1e-10 and abs(t1) < 1e-10, "class form3 needs thinf = 1, th1 = 0")
        if a is None:
            raise ValueError("class form3 carries the free parameter a = y(0)")
        return {0: a}
    if klass in ("taylor1+", "taylor1-"):
        s = 1.0 if klass.endswith("+") else -1.0
        _check(abs(t0) > 1e-10, "th0 = 0 excluded for taylor1")
        _check(not is_int(t0 + s * tx), "th0 +- thx integer: taylor1 hypothesis violated")
        return {0: 0.0, 1: t0 / (t0 + s * tx)}
    if klass == "taylor2":
        _check(abs(t0 + tx - 1.0) < 1e-10 and abs(t0) > 1e-10, "taylor2 needs th0 + thx = 1, th0 != 0")
        _check(abs(t1 - (ti - 1.0)) < 1e-10 or abs(t1 + (ti - 1.0)) < 1e-10,
               "taylor2 needs th1 = +-(thinf - 1)")
        return {0: 0.0, 1: t0, 2: free}
    if klass == "taylor3":
        _check(abs(t0) < 1e-10 and abs(tx) < 1e-10, "taylor3 needs th0 = thx = 0")
        return {0: 0.0, 1: free}
    if klass == "generic":
        if a is None:
            raise ValueError("class generic needs the leading coefficient a = y(0)")
        return {0: a}
    raise ValueError(f"unknown Taylor class {klass!r}")


TAYLOR_CLASSES = ("form1", "riuffa", "form2", "form3",
                  "taylor1+", "taylor1-", "taylor2", "taylor3", "generic")


# W: order n of a Taylor class is solved on the residual rows x^0 .. x^(n+W-1).
_WINDOW = 8


@np.errstate(over="ignore", invalid="ignore")
def solve_taylor(theta: ThetaParams, klass: str, a=None, N: int = 12) -> Series:
    """Order-by-order solution of PVI in the given Taylor class.

    Seed the printed coefficients and free parameter (_taylor_seed; a class
    without one rejects `a`), then solve each b_n from the first residual
    order it reaches, on the residual through x^(n + _WINDOW - 1).  The
    orders come in doubling blocks, each one call of _solve_block: at a
    block start n0, one pass of pvi_residual_series (39 convolutions, the
    factors in x alone from the ring) forms the residual on the rows x^0 ..
    x^(top + W - 1), top = min(2 n0, N), and G (see _moves) at lambda = n0
    on the x^0 .. x^(top + W - n0 - 1) the moves read.  The move of b_n is
    x^n G(n), for every n0 <= n <= top at once, and forward substitution
    adds it to the stored residual once b_n is solved, exact below x^(2 n0):
    there the residual is linear in b_n0, b_n0+1, .., and the rows of G that
    reach them, below x^n0, depend on b_0 .. b_(n0-1) alone.  The block ends
    at the first order whose controlling row reaches x^(2 n0), so form1 at
    N = 48 makes 6 evaluations.
    """
    if N < 0:
        raise ValueError(f"N = {N}: the order must be at least 0")
    seed = _taylor_seed(theta, klass, a)
    b = np.zeros(N + _WINDOW, dtype=complex)
    for k, v in seed.items():
        b[k] = v
    n = max(seed) + 1
    while n <= N:
        top = min(2 * n, N)
        res, f = pvi_residual_series(Series(b[: top + _WINDOW]), theta, top + _WINDOW - n)
        lin = _lin(f, n, top + _WINDOW - n)
        n += len(_solve_block(res.c, _block_moves(lin, range(top - n + 1)), b, n, _WINDOW,
                              "order {}".format, end=2 * n))
    return Series(b[: N + 1])


# ----------------------------------------------------------------------
# log-polynomial families (sigma = 0)


@np.errstate(over="ignore", invalid="ignore")
def solve_log_series(theta: ThetaParams, shape: str, r: complex, N: int = 3) -> Series:
    """Logarithmic x=0 families, sum_n P_n(ln x) x^n.

    shape2 (th0 != +-thx): P1(ln x) = (thx^2-th0^2)/4 ln^2 x - 2(r+th0/2) ln x
                          + 4 r (r+th0)/(thx^2-th0^2)
    shape3+/- (th0 = +-thx): P1 = r +- th0 ln x

    Higher P_n are found by a linear least-squares solve against the
    residual, with the ln-degree of P_n capped at 2n+2 and that of the
    ring at 2N+10.  Each P_n is solved on the residual through its
    controlling order x^(n+2) (rows x^-2 .. x^(n+2)); there G (see _moves)
    shows its orders x^0 .. x^2, which depend on P_1 alone, so it is
    linearized once and each order costs one residual evaluation, whose
    products convolve the block of P_1 .. P_(n-1) (ln-degree at most 2n),
    not the whole (N+7) x (2N+11) ring.  The result keeps x-orders through N+6 (zero above N) and carries `.p`,
    the list of P_n with trailing zeros trimmed.
    """
    if N < 1:
        raise ValueError(f"N = {N}: the order must be at least 1, that of the seed P_1")
    t0, tx, t1, ti = theta.as_tuple()
    if shape == "shape2":
        _check(abs(t0 - tx) > 1e-10 and abs(t0 + tx) > 1e-10, "shape2 needs th0 != +-thx")
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
    lin = _lin(_partials(theta, Series(c[:9])), 2, 3)    # G at lambda = 2 on x^0 .. x^2
    for n in range(2, N + 1):
        res = pvi_residual_series(Series(c[: n + 5]), theta)
        moves = _moves(lin, n - 2, res.rows().shape, 2 * n + 3)
        _solve_slots(res.rows(), moves, c[n], f"x-order {n}", res.off)
    out = Series(c, meta={"N": N})
    out.p = [np.trim_zeros(q, "b") if q.any() else q[:1] for q in c]
    return out


# ----------------------------------------------------------------------
# one-parameter omega double series


@np.errstate(over="ignore", invalid="ignore")
def solve_omega_series(theta: ThetaParams, branch: str, a, K: int = 6, M: int = 2,
                       omega_sign: int = 1) -> Series:
    """One-parameter family y = sum_N y_N(x) (a x^omega)^N.

    branch selects the N=0 Taylor column: riuffa (omega = +-(th1+thinf-1))
    or form1 (omega = +-(thinf-th1-1)).  The N=1, x^0 coefficient is the
    normalization b0/(thinf-1) * sign so the two leading terms reproduce the
    printed one-parameter asymptotics with a identified with r.  Each
    c[k, N] is solved from column N of the residual through x^(k+2), where
    its move is x^k Y^N G_0(k + N omega) (see _moves).  G_0, column 0 of G,
    depends on the Taylor column alone, so it is linearized once.  Column N
    of the residual is linear in the column-N slots, whose products land in
    columns 2N and up, so it is evaluated once per column and solved as one
    block of _solve_block, each solved slot adding its move to it: K = 6,
    M = 2 makes 2 residual evaluations on the Y ring.
    """
    if M < 1:
        raise ValueError(f"M = {M}: the family needs at least the column N = 1")
    if K < 0:
        raise ValueError(f"K = {K}: the order in x must be at least 0")
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
    g = np.zeros((K + 5, M + 1), dtype=complex)
    g[: K + 1, 0] = y0.c
    lin = _lin(_partials(theta, Series(g[:, :1], omega=omega)), omega, K + 3)    # G_0 on x^0 .. x^(K+2)
    g[0, 1] = omega_sign * y0.c[0] / (ti - 1.0)
    for N in range(1, M + 1):
        res = pvi_residual_series(Series(g, omega=omega), theta)
        first = 1 if N == 1 else 0
        moves = _block_moves(lin, [k + (N - 1) * omega for k in range(first, K + 1)])
        _solve_block(res.rows()[:, N], moves, g[:, N], first, 3,    # x^k .. x^(k+2)
                     f"slot (k={{}}, N={N})".format, res.off)
    return Series(g[: K + 1], omega=omega, a=a)
