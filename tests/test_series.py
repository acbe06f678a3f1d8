"""Taylor, logarithmic and one-parameter series solvers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvilab import series
from pvilab.pvi import (ResonanceError, ThetaParams, _theta_draw, pvi_linearization_expr,
                        pvi_residual_series)
from pvilab.series import (TAYLOR_CLASSES, ObstructionError, Series,
                           TrustRadiusWarning, residual_leading_order,
                           solve_log_series, solve_omega_series, solve_taylor)

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


def test_pseries_ring_ops():
    x = Series([0, 1, 0, 0, 0, 0])
    s = (1.0 + x) * (1.0 - x) + x * x
    assert np.max(np.abs(s.c - np.array([1, 0, 0, 0, 0, 0]))) == 0
    assert np.max(np.abs((x * x * x).deriv().c
                         - np.array([0, 0, 3, 0, 0, 0]))) == 0


def _naive_product(a, b):
    """c[i, p] d[j, q] summed into (i + j, p + q) within the truncation."""
    rows, w = min(len(a), len(b)), a.shape[1]
    out = np.zeros((rows, w), dtype=complex)
    for i in range(len(a)):
        for p in range(w):
            for j in range(len(b)):
                for q in range(w):
                    if i + j < rows and p + q < w:
                        out[i + j, p + q] += a[i, p] * b[j, q]
    return out


def _naive_deriv(c, off, omega):
    """x^n B^j -> x^(n-1) (n B^j + j B^(j-1)) for B = ln x, (n + j omega) for Y."""
    out = np.zeros((len(c) + 1, c.shape[1]), dtype=complex)
    for k in range(len(c)):
        for j in range(c.shape[1]):
            n = k + off
            if omega is None:
                out[k, j] += n * c[k, j]
                if j:
                    out[k, j - 1] += j * c[k, j]
            else:
                out[k, j] += (n + j * omega) * c[k, j]
    return out


@pytest.mark.parametrize("shape,off,omega", [
    ((7,), 0, None),            # plain power series
    ((6, 4), -1, None),         # ln x
    ((6, 3), 0, 0.3 + 0.1j),    # Y = a x^omega
])
def test_ring_matches_naive_reference(shape, off, omega):
    rng = np.random.default_rng(7)
    ca, cb = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    a, b = Series(ca, off, omega), Series(cb[:-1], 1, omega)
    prod = a * b
    assert prod.off == off + 1
    assert np.allclose(prod.rows(), _naive_product(a.rows(), b.rows()), rtol=0, atol=1e-12)
    d = a.deriv()
    ref = _naive_deriv(a.rows(), off, omega)
    if len(shape) == 1:
        # a power series from x^0 keeps x^0 as its lowest order
        assert d.off == 0 and d.c.shape == shape
        assert np.allclose(d.c, ref[1:, 0], rtol=0, atol=1e-12)
    else:
        assert d.off == off - 1 and d.c.shape == (shape[0] + 1, shape[1])
        assert np.allclose(d.c, ref, rtol=0, atol=1e-12)
    # the top order is kept, with coefficient 0
    assert not d.rows()[-1].any()


_block_mul = Series.__mul__


def _padded_mul(self, other):
    """Series.__mul__ before the block bounds, the reference: a 2-D product
    pads every row of both operands, over the whole ring, to stride 2w - 1."""
    if not isinstance(other, Series) or self.c.ndim == 1:
        return _block_mul(self, other)
    n, w = min(len(self.c), len(other.c)), self.c.shape[1]
    s = 2 * w - 1
    a = np.zeros((n, s), dtype=complex)
    b = np.zeros((n, s), dtype=complex)
    a[:, :w], b[:, :w] = self.c[:n], other.c[:n]
    prod = np.convolve(a.ravel(), b.ravel())[: n * s]
    return Series(prod.reshape(n, s)[:, :w], self.off + other.off, self.omega, self.a)


_STEPS = {
    "add": lambda s, t: s + t,
    "sub": lambda s, t: s - t,
    "rsub": lambda s, t: t - s,
    "lift": lambda s, t: 1.5 - s,
    "deriv": lambda s, t: s.deriv(),
    "neg": lambda s, t: -s,
    "scale": lambda s, t: (0.5 - 2j) * s,
}


@st.composite
def _ring_operand(draw, ring, width):
    """A series of the ring ("ln", "Y" or "1-D") built from an array with
    random trailing zero rows and columns, then zero, a monomial, or moved
    through +, -, deriv with a second one at another offset (1 to 9 rows
    from x^-2 .. x^2, so that two operands' orders may not overlap)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def array_series():
        rows = draw(st.integers(1, 9))
        c = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
        c[rows - draw(st.integers(0, rows - 1)):] = 0
        c[:, width - draw(st.integers(0, width - 1)):] = 0
        return Series(c[:, 0] if ring == "1-D" else c, draw(st.integers(-2, 2)),
                      0.3 + 0.1j if ring == "Y" else None)
    s = array_series()
    kind = draw(st.sampled_from(["array", "zero", "monomial", "mixed", "mixed"]))
    if kind == "zero":
        return s * 0.0 if draw(st.booleans()) else Series(np.zeros_like(s.c), s.off, s.omega)
    if kind == "monomial":
        return s._monomial(complex(rng.normal(), rng.normal()), draw(st.integers(-3, 9)))
    if kind == "mixed":
        t = array_series()
        for step in draw(st.lists(st.sampled_from(sorted(_STEPS)), min_size=1, max_size=4)):
            s = _STEPS[step](s, t)
    return s


@st.composite
def _ring_pair(draw):
    ring = draw(st.sampled_from(["ln", "Y", "1-D"]))
    width = 1 if ring == "1-D" else draw(st.integers(1, 6))
    return draw(_ring_operand(ring, width)), draw(_ring_operand(ring, width))


def _placed_sum(a, b):
    """The rows of a + b over the orders both know, each operand's rows
    added at their orders: an operand contributes zeros below its first
    order and nothing above the window."""
    off, top = min(a.off, b.off), min(a.off + len(a.c), b.off + len(b.c))
    out = np.zeros((top - off, a.rows().shape[1]), dtype=complex)
    for s in (a, b):
        for k, row in enumerate(s.rows()[: max(top - s.off, 0)]):
            out[s.off + k - off] += row
    return off, out


@given(pair=_ring_pair())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_product_matches_the_padded_product(pair):
    """Any two series of the ln, Y or plain power ring, short or disjoint in
    order: the product of the occupied blocks agrees with the padded
    product to 1e-14 of its largest coefficient, the sum is the placed sum
    bit for bit, every block bound holds, and a plain power series product
    is the plain convolution, bit for bit."""
    a, b = pair
    got, want = a * b, _padded_mul(a, b)
    assert (got.off, got.c.shape) == (want.off, want.c.shape)
    assert np.abs(got.c - want.c).max() <= 1e-14 * np.abs(want.c).max()
    total = a + b
    off, rows = _placed_sum(a, b)
    assert total.off == off and np.array_equal(total.rows(), rows)
    if a.c.ndim == 1:
        assert np.array_equal(got.c, np.convolve(a.c, b.c)[: min(len(a.c), len(b.c))])
        return
    for s in (a, b, got, total):
        rows, cols = s._nz
        assert not s.rows()[rows:].any() and not s.rows()[:, cols:].any()


@pytest.mark.parametrize("shape,off", [((6,), 0), ((6,), -2), ((6,), 1), ((5, 3), -2),
                                       ((5, 3), 0), ((6,), 2), ((5, 3), 2)])
def test_scalar_sum_is_the_lifted_monomial_sum_bit_for_bit(shape, off):
    """s + v, s - v and v - s equal the sums with the monomial v x^0 at the
    truncation of s, signed zeros included, and carry its block bound.  A
    series from above x^0 is stored from x^0 for the sum, which keeps v."""
    c = np.zeros(shape, dtype=complex)
    c.flat[::2] = complex(-0.0, -0.0)
    c.flat[1::3] = 1.5 - 2.5j
    c[2:] = 0    # below the lift's row at off = -2, so that the lift raises the bound
    s = Series(c, off, None if len(shape) == 1 else 0.3 + 0.1j)
    for v in (-0.0, 0.25 - 1j):
        lift = s._monomial(v, 0)
        for got, want, at0 in ((s + v, s._combine(lift, np.add), v),
                               (s - v, s._combine(lift, np.subtract), -v),
                               (v - s, lift._combine(s, np.subtract), v)):
            assert (got.off, got._nz, got.c.tobytes()) == (want.off, want._nz, want.c.tobytes())
            assert got.off == min(off, 0) and got.off + len(got.c) == off + len(c)
            if off > 0:
                assert got.rows()[0, 0] == at0 and not got.rows()[1: off].any()


@pytest.mark.parametrize("off", [1, 2])
@pytest.mark.parametrize("shape,omega", [((8,), None), ((8, 3), None), ((8, 3), 0.3 + 0.1j)],
                         ids=["power", "ln", "Y"])
def test_residual_does_not_depend_on_the_offset_a_series_is_stored_from(shape, omega, off):
    """y stored from x^off and the same y stored from x^0, with off zero
    rows, have the same residual on their common orders, up to rounding."""
    rng = np.random.default_rng(off)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    high = Series(c, off, omega)
    low = Series(np.concatenate([np.zeros((off,) + shape[1:]), c]), 0, omega)
    assert high.variable().rows()[1 - high.variable().off, 0] == 1.0
    a, b = pvi_residual_series(high, TH), pvi_residual_series(low, TH)
    lo, top = min(a.off, b.off), min(a.off + len(a.c), b.off + len(b.c))
    a, b = a._window(lo, top), b._window(lo, top)
    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_residual_leading_order_reads_the_offset():
    res = Series([[0, 0], [1e-12, 0], [0, 3.0]], off=-2)
    assert residual_leading_order(res) == 0
    assert residual_leading_order(Series(np.zeros((3, 2)), off=-2)) is None


def test_solver_result_shapes():
    tay = solve_taylor(TH, "form1", N=6)
    assert tay.c.shape == (7,)
    tay.c = tay.c.copy()
    assert not hasattr(tay, "p")
    for shape, th, n1 in (("shape2", TH, 3),
                          ("shape3+", ThetaParams(0.37, 0.37, 0.31, 0.44), 2),
                          ("shape3-", ThetaParams(0.37, -0.37, 0.31, 0.44), 2)):
        ls = solve_log_series(th, shape, 0.2, N=3)
        assert ls.p is ls.p and isinstance(ls.p, list)
        assert len(ls.p[1]) == n1
        assert all(len(q) == 1 or q[-1] != 0 for q in ls.p)
        assert ls.meta["N"] == 3
    om = solve_omega_series(TH, "form1", a=0.15, K=5, M=2)
    assert om.c.shape == (6, 3)
    assert om.omega is not None and om.a == 0.15
    assert not hasattr(om, "p")


def test_pseries_eval_warns_beyond_trust_radius():
    s = Series(np.array([1.0, 1.0, 1e6], dtype=complex))
    with pytest.warns(TrustRadiusWarning):
        s.eval(0.2)


def test_form1_leading_coefficients():
    # b0 and b1 in closed form
    t0, tx, t1, ti = TH.as_tuple()
    d = t1 - ti
    ser = solve_taylor(TH, "form1", N=8)
    b0 = (d + 1.0) / (1.0 - ti)
    b1 = t1 * (d * d + 2.0 * d + tx * tx - t0 * t0) / (
        2.0 * (1.0 - ti) * (ti - t1) * (d + 2.0))
    assert abs(ser.c[0] - b0) < 1e-13
    assert abs(ser.c[1] - b1) < 1e-13


@pytest.mark.parametrize("klass,theta,a", [
    ("form1", TH, None),
    ("riuffa", TH, None),
    ("form2", ThetaParams(0.37, 0.37, -1.5, 1.5), 0.61),
    ("form3", ThetaParams(0.23, 0.57, 0.0, 1.0), 0.7),
    ("taylor1+", TH, None),
    ("taylor1-", TH, None),
    ("taylor3", ThetaParams(0.0, 0.0, 0.31, 0.44), 0.4),
])
def test_taylor_classes_kill_the_residual(klass, theta, a):
    assert klass in TAYLOR_CLASSES
    ser = solve_taylor(theta, klass, a=a, N=10)
    lead = residual_leading_order(pvi_residual_series(ser, theta))
    assert lead is None or lead >= 9


def test_form1_resonance_raises():
    with pytest.raises(ResonanceError):
        solve_taylor(ThetaParams(0.23, 0.57, 0.5, 0.5), "form1")
    with pytest.raises(ResonanceError):
        solve_taylor(ThetaParams(0.23, 0.57, 0.31, 1.0), "form1")


def test_generic_class_obstructs_off_the_printed_leading_value():
    b0 = solve_taylor(TH, "form1", N=6).c[0]
    assert np.array_equal(solve_taylor(TH, "generic", a=b0, N=6).c,
                          solve_taylor(TH, "form1", N=6).c)
    # y(0) = 0.5 leaves the x^0 residual nonzero below the slot b_1 controls
    with pytest.raises(ObstructionError, match="obstruction at order 0"):
        solve_taylor(TH, "generic", a=0.5, N=6)


def test_form2_rejects_generic_theta():
    with pytest.raises(ResonanceError):
        solve_taylor(TH, "form2", a=0.3)


def test_log_series_shape2():
    th = ThetaParams(0.23, 0.57, 0.31, 0.44)
    r = 0.1
    ls = solve_log_series(th, "shape2", r, N=3)
    # printed P1: leading ln^2 coefficient (thx^2 - th0^2)/4
    t0, tx = th.th0, th.thx
    assert abs(ls.p[1][2] - (tx * tx - t0 * t0) / 4.0) < 1e-12
    res = pvi_residual_series(ls, th)
    lead = residual_leading_order(res)
    assert lead is None or lead >= 5


def test_log_series_shape3():
    th = ThetaParams(0.37, 0.37, 0.31, 0.44)
    ls = solve_log_series(th, "shape3+", 0.2, N=3)
    assert abs(ls.p[1][1] - th.th0) < 1e-12
    lead = residual_leading_order(pvi_residual_series(ls, th))
    assert lead is None or lead >= 5


def test_log_series_eval_matches_polynomials():
    th = ThetaParams(0.23, 0.57, 0.31, 0.44)
    ls = solve_log_series(th, "shape2", 0.1, N=2)
    x = 1e-4
    L = np.log(x)
    manual = sum(sum(q[j] * L ** j for j in range(len(q))) * x ** (n)
                 for n, q in enumerate(ls.p))
    assert abs(ls.eval(x) - manual) < 1e-14 * (1.0 + abs(manual))


def test_omega_series_reduces_to_taylor_at_a_zero():
    th = TH
    om = solve_omega_series(th, "form1", a=0.0, K=5, M=2)
    base = solve_taylor(th, "form1", N=5)
    x = 5e-3
    assert abs(om.eval(x) - base.eval(x)) < 1e-12


def test_omega_series_residual_small():
    om = solve_omega_series(TH, "form1", a=0.15, K=5, M=2)
    res = pvi_residual_series(om, TH)
    # truncated double series: the solved block of the residual must vanish
    assert residual_leading_order(res) is None or residual_leading_order(res) >= 4


def test_omega_series_integer_omega_raises():
    with pytest.raises(ResonanceError):
        solve_omega_series(ThetaParams(0.23, 0.57, 0.3, 1.3), "form1", a=0.1)


@pytest.mark.parametrize("K,M,name", [(6, 0, "M"), (6, -1, "M"), (-1, 2, "K")])
def test_omega_series_rejects_orders_below_range(K, M, name):
    with pytest.raises(ValueError, match=f"^{name} = "):
        solve_omega_series(TH, "form1", a=0.1, K=K, M=M)


@pytest.mark.parametrize("solve,N", [(solve_taylor, -1), (solve_log_series, 0),
                                     (solve_log_series, -1)])
def test_taylor_and_log_series_reject_orders_below_range(solve, N):
    # the log families start from their seed P_1, so N = 1 is their lowest
    args = ("form1",) if solve is solve_taylor else ("shape2", 0.1)
    with pytest.raises(ValueError, match=f"^N = {N}: "):
        solve(TH, *args, N=N)


def _probe(residual_of, c, slot, t=2.0 ** 20):
    """(res, move): the residual residual_of(c) and the move of its rows per
    unit of c[slot], probed with c[slot] = t (zero on entry and on exit).

    On rows linear in the slot, a unit probe carries rounding of the order of
    the base residual, which on a growing series exceeds the move (1.8e-12 of
    it for form2 at n = 48); a probe with t = 2^20 scales the move, exactly,
    above that residual.
    """
    res = residual_of(c)
    c[slot] = t
    move = (residual_of(c).rows() - res.rows()) / t
    c[slot] = 0.0
    return res, move


def _all_probe_log_reference(theta, P1, N):
    """P_2 .. P_N with every ln-coefficient of P_n probed on the residual
    through x^(n+4) and solved by least squares at its order x^(n+2)."""
    c = np.zeros((N + 7, 2 * N + 11), dtype=complex)
    c[1, : len(P1)] = P1
    for n in range(2, N + 1):
        def rows(v):
            res = pvi_residual_series(Series(v[: n + 7]), theta)
            assert res.off == -2
            return res.rows()
        r0 = rows(c)
        moves = []
        for j in range(2 * n + 3):
            c[n, j] = 1.0
            moves.append(rows(c) - r0)
            c[n, j] = 0.0
        m = n + 4    # the row of x^(n+2)
        A = np.stack([d[m] for d in moves], axis=1)
        c[n, : 2 * n + 3] = np.linalg.lstsq(A, -r0[m], rcond=None)[0]
    return c


@pytest.mark.parametrize("shape,theta", [
    ("shape2", TH),
    ("shape3+", ThetaParams(0.37, 0.37, 0.31, 0.44)),
    ("shape3-", ThetaParams(0.37, -0.37, 0.31, 0.44)),
])
def test_log_series_matches_all_probe_reference(shape, theta):
    ls = solve_log_series(theta, shape, 0.4 + 0.1j, N=5)
    ref = _all_probe_log_reference(theta, ls.p[1], 5)
    assert np.abs(ls.c - ref).max() <= 1e-10 * np.abs(ref).max()


def _counted_calls(monkeypatch, ring=lambda s: True):
    """The solver's evaluations, in order, on series s that pass `ring`:
    ("res", rows) for a residual, ("res", rows, orders) for a residual with
    the partials on its first `orders` rows, and ("lin", rows) for the
    partials alone."""
    calls = []
    residual, partials = series.pvi_residual_series, series._partials

    def counted_residual(s, theta, rows=0):
        if ring(s):
            calls.append(("res", len(s.c)) + ((rows,) if rows else ()))
        return residual(s, theta, rows)

    def counted_partials(theta, s):
        if ring(s):
            calls.append(("lin", len(s.c)))
        return partials(theta, s)
    monkeypatch.setattr(series, "pvi_residual_series", counted_residual)
    monkeypatch.setattr(series, "_partials", counted_partials)
    return calls


def test_log_series_linearizes_once_then_one_residual_per_order(monkeypatch):
    calls = _counted_calls(monkeypatch)
    solve_log_series(TH, "shape2", 0.1, N=5)
    # the partials from P_1 on the rows x^0 .. x^8 (G is kept on x^0 .. x^2),
    # then one residual per order on x^0 .. x^(n+4)
    assert calls == [("lin", 9)] + [("res", n + 5) for n in range(2, 6)]


def _recorded_solves(monkeypatch):
    """{step name: (residual rows, moves)} as _solve_slots receives them,
    copied, for every call."""
    solves = {}
    solve_slots = series._solve_slots

    def recording(r, mv, c, what, off=0):
        solves[what] = (r.copy(), [d.copy() for d in mv])
        return solve_slots(r, mv, c, what, off)
    monkeypatch.setattr(series, "_solve_slots", recording)
    return solves


def _recorded_blocks(monkeypatch):
    """[(first, off, moves, seen)] for every _solve_block call, copied: the
    first slot, the residual's first x-order, the block's move rows, and the
    residual each solved slot saw."""
    blocks = []
    solve_block = series._solve_block

    def recording(r, moves, c, first, wlen, what, off=0, end=None):
        seen = solve_block(r, moves, c, first, wlen, what, off, end)
        blocks.append((first, off, moves.copy(), seen.copy()))
        return seen
    monkeypatch.setattr(series, "_solve_block", recording)
    return blocks


def _taylor_slots(blocks):
    """{n: (move row from x^n, residual seen)} over the solved orders."""
    return {first + j: (moves[j], row) for first, _, moves, seen in blocks
            for j, row in enumerate(seen)}


def _omega_slots(blocks):
    """{(k, N): (move row from x^k, residual seen)} of a solve_omega_series
    record: after the blocks of its Taylor column, which have off = 0, one
    block per column N, on the rows from x^-2."""
    cols = [b for b in blocks if b[1] != 0]
    return {(first + j, N): (moves[j], row)
            for N, (first, _, moves, seen) in enumerate(cols, 1)
            for j, row in enumerate(seen)}


LOG_CASES = [
    ("shape2", TH),
    ("shape3+", ThetaParams(0.37, 0.37, 0.31, 0.44)),
    ("shape3-", ThetaParams(0.37, -0.37, 0.31, 0.44)),
]


@pytest.mark.parametrize("shape,theta", LOG_CASES, ids=[s for s, _ in LOG_CASES])
def test_assembled_log_move_matches_the_probed_move(monkeypatch, shape, theta):
    solves = _recorded_solves(monkeypatch)
    c = solve_log_series(theta, shape, 0.4 + 0.1j, N=8).c
    # the probes multiply with the padded product: a probe at (n, j) widens
    # the block of its operand, and the block product would round the rows
    # below it differently, so they would not cancel exactly
    monkeypatch.setattr(Series, "__mul__", _padded_mul)
    monkeypatch.setattr(Series, "__rmul__", _padded_mul)
    for n in range(3, 9):
        # P_1 .. P_(n-1) solved, the rest zero, on the rows x^-2 .. x^(n+2)
        base = np.zeros((n + 5, c.shape[1]), dtype=complex)
        base[:n] = c[:n]
        moves = solves[f"x-order {n}"][1]
        assert len(moves) == 2 * n + 3
        for j, got in enumerate(moves):
            _, want = _probe(lambda v: pvi_residual_series(Series(v), theta), base, (n, j))
            assert not want[: n + 2].any()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _ref_log_move(lin, d, shape, j):
    """The move of one slot x^k L^j, term by term into zeros, as the log
    solver formed it slot by slot."""
    g, g1, g2 = lin
    terms = [(j, g + d * g1 + d * d * g2)]
    if j > 0:
        terms += [(j - 1, j * (g1 + 2.0 * d * g2)), (j - 2, j * (j - 1) * g2)]
    out = np.zeros(shape, dtype=complex)
    for col, t in terms:
        if col >= 0:
            t = t[:, : shape[1] - col]
            out[-len(t):, col: col + t.shape[1]] += t
    return out


@pytest.mark.parametrize("shape,theta", LOG_CASES, ids=[s for s, _ in LOG_CASES])
def test_log_moves_keep_the_per_slot_bits(shape, theta):
    c = solve_log_series(theta, shape, 0.4 + 0.1j, N=8).c
    lins = [series._lin(series._partials(theta, Series(c[:9])), 2, 3)]
    # signed zeros and non-finite entries, which an extra product or sum would change
    rng = np.random.default_rng(5)
    planted = [t.copy() for t in lins[0]]
    for t in planted:
        t.flat[rng.choice(t.size, 12, replace=False)] = [-0.0, complex(-0.0, 0.0),
                                                          complex(0.0, -0.0), np.inf] * 3
    lins.append(planted)
    for lin in lins:
        for n in range(2, 9):
            rows = (n + 7, c.shape[1])
            with np.errstate(invalid="ignore"):    # inf times zero, as in a solve
                want = np.stack([_ref_log_move(lin, n - 2, rows, j) for j in range(2 * n + 3)])
                got = series._moves(lin, n - 2, rows, 2 * n + 3)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("omega_sign", [1, -1])
def test_assembled_omega_move_matches_the_probed_move(monkeypatch, branch, omega_sign):
    blocks = _recorded_blocks(monkeypatch)
    K, M = 6, 3
    om = solve_omega_series(TH, branch, a=0.15, K=K, M=M, omega_sign=omega_sign)
    slots = _omega_slots(blocks)
    assert len(slots) == K + (M - 1) * (K + 1)
    for (k, N), (move, _) in slots.items():
        # the columns below N solved, column N through x^(k-1)
        base = np.zeros((k + 5, M + 1), dtype=complex)
        base[: min(k + 5, K + 1), :N] = om.c[: k + 5, :N]
        base[:k, N] = om.c[:k, N]
        _, want = _probe(lambda v: pvi_residual_series(Series(v, omega=om.omega), TH),
                         base, (k, N))
        want = want[:, N]
        # the kernel's move of the rows x^k .. x^(k+2), zero on x^-2 .. x^(k-1)
        got = np.zeros(k + 5, dtype=complex)
        got[k + 2:] = move[:3]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _all_probe_omega(theta, branch, K, M):
    """solve_omega_series with the move of every slot probed at 1 on column N
    of the residual rows x^-2 .. x^(k+2)."""
    _, _, t1, ti = theta.as_tuple()
    omega = t1 + ti - 1.0 if branch == "riuffa" else ti - t1 - 1.0
    y0 = solve_taylor(theta, branch, N=K).c
    g = np.zeros((K + 5, M + 1), dtype=complex)
    g[: K + 1, 0] = y0
    g[0, 1] = y0[0] / (ti - 1.0)
    for N in range(1, M + 1):
        for k in range(1 if N == 1 else 0, K + 1):
            res, move = _probe(
                lambda v: pvi_residual_series(Series(v[: k + 5], omega=omega), theta),
                g, (k, N), 1.0)
            _ref_solve_one(res.rows()[:, N:N + 1], move[:, N:N + 1], g, (k, N),
                           f"slot {k, N}", res.off)
    return g[: K + 1]


@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("K", [1, 2, 3, 6])
def test_omega_series_matches_all_probe_reference(branch, K):
    got = solve_omega_series(TH, branch, a=0.15, K=K, M=2).c
    ref = _all_probe_omega(TH, branch, K, 2)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_omega_series_linearizes_once_then_one_residual_per_column(monkeypatch):
    calls = _counted_calls(monkeypatch, ring=lambda s: s.omega is not None)
    solve_omega_series(TH, "form1", a=0.15, K=6, M=2)
    # the partials from the Taylor column on the rows x^0 .. x^10 (G_0 is kept
    # on x^0 .. x^8), then one residual per column N on the rows x^0 .. x^10,
    # which each solved slot of the column moves exactly
    assert calls == [("lin", 11), ("res", 11), ("res", 11)]


# the taylor-series benchmark's base points, one per Taylor class
TAYLOR_BASE = [
    ("form1", TH, None),
    ("riuffa", ThetaParams(0.23, 0.57, 0.31, -1.11), None),
    ("form2", ThetaParams(0.3, 0.3, -1.5, 1.5), 0.4),
    ("form3", ThetaParams(0.3, 0.5, 0.0, 1.0), 0.7),
    ("taylor1+", ThetaParams(1.0, 0.4, -0.7, -0.7), None),
    ("taylor1-", ThetaParams(0.23 + 0.3j, 0.57, 0.31, 0.44), None),
    ("taylor2", ThetaParams(0.3, 0.7, 0.56, 0.44), 0.3),
    ("taylor3", ThetaParams(0.0, 0.0, 0.31, 0.44), 0.5),
    ("generic", TH, (0.31 - 0.44 + 1.0) / (1.0 - 0.44)),
]


@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_assembled_taylor_move_matches_the_probed_move(monkeypatch, klass, theta, a):
    blocks = _recorded_blocks(monkeypatch)
    b = solve_taylor(theta, klass, a=a, N=48).c
    slots = _taylor_slots(blocks)
    for n in range(11, 49):
        # the rows x^0 .. x^(n+7), linear in b_n; b_0 .. b_(n-1) from b
        c = np.zeros(n + 8, dtype=complex)
        c[:n] = b[:n]
        _, want = _probe(lambda v: pvi_residual_series(Series(v), theta), c, n)
        assert not want[:n].any()
        got = slots[n][0][:8]    # the kernel's move of the rows x^n .. x^(n+7)
        assert np.abs(got - want[n:, 0]).max() <= 1e-12 * np.abs(want).max()


def _all_probe_taylor(theta, klass, a, N):
    """solve_taylor with b_n probed at every order on the rows x^0 .. x^(n+7)."""
    seed = series._taylor_seed(theta, klass, a)
    b = np.zeros(N + 8, dtype=complex)
    for k, v in seed.items():
        b[k] = v
    for n in range(max(seed) + 1, N + 1):
        res, move = _probe(lambda v: pvi_residual_series(Series(v[: n + 8]), theta),
                           b, n, 1.0)
        _ref_solve_one(res.rows(), move, b, n, f"order {n}")
    return b[: N + 1]


@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_taylor_matches_all_probe_reference(klass, theta, a):
    got = solve_taylor(theta, klass, a=a, N=48).c
    ref = _all_probe_taylor(theta, klass, a, 48)
    assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))


def test_taylor_evaluates_once_per_doubling_block(monkeypatch):
    calls = _counted_calls(monkeypatch)
    solve_taylor(TH, "form1", N=14)
    # blocks start at n0 = 1, 2, 4, 8: one evaluation each, the residual on
    # the rows x^0 .. x^(min(2 n0, 14) + 7) and in the same pass the partials,
    # for G at lambda = n0, on the x^0 .. x^(rows - n0 - 1) the block reads
    assert calls == [("res", rows, rows - n0)
                     for n0, rows in ((1, 10), (2, 12), (4, 16), (8, 22))]


def _recorded_evaluations(monkeypatch):
    """[(c, orders, residual, lam, lin)] for every evaluation with partials,
    copied: the series' coefficients, the rows the partials cover, the
    residual, and the lambda_0 and (G, G', G''/2) that _lin forms from them."""
    evals = []
    residual, lin = series.pvi_residual_series, series._lin

    def recording_residual(s, theta, rows=0):
        out = residual(s, theta, rows)
        if rows:
            evals.append([s.c.copy(), rows, out[0].c.copy()])
        return out

    def recording_lin(f, lam, rows):
        out = lin(f, lam, rows)
        if evals and len(evals[-1]) == 3:
            evals[-1] += [lam, [t.copy() for t in out]]
        return out
    monkeypatch.setattr(series, "pvi_residual_series", recording_residual)
    monkeypatch.setattr(series, "_lin", recording_lin)
    return evals


def _assert_one_pass_keeps_the_bits(evals, theta):
    """Each block's residual is that of a residual-only evaluation, and its G
    that of pvi_linearization_expr on the block's whole truncation, byte
    for byte."""
    assert evals
    for c, orders, res, lam, lin in evals:
        s = Series(c)
        assert res.tobytes() == pvi_residual_series(s, theta).c.tobytes()
        f = pvi_linearization_expr(s.variable(), s, s.deriv(), s.deriv().deriv(), theta)
        assert all(len(t.c) == len(c) for t in f)
        for got, want in zip(lin, series._lin(f, lam, orders)):
            assert len(got) == orders and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [12, 48])
@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_taylor_block_evaluation_keeps_the_bits_of_two(monkeypatch, klass, theta, a, N):
    evals = _recorded_evaluations(monkeypatch)
    solve_taylor(theta, klass, a=a, N=N)
    _assert_one_pass_keeps_the_bits(evals, theta)


@pytest.mark.parametrize("K", [6, 10])
@pytest.mark.parametrize("branch", ["form1", "riuffa"])
def test_omega_taylor_column_evaluation_keeps_the_bits_of_two(monkeypatch, branch, K):
    evals = _recorded_evaluations(monkeypatch)
    solve_omega_series(TH, branch, a=0.15, K=K, M=2)
    _assert_one_pass_keeps_the_bits(evals, TH)


def _assert_exact_through_controlling_row(got, fresh, m):
    """The residual rows a slot sees match a fresh evaluation at and below
    its controlling row m, to 1e-12 of their largest entry or of 1, the
    scale of the kernel's noise floor.  The floor matters on decaying
    series: at the taylor1+ base point row m is 4e-5, and the rows below it,
    zero up to rounding, differ by 6e-17."""
    scale = max(1.0, np.abs(fresh[: m + 1]).max())
    assert np.abs(got[: m + 1] - fresh[: m + 1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_taylor_block_residual_matches_a_fresh_evaluation(monkeypatch, klass, theta, a):
    blocks = _recorded_blocks(monkeypatch)
    b = solve_taylor(theta, klass, a=a, N=48).c
    for n, (move, got) in _taylor_slots(blocks).items():
        # b_0 .. b_(n-1) solved, the rest zero, on the rows x^0 .. x^(n+7)
        c = np.zeros(n + 8, dtype=complex)
        c[:n] = b[:n]
        fresh = pvi_residual_series(Series(c), theta).rows()[:, 0]
        m = n + _ref_controlling_row(move[:8, None], "")    # from x^n on
        _assert_exact_through_controlling_row(got, fresh, m)


@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("omega_sign", [1, -1])
def test_omega_column_residual_matches_a_fresh_evaluation(monkeypatch, branch, omega_sign):
    blocks = _recorded_blocks(monkeypatch)
    K, M = 6, 3
    om = solve_omega_series(TH, branch, a=0.15, K=K, M=M, omega_sign=omega_sign)
    for (k, N), (move, got) in _omega_slots(blocks).items():
        # the columns below N solved, column N through x^(k-1), on x^-2 .. x^(k+2)
        base = np.zeros((k + 5, M + 1), dtype=complex)
        base[: min(k + 5, K + 1), :N] = om.c[: k + 5, :N]
        base[:k, N] = om.c[:k, N]
        fresh = pvi_residual_series(Series(base, omega=om.omega), TH).rows()[:, N]
        m = k + 2 + _ref_controlling_row(move[:3, None], "")    # from x^k on
        _assert_exact_through_controlling_row(got, fresh, m)


@pytest.mark.parametrize("klass", ["form1", "riuffa", "taylor1+", "taylor1-"])
def test_taylor_class_without_free_parameter_rejects_a(klass):
    with pytest.raises(ValueError, match="has no free parameter: a = "):
        solve_taylor(TH, klass, a=5.0, N=4)


# ----------------------------------------------------------------------
# the order-by-order solves that _solve_block replaced, kept as its reference


def _ref_controlling_row(move, what):
    """The first row where the move exceeds 1e-8 of its largest entry."""
    reach = np.abs(move).max(axis=1)
    top = reach.max()
    if not np.isfinite(top):
        raise FloatingPointError(f"{what}: the move is not finite (overflow)")
    if top == 0:
        raise ObstructionError(f"{what}: coefficient does not enter the residual")
    return int(np.argmax(reach > 1e-8 * top))


def _ref_solve_one(r, move, c, slot, what, off=0, m=None):
    """Solve c[slot] from the residual rows r (from x^off) and its move, both
    (rows, 1), at the controlling row m (found here if None), after the
    checks: r finite, zero to 1e-9 below m, linear coefficient above 1e-10."""
    scale = np.abs(r).max()
    if not np.isfinite(scale):
        raise FloatingPointError(f"{what}: the residual is not finite (overflow)")
    m = _ref_controlling_row(move, what) if m is None else m
    noise = 1e-9 * max(1.0, scale)
    bad = np.nonzero(np.abs(r[:m]).max(axis=1) > noise)[0]
    if len(bad):
        raise ObstructionError(
            f"{what}: residual obstruction at order {off + bad[0]} (resonance?)")
    clin = move[m, 0]
    if abs(clin) < 1e-10 * max(1.0, np.abs(r + move).max()):
        raise ResonanceError(f"{what}: resonant (vanishing linear coefficient)")
    c[slot] = -r[m, 0] / clin


def _ref_move(lin, d, rows):
    """The move x^k G(lambda_0 + d) in the last len(lin[0]) of `rows` rows."""
    g, g1, g2 = lin
    out = np.zeros((rows, 1), dtype=complex)
    out[-len(g):] += g + d * g1 + d * d * g2
    return out


def _per_order_block(r, moves, c, first, wlen, what, off=0, end=None):
    """_solve_block's arguments through the per-order loop: a slot inside a
    block with `end` checks its move before the residual."""
    r, rows, start = r.copy()[:, None], len(r), first - off
    for j, t in enumerate(moves):
        n, w = first + j, start + j + wlen
        move = np.zeros((rows, 1), dtype=complex)
        move[start + j:] += t[: rows - start - j, None]
        m = None
        if j and end is not None:
            m = _ref_controlling_row(move[:w], what(n))
            if off + m >= end:
                return j
        _ref_solve_one(r[:w], move[:w], c, n, what(n), off, m)
        r += c[n] * move
    return len(moves)


def _per_order_taylor(theta, klass, a=None, N=12):
    """solve_taylor order by order, in doubling blocks of one linearization."""
    seed = series._taylor_seed(theta, klass, a)
    b = np.zeros(N + 8, dtype=complex)
    for k, v in seed.items():
        b[k] = v
    n0 = None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max(seed) + 1, N + 1):
            w = n + 8
            if n0 is not None:
                move = _ref_move([t[: rows - n] for t in lin], n - n0, rows)
                if (m := _ref_controlling_row(move[:w], f"order {n}")) >= 2 * n0:
                    n0 = None
            if n0 is None:
                n0, rows, m = n, min(2 * n, N) + 8, None
                s = Series(b[:rows])
                res = pvi_residual_series(s, theta).rows()
                lin = series._lin(series._partials(theta, s), n, rows - n)
                move = _ref_move(lin, 0, rows)
            _ref_solve_one(res[:w], move[:w], b, n, f"order {n}", m=m)
            res += b[n] * move
    return b[: N + 1]


def _per_order_omega(theta, branch, a, K, M, omega_sign=1):
    """solve_omega_series slot by slot on one residual per column."""
    _, _, t1, ti = theta.as_tuple()
    omega = omega_sign * (t1 + ti - 1.0 if branch == "riuffa" else ti - t1 - 1.0)
    y0 = _per_order_taylor(theta, branch, N=K)
    g = np.zeros((K + 5, M + 1), dtype=complex)
    g[: K + 1, 0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        lin = series._lin(series._partials(theta, Series(g[:, :1], omega=omega)), omega, K + 3)
        g[0, 1] = omega_sign * y0[0] / (ti - 1.0)
        for N in range(1, M + 1):
            res = pvi_residual_series(Series(g, omega=omega), theta)
            r = res.rows()[:, N:N + 1]
            for k in range(1 if N == 1 else 0, K + 1):
                move = _ref_move([t[: K + 3 - k] for t in lin], k + (N - 1) * omega, K + 5)
                _ref_solve_one(r[: k + 5], move[: k + 5], g, (k, N),
                               f"slot (k={k}, N={N})", res.off)
                r += g[k, N] * move
    return g[: K + 1]


def _outcome(solve, *args, **kw):
    """The coefficients' bytes, or the error's type and message."""
    try:
        return solve(*args, **kw).c.tobytes()
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return type(e), str(e)


def _ref_outcome(solve, *args, **kw):
    try:
        return solve(*args, **kw).tobytes()
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("N", [1, 6, 12, 48])
@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_taylor_block_solve_keeps_the_per_order_bits(klass, theta, a, N):
    assert _outcome(solve_taylor, theta, klass, a=a, N=N) == \
        _ref_outcome(_per_order_taylor, theta, klass, a, N)


@pytest.mark.parametrize("K,M", [(0, 2), (4, 1), (6, 2), (10, 3)])    # K = 0: an empty N = 1 block
@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("omega_sign", [1, -1])
@pytest.mark.parametrize("theta", [TH, ThetaParams(0.23, 0.57, 0.31 + 0.2j, 0.44)],
                         ids=["real", "complex"])
def test_omega_block_solve_keeps_the_per_order_bits(K, M, branch, omega_sign, theta):
    # a complex omega makes d = k + (N - 1) omega complex, whose square numpy's
    # array product rounds differently from _move's Python product
    got = solve_omega_series(theta, branch, a=0.15, K=K, M=M, omega_sign=omega_sign).c
    assert got.tobytes() == _per_order_omega(theta, branch, 0.15, K, M, omega_sign).tobytes()


def test_block_solve_raises_the_per_order_errors_of_the_taylor1p_sweep():
    # the draws of `pvilab sweep --class taylor1+ --count 64 --order 48 --seed 1`
    rng = np.random.default_rng(1)
    draws = [_theta_draw(rng) for _ in range(64)]
    got = [_outcome(solve_taylor, th, "taylor1+", N=48) for th in draws]
    assert got == [_ref_outcome(_per_order_taylor, th, "taylor1+", None, 48) for th in draws]
    # 19 resonances at orders 5 .. 32, at block starts (b_1 is seeded, so
    # blocks start at 2, 4, 8, 16, 32) and inside blocks
    errors = [e for e in got if isinstance(e, tuple)]
    assert {e[0] for e in errors} == {ResonanceError}
    orders = {int(e[1].split()[1].rstrip(":")) for e in errors}
    assert len(errors) == 19 and min(orders) == 5 and max(orders) == 32
    assert orders & {2, 4, 8, 16, 32} and orders - {2, 4, 8, 16, 32}


@pytest.mark.parametrize("theta,klass,a,N", [
    (ThetaParams(0.3, 0.3, -1.5, 1.5), "form2", 1e100, 12),
    (ThetaParams(0.3, 0.5, 0.0, 1.0), "form3", 1e300, 12),
])
def test_block_solve_raises_the_per_order_overflow(theta, klass, a, N):
    got = _outcome(solve_taylor, theta, klass, a=a, N=N)
    assert got == _ref_outcome(_per_order_taylor, theta, klass, a, N)
    assert got[0] is FloatingPointError


@pytest.mark.parametrize("theta,branch", [(ThetaParams(0.23, 0.57, 0.31, 0.81), "form1"),
                                          (ThetaParams(0.23, 0.57, 0.2, 0.3), "riuffa")])
def test_omega_block_solve_raises_the_per_order_obstruction(theta, branch):
    # omega = -1/2: the column N = 3 obstructs at its first solved slot
    got = _outcome(solve_omega_series, theta, branch, 0.15, K=10, M=3)
    assert got == _ref_outcome(_per_order_omega, theta, branch, 0.15, 10, 3)
    assert got == (ObstructionError,
                   "slot (k=1, N=3): residual obstruction at order 1 (resonance?)")


@st.composite
def _faulty_block(draw):
    """_solve_block arguments with planted faults: a slot whose move is zero,
    not finite, tiny at its own row or zero in its first rows, residual rows
    that are infinite, overflow in the substitution or stay nonzero below
    the controlling row, in a block with or without `end`."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count, wlen, first, off = draw(st.integers(1, 5)), draw(st.integers(1, 4)), \
        draw(st.integers(1, 4)), draw(st.sampled_from([0, -2]))
    start = first - off
    rows = start + count + wlen + draw(st.integers(0, 3))
    moves = rng.normal(size=(count, rows - start)) + 1j * rng.normal(size=(count, rows - start))
    r = np.zeros(rows, dtype=complex)
    r[start:] = rng.normal(size=rows - start)
    for _ in range(draw(st.integers(0, 3))):
        j, i = draw(st.integers(0, count - 1)), draw(st.integers(0, wlen - 1))
        fault = draw(st.sampled_from(["zero", "inf", "nan", "tiny", "huge", "overflow",
                                      "below", "late"]))
        if fault == "zero":
            moves[j, :wlen] = 0
        elif fault in ("inf", "nan"):
            moves[j, i] = np.inf if fault == "inf" else np.nan
        elif fault == "tiny":
            moves[j, 0] = 1e-12
        elif fault == "huge":
            r[draw(st.integers(0, rows - 1))] = np.inf
        elif fault == "overflow":
            # a move past its window that carries the later rows past 1e308
            moves[j, i + 1:] = 1e307
        elif fault == "below":
            r[draw(st.integers(0, start + j))] = 1e-3
        else:
            moves[j, : i + 1] = 0
    end = draw(st.sampled_from([None, first + 1, first + 2, first + count]))
    return r, moves, first, wlen, off, end


def _late_faults(end):
    """A block whose second slot has an infinite move and sees an infinite
    residual row that the first slot's window does not reach."""
    moves = np.ones((2, 6), dtype=complex)
    moves[1, 0] = np.inf
    r = np.zeros(7, dtype=complex)
    r[1], r[3] = 1.0, np.inf
    return r, moves, 1, 2, 0, end


@given(block=_faulty_block())
@example(block=_late_faults(end=3))     # the move is checked first inside a block
@example(block=_late_faults(end=None))  # the residual first at every slot of an omega column
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_kernel_solves_and_raises_as_the_per_order_loop(block):
    """On any block, the kernel solves the slots the per-order loop solved,
    to the bit, or raises the error that loop raised, where it raised it
    (the solvers then drop the coefficients, which the kernel has written
    past the failing slot)."""
    r, moves, first, wlen, off, end = block
    what = "order {}".format
    got, want = np.zeros(first + len(moves), complex), np.zeros(first + len(moves), complex)
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for solve, c in ((series._solve_block, got), (_per_order_block, want)):
            try:
                out = solve(r, moves, c, first, wlen, what, off, end)
                outcomes.append(out if isinstance(out, int) else len(out))
            except (ArithmeticError, RuntimeError, ValueError) as e:
                outcomes.append((type(e), str(e)))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], tuple) or got.tobytes() == want.tobytes()
