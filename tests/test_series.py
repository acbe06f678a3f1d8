"""Taylor, logarithmic and one-parameter series solvers."""

import numpy as np
import pytest

from pvilab import series
from pvilab.pvi import ResonanceError, ThetaParams, pvi_residual_series
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


def test_log_series_makes_four_residual_evaluations_then_one_per_order(monkeypatch):
    calls = []

    def counted(s, theta):
        calls.append(len(s.c))
        return pvi_residual_series(s, theta)
    monkeypatch.setattr(series, "pvi_residual_series", counted)
    solve_log_series(TH, "shape2", 0.1, N=5)
    # a base residual and the probes of x^2, x^3, x^4 on the rows x^0 .. x^8,
    # whose base serves order 2; then one residual per order on x^0 .. x^(n+4)
    assert calls == [9] * 4 + [n + 5 for n in range(3, 6)]


def _recorded_moves(monkeypatch):
    """{slot: the move _solve_slots receives, on its columns} for every
    call of a solve with tuple slots; the first slot of each call is the key."""
    moves = {}
    solve_slots = series._solve_slots

    def recording(res, mv, c, slots, what, cols=slice(None)):
        if isinstance(slots[0], tuple):
            moves[slots[0]] = [m[:, cols].copy() for m in mv]
        return solve_slots(res, mv, c, slots, what, cols)
    monkeypatch.setattr(series, "_solve_slots", recording)
    return moves


def _probe_rows(residual_rows, c, slot, t=2.0 ** 20):
    """The move of residual_rows(c) per unit of c[slot], probed at t."""
    r0 = residual_rows(c)
    c[slot] = t
    move = (residual_rows(c) - r0) / t
    c[slot] = 0.0
    return move


LOG_CASES = [
    ("shape2", TH),
    ("shape3+", ThetaParams(0.37, 0.37, 0.31, 0.44)),
    ("shape3-", ThetaParams(0.37, -0.37, 0.31, 0.44)),
]


@pytest.mark.parametrize("shape,theta", LOG_CASES, ids=[s for s, _ in LOG_CASES])
def test_assembled_log_move_matches_the_probed_move(monkeypatch, shape, theta):
    moves = _recorded_moves(monkeypatch)
    c = solve_log_series(theta, shape, 0.4 + 0.1j, N=8).c
    for n in range(3, 9):
        # P_1 .. P_(n-1) solved, the rest zero, on the rows x^-2 .. x^(n+2)
        base = np.zeros((n + 5, c.shape[1]), dtype=complex)
        base[:n] = c[:n]
        assert len(moves[(n, 0)]) == 2 * n + 3
        for j, got in enumerate(moves[(n, 0)]):
            want = _probe_rows(lambda v: pvi_residual_series(Series(v), theta).rows(),
                               base, (n, j))
            assert not want[: n + 2].any()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("omega_sign", [1, -1])
def test_assembled_omega_move_matches_the_probed_move(monkeypatch, branch, omega_sign):
    moves = _recorded_moves(monkeypatch)
    K, M = 6, 3
    om = solve_omega_series(TH, branch, a=0.15, K=K, M=M, omega_sign=omega_sign)
    assert len(moves) == K + (M - 1) * (K + 1)
    for (k, N), (got,) in moves.items():
        # the columns below N solved, column N through x^(k-1)
        base = np.zeros((k + 5, M + 1), dtype=complex)
        base[: min(k + 5, K + 1), :N] = om.c[: k + 5, :N]
        base[:k, N] = om.c[:k, N]
        want = _probe_rows(
            lambda v: pvi_residual_series(Series(v, omega=om.omega), TH).rows()[:, N:N + 1],
            base, (k, N))
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
            res, moves = series._probe(
                lambda v: pvi_residual_series(Series(v[: k + 5], omega=omega), theta),
                g, [(k, N)])
            series._solve_slots(res, moves, g, [(k, N)], f"slot {k, N}", cols=slice(N, N + 1))
    return g[: K + 1]


@pytest.mark.parametrize("branch", ["form1", "riuffa"])
@pytest.mark.parametrize("K", [1, 2, 3, 6])
def test_omega_series_matches_all_probe_reference(branch, K):
    got = solve_omega_series(TH, branch, a=0.15, K=K, M=2).c
    ref = _all_probe_omega(TH, branch, K, 2)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_omega_series_makes_one_residual_evaluation_per_slot(monkeypatch):
    calls = []

    def counted(s, theta):
        if s.omega is not None:
            calls.append(len(s.c))
        return pvi_residual_series(s, theta)
    monkeypatch.setattr(series, "pvi_residual_series", counted)
    solve_omega_series(TH, "form1", a=0.15, K=6, M=2)
    # a base residual and the probes of Y, x Y, x^2 Y on the rows x^0 .. x^6,
    # then one residual per slot (k, N) on the rows x^0 .. x^(k+4)
    assert calls == [7] * 4 + [k + 5 for k in range(1, 7)] + [k + 5 for k in range(7)]


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


def _probed_move(theta, b, n, t=1.0):
    """The move of the residual rows x^0 .. x^(n+7) per unit of b_n, probed
    with b_n = t, b_0 .. b_(n-1) from b and every higher slot zero.

    For n >= 8 those rows are linear in b_n.  A unit probe carries rounding
    of the order of the base residual, which on a growing series exceeds the
    move (1.8e-12 of it for form2 at n = 48); a probe with t = 2^20 scales
    the move, exactly, above that residual.
    """
    c = np.zeros(n + 8, dtype=complex)
    c[:n] = b[:n]
    r0 = pvi_residual_series(Series(c), theta).rows()
    c[n] = t
    return (pvi_residual_series(Series(c), theta).rows() - r0) / t


@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_assembled_taylor_move_matches_the_probed_move(monkeypatch, klass, theta, a):
    moves = {}
    solve_slots = series._solve_slots

    def recording(res, mv, c, slots, what, cols=slice(None)):
        moves[slots[0]] = mv[0].copy()
        return solve_slots(res, mv, c, slots, what, cols)
    monkeypatch.setattr(series, "_solve_slots", recording)
    b = solve_taylor(theta, klass, a=a, N=48).c
    for n in range(11, 49):
        want = _probed_move(theta, b, n, t=2.0 ** 20)
        assert not want[:n].any()
        assert np.abs(moves[n] - want).max() <= 1e-12 * np.abs(want).max()


def _all_probe_taylor(theta, klass, a, N):
    """solve_taylor with b_n probed at every order on the rows x^0 .. x^(n+7)."""
    fixed, free = series._taylor_seed(theta, klass, a)
    b = np.zeros(N + 8, dtype=complex)
    for k, v in fixed.items():
        b[k] = v
    for n in range(max(fixed) + 1, N + 1):
        if n in free:
            b[n] = free[n] if free[n] is not None else 0.0
            continue
        res, moves = series._probe(
            lambda v: pvi_residual_series(Series(v[: n + 8]), theta), b, [n])
        series._solve_slots(res, moves, b, [n], f"order {n}")
    return b[: N + 1]


@pytest.mark.parametrize("klass,theta,a", TAYLOR_BASE, ids=[k for k, _, _ in TAYLOR_BASE])
def test_taylor_matches_all_probe_reference(klass, theta, a):
    got = solve_taylor(theta, klass, a=a, N=48).c
    ref = _all_probe_taylor(theta, klass, a, 48)
    assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))


def test_taylor_makes_two_residual_evaluations_per_order_then_one(monkeypatch):
    calls = []

    def counted(s, theta):
        calls.append(len(s.c))
        return pvi_residual_series(s, theta)
    monkeypatch.setattr(series, "pvi_residual_series", counted)
    solve_taylor(TH, "form1", N=14)
    # a base residual and a probe through n = 10, then the base residual
    # alone, on the rows x^0 .. x^(n+7)
    assert calls == ([n + 8 for n in range(1, 11) for _ in range(2)]
                     + [n + 8 for n in range(11, 15)])
