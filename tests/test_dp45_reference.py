"""integrate.dp45 against a numpy copy of the same DOP853 method.

`integrate.dp45` keeps its state in a Python list and writes the stage sums
of the Dormand-Prince 8(5,3) method out in complex arithmetic.
`numpy_dop853` below is the same method with the tableau as arrays, taken
from the published 30-digit coefficients, and the stages in a (13, n)
array, with the same controller.  Both are driven with the program's own
right-hand sides on the loops of the monodromy oracle, the ODE frames of
the connection oracle and continuation legs through regular points and past
a movable pole: the results must agree to rounding and the two must
evaluate the right-hand side equally often.

The reference forms each sum in the kernel's order and each modulus and
hypot as Python does, so the two agree to the last bit.  Agreement to
rounding is not enough on the pole pass: there the inv_y right-hand side is
formed by cancellation, the DOP853 error estimate, which squares e5, carries
that noise into the step sizes, and a one-ulp difference in one error
estimate moves the final state by about 1e-10 relative.
"""

import cmath
import math

import numpy as np
import pytest

from pvilab import asymptotics, continuation, fuchsian, hypergeom, integrate
from pvilab.integrate import StepUnderflow, dp45
from pvilab.pvi import ThetaParams

# DOP853 (Prince & Dormand 1981), coefficients of Hairer's dop853.f: the
# nonzero entries of each row of a, by column
_ROWS = [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
]
_A = np.zeros((12, 12))
for _i, _row in enumerate(_ROWS):
    for _j, _v in _row.items():
        _A[_i, _j] = _v
_C = (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
      0.118350341907227396726757197510, 0.281649658092772603273242802490, 1 / 3, 0.25,
      4 / 13, 0.651282051282051282051282051282, 0.6, 6 / 7, 1.0)
_B = np.array([5.42937341165687622380535766363e-2, 0, 0, 0, 0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2])
_BHH = np.zeros(12)
_BHH[[0, 8, 11]] = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
_E3 = _B - _BHH
_E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0,
                -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1])


def _dot(w, k):
    """sum_i w[i] k[i] over the nonzero weights, added in the order of i."""
    acc = 0.0
    for i in np.flatnonzero(w):
        acc = acc + w[i] * k[i]
    return acc


def _abs(z):
    """|z| of a complex array as Python's abs(complex) forms it (C hypot);
    np.abs differs from it in the last bit on about a third of all inputs."""
    return np.hypot(z.real, z.imag)


def numpy_dop853(f, t0, t1, y0, tol=1e-10, h0=None, min_step=1e-14, step_cb=None):
    """The reference: the same method, controller and callback contract with
    the state and the stages in numpy arrays.  f and step_cb receive the
    state as a list, as from dp45."""
    t = float(t0)
    t1 = float(t1)
    y = np.asarray(y0, dtype=complex).copy()
    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0:
        return y
    h = h0 if h0 is not None else span / 50.0
    h = direction * min(abs(h), span)
    k = np.empty((13, y.size), dtype=complex)
    k[0] = f(t, y.tolist())
    rejected = False
    while (t1 - t) * direction > 1e-16:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        for i in range(1, 12):
            k[i] = f(t + _C[i] * h, (y + h * _dot(_A[i], k)).tolist())
        yi = y + h * _dot(_B, k)
        e5, e3 = _abs(_dot(_E5, k)), _abs(_dot(_E3, k))
        den = np.array([math.hypot(a, 0.1 * b) for a, b in zip(e5, e3)])
        comb = abs(h) * e5 * np.divide(e5, den, out=np.zeros_like(e5), where=den > 0)
        err = float(comb.max()) / (tol * (1.0 + float(_abs(yi).max())))
        if err <= 1.0:
            t += h
            y = yi
            k[12] = f(t, y.tolist())
            if step_cb is not None:
                y2 = step_cb(t, y.tolist())
                if y2 is not None:
                    y = np.asarray(y2, dtype=complex)
                    k[12] = f(t, y.tolist())
            k[0] = k[12]
            fac = 2.0 if err == 0 else min(2.0, 0.85 * err ** -0.125)
            if rejected:
                fac = min(fac, 1.0)
            rejected = False
        else:
            fac = max(0.2, 0.85 * err ** -0.125)
            rejected = True
        h *= fac
        if abs(h) < min_step:
            raise StepUnderflow(f"step size underflow at t = {t}")
    return y


def _counting(kernel, counts):
    def run(f, *args, **kwargs):
        def counted(t, y):
            counts.append(t)
            return f(t, y)
        return kernel(counted, *args, **kwargs)
    return run


def _both(monkeypatch, module, call):
    """call() with module.dp45 set to each kernel: (new, reference) results
    and right-hand-side evaluation counts."""
    out = []
    for kernel in (integrate.dp45, numpy_dop853):
        counts = []
        monkeypatch.setattr(module, "dp45", _counting(kernel, counts))
        out.append((call(), len(counts)))
    (got, n_got), (want, n_want) = out
    return got, want, n_got, n_want


SYSTEMS = {
    "a": lambda: fuchsian.build_case_a(ThetaParams(0.21, 0.33, 0.17, 0.52), 1.0),
    "b": lambda: fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0),
    "c": lambda: fuchsian.build_case_c(0.23, 0.57, 0.6, 1.3),
}


@pytest.mark.parametrize("case", sorted(SYSTEMS))
@pytest.mark.parametrize("x", [1e-2, 1e-3])
@pytest.mark.parametrize("center", ["0", "x", "1"])
def test_loop_matches_numpy_kernel(monkeypatch, case, x, center):
    c = {"0": 0.0, "x": x, "1": 1.0}[center]
    system = SYSTEMS[case]()
    got, want, n_got, n_want = _both(
        monkeypatch, fuchsian, lambda: fuchsian.loop_monodromy(system, x, c, tol=1e-12))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert n_got == n_want


ORACLES = [("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), False),
           ("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), True),
           ("Cinf0", ThetaParams(0.23, 0.57, 0.0, 1.0), False),
           ("Cinf0", ThetaParams(0.41 + 0.1j, -0.27, 0.0, 1.0), False)]


@pytest.mark.parametrize("which,theta,flip", ORACLES)
def test_oracle_frame_matches_numpy_kernel(monkeypatch, which, theta, flip):
    frames = []
    real = hypergeom.ode_transport

    def recording(*args, **kwargs):
        frames.append(real(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(hypergeom, "ode_transport", recording)
    _, _, n_got, n_want = _both(
        monkeypatch, hypergeom, lambda: hypergeom.connection_oracle(which, theta, flip_th1=flip))
    got, want = frames
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert n_got == n_want


# Exact rational solutions on a vanishing theta sum (th0 = 1 and th0 = -2),
# with legs kept 0.3 away from x = 0, 1, the movable pole and the points
# where y meets 0, 1 or x.
THETA_A = (1.0, 0.4, -0.7, -0.7)
THETA_B = (-2.0, 1.5, 0.2, 0.3)
LEGS = [(THETA_A, (0.5 + 0.1j, 0.5 + 0.4j)),
        (THETA_A, (0.5 + 0.1j, 0.3 + 0.9j, -0.8 + 1.2j, -2.0 + 0.8j, -3.0 + 0.3j)),
        (THETA_B, (0.5 + 0.5j, 0.5 + 0.8j)),
        (THETA_B, (0.5 + 0.5j, 1.5 + 1.0j, 3.0 + 1.0j, 3.5 - 0.6j))]


def _exact(theta, x):
    t0, tx, t1, ti = theta
    if t0 == 1.0:
        dd, c0 = 1.0 + t1, t1 + ti
        return x / (dd * x - c0), -c0 / (dd * x - c0) ** 2
    q = 2.0 - (ti + t1) + t1 * x
    nu, de = q * q - 2.0 + ti + t1 - t1 * x * x, (1.0 - ti) * q
    nup, dep = 2.0 * t1 * q - 2.0 * t1 * x, (1.0 - ti) * t1
    return nu / de, nup / de - nu * dep / de ** 2


def _pole_pass():
    # the movable pole of THETA_A sits at x = -14/3; pass it at 3e-3
    v = cmath.exp(0.7j)
    mid = -14.0 / 3.0 + 3e-3j * v
    return THETA_A, (mid - 0.8 * v, mid + 0.8 * v)


def _leg(theta, verts):
    y0, yp0 = _exact(theta, verts[0])
    return continuation.integrate((verts[0], y0, yp0), ThetaParams(*theta),
                                  continuation.PathPlan(verts, 1e-10), tol=1e-10)


def _seed_round_trip():
    th = ThetaParams(2.3, 2.3, 0.31, 0.44)
    seed = asymptotics.make_seed(0.3 + 0.2j, th, 1.0)
    x0, x1 = 1e-4, 1e-2
    y0, yp0 = asymptotics.seed_value(seed, x0, three_term=True)
    fwd = continuation.integrate((x0, y0, yp0), th, continuation.PathPlan((x0, x1), 1e-10),
                                 tol=1e-10)
    xf, yf, ypf = fwd.final()
    return continuation.integrate((xf, yf, ypf), th, continuation.PathPlan((x1, x0), 1e-10),
                                  tol=1e-10)


def _events(traj):
    return [(e["kind"], e["from"], e["to"]) for e in traj.events]


@pytest.mark.parametrize("make", [*(lambda spec=spec: _leg(*spec) for spec in LEGS),
                                  lambda: _leg(*_pole_pass()), _seed_round_trip],
                         ids=["leg-a", "polyline-a", "leg-b", "polyline-b", "pole-pass",
                              "seed-round-trip"])
def test_continuation_matches_numpy_kernel(monkeypatch, make):
    got, want, n_got, n_want = _both(monkeypatch, continuation, make)
    for a, b in zip(got.final(), want.final()):
        assert abs(a - b) <= 1e-11 * abs(b)
    assert len(got.samples) == len(want.samples)
    assert _events(got) == _events(want)
    # a switch sits on a step boundary; the controller takes err**-0.125 of
    # an error estimate formed by cancellation, so boundaries drift by about
    # 1e-10, while a switch one step off would move by the step, about 1e-4
    for e, f in zip(got.events, want.events):
        assert abs(e["x"] - f["x"]) <= 1e-8 * abs(f["x"])
    assert n_got == n_want


def test_pole_pass_switches_charts():
    # the pole-pass case above is only a test of chart switching if it switches
    assert [e["to"] for e in _leg(*_pole_pass()).events][:1] == ["inv_y"]


@pytest.mark.parametrize("bad", [0, 1], ids=["nan-first", "nan-second"])
def test_nan_rejects_the_step(bad):
    def f(t, y):
        out = [1.0 + 0j, 1.0 + 0j]
        if t > 0.5:
            out[bad] = math.nan
        return out

    with pytest.raises(StepUnderflow):
        dp45(f, 0.0, 1.0, [1.0, 1.0])
