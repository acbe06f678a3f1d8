"""Closed-form monodromy constructors, trace identity, and inversions."""

import cmath
import itertools
import math

import numpy as np
import pytest

from pvilab import hypergeom
from pvilab.hypergeom import connection_matrix
from pvilab.monodromy import (TraceData, build_case_a, build_case_b,
                              build_case_c, check_identity, discover_order,
                              invert_s_case_b, invert_s_case_c,
                              r_from_monodromy, sigma_from_traces)
from pvilab.numerics import Mat2, det2, gamma, tr2
from pvilab.pvi import ResonanceError, ThetaParams, _theta_draw

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


def _det_and_trace_checks(rep, trace_targets):
    for k, m in rep.matrices().items():
        assert abs(det2(m) - 1.0) < 1e-12
    for k, th in trace_targets.items():
        assert abs(tr2(rep.matrices()[k]) - 2.0 * cmath.cos(math.pi * th)) < 1e-12


def test_case_a_invariants():
    rep = build_case_a(TH)
    _det_and_trace_checks(rep, {"M0": TH.th0, "Mx": TH.thx,
                                "M1": TH.th1, "Minf": TH.thinf})
    assert rep.order, "no product ordering reproduces Minf"
    assert abs(check_identity(rep, TH)) < 1e-10


def test_case_a_flip_th1():
    rep = build_case_a(TH, flip_th1=True)
    flipped = ThetaParams(TH.th0, TH.thx, -TH.th1, TH.thinf)
    _det_and_trace_checks(rep, {"M1": -TH.th1})
    assert abs(check_identity(rep, flipped)) < 1e-10


def test_case_b_invariants():
    thx, thinf, s, r = 0.31, 0.44, 0.27 + 0.1j, 1.3
    rep = build_case_b(thx, thinf, s, r)
    _det_and_trace_checks(rep, {"M0": thx, "Mx": thx, "M1": thinf, "Minf": thinf})
    # M0 Mx = I in this family
    assert np.max(np.abs(rep.M0 @ rep.Mx - np.eye(2))) < 1e-12
    eff = ThetaParams(thx, thx, thinf, thinf)
    assert abs(check_identity(rep, eff)) < 1e-10


def test_case_c_invariants():
    th0, thx, s = 0.23, 0.57, 0.4 + 0.2j
    rep = build_case_c(th0, thx, s)
    _det_and_trace_checks(rep, {"M0": th0, "Mx": thx})
    # unipotent at 1, trace -2 at infinity
    assert abs(tr2(rep.M1) - 2.0) < 1e-12
    assert abs(tr2(rep.Minf) + 2.0) < 1e-12
    assert abs(check_identity(rep, rep.theta)) < 1e-9


def test_constructors_reject_integer_exponents():
    with pytest.raises(ResonanceError):
        build_case_a(ThetaParams(1.0, 0.57, 0.31, 0.44))
    with pytest.raises(ResonanceError):
        build_case_b(1.0, 0.44, 0.2, 1.0)
    with pytest.raises(ValueError):
        build_case_b(0.31, 0.44, 0.2, 0.0)


def test_discover_order_finds_planted_product():
    rng = np.random.default_rng(7)

    def sl2():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return m / np.sqrt(complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))

    m0, mx, m1 = sl2(), sl2(), sl2()
    found = discover_order(m0, mx, m1, mx @ m0 @ m1)
    assert "Mx*M0*M1" in found


def _matmul_order(M0, Mx, M1, Minf):
    """discover_order through numpy's matrix products, the reference."""
    mats = {"M0": M0, "Mx": Mx, "M1": M1}
    scale = max(np.max(np.abs(M)) for M in (M0, Mx, M1, Minf))
    found = []
    for perm in itertools.permutations(mats):
        P = mats[perm[0]] @ mats[perm[1]] @ mats[perm[2]]
        if np.max(np.abs(P - Minf)) < 1e-8 * scale:
            found.append("*".join(perm))
        if np.max(np.abs(P @ Minf - np.eye(2))) < 1e-8 * scale:
            found.append("*".join(perm) + "=inv")
    return tuple(found)


def test_discover_order_matches_the_matrix_product_reference():
    # every ordering planted as Minf or its inverse, on commuting and generic
    # triples, and a Minf that no ordering reproduces
    rng = np.random.default_rng(11)

    def sl2():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return m / np.sqrt(complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))

    for trial in range(20):
        m0, mx, m1 = sl2(), sl2(), (sl2() if trial % 4 else np.diag([1j, -1j]))
        if trial % 5 == 0:
            mx = m0 @ m0
        mats = {"M0": m0, "Mx": mx, "M1": m1}
        for perm in itertools.permutations(mats):
            P = mats[perm[0]] @ mats[perm[1]] @ mats[perm[2]]
            for target in (P, np.linalg.inv(P), P + 1e-3):
                assert discover_order(m0, mx, m1, target) == _matmul_order(m0, mx, m1, target)


def E(theta):
    """exp(i pi theta sigma3) as an ndarray."""
    e = cmath.exp(1j * math.pi * theta)
    return np.diag([e, 1.0 / e])


def inv2(m):
    """The inverse of a 2x2 ndarray: its adjugate over its determinant."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def mat2(a, b, c, d):
    return np.array([[a, b], [c, d]], dtype=complex)


def _numpy_reps(case, *args):
    """(M0, Mx, M1, Minf) of the closed forms through numpy's 2x2 products,
    the reference for the Mat2 algebra of the builds."""
    if case == "a":
        th, flip = args
        t0, tx, t1, ti = th.as_tuple()
        t1 = -t1 if flip else t1
        C0i, C01 = (np.asarray(connection_matrix(w, th, flip_th1=flip)) for w in ("C0inf", "C01"))
        C0i_i = inv2(C0i)
        return (C0i @ E(t0) @ C0i_i, C0i @ inv2(C01) @ E(tx) @ C01 @ C0i_i, E(-t1), E(-ti))
    if case == "b":
        thx, thinf, s, r = args
        G = mat2(1.0, 1.0, (s + thx) / r, s / r)
        return (G @ E(thx) @ inv2(G), G @ E(-thx) @ inv2(G), E(-thinf), E(-thinf))
    th0, thx, s = args
    th = ThetaParams(th0, thx, 0.0, 1.0)
    Ci0, C01 = (np.asarray(connection_matrix(w, th)) for w in ("Cinf0", "C01c"))
    Ci0_i = inv2(Ci0)
    return (Ci0_i @ E(th0) @ Ci0, Ci0_i @ inv2(C01) @ E(thx) @ C01 @ Ci0,
            mat2(1.0, 0.0, 2j * math.pi * s, 1.0), mat2(-1.0, 0.0, 2j * math.pi * (1.0 - s), -1.0))


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_builds_match_the_numpy_reference(case):
    rng = np.random.default_rng(29)
    build = {"a": build_case_a, "b": build_case_b, "c": build_case_c}[case]
    for k in range(60):
        th = _theta_draw(rng)
        if k % 2:
            th = ThetaParams(*(t + 1j * rng.uniform(-0.3, 0.3) for t in th.as_tuple()))
        s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        args = {"a": (th, k % 3 == 0), "b": (th.thx, th.thinf, s, rng.uniform(0.5, 2.0)),
                "c": (th.th0, th.thx, s)}[case]
        rep, ref = build(*args), _numpy_reps(case, *args)
        assert rep.order == _matmul_order(*ref)
        for M, R in zip((rep.M0, rep.Mx, rep.M1, rep.Minf), ref):
            assert type(M) is Mat2
            assert np.max(np.abs(M - R)) <= 4e-15 * max(1.0, np.max(np.abs(R)))


def test_build_case_a_evaluates_each_gamma_argument_once(monkeypatch):
    args = []

    def counted(z):
        args.append(z)
        return gamma(z)

    monkeypatch.setattr(hypergeom, "gamma", counted)
    build_case_a(TH)
    # C0inf and C01 share their eight half-sum denominators and Gamma(1 +- th0):
    # 14 distinct arguments among the 32 factors
    assert len(args) == len(set(args)) == 14
    build_case_a(TH)
    assert len(args) == 28 and set(args[14:]) == set(args[:14])


def test_check_identity_trace_only_path():
    # the trace-only form applies when both product orderings reproduce Minf,
    # which holds in the M0 Mx = I family
    rep = build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.3)
    eff = ThetaParams(0.31, 0.31, 0.44, 0.44)
    assert abs(check_identity(rep.traces(), eff)) < 1e-10


def test_sigma_from_traces_strip_normalization():
    for sigma in (0.3, 0.7 + 0.2j, 0.95):
        t0x = 2.0 * cmath.cos(math.pi * sigma)
        got = sigma_from_traces(t0x)
        assert abs(got - sigma) < 1e-10
        assert -1e-12 <= got.real <= 1.0 + 1e-12


def test_invert_s_round_trips():
    rep_b = build_case_b(0.31, 0.44, 0.27 + 0.13j, 1.1)
    assert abs(invert_s_case_b(rep_b) - (0.27 + 0.13j)) < 1e-10
    rep_c = build_case_c(0.23, 0.57, 0.4 - 0.3j)
    assert abs(invert_s_case_c(rep_c) - (0.4 - 0.3j)) < 1e-10


def test_r_from_monodromy_guards():
    traces = TraceData(1.2, 0.9, 1.1)
    with pytest.raises(ValueError):
        r_from_monodromy(0.0, TH, traces)
    # sigma resonant with th0 + thx
    with pytest.raises(ResonanceError):
        r_from_monodromy(TH.th0 + TH.thx, TH, traces)


def test_r_from_monodromy_generic_value_is_finite():
    sigma = 0.3
    traces = TraceData(2.0 * cmath.cos(math.pi * sigma), 0.9, 1.1)
    r = r_from_monodromy(sigma, TH, traces)
    assert np.isfinite(r.real) and np.isfinite(r.imag)
