"""The written-out right-hand side of the linear transport against the
same right-hand side formed with numpy array operations.

`fuchsian.transport` forms its RHS in Python complex arithmetic, and
`hypergeom.ode_transport` carries Gauss frames on it through the paper's
first-order reduction.  The references below form the RHS on numpy arrays
and are driven through the same `integrate.dp45` on the same paths: the
loop matrices must agree to rounding, and the integrator must take the same
steps (RHS evaluation counts within 1 %).  The Gauss frames are checked
against an independent reference that integrates Gauss' second-order
equation itself.  The default loops of the three systems are also checked
against the loop of ten times their radius, and their evaluation count is
pinned.
"""

import cmath
import math

import numpy as np
import pytest

from pvilab import fuchsian, hypergeom, integrate
from pvilab.pvi import ThetaParams

TOL = 1e-12


def _counting_dp45(counts):
    """integrate.dp45 with its RHS wrapped by a call counter."""
    def dp45(f, *args, **kwargs):
        def counted(t, y):
            counts.append(t)
            return f(t, y)
        return integrate.dp45(counted, *args, **kwargs)
    return dp45


def reference_transport(system, x, loop_or_vertices, tol, counts):
    """transport with the RHS dlambda * (A(lambda) @ Psi) on 2x2 arrays."""
    a0, axm, a1 = (np.asarray(system.residue(k, x)) for k in ("0", "x", "1"))
    xc = complex(x)
    dp45 = _counting_dp45(counts)

    def leg(m, anchor, path):
        # lambda = anchor + d, with each lambda - p formed as (anchor - p) + d
        o0, ox, o1 = anchor, anchor - xc, anchor - 1.0

        def f(t, y):
            d, dlam = path(t)
            a = a0 / (o0 + d) + axm / (ox + d) + a1 / (o1 + d)
            return dlam * (a @ np.asarray(y).reshape(2, 2)).ravel()

        return np.reshape(dp45(f, m.ravel(), tol=tol), (2, 2))

    m = np.eye(2, dtype=complex)
    if isinstance(loop_or_vertices, fuchsian.Loop):
        r, w = float(loop_or_vertices.radius), 2j * math.pi

        def circle(t):
            d = r * cmath.exp(w * t)
            return d, w * d

        return leg(m, complex(loop_or_vertices.center), circle)
    verts = [complex(v) for v in loop_or_vertices]
    for z0, z1 in zip(verts[:-1], verts[1:]):
        dz = z1 - z0
        if dz != 0:
            m = leg(m, z0, lambda t, dz=dz: (t * dz, dz))
    return m


def reference_ode_transport(p, z0, W0, path, tol, counts):
    """Gauss' equation for the frame, with the RHS on strided slices of the
    state array: a reference that shares no code with the reduction."""
    al, be, ga = p.alpha, p.beta, p.gamma
    dp45 = _counting_dp45(counts)

    def rhs_factory(za, zb):
        dz = zb - za

        def f(t, y):
            z = za + t * dz
            y = np.asarray(y)
            phi = y[0::2]
            dphi = y[1::2]
            ddphi = ((al * be) * phi - (ga - (al + be + 1.0) * z) * dphi) / (z * (1.0 - z))
            out = np.empty_like(y)
            out[0::2] = dphi * dz
            out[1::2] = ddphi * dz
            return out

        return f

    y = np.array([W0[0, 0], W0[1, 0], W0[0, 1], W0[1, 1]], dtype=complex)
    za = complex(z0)
    for zb in path:
        y = dp45(rhs_factory(za, complex(zb)), y, tol=tol)
        za = complex(zb)
    return np.array([[y[0], y[2]], [y[1], y[3]]], dtype=complex)


SYSTEMS = {
    "a": lambda: fuchsian.build_case_a(ThetaParams(0.21, 0.33, 0.17, 0.52), 1.0),
    "b": lambda: fuchsian.build_case_b(0.31, 0.44, 0.27 + 0.1j, 1.0),
    "c": lambda: fuchsian.build_case_c(0.23, 0.57, 0.6, 1.3),
}


def _assert_same_transport(monkeypatch, system, x, loop_or_vertices):
    got_counts, want_counts = [], []
    monkeypatch.setattr(fuchsian, "dp45", _counting_dp45(got_counts))
    got = fuchsian.transport(system, x, loop_or_vertices, tol=TOL)
    want = reference_transport(system, x, loop_or_vertices, TOL, want_counts)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert abs(len(got_counts) - len(want_counts)) <= 0.01 * len(want_counts)


@pytest.mark.parametrize("case", sorted(SYSTEMS))
@pytest.mark.parametrize("x", [1e-2, 1e-3])
@pytest.mark.parametrize("center", ["0", "x", "1"])
def test_loop_matches_numpy_rhs(monkeypatch, case, x, center):
    c = {"0": 0.0, "x": x, "1": 1.0}[center]
    loop = fuchsian.Loop(complex(c), fuchsian.default_radius(x))
    _assert_same_transport(monkeypatch, SYSTEMS[case](), x, loop)


@pytest.mark.parametrize("case", sorted(SYSTEMS))
@pytest.mark.parametrize("x", [1e-2, 1e-3])
@pytest.mark.parametrize("center", ["0", "x", "1"])
def test_default_loop_matches_a_ten_times_wider_loop(case, x, center):
    """The wide loop, reached radially from the default loop's start c + r and
    left radially back to it, encloses the same pole and is based at the same
    point: same matrix."""
    c = complex({"0": 0.0, "x": x, "1": 1.0}[center])
    r = fuchsian.default_radius(x)
    system = SYSTEMS[case]()
    got = fuchsian.loop_monodromy(system, x, c, tol=TOL)
    want = (fuchsian.transport(system, x, [c + 10.0 * r, c + r], tol=TOL)
            @ fuchsian.transport(system, x, fuchsian.Loop(c, 10.0 * r), tol=TOL)
            @ fuchsian.transport(system, x, [c + r, c + 10.0 * r], tol=TOL))
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_default_loops_evaluation_count(monkeypatch):
    # 2,058 evaluations; a radius of a thirtieth of the pole distance takes
    # 3,606 and one of a third 6,551
    counts = []
    monkeypatch.setattr(fuchsian, "dp45", _counting_dp45(counts))
    for case in sorted(SYSTEMS):
        system = SYSTEMS[case]()
        for x in (1e-2, 1e-3):
            for c in (0.0, x, 1.0):
                fuchsian.loop_monodromy(system, x, c, tol=TOL)
    assert len(counts) <= 2160


def test_polygon_matches_numpy_rhs(monkeypatch):
    x, r = 1e-2, 0.1
    poly = [x + r * cmath.exp(2j * math.pi * k / 8) for k in range(9)]
    _assert_same_transport(monkeypatch, SYSTEMS["a"](), x, poly)


ORACLES = [("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), False),
           ("C0inf", ThetaParams(0.23, 0.57, 0.31, 0.44), True),
           ("Cinf0", ThetaParams(0.23, 0.57, 0.0, 1.0), False),
           ("Cinf0", ThetaParams(0.41 + 0.1j, -0.27, 0.0, 1.0), False)]


@pytest.mark.parametrize("which,theta,flip", ORACLES)
def test_oracle_frame_matches_numpy_rhs(monkeypatch, which, theta, flip):
    """The oracle's frame against Gauss' equation integrated on numpy arrays,
    and its steps against `reference_transport` on the reduction system that
    `ode_transport` hands to `fuchsian.transport`."""
    calls, systems, got_counts = [], [], []
    real, real_transport = hypergeom.ode_transport, fuchsian.transport

    def recording(p, z0, W0, path):
        calls.append((p, z0, W0, path, real(p, z0, W0, path)))
        return calls[-1][-1]

    def recording_transport(system, x, vertices, tol):
        systems.append((system, x, vertices, tol))
        return real_transport(system, x, vertices, tol=tol)

    monkeypatch.setattr(hypergeom, "ode_transport", recording)
    monkeypatch.setattr(fuchsian, "transport", recording_transport)
    monkeypatch.setattr(fuchsian, "dp45", _counting_dp45(got_counts))
    hypergeom.connection_oracle(which, theta, flip_th1=flip)
    assert len(calls) == 1 and len(systems) == 1
    p, z0, W0, path, got = calls[0]
    want = reference_ode_transport(p, z0, W0, path, TOL, [])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    want_counts = []
    reference_transport(*systems[0], want_counts)
    assert abs(len(got_counts) - len(want_counts)) <= 0.01 * len(want_counts)
