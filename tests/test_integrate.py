"""The DOP853 integrator on problems with known solutions."""

import numpy as np
import pytest

from pvilab.integrate import StepUnderflow, dp45


def test_linear_system_exponential():
    a = np.array([[0.3j, 1.0], [0.0, -0.2]], dtype=complex)

    def f(t, y):
        return (a @ np.reshape(y, (2, 2))).ravel()

    got = np.reshape(dp45(f, 0.0, 1.0, np.eye(2, dtype=complex).ravel(), tol=1e-12), (2, 2))
    # exact expm of the triangular matrix
    l1, l2 = a[0, 0], a[1, 1]
    exact = np.array([[np.exp(l1), a[0, 1] * (np.exp(l1) - np.exp(l2)) / (l1 - l2)],
                      [0.0, np.exp(l2)]])
    assert np.max(np.abs(got - exact)) < 1e-10


def test_tolerance_scaling():
    def f(t, y):
        return np.array([1j * y[0] * np.cos(t)], dtype=complex)

    exact = np.exp(1j * np.sin(2.0))
    errs = [abs(dp45(f, 0.0, 2.0, np.array([1.0 + 0j]), tol=tol)[0] - exact)
            for tol in (1e-6, 1e-10)]
    assert errs[1] < errs[0]
    assert errs[1] < 1e-9


def test_backward_integration():
    def f(t, y):
        return np.array([-0.7 * y[0]])

    y1 = dp45(f, 1.0, 0.0, np.array([np.exp(-0.7) + 0j]), tol=1e-12)[0]
    assert abs(y1 - 1.0) < 1e-10


def test_step_callback_replaces_state():
    calls = []

    def f(t, y):
        return np.array([1.0 + 0j])

    def cb(t, y):
        calls.append(t)
        if 0.2 < t < 0.4 and y[0].imag == 0:
            return [v + 1j for v in y]  # one-time shift, as chart switches do
        return None

    y = dp45(f, 0.0, 1.0, np.array([0.0 + 0j]), tol=1e-10, step_cb=cb)
    assert calls, "callback never ran"
    assert y[0].real == pytest.approx(1.0, abs=1e-10)
    assert y[0].imag == pytest.approx(1.0)


def test_step_underflow():
    def f(t, y):
        # unbounded stiffness near t = 0.5 forces the controller under its
        # step floor, 1e-14
        return np.array([y[0] / (0.5 - t)])

    with pytest.raises(StepUnderflow):
        dp45(f, 0.0, 1.0, np.array([1.0 + 0j]), tol=1e-10)


def test_zero_span_returns_initial():
    y0 = np.array([2.0 + 3.0j])
    assert dp45(lambda t, y: y, 0.3, 0.3, y0)[0] == y0[0]


def test_accepted_step_costs_twelve_evaluations():
    # a cubic is integrated exactly by all three orders, so no step is
    # rejected; each accepted step evaluates stages 2 to 12 and f at the
    # new point
    evals, steps = [], []

    def f(t, y):
        evals.append(t)
        return np.array([3.0 * t * t + 0j])

    y = dp45(f, 0.0, 1.0, np.array([0.0 + 0j]), tol=1e-10,
             step_cb=lambda t, y: steps.append(t))
    assert y[0] == pytest.approx(1.0, abs=1e-12)
    assert len(steps) > 1
    assert len(evals) == 1 + 12 * len(steps)


def test_first_stage_recomputed_after_replacement():
    """f reads state that the callback changes (a chart switch); the stage
    handed on from the last step is stale then and must not be reused."""
    state = {"rate": 1.0}
    evals, switch = [], []

    def f(t, y):
        evals.append(t)
        return np.array([state["rate"] + 0j])

    def cb(t, y):
        if t > 0.3 and not switch:
            switch.append(t)
            state["rate"] = 2.0
            return y.copy()
        return None

    steps = []
    y = dp45(f, 0.0, 1.0, np.array([0.0 + 0j]), tol=1e-3,
             step_cb=lambda t, y: steps.append(t) or cb(t, y))
    t_sw = switch[0]
    assert y[0].real == pytest.approx(t_sw + 2.0 * (1.0 - t_sw), abs=1e-12)
    assert len(evals) == 2 + 12 * len(steps)


def test_eighth_order_integrates_a_degree_seven_polynomial_exactly():
    # the eighth-order weights integrate t**7 exactly, so y(1) = 1 to
    # rounding even at a coarse tolerance; a fifth-order method misses it
    y = dp45(lambda t, y: [8.0 * t ** 7 + 0j], 0.0, 1.0, np.array([0.0 + 0j]), tol=1e-3)
    assert abs(y[0] - 1.0) <= 1e-14


@pytest.mark.parametrize("tol", [1e-17, 1e-20, 1e-300, 0.0])
def test_tolerance_below_unit_roundoff_is_rejected(tol):
    evals = []

    def f(t, y):
        evals.append(t)
        return y

    with pytest.raises(ValueError, match="tol"):
        dp45(f, 0.0, 1.0, np.array([1.0 + 0j]), tol=tol)
    assert not evals


def test_tolerance_at_unit_roundoff_is_accepted():
    eps = np.finfo(float).eps
    y = dp45(lambda t, y: [-v for v in y], 0.0, 1.0, np.array([1.0 + 0j]), tol=eps)
    assert abs(y[0] - np.exp(-1.0)) < 1e-13
