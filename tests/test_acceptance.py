"""End-to-end cross-validation: one test per acceptance check.

Each check is a callable in pvilab.acceptance returning its gates, each a
measured value against a bound; acceptance.judge gives (ok, detail), and the
detail string carries the measured numbers so a failure is self-explaining.
"""

import math

import numpy as np
import pytest

from pvilab import acceptance, fuchsian

_BY_NAME = dict(acceptance.CRITERIA)


@pytest.mark.parametrize("name", [n for n, _ in acceptance.CRITERIA])
def test_criterion(name):
    ok, detail = acceptance.judge(_BY_NAME[name]())
    assert ok, detail


def test_details_are_deterministic():
    # runtimes gate the checks but stay out of the details, so selftest
    # output is the same bytes on every run
    assert acceptance.run_all() == acceptance.run_all()


def test_nonint_keeps_the_choice_stream():
    # rng.integers(2) takes the same bits as rng.choice((-1.0, 1.0)), so the
    # checks' random inputs are those of a choice-based sign draw
    def reference(rng, margin=0.1):
        while True:
            v = rng.uniform(0.12, 0.88) * rng.choice((-1.0, 1.0))
            if abs(v - round(v)) > margin:
                return v

    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2000):
        assert acceptance._nonint(got_rng) == reference(want_rng)
    assert got_rng.random() == want_rng.random()


def _y_bound(tag):
    """2 C 1e-6 + 1e-14, with C x^2 the two-term error of case tag at x = 1e-2."""
    _, sys, ser = next(c for c in acceptance._residue_cases() if c[0] == tag)
    c_est = abs(fuchsian.y_from_A(sys, 1e-2) - (ser.c[0] + ser.c[1] * 1e-2)) / 1e-4
    return 2.0 * c_est * 1e-6 + 1e-14


# (check, gate, sense, bound) of every comparison the checks make, in order.
# Loop-transport's ratio window is [10^k / 2, 2 10^k] at k = 3; a
# y-from-residues bound is named by its case, and is 2 C 1e-6 + 1e-14.
_GATES = [
    ("taylor-form1-fidelity", "b0/b1 deviation", "<", 1e-12),
    ("taylor-form1-fidelity", "residual first nonzero order", ">=", 11),
    ("taylor-form1-fidelity", "runtime", "<", 2.0),
    ("taylor-special-vector", "coefficient deviation", "<", 1e-13),
    ("exact-solution-residuals", "worst pointwise residual", "<", 1e-12),
    ("monodromy-constructors", "det", "<", 1e-12),
    ("monodromy-constructors", "traces", "<", 1e-10),
    ("monodromy-constructors", "M0*Mx-I", "<", 1e-12),
    ("monodromy-constructors", "trace identity", "<", 1e-9),
    ("monodromy-constructors", "s round-trips", "<", 1e-10),
    ("connection-matrix-agreement", "worst relative deviation", "<", 1e-8),
    ("connection-matrix-agreement", "runtime", "<", 10.0),
    ("loop-transport-scaling", "trace err @ x=0.01", "<=", 1.0 * 1e-2 + 1e-8),
    ("loop-transport-scaling", "trace err @ x=0.001", "<=", 1.0 * 1e-3 + 1e-8),
    ("loop-transport-scaling", "two-point ratio", ">=", 10 ** 3 / 2),
    ("loop-transport-scaling", "two-point ratio", "<=", 2 * 10 ** 3),
    ("loop-transport-scaling",
     "rel dev of err @ x=0.01 from |2cos(2 pi mu)-2cos(pi thinf)|", "<=", 0.01),
    ("y-from-residues", "case a err @ x=0.001", "<=", "a"),
    ("y-from-residues", "case b err @ x=0.001", "<=", "b"),
    ("y-from-residues", "case c err @ x=0.001", "<=", "c"),
    ("gauge-recursion-closed-forms", "worst closed-form deviation", "<", 1e-12),
    ("seed-self-consistency", "leading-term drift", "<", 0.05),
    ("seed-self-consistency", "round-trip scaled error", "<", 1e-8),
    ("seed-self-consistency", "runtime", "<", 5.0),
    ("symmetry-transport", "transported residual", "<", 1e-8),
    ("symmetry-transport", "double-application identity", "<", 1e-13),
    ("trig-three-term-identity", "worst pointwise deviation", "<", 1e-10),
]


def test_gates_keep_the_bounds_of_the_checks():
    """Every check's gates are the listed (gate, sense, bound), in order; the
    selftest records carry margin = measured/bound, finite, except that a
    runtime gate carries no measured value."""
    want = [(c, g, s, _y_bound(b) if isinstance(b, str) else b) for c, g, s, b in _GATES]
    rows = acceptance.run_all()
    got = [(name, r["name"], r["sense"], r["bound"]) for name, _, _, recs in rows for r in recs]
    assert got == want
    for _, ok, _, recs in rows:
        assert ok
        for r in recs:
            if r["name"] == "runtime":
                assert set(r) == {"name", "sense", "bound"}
            else:
                assert math.isfinite(r["margin"])
                assert r["margin"] == r["measured"] / r["bound"]


@pytest.mark.parametrize("sense,measured,holds", [
    ("<", 1.0, False), ("<", 0.5, True), ("<=", 1.0, True), ("<=", 1.5, False),
    (">=", 1.0, True), (">=", 0.5, False)])
def test_gate_verdict_and_text(sense, measured, holds):
    gate = acceptance.Gate("dev", measured, sense, 1.0)
    runtime = acceptance.Gate("runtime", measured, "<", 1.0)
    assert acceptance.judge([gate]) == (holds, f"dev {measured:.2e} ({sense} 1)")
    assert acceptance.judge([gate, runtime])[0] == (holds and measured < 1.0)
    assert runtime.text() == ("runtime < 1s" if measured < 1.0 else "runtime >= 1s")
