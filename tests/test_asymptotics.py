"""Critical-behavior seeds: classification, values, amplitude/phase maps."""

import cmath
import math

import pytest

from pvilab.asymptotics import (OutOfStripError, classify, make_seed,
                                seed_second, seed_value,
                                three_term_value, trig_amp_phase)
from pvilab.pvi import ThetaParams, pvi_residual_expr

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


def test_classify_regimes():
    assert classify(0.3 + 0.2j, TH) == "power-generic"
    assert classify(0.25j, TH) == "trig"
    assert classify(0.0, TH) == "log-generic"
    assert classify(TH.th0 + TH.thx, TH) == "one-param-sum"
    assert classify(-(TH.th0 - TH.thx), TH) == "one-param-diff"
    assert classify(0.0, ThetaParams(0.4, 0.4, 0.1, 0.3)) == "log-special+"
    with pytest.raises(OutOfStripError):
        classify(1.0, TH)


def test_make_seed_requires_r_for_power_kinds():
    with pytest.raises(ValueError):
        make_seed(0.3, TH, 0.0)


@pytest.mark.parametrize("sigma,r", [
    (0.3 + 0.2j, 0.8),
    (0.25j, 0.4 + 0.1j),
    (0.0, 0.1),
])
def test_seed_residual_decays(sigma, r):
    """The seed must satisfy PVI to leading order: the scaled residual of
    the truncated behavior has to shrink as x -> 0."""
    seed = make_seed(sigma, TH, r)
    errs = []
    for x in (1e-3, 1e-5):
        y, yp = seed_value(seed, x)
        ypp = seed_second(seed, x)
        errs.append(abs(pvi_residual_expr(x, y, yp, ypp, TH)) / abs(x) ** 2)
    assert errs[1] < 0.2 * errs[0]


def test_three_term_extends_leading_power():
    sigma, r = 0.3, 0.7
    seed = make_seed(sigma, TH, r)
    x = 1e-4
    y1, _ = seed_value(seed, x)
    y3, _ = seed_value(seed, x, three_term=True)
    assert y3 != y1
    # the refinement adds exactly the two printed subleading powers
    t0, tx = TH.th0, TH.thx
    extra = ((t0 * t0 - tx * tx + sigma ** 2) / (2.0 * sigma ** 2) * x
             - r / sigma * x ** (1.0 + sigma))
    assert abs((y3 - y1) - extra) < 1e-15
    y3d, _ = three_term_value(sigma, TH, r, x)
    assert y3 == y3d


def test_trig_amp_phase_rejects_real_sigma():
    with pytest.raises(ValueError):
        trig_amp_phase(0.3, TH, 1.0)


def test_one_param_seed_leading_value():
    base = TH.th0 + TH.thx
    seed = make_seed(base, TH, 0.5)
    x = 1e-5
    y, _ = seed_value(seed, x)
    # leading term th0/(th0+thx) x
    assert abs(y / x - TH.th0 / base) < 1e-3


def test_log_generic_seed_shape():
    r = 0.1
    seed = make_seed(0.0, TH, r)
    x = 1e-6
    y, _ = seed_value(seed, x)
    d = TH.th0 ** 2 - TH.thx ** 2
    u = cmath.log(x) + (4.0 * r + 2.0 * TH.th0) / d
    f = -d / 4.0 * u * u + TH.th0 ** 2 / d
    assert abs(y - x * f) < 1e-15 * abs(x * f)
