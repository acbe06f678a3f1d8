"""Generator actions on theta, sigma and (x, y)."""

import pytest
from hypothesis import given, settings, strategies as st

from pvilab.pvi import ThetaParams
from pvilab.symmetries import (GENERATORS, XY_GENERATORS, act_theta, act_xy,
                               sigma_image, transport_solution)

TH = ThetaParams(0.23, 0.57, 0.31, 0.44)


def _close(a: ThetaParams, b: ThetaParams, tol=1e-13):
    return all(abs(x - y) < tol for x, y in zip(a.as_tuple(), b.as_tuple()))


@pytest.mark.parametrize("gen", ["x1", "x3", "w1", "w3", "w4", "t", "q"])
def test_involutions_on_theta(gen):
    assert _close(act_theta(gen, act_theta(gen, TH)), TH)


def test_w2_is_an_involution():
    assert _close(act_theta("w2", act_theta("w2", TH)), TH)


def test_x2_and_n_are_involutions():
    assert _close(act_theta("x2", act_theta("x2", TH)), TH)
    assert _close(act_theta("n", act_theta("n", TH)), TH)


def test_shifts_commute_and_translate():
    a = act_theta("l3", act_theta("l1", TH))
    b = act_theta("l1", act_theta("l3", TH))
    assert _close(a, b)
    assert abs(a.th0 - (TH.th0 + 1.0)) < 1e-15
    assert abs(a.thx - (TH.thx + 1.0)) < 1e-15


def test_unknown_generator_raises():
    with pytest.raises(ValueError):
        act_theta("zz", TH)
    with pytest.raises(ValueError):
        act_xy("w1", 0.3, 0.5)  # no printed (x,y)-action
    with pytest.raises(ValueError):
        sigma_image("n", 0.3)


@pytest.mark.parametrize("gen", ["x1", "x2", "x3", "n", "q"])
def test_xy_actions_are_involutions(gen):
    assert gen in XY_GENERATORS
    x, y = 0.37, 0.61
    x2, y2 = act_xy(gen, *act_xy(gen, x, y))
    assert abs(x2 - x) < 1e-13 and abs(y2 - y) < 1e-13


def test_xy_pole_guards():
    with pytest.raises(ZeroDivisionError):
        act_xy("n", 0.3, 0.0)
    with pytest.raises(ZeroDivisionError):
        act_xy("x3", 1.0, 0.5)


def test_sigma_image_shifts():
    assert sigma_image("l1", 0.3) == pytest.approx(1.3)
    assert sigma_image("l2", 0.3) == pytest.approx(-0.7)


@pytest.mark.parametrize("gen", ["w1", "t", "w3", "w4", "x1", "x2"])
def test_sigma_image_not_tabulated(gen):
    # no closed-form image of sigma is known for these generators
    with pytest.raises(ValueError, match="no tabulated sigma-image"):
        sigma_image(gen, 0.3)


_FINITE = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(gen=st.sampled_from(["w2", "x3"]), sigma=_FINITE)
def test_involutive_generators_restore_sigma(gen, sigma):
    assert sigma_image(gen, sigma_image(gen, sigma)) == sigma


def test_transport_solution_maps_grids():
    samples = [(0.2, 0.5), (0.3, 0.6)]
    out = transport_solution("x1", samples)
    assert out == [(0.8, 0.5), (0.7, 0.4)]


def test_generator_list_is_complete():
    for g in GENERATORS:
        act_theta(g, TH)  # every listed generator has a theta action
