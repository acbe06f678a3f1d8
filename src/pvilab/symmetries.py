"""Birational symmetries: theta-actions, sigma-images, and (x, y)-maps.

Generators:
  x1, x2, x3 : the three basic coordinate changes (with printed (x,y)-maps)
  w1..w4     : reflections (theta-action only; w2 also has a sigma-image)
  l1..l4     : shifts (theta-action and sigma-image only)
  t          : th1 -> -th1 keeping the same solution
  n          : th swap (thx,th0,th1,thinf) -> (th1, thinf-1, thx, th0+1),
               y -> x/y
  q          : x -> 1/x rescaling y = ytilde(t)/t; theta-action swaps thx, th1

The (x, y)-actions of w* and l* are deliberately not implemented (only
their parameter actions are known in closed form here).  Sigma-images are
tabulated only for l1..l4, w2 and x3, none of which depends on theta; the
other generators' images are not known here.  A word of generators is
applied by nesting act_theta (or sigma_image) calls, innermost first.
"""

from __future__ import annotations

from .pvi import ThetaParams

__all__ = [
    "GENERATORS",
    "XY_GENERATORS",
    "act_theta",
    "act_xy",
    "sigma_image",
    "transport_solution",
]

GENERATORS = ("x1", "x2", "x3", "w1", "w2", "w3", "w4",
              "l1", "l2", "l3", "l4", "t", "n", "q")
XY_GENERATORS = ("x1", "x2", "x3", "t", "n", "q")


class MapPoleError(ZeroDivisionError):
    pass


def act_theta(gen: str, th: ThetaParams) -> ThetaParams:
    t0, tx, t1, ti = th.as_tuple()
    if gen == "x1":
        return ThetaParams(t1, tx, t0, ti)
    if gen == "x2":
        return ThetaParams(ti - 1.0, tx, t1, t0 + 1.0)
    if gen == "x3":
        return ThetaParams(tx, t0, t1, ti)
    if gen == "w1" or gen == "t":
        return ThetaParams(t0, tx, -t1, ti)
    if gen == "w2":
        h = (t0 + t1 + tx + ti) / 2.0
        return ThetaParams(h - 1.0, (t0 - t1 + tx - ti) / 2.0 + 1.0,
                           (t0 + t1 - tx - ti) / 2.0 + 1.0,
                           (t0 - t1 - tx + ti) / 2.0 + 1.0)
    if gen == "w3":
        return ThetaParams(t0, tx, t1, 2.0 - ti)
    if gen == "w4":
        return ThetaParams(t0, 2.0 - tx, t1, 2.0 - ti)
    if gen == "l1":
        return ThetaParams(t0 + 1.0, tx, t1 + 1.0, ti)
    if gen == "l2":
        return ThetaParams(t0 + 1.0, tx, t1 - 1.0, ti)
    if gen == "l3":
        return ThetaParams(t0, tx + 1.0, t1, ti + 1.0)
    if gen == "l4":
        return ThetaParams(t0, tx + 1.0, t1, ti - 1.0)
    if gen == "n":
        return ThetaParams(ti - 1.0, t1, tx, t0 + 1.0)
    if gen == "q":
        return ThetaParams(t0, t1, tx, ti)
    raise ValueError(f"unknown generator {gen!r}")


def act_xy(gen: str, x, y):
    """Pointwise (x, y) -> (x', y'): the transformed solution takes value y' at x'."""
    if gen == "x1":
        return 1.0 - x, 1.0 - y
    if gen == "x2":
        if y == 0 or x == 0:
            raise MapPoleError("x2 pole at y = 0 or x = 0")
        return 1.0 / x, 1.0 / y
    if gen == "x3":
        if x == 1.0:
            raise MapPoleError("x3 pole at x = 1")
        return x / (x - 1.0), (x - y) / (x - 1.0)
    if gen == "t":
        return x, y
    if gen == "n":
        if y == 0:
            raise MapPoleError("n pole at y = 0")
        return x, x / y
    if gen == "q":
        if x == 0:
            raise MapPoleError("q pole at x = 0")
        return 1.0 / x, y / x
    raise ValueError(f"generator {gen!r} has no printed (x,y)-action")


def sigma_image(gen: str, sigma):
    """Image of the x->0 exponent sigma under one generator; the tabulated
    images are shifts by an integer or the identity, free of theta."""
    table = {
        "l1": sigma + 1.0,
        "l4": sigma + 1.0,
        "l2": sigma - 1.0,
        "l3": sigma - 1.0,
        "w2": sigma,
        "x3": sigma,
    }
    if gen not in table:
        raise ValueError(f"no tabulated sigma-image for generator {gen!r}")
    return table[gen]


def transport_solution(gen: str, samples):
    """Map [(x, y), ...] through the generator's (x,y)-action.

    Output grid is the image of the input grid under the map itself; callers
    own any re-gridding (no interpolation happens here).
    """
    return [act_xy(gen, x, y) for (x, y) in samples]
