#!/usr/bin/env python3
"""Negative checks: each workload's correctness check must fail on a
perturbed output, or on a wrong reference.

    python3 bench/negative.py [--seed N] [--workloads W ...]

Runs one real pass per workload, confirms its check passes, then applies
each perturbation to a copy of the outputs (or swaps in a wrong reference)
and confirms the check reports the expected failure.  Exits 1 if any
perturbation goes undetected.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import common  # noqa: E402

EPS = 1e-6


@contextlib.contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def _bump(arr, idx, rel=EPS):
    """Move arr[idx] by `rel` times the largest entry up to idx + 1."""
    scale = float(np.max(np.abs(np.ravel(arr)[: idx + 2]))) or 1.0
    np.ravel(arr)[idx] += rel * scale


# ----------------------------------------------------------------------


def taylor_cases(wl, inp, out):
    def series_of(o, klass):
        k = [t[0] for t in inp["taylor"]].index(klass)
        return o["taylor"][k]

    def coeff(klass, n):
        def f(o):
            s = series_of(o, klass)
            s.c = s.c.copy()
            _bump(s.c, n)
        return f

    def log_p1(o):
        o["log"][0].p[1] = o["log"][0].p[1] + EPS

    def log_p3(o):
        o["log"][1].p[3] = o["log"][1].p[3] + EPS

    def omega_col(o):
        o["omega"][0].c[3, 0] += EPS

    def omega_n2(o):
        o["omega"][1].c[2, 2] += EPS

    return [("form1 b1 off by 1e-6", coeff("form1", 1), None, "form1 printed"),
            ("form2 third coefficient off by 1e-6", coeff("form2", 2), None, "form2"),
            ("taylor1+ b_10 off by 1e-6", coeff("taylor1+", 10), None, "taylor1+ vs"),
            ("riuffa b_3 off by 1e-6", coeff("riuffa", 3), None, "riuffa vs"),
            ("taylor3 b_40 off by 1e-6", coeff("taylor3", 40), None, "taylor3 residual"),
            ("log P1 off by 1e-6", log_p1, None, "printed P1"),
            ("log P3 off by 1e-6", log_p3, None, "shape3+ residual"),
            ("omega N=0 column off by 1e-6", omega_col, None, "N=0 column"),
            ("omega (k=2, N=2) off by 1e-6", omega_n2, None, "omega form1 residual")]


def monodromy_cases(wl, inp, out):
    def unperturbed_target(sys_, key, x):
        # the x -> 0 limit 2 cos(pi theta) in place of 2 cos(2 pi mu(x))
        th = dict(zip(("0", "x", "1"), sys_.theta.as_tuple()[:3]))[key]
        return 2.0 * cmath.cos(math.pi * th)

    def loop(o):
        sys_, key, x, m = o["loops"][4]
        o["loops"][4] = (sys_, key, x, m @ np.diag([1.0 + EPS, 1.0 / (1.0 + EPS)]))

    def oracle(o):
        cmat, orc = o["conn"][0]
        o["conn"][0] = (cmat * (1.0 + EPS), orc)

    def rep(o):
        r, s = o["reps"][1]
        o["reps"][1] = (dataclasses.replace(r, M1=r.M1 * (1.0 + EPS)), s)

    def s_trip(o):
        r, s = o["reps"][2]
        o["reps"][2] = (r, s + EPS)

    return [("loop monodromy scaled by diag(1+1e-6, 1/(1+1e-6))", loop, None, "loop at"),
            ("trace target 2cos(pi theta) instead of 2cos(2 pi mu(x))", None,
             (wl, "loop_trace_target", unperturbed_target), "loop at"),
            ("C0inf off by 1e-6 relative", oracle, None, "C0inf vs ODE oracle"),
            ("case b M1 scaled by 1+1e-6", rep, None, "case b"),
            ("case c s off by 1e-6", s_trip, None, "s round trip")]


def continuation_cases(wl, inp, out):
    exact = wl.exact

    def wrong_exact(theta, x):
        t0, tx, t1, ti = theta
        return exact((t0, tx, t1 + EPS, ti - EPS), x)

    def final(o):
        traj = o["legs"][1]
        x, y, yp, chart = traj.samples[-1]
        traj.samples[-1] = (x, y + EPS, yp, chart)

    def seed_back(o):
        seed, y0, fwd, back = o["seed"]
        x, y, yp, chart = back.samples[-1]
        back.samples[-1] = (x, y * (1.0 + EPS), yp, chart)

    return [("exact solution with th1 + 1e-6 (sum kept 0)", None,
             (wl, "exact", wrong_exact), "final (y, y') vs exact"),
            ("long leg final y off by 1e-6", final, None, "leg final"),
            ("seed round trip y off by 1e-6 relative", seed_back, None, "seed round trip")]


def cli_cases(wl, inp, out):
    def edit(index, fn):
        def f(o):
            code, text = o["results"][index]
            o["results"][index] = (code, fn(text))
        return f

    def json_edit(fn):
        def g(text):
            doc = json.loads(text)
            fn(doc)
            return json.dumps(doc)
        return g

    def b1(doc):
        doc["coeffs"][1][0] += EPS

    def sweep_b0(doc):
        doc["results"][17]["coeffs"][0][0] += EPS

    def trace(doc):
        doc["trace"][0] += EPS

    def not_ok(doc):
        doc["all_ok"] = False

    return [("series b1 off by 1e-6", edit(0, json_edit(b1)), None, "series printed"),
            ("fuchsian trace off by 1e-6", edit(2, json_edit(trace)), None, "fuchsian transport"),
            ("two JSON documents on stdout", edit(1, lambda t: t + t), None, "one JSON document"),
            ("sweep b0 off by 1e-6", edit(5, json_edit(sweep_b0)), None, "sweep b0"),
            ("selftest all_ok false", edit(6, json_edit(not_ok)), None, "selftest all_ok")]


CASES = {"taylor-series": ("wl_taylor", taylor_cases),
         "monodromy-oracles": ("wl_monodromy", monodromy_cases),
         "continuation": ("wl_continuation", continuation_cases),
         "cli-cold": ("wl_cli", cli_cases)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=list(CASES))
    args = p.parse_args(argv)
    missed = 0
    for w in args.workloads:
        module, cases = CASES[w]
        wl = __import__(module)
        inp = wl.build(args.seed)
        _, out, _, _ = wl.run_pass(inp)
        led = common.Ledger()
        wl.check(inp, out, led)
        print(f"{w}: unperturbed check {'passes' if led.ok else 'FAILS: ' + '; '.join(led.failures)}")
        missed += not led.ok
        for label, perturb, patch, expect in cases(wl, inp, out):
            o = copy.deepcopy(out)
            if perturb is not None:
                perturb(o)
            led = common.Ledger()
            with patched(*patch) if patch else contextlib.nullcontext():
                wl.check(inp, o, led)
            hit = any(expect in f for f in led.failures)
            missed += not hit
            print(f"  {'detected' if hit else 'NOT DETECTED':12s}  {label}"
                  + (f"  ({led.failures[0]})" if led.failures else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
