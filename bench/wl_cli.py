"""cli-cold: `pvilab` commands, each in a fresh interpreter.

Time goes to imports (numpy and the eager `acceptance` import), argparse
and JSON, the `sweep` thread pool and `selftest`.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np

import pvilab.cli as cli
from pvilab import fuchsian, hypergeom
from pvilab.pvi import ThetaParams

import common
import wl_continuation
import wl_monodromy

PARTS = ("commands", "sweep", "selftest")
TIMEOUT = 150.0

# Set by the traced run: commands then run through cli.main in this
# process, so that spans can be recorded.
IN_PROCESS = False

# The parts run in fresh interpreters, whose speed the in-process
# calibration does not follow (over five runs it widened the spread of these
# parts from 0.09-0.18 to 0.19-0.32); a fresh-interpreter calibration does.
CALIBRATION = common.FRESH_PROCESS


def build(seed):
    rng = common.rng_for(seed, 4)

    def j(v):
        if isinstance(v, complex):
            return v + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        return float(v + rng.uniform(-0.04, 0.04))

    th = tuple(j(v) for v in (0.23, 0.57, 0.31, 0.44))
    thx, thinf, s, r = (j(v) for v in (0.31, 0.44, 0.27 + 0.1j, 1.0))
    tha = wl_continuation.THETA_A
    x0 = j(0.5 + 0.1j)
    x1 = x0 + 0.3j
    y0, yp0 = wl_continuation.exact(tha, x0)
    thetas = ",".join(repr(v) for v in th)
    case_b = [f"--thx={thx!r}", f"--thinf={thinf!r}", f"--s={common.fmt_c(s)}", f"--r={r!r}"]
    commands = [
        ["series", f"--theta={thetas}", "--class", "form1", "--order", "12"],
        ["monodromy", "--case", "b"] + case_b,
        ["fuchsian", "--action", "transport", "--case", "b"] + case_b
        + ["--x", "1e-3", "--center", "1"],
        ["hypergeom", "--which", "C0inf", f"--theta={thetas}", "--oracle"],
        ["continue", f"--theta={','.join(repr(v) for v in tha)}",
         "--ic=" + ",".join(common.fmt_c(v) for v in (x0, y0, yp0)),
         "--path=" + ";".join(common.fmt_c(v) for v in (x0, x1))],
    ]
    return {"theta": th, "case_b": (thx, thinf, s, r), "commands": commands,
            "sweep": ["sweep", "--count", "64", "--order", "12", "--seed", str(common.seed_value(seed))],
            "selftest": ["selftest"]}


def _run(argv):
    """(exit code, stdout) of one pvilab command."""
    if IN_PROCESS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()
    proc = subprocess.run([sys.executable, "-m", "pvilab.cli"] + argv, env=common.pvilab_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=TIMEOUT, text=True)
    return proc.returncode, proc.stdout


def run_pass(inp, between=lambda: None):
    times, results = [], []
    between()
    t = time.perf_counter()
    for argv in inp["commands"]:
        results.append(_run(argv))
    times.append(time.perf_counter() - t)
    for key in ("sweep", "selftest"):
        between()
        t = time.perf_counter()
        results.append(_run(inp[key]))
        times.append(time.perf_counter() - t)
    between()
    failed = sum(1 for code, _ in results if code != 0)
    return times, {"results": results}, len(results), failed


def same(a, b):
    """Byte-identical output, selftest aside (its details carry runtimes)."""
    ra, rb = a["results"], b["results"]
    return len(ra) == len(rb) and ra[:-1] == rb[:-1] and ra[-1][0] == rb[-1][0]


def one_document(text):
    """The parsed document if `text` is exactly one JSON value, else None."""
    try:
        doc, end = json.JSONDecoder().raw_decode(text.lstrip())
    except ValueError:
        return None
    return doc if not text.lstrip()[end:].strip() else None


def c(pair):
    return complex(pair[0], pair[1])


def m(rows):
    return np.array([[c(p) for p in row] for row in rows], dtype=complex)


def check(inp, out, led):
    names = [a[0] for a in inp["commands"]] + ["sweep", "selftest"]
    docs = {}
    for name, (code, text) in zip(names, out["results"]):
        if code != 0:
            continue                        # counted in `failed`
        doc = one_document(text)
        led.prop(f"{name} prints one JSON document", doc is not None)
        if doc is not None:
            docs[name] = doc

    t0, tx, t1, ti = inp["theta"]
    if "series" in docs:
        b = [c(p) for p in docs["series"]["coeffs"]]
        d = t1 - ti
        b0 = (d + 1.0) / (1.0 - ti)
        b1 = (t1 * (d * d + 2.0 * d + tx * tx - t0 * t0)
              / (2.0 * (1.0 - ti) * (ti - t1) * (d + 2.0)))
        led.err("series printed b0/b1", common.rel(b[:2], [b0, b1]), 1e-12)

    thx, thinf, s, r = inp["case_b"]
    if "monodromy" in docs:
        doc = docs["monodromy"]
        mats = {k: m(v) for k, v in doc["matrices"].items()}
        for k, th in {"M0": thx, "Mx": thx, "M1": thinf, "Minf": thinf}.items():
            led.err(f"monodromy det {k}", abs(np.linalg.det(mats[k]) - 1.0), 1e-10)
            led.err(f"monodromy trace {k}",
                    abs(np.trace(mats[k]) - 2.0 * cmath.cos(math.pi * th)), 1e-9)
        led.prop("monodromy product order", bool(doc["order"]))
        if doc["order"]:
            rep = cli.rep_from_json(doc)
            scale = max(1.0, max(float(np.abs(v).max()) for v in mats.values()))
            led.err("monodromy trace identity",
                    wl_monodromy.fricke_residual(rep) / scale ** 3, 1e-9)

    if "fuchsian" in docs:
        tgt = wl_monodromy.loop_trace_target(fuchsian.build_case_b(thx, thinf, s, r), "1", 1e-3)
        led.err("fuchsian transport tr M vs 2cos(2 pi mu)",
                abs(c(docs["fuchsian"]["trace"]) - tgt) / max(1.0, abs(tgt)), 1e-8)

    if "hypergeom" in docs:
        doc = docs["hypergeom"]
        cmat = m(doc["matrix"])
        led.err("hypergeom C0inf vs oracle", common.rel(cmat, m(doc["oracle"])), 1e-8)
        ref = hypergeom.connection_matrix("C0inf", ThetaParams(*inp["theta"]))
        led.err("hypergeom C0inf vs library", common.rel(cmat, ref), 1e-13)

    if "continue" in docs:
        fin = docs["continue"]["final"]
        y, yp = wl_continuation.exact(wl_continuation.THETA_A, c(fin["x"]))
        err = max(abs(c(fin["y"]) - y) / (1.0 + abs(y)), abs(c(fin["yp"]) - yp) / (1.0 + abs(yp)))
        led.err("continue final (y, y') vs exact", err, 1e-8)

    if "sweep" in docs:
        rows = docs["sweep"]["results"]
        led.prop("sweep returns 64 solves", len(rows) == 64 and all("coeffs" in r for r in rows))
        for row in rows:
            if "coeffs" in row:
                _, _, a1, ai = (c(p) for p in row["theta"])
                led.err("sweep b0 = (th1 - thinf + 1)/(1 - thinf)",
                        abs(c(row["coeffs"][0]) - (a1 - ai + 1.0) / (1.0 - ai)), 1e-12)

    if "selftest" in docs:
        led.prop("selftest all_ok", docs["selftest"].get("all_ok") is True)
