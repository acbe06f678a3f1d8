"""Batch command-line front end with JSON/CSV output.

Every subcommand prints a single JSON document (schema_version 1) with
deterministic bytes: keys sorted, complex numbers as [re, im] pairs,
matrices row-major.  The library returns complex numbers, Mat2 matrices and
(series, sweep, selftest and appendix2, the commands that import numpy)
numpy arrays; each command builds its document from them here, and emit
alone encodes it.  Exit codes: 0 success, 2 validation error (a stated
precondition was violated), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from typing import TYPE_CHECKING

from .numerics import Mat2, mat2
from .pvi import ResonanceError, ThetaParams
from .symmetries import MapPoleError

if TYPE_CHECKING:
    from .monodromy import MonodromyRep

SCHEMA_VERSION = 1

# Each subcommand imports the modules it runs, so a cold start loads only
# those.  The errors are caught by their base classes: every validation
# error of pvilab (ResonanceError, SingularConfigError, PoleError,
# SingularMatrixError, json.JSONDecodeError) is a ValueError, and every
# numeric failure (StepUnderflow, ChartThrashError, ObstructionError) a
# RuntimeError, or an ArithmeticError (a series solve that overflows raises
# FloatingPointError), or a MemoryError (an --order whose coefficient array
# cannot be allocated).  MapPoleError is a ZeroDivisionError, so it must be
# caught here first; OSError is a --json-in, --out or --csv-out path that
# cannot be opened.
_VALIDATION = (MapPoleError, ValueError, KeyError, OSError)
_NUMERIC = (ArithmeticError, RuntimeError, MemoryError)


# ----------------------------------------------------------------------
# parsing / serialization


def parse_complex(text, flag=None):
    """A finite complex number: a real, or a+bi / a+bj.  Errors name `flag`."""
    text = str(text).strip()
    s = text.replace(" ", "")
    where = f"{flag}: " if flag else ""
    try:
        z = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ValueError(f"{where}{text!r} is not a number") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{where}{text!r} is not a finite number")
    return z


def parse_values(text, flag, names):
    """The numbers of a flag that takes len(names) comma-separated values."""
    parts = str(text).split(",")
    if len(parts) != len(names):
        raise ValueError(f"{flag} needs {len(names)} values {','.join(names)}, "
                         f"got {text!r}")
    return [parse_complex(p, flag) for p in parts]


def parse_theta(text, flag="--theta") -> ThetaParams:
    return ThetaParams(*parse_values(text, flag, ("th0", "thx", "th1", "thinf")))


def l2c(pair):
    return complex(pair[0], pair[1])


def l2m(rows) -> Mat2:
    rows = [[l2c(c) for c in row] for row in rows]
    if [len(row) for row in rows] != [2, 2]:
        raise ValueError(f"expected 2x2 [re, im] pairs, got rows of {[len(r) for r in rows]}")
    return mat2(*rows[0], *rows[1])


def _plain(v):
    """v with each complex number as its [re, im] pair, a Mat2 as its rows and
    each array or tuple as a list; numpy values are recognised through
    sys.modules, which holds numpy once any exists."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, Mat2):
        a, b, c, d = v.e
        return [[_plain(a), _plain(b)], [_plain(c), _plain(d)]]
    np = sys.modules.get("numpy")
    if isinstance(v, (list, tuple)) or np is not None and isinstance(v, np.ndarray):
        return [_plain(x) for x in v]
    if isinstance(v, complex) or np is not None and isinstance(v, np.complexfloating):
        return [float(v.real), float(v.imag)]
    return v


def emit(doc, out=None):
    """Write doc as JSON, encoded by _plain; a value that is not finite is a
    numeric failure, raised before --out is opened."""
    doc = _plain({**doc, "schema_version": SCHEMA_VERSION})
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise FloatingPointError("the result is not finite (overflow)") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


_REQUIRED = object()


def _field(doc, key, convert, path, default=_REQUIRED):
    """convert(doc[key]) for a document read from the --json-in `path`, or
    `default` if the key is missing and a default is given.

    A document that is not a JSON object, a missing required key, or a value
    that convert rejects is a ValueError naming the path and the key.
    """
    src = f"--json-in {path}" if path else "representation"
    if not isinstance(doc, dict):
        raise ValueError(f"{src}: expected a JSON object with key {key!r}, "
                         f"got {type(doc).__name__}")
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{src}: missing key {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, KeyError, IndexError, AttributeError) as e:
        raise ValueError(f"{src}: bad value for key {key!r}: {e}") from None


def _theta(pairs):
    if pairs is None:
        return None
    if len(pairs) != 4:
        raise ValueError(f"expected four [re, im] pairs th0, thx, th1, thinf, got {len(pairs)}")
    return ThetaParams(*(l2c(p) for p in pairs))


def _params(doc):
    return {k: l2c(v) for k, v in doc.items() if v is not None}


def rep_from_json(doc, path=None) -> MonodromyRep:
    """The representation in a `monodromy` document; a missing or malformed
    key is named together with the --json-in path it was read from."""
    from .monodromy import MonodromyRep
    mats = _field(doc, "matrices", dict, path)
    M0, Mx, M1, Minf = (_field(mats, k, l2m, path) for k in ("M0", "Mx", "M1", "Minf"))
    return MonodromyRep(M0, Mx, M1, Minf,
                        case=_field(doc, "case", str, path, ""),
                        theta=_field(doc, "theta", _theta, path, None),
                        params=_field(doc, "params", _params, path, {}))


# ----------------------------------------------------------------------
# subcommands


def _stored(rep, path, context, *keys):
    """The values of the document keys ("theta", "params.<name>") that
    `context` reads from a representation; a missing or null one is a
    ValueError naming the --json-in path and the key."""
    out = []
    for key in keys:
        value = rep.theta if key == "theta" else rep.params.get(key.removeprefix("params."))
        if value is None:
            raise ValueError(f"--json-in {path}: missing key {key!r}, which {context} needs")
        out.append(value)
    return out


def _require(args, context, *flags):
    """Raise naming the first of flags that was not given."""
    missing = [f for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"--{missing[0].replace('_', '-')} is required for {context}")


def _at_least_one(args, *flags):
    for f in flags:
        if getattr(args, f) < 1:
            raise ValueError(f"--{f} must be at least 1, got {getattr(args, f)}")


def _finite_positive(args, flag):
    value = getattr(args, flag)
    if not (value > 0 and cmath.isfinite(value)):
        raise ValueError(f"--{flag} must be finite and positive, got {value}")


def cmd_series(args):
    from .pvi import pvi_residual_series
    from .series import residual_leading_order, solve_taylor
    _at_least_one(args, "order")
    th = parse_theta(args.theta)
    a = parse_complex(args.a, "--a") if args.a is not None else None
    ser = solve_taylor(th, args.klass, a=a, N=args.order)
    emit({"class": args.klass, "theta": th.as_tuple(), "a": a, "N": args.order,
          "coeffs": ser.c,
          "residual_first_nonzero_order": residual_leading_order(pvi_residual_series(ser, th))},
         args.out)
    return 0


def cmd_seed(args):
    from .asymptotics import make_seed, seed_value
    th = parse_theta(args.theta)
    seed = make_seed(parse_complex(args.sigma, "--sigma"), th, parse_complex(args.r, "--r"))
    doc = {"kind": seed.kind, "sigma": seed.sigma, "r": seed.r,
           "theta": seed.theta.as_tuple(), "arg_sector": seed.arg_sector}
    if args.x is not None:
        x = parse_complex(args.x, "--x")
        y, yp = seed_value(seed, x, three_term=args.three_term)
        doc["at"] = {"x": x, "y": y, "yp": yp}
    emit(doc, args.out)
    return 0


def cmd_continue(args):
    from .continuation import PathPlan, integrate
    _finite_positive(args, "tol")
    th = parse_theta(args.theta)
    x0, y0, yp0 = parse_values(args.ic, "--ic", ("x0", "y0", "yp0"))
    verts = [parse_complex(p, "--path") for p in args.path.split(";")]
    traj = integrate((x0, y0, yp0), th, PathPlan(tuple(verts), args.tol), tol=args.tol)
    xf, yf, ypf = traj.final()
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write("x_re,x_im,y_re,y_im,yp_re,yp_im,chart\n")
            for *point, chart in traj.samples:
                fh.write(",".join([*(repr(v) for z in point for v in (z.real, z.imag)), chart])
                         + "\n")
    emit({"final": {"x": xf, "y": yf, "yp": ypf},
          "n_samples": len(traj.samples),
          "n_events": len(traj.events),
          "residual_audit": traj.residual_audit()}, args.out)
    return 0


def _build_case(args, build, *flags):
    """build() on the parsed flags that --case needs, naming the first one missing."""
    _require(args, f"--case {args.case}", *flags)
    return build(*((parse_theta if f == "theta" else parse_complex)(getattr(args, f), f"--{f}")
                   for f in flags))


def _build_rep(args):
    from .monodromy import build_case_a, build_case_b, build_case_c
    cases = {"a": (build_case_a, "theta"),
             "b": (build_case_b, "thx", "thinf", "s", "r"),
             "c": (build_case_c, "th0", "thx", "s")}
    return _build_case(args, *cases[args.case])


def cmd_monodromy(args):
    rep = _build_rep(args)
    t = rep.traces()
    emit({"case": rep.case, "theta": None if rep.theta is None else rep.theta.as_tuple(),
          "params": {k: complex(v) for k, v in rep.params.items()},
          "matrices": rep.matrices(), "order": rep.order,
          "traces": {"t0x": t.t0x, "t1x": t.t1x, "t01": t.t01}}, args.out)
    return 0


def cmd_identity_check(args):
    from .monodromy import check_identity
    rep = rep_from_json(load_json(args.json_in), args.json_in)
    if args.theta:
        th = parse_theta(args.theta)
    elif rep.theta is None and rep.case == "b":
        thx, thinf = _stored(rep, args.json_in, "identity-check", "params.thx", "params.thinf")
        th = ThetaParams(thx, thx, thinf, thinf)
    else:
        th, = _stored(rep, args.json_in, "identity-check without --theta", "theta")
    res = check_identity(rep, th)
    emit({"residual": res, "abs_residual": abs(res), "order": rep.order}, args.out)
    return 0


def cmd_invert(args):
    from .monodromy import (TraceData, invert_s_case_b, invert_s_case_c,
                            r_from_monodromy, sigma_from_traces)
    if args.what in ("s-b", "s-c"):
        _require(args, f"--what {args.what}", "json_in")
        rep = rep_from_json(load_json(args.json_in), args.json_in)
        case = args.what[-1]
        if rep.case != case:
            raise ValueError(f"--json-in {args.json_in}: the representation is case "
                             f"{rep.case!r}, --what {args.what} needs case {case!r}")
        _stored(rep, args.json_in, f"--what {args.what}",
                *(("params.thx", "params.thinf") if case == "b" else ("theta",)))
        val = (invert_s_case_b if case == "b" else invert_s_case_c)(rep)
    elif args.what == "r":
        _require(args, "--what r", "theta", "t0x", "t1x", "t01")
        th = parse_theta(args.theta)
        traces = TraceData(parse_complex(args.t0x, "--t0x"), parse_complex(args.t1x, "--t1x"),
                           parse_complex(args.t01, "--t01"))
        sigma = (parse_complex(args.sigma, "--sigma") if args.sigma is not None
                 else sigma_from_traces(traces.t0x))
        val = r_from_monodromy(sigma, th, traces)
        emit({"what": args.what, "value": val, "sigma": sigma}, args.out)
        return 0
    else:
        raise ValueError(f"unknown inversion {args.what!r}")
    emit({"what": args.what, "value": val}, args.out)
    return 0


def cmd_symmetry(args):
    from .symmetries import XY_GENERATORS, act_theta, act_xy, sigma_image
    th = parse_theta(args.theta)
    doc = {"generator": args.gen, "theta_image": act_theta(args.gen, th).as_tuple()}
    if args.sigma is not None:
        doc["sigma_image"] = sigma_image(args.gen, parse_complex(args.sigma, "--sigma"))
    if args.xy is not None:
        if args.gen not in XY_GENERATORS:
            raise ValueError(f"generator {args.gen!r} has no pointwise (x,y)-action")
        x, y = parse_values(args.xy, "--xy", ("x", "y"))
        xx, yy = act_xy(args.gen, x, y)
        doc["xy_image"] = {"x": xx, "y": yy}
    emit(doc, args.out)
    return 0


def cmd_hypergeom(args):
    from .hypergeom import connection_matrix, connection_oracle
    th = parse_theta(args.theta)
    cmat = connection_matrix(args.which, th)
    doc = {"which": args.which, "matrix": cmat}
    if args.oracle:
        orc = connection_oracle(args.which, th)
        doc["oracle"] = orc
        doc["deviation"] = max(abs(u - v) for u, v in zip(cmat.e, orc.e))
    emit(doc, args.out)
    return 0


def _build_system(args):
    from . import fuchsian
    if args.case is None:
        raise ValueError(f"--case is required for --action {args.action}")
    cases = {"a": (fuchsian.build_case_a, "theta", "r"),
             "b": (fuchsian.build_case_b, "thx", "thinf", "s", "r"),
             "c": (fuchsian.build_case_c, "th0", "thx", "r1", "rho")}
    return _build_case(args, *cases[args.case])


def _kind(value):
    if value not in ("IRR1", "IRR2"):
        raise ValueError(f"expected 'IRR1' or 'IRR2', got {value!r}")
    return value


def _coeffs(need):
    def convert(mats):
        out = [l2m(m) for m in mats]
        if len(out) < need:
            raise ValueError(f"expected at least {need} matrices, got {len(out)}")
        return out
    return convert


def _positive_int(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"expected an integer >= 1, got {n!r}")
    return n


def cmd_fuchsian(args):
    from . import fuchsian
    from .numerics import tr2
    if args.action == "build":
        sys_ = _build_system(args)
        emit({"tag": sys_.tag, "theta": sys_.theta.as_tuple(),
              "params": {k: complex(v) for k, v in sys_.params.items()},
              "entries": {k: [[[{"power": complex(p), "coeff": c} for p, c in cell]
                               for cell in row] for row in rows]
                          for k, rows in sys_.entries.items()}}, args.out)
        return 0
    x = parse_complex(args.x, "--x")
    if args.action == "appendix2":
        _require(args, "--action appendix2", "json_in")
        path = args.json_in
        spec = load_json(path)
        kind = _field(spec, "kind", _kind, path)
        lead = _field(spec, "leading", l2m, path)
        # IRR1 reads D1; IRR2 reads E1 and E2
        coeffs = _field(spec, "coeffs", _coeffs(1 if kind == "IRR1" else 2), path)
        n = _field(spec, "n", _positive_int, path, 1 if kind == "IRR1" else 2)
        if kind == "IRR1":
            gs, om1 = fuchsian.appendix2_recursion("IRR1", lead, coeffs, n)
            emit({"G": gs, "Omega1": om1}, args.out)
        else:
            if x == 0:
                raise ValueError("--x must be nonzero for the IRR2 recursion, "
                                 "which divides by x^2")
            k1, k2, lam1 = fuchsian.appendix2_recursion("IRR2", lead, coeffs, n, x=x)
            emit({"K1": k1, "K2": k2, "Lambda1": lam1}, args.out)
        return 0
    sys_ = _build_system(args)
    if args.action == "transport":
        _finite_positive(args, "tol")
        center = parse_complex(args.center, "--center")
        m = fuchsian.loop_monodromy(sys_, x, center, tol=args.tol)
        # the matrix is based at center + radius
        emit({"center": center, "x": x, "radius": fuchsian.default_radius(x),
              "matrix": m, "trace": tr2(m)}, args.out)
        return 0
    if args.action == "y-from-A":
        emit({"x": x, "y": fuchsian.y_from_A(sys_, x)}, args.out)
        return 0
    raise ValueError(f"unknown fuchsian action {args.action!r}")


# the classes whose hypothesis fixes a relation between the thetas, which
# four independent random draws never satisfy
_UNDRAWABLE = {
    "form2": "th1 = +-thinf and th0 = +-thx",
    "form3": "thinf = 1 and th1 = 0",
    "taylor2": "th0 + thx = 1 and th1 = +-(thinf - 1)",
    "taylor3": "th0 = thx = 0",
}


def cmd_sweep(args):
    """Taylor coefficients over a reproducible batch of random theta draws."""
    from .pvi import _theta_draw
    from .series import ObstructionError, solve_taylor
    _at_least_one(args, "order", "count")
    if args.klass in _UNDRAWABLE:
        raise ValueError(f"--class {args.klass} needs {_UNDRAWABLE[args.klass]}, which no "
                         "random theta draw satisfies; solve it with `pvilab series`")
    from numpy.random import default_rng
    rng = default_rng(args.seed)
    results = []
    for idx in range(args.count):
        th = _theta_draw(rng)
        row = {"index": idx, "theta": th.as_tuple()}
        try:
            row["coeffs"] = solve_taylor(th, args.klass, N=args.order).c
        except (ResonanceError, ObstructionError) as e:
            row["error"] = str(e)
        results.append(row)
    emit({"klass": args.klass, "order": args.order, "seed": args.seed,
          "results": results}, args.out)
    return 0


def cmd_selftest(args):
    from . import acceptance
    rows = acceptance.run_all()
    for name, ok, detail, _ in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", file=sys.stderr)
    all_ok = all(ok for _, ok, _, _ in rows)
    emit({"results": [{"name": n, "ok": ok, "detail": d, "gates": g} for n, ok, d, g in rows],
          "all_ok": all_ok}, args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="pvilab",
                                description="Critical behaviors, series and "
                                            "monodromy data of Painleve VI")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write JSON here instead of stdout")
        return sp

    sp = add("series", cmd_series, help="Taylor-class series solution")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--class", dest="klass", required=True)
    sp.add_argument("--a", default=None)
    sp.add_argument("--order", type=int, default=12)

    sp = add("seed", cmd_seed, help="critical-behavior seed at x=0")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--r", default="1")
    sp.add_argument("--x", default=None)
    sp.add_argument("--three-term", action="store_true")

    sp = add("continue", cmd_continue, help="integrate along a path in x")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--ic", required=True, help="x0,y0,yp0")
    sp.add_argument("--path", required=True, help="semicolon-separated vertices")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--csv-out", default=None)

    sp = add("monodromy", cmd_monodromy, help="closed-form monodromy matrices")
    sp.add_argument("--case", required=True, choices=("a", "b", "c"))
    sp.add_argument("--theta")
    sp.add_argument("--th0")
    sp.add_argument("--thx")
    sp.add_argument("--thinf")
    sp.add_argument("--s")
    sp.add_argument("--r")

    sp = add("identity-check", cmd_identity_check, help="trace-relation residual")
    sp.add_argument("--json-in", required=True)
    sp.add_argument("--theta", default=None)

    sp = add("invert", cmd_invert, help="recover s or r from monodromy data")
    sp.add_argument("--what", required=True, choices=("s-b", "s-c", "r"))
    sp.add_argument("--json-in")
    sp.add_argument("--theta")
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--t0x")
    sp.add_argument("--t1x")
    sp.add_argument("--t01", help="tr(M0 M1) in the loop basis M1 Mx M0 = Minf")

    sp = add("symmetry", cmd_symmetry, help="generator actions on parameters")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--xy", default=None)

    sp = add("hypergeom", cmd_hypergeom, help="connection matrices and oracle")
    sp.add_argument("--which", required=True,
                    choices=("C0inf", "C01", "Cinf0", "C01c"))
    sp.add_argument("--theta", required=True)
    sp.add_argument("--oracle", action="store_true")

    sp = add("fuchsian", cmd_fuchsian, help="residue matrices and loop transport")
    sp.add_argument("--action", required=True,
                    choices=("build", "transport", "y-from-A", "appendix2"))
    sp.add_argument("--case", choices=("a", "b", "c"))
    sp.add_argument("--theta")
    sp.add_argument("--th0")
    sp.add_argument("--thx")
    sp.add_argument("--thinf")
    sp.add_argument("--s")
    sp.add_argument("--r")
    sp.add_argument("--r1")
    sp.add_argument("--rho")
    sp.add_argument("--x", default="1e-3")
    sp.add_argument("--center", default="1")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--json-in")

    sp = add("sweep", cmd_sweep, help="batch series solves over random draws")
    sp.add_argument("--class", dest="klass", default="form1")
    sp.add_argument("--order", type=int, default=6)
    sp.add_argument("--count", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)

    add("selftest", cmd_selftest, help="run the acceptance checks")
    return p


def _join_minus_values(argv):
    """argv with `--flag -value` joined into `--flag=-value` where the value
    starts with a minus sign and a digit or a point, as "-5.5+0.003i,..."
    does: argparse would read it as an option.  No option starts so."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_minus_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except _VALIDATION as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
