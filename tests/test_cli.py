"""Command-line interface: schemas, determinism, exit codes."""

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvilab import continuation, fuchsian, hypergeom
from pvilab.cli import build_parser, emit, main, parse_complex, parse_theta, rep_from_json
from pvilab.numerics import det2
from pvilab.pvi import ThetaParams, rational_solution_theta0_1
from pvilab.series import TAYLOR_CLASSES
from pvilab.symmetries import GENERATORS, XY_GENERATORS

THETA = "0.23,0.57,0.31,0.44"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex_notations():
    assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
    assert parse_complex("1e-3") == 1e-3
    assert parse_complex(" -2j ") == -2j


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1+nani", "infi"])
def test_non_finite_values_exit_2(capsys, value):
    with pytest.raises(ValueError, match="finite"):
        parse_complex(value)
    code, out, err = run_cli(capsys, "series", f"--theta={value},0.57,0.31,0.44",
                             "--class", "form1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and repr(value) in err


@pytest.mark.parametrize("command", ["series", "sweep"])
@pytest.mark.parametrize("order", ["0", "-3"])
def test_order_below_one_exits_2(capsys, command, order):
    argv = [command, "--order", order]
    if command == "series":
        argv += ["--theta", THETA, "--class", "form1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --order must be at least 1, got {order}\n"


CONTINUE_BAD = ["continue", "--theta", THETA]


@pytest.mark.parametrize("argv, name", [
    (["invert", "--what", "s-b"], "--json-in"),
    (["invert", "--what", "s-c"], "--json-in"),
    (["fuchsian", "--action", "appendix2"], "--json-in"),
    (["identity-check", "--json-in", "TMP/missing.json"], "TMP/missing.json"),
    (["series", "--theta", THETA, "--class", "form1", "--out", "TMP/no/x.json"],
     "TMP/no/x.json"),
    (["invert", "--what", "r", "--theta", THETA, "--t1x", "0.3", "--t01", "0.4"], "--t0x"),
    (["invert", "--what", "r", "--theta", THETA, "--t0x", "0.3", "--t01", "0.4"], "--t1x"),
    (["invert", "--what", "r", "--theta", THETA, "--t0x", "0.3", "--t1x", "0.4"], "--t01"),
    (["sweep", "--count", "-3"], "--count"),
    (["symmetry", "--gen", "x1", "--theta", THETA, "--sigma", "0.3"], "'x1'"),
    # a malformed number or list names its flag and the text
    (["series", "--theta", "0.1,abc,0.3,0.4", "--class", "form1"], "--theta: 'abc'"),
    (["series", "--theta", THETA, "--class", "form1", "--a", "1+"], "--a: '1+'"),
    (["seed", "--theta", THETA, "--sigma", "x"], "--sigma: 'x'"),
    (CONTINUE_BAD + ["--ic", "0.01,zz,-0.16", "--path", "0.01;0.1"], "--ic: 'zz'"),
    (CONTINUE_BAD + ["--ic", "0.01,1.35,-0.16", "--path", "0.01;q"], "--path: 'q'"),
    (CONTINUE_BAD + ["--ic", "0.01,1.35", "--path", "0.01;0.1"],
     "--ic needs 3 values x0,y0,yp0, got '0.01,1.35'"),
    (["fuchsian", "--action", "transport", "--case", "b", "--thx", "0.31", "--thinf", "0.44",
      "--s", "0.27", "--r", "1", "--center", "q"], "--center: 'q'"),
    (["monodromy", "--case", "b", "--thx", "0.31", "--thinf", "0.44", "--s", "q", "--r", "1"],
     "--s: 'q'"),
    (["invert", "--what", "r", "--theta", THETA, "--t0x", "q", "--t1x", "0.3", "--t01", "0.4"],
     "--t0x: 'q'"),
    (["symmetry", "--gen", "x3", "--theta", THETA, "--xy", "0"],
     "--xy needs 2 values x,y, got '0'"),
    # a parameter the class has no use for
    (["series", "--theta", THETA, "--class", "form1", "--a", "5"], "a = (5+0j)"),
])
def test_bad_flag_or_path_exits_2_naming_it(capsys, tmp_path, argv, name):
    code, out, err = run_cli(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert name.replace("TMP", str(tmp_path)) in err


# the modules a cold start of series, sweep or symmetry must not load
HEAVY = ("fuchsian", "hypergeom", "monodromy", "continuation", "asymptotics",
         "acceptance", "integrate")


@pytest.mark.parametrize("argv", [
    ["series", "--theta", THETA, "--class", "form1", "--order", "6"],
    ["sweep", "--count", "2"],
    ["symmetry", "--gen", "w2", "--theta", THETA, "--sigma", "0.3"],
], ids=["series", "sweep", "symmetry"])
def test_cold_start_loads_only_the_modules_it_runs(argv):
    code = ("import contextlib, io, sys\n"
            "from pvilab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('pvilab')))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    code, *loaded = proc.stdout.split()
    assert code == "0" and "pvilab.cli" in loaded
    assert not {f"pvilab.{m}" for m in HEAVY} & set(loaded)


def test_parse_theta_validates_arity():
    with pytest.raises(ValueError):
        parse_theta("1,2,3")


def test_series_output_schema(capsys):
    code, out, _ = run_cli(capsys, "series", "--theta", THETA,
                           "--class", "form1", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["coeffs"]) == 7
    assert doc["residual_first_nonzero_order"] is None


def test_seed_json_round_trip_fields(capsys):
    code, out, _ = run_cli(capsys, "seed", "--theta", THETA, "--sigma", "0.3+0.2i", "--r", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "power-generic"
    assert doc["sigma"] == [0.3, 0.2]
    assert len(doc["theta"]) == 4


def test_rep_json_contains_everything(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "--case", "b", "--thx", "0.31",
                           "--thinf", "0.44", "--s", "0.27", "--r", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["matrices"]) == {"M0", "Mx", "M1", "Minf"}
    assert doc["case"] == "b"
    assert doc["params"]["s"] == [0.27, 0.0]
    assert set(doc["traces"]) == {"t0x", "t1x", "t01"}


def test_system_json_shape(capsys):
    code, out, _ = run_cli(capsys, "fuchsian", "--action", "build", "--case", "b",
                           "--thx", "0.31", "--thinf", "0.44", "--s", "0.27", "--r", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["entries"]) == {"0", "x", "1"}
    assert doc["tag"] == "case-b"
    cell = doc["entries"]["0"][0][0][0]
    assert set(cell) == {"power", "coeff"}


def test_emit_writes_complex_numbers_as_pairs_and_arrays_as_lists(capsys):
    emit({"a": 1 - 2.5j, "b": np.complex128(0.25j),
          "v": np.array([0.5 - 0.5j, 2.0]),
          "m": np.array([[1, 2j], [-3, 4 - 1j]]),
          "t": (1, 0.5 + 0j),
          "nested": {"f": np.float64(0.125), "list": [{"n": 7, "none": None}, [1 + 0j, "s"]]}})
    # the expected keys are written in sorted order, so the text pins the sort
    want = {"a": [1.0, -2.5], "b": [0.0, 0.25],
            "m": [[[1.0, 0.0], [0.0, 2.0]], [[-3.0, 0.0], [4.0, -1.0]]],
            "nested": {"f": 0.125, "list": [{"n": 7, "none": None}, [[1.0, 0.0], "s"]]},
            "schema_version": 1, "t": [1, [0.5, 0.0]], "v": [[0.5, -0.5], [2.0, 0.0]]}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_nan_in_a_matrix_exits_3_before_out_is_opened(capsys, tmp_path, monkeypatch):
    m = np.array([[1.0, complex("nan+1j")], [0.0, 1.0]])
    with pytest.raises(FloatingPointError, match="not finite"):
        emit({"m": m})
    monkeypatch.setattr(hypergeom, "connection_matrix", lambda which, th: m)
    out = tmp_path / "doc.json"
    code, stdout, err = run_cli(capsys, "hypergeom", "--which=C01", f"--theta={THETA}",
                                f"--out={out}")
    assert (code, stdout) == (3, "")
    assert err == "numeric failure: FloatingPointError: the result is not finite (overflow)\n"
    assert not out.exists()


def test_output_bytes_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "monodromy", "--case", "a", "--theta", THETA)
    _, out2, _ = run_cli(capsys, "monodromy", "--case", "a", "--theta", THETA)
    assert out1 == out2
    assert out1.endswith("\n")


def test_monodromy_json_round_trips_through_identity_check(capsys, tmp_path):
    p = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "monodromy", "--case", "b", "--thx", "0.31",
                         "--thinf", "0.44", "--s", "0.27", "--r", "1.0",
                         "--out", str(p))
    assert code == 0
    rep = rep_from_json(json.loads(p.read_text()))
    assert rep.case == "b"
    code, out, _ = run_cli(capsys, "identity-check", "--json-in", str(p))
    assert code == 0
    assert json.loads(out)["abs_residual"] < 1e-10


def test_invert_s_from_file(capsys, tmp_path):
    p = tmp_path / "rep.json"
    run_cli(capsys, "monodromy", "--case", "b", "--thx", "0.31",
            "--thinf", "0.44", "--s", "0.27", "--r", "1.0", "--out", str(p))
    code, out, _ = run_cli(capsys, "invert", "--what", "s-b", "--json-in", str(p))
    assert code == 0
    re, im = json.loads(out)["value"]
    assert abs(complex(re, im) - 0.27) < 1e-10


# the CI monodromy commands' flags, per case
_MONODROMY_BASE = {"a": {"theta": THETA},
                   "b": {"thx": "0.31", "thinf": "0.44", "s": "0.27+0.13i", "r": "1.1"},
                   "c": {"th0": "0.23", "thx": "0.57", "s": "0.4-0.3i"}}


def _monodromy_argv(case, flags, out):
    return ["monodromy", f"--case={case}", *(f"--{k}={v}" for k, v in flags.items()),
            f"--out={out}"]


@pytest.mark.parametrize("case,what", [("b", "s-c"), ("c", "s-b")])
def test_invert_s_on_the_other_case_exits_2_naming_both(capsys, tmp_path, case, what):
    p = tmp_path / "rep.json"
    assert run_cli(capsys, *_monodromy_argv(case, _MONODROMY_BASE[case], p))[0] == 0
    code, out, err = run_cli(capsys, "invert", "--what", what, "--json-in", str(p))
    assert (code, out) == (2, "")
    assert err == (f"error: --json-in {p}: the representation is case {case!r}, "
                   f"--what {what} needs case {what[-1]!r}\n")


def _drop_key(path, key, null):
    """Delete the document key ("theta", "params.thx", ...) at path, or set it
    to null; a key the document lacks is left missing."""
    with open(path) as fh:
        doc = json.load(fh)
    *parents, last = key.split(".")
    node = doc
    for k in parents:
        node = node[k]
    if last in node:
        if null:
            node[last] = None
        else:
            del node[last]
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("null", [False, True])
@pytest.mark.parametrize("case,key,command,context", [
    ("c", "theta", ["invert", "--what=s-c"], "--what s-c"),
    ("c", "theta", ["identity-check"], "identity-check without --theta"),
    ("b", "params.thx", ["invert", "--what=s-b"], "--what s-b"),
    ("b", "params.thinf", ["invert", "--what=s-b"], "--what s-b"),
    ("b", "params.thx", ["identity-check"], "identity-check"),
])
def test_missing_key_exits_2_naming_it(capsys, tmp_path, case, key, command, context, null):
    p = tmp_path / "rep.json"
    assert run_cli(capsys, *_monodromy_argv(case, _MONODROMY_BASE[case], p))[0] == 0
    _drop_key(p, key, null)
    code, out, err = run_cli(capsys, *command, "--json-in", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: --json-in {p}: missing key {key!r}, which {context} needs\n"


def test_identity_check_theta_flag_needs_no_stored_theta(capsys, tmp_path):
    p = tmp_path / "rep.json"
    assert run_cli(capsys, *_monodromy_argv("c", _MONODROMY_BASE["c"], p))[0] == 0
    _drop_key(p, "theta", null=False)
    code, out, _ = run_cli(capsys, "identity-check", "--json-in", str(p),
                           "--theta", "0.23,0.57,0,1")
    assert code == 0 and json.loads(out)["abs_residual"] < 1e-12


def test_validation_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "series", "--theta", "0.23,0.57,0.31,1",
                           "--class", "form1")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "series", "--theta", "1,2", "--class", "form1")
    assert code == 2


def test_fuchsian_transport_rejects_degenerate_loop(capsys):
    for x in ("0", "1"):
        code, out, err = run_cli(capsys, "fuchsian", "--action", "transport",
                                 "--case", "b", "--thx", "0.31", "--thinf", "0.44",
                                 "--s", "0.27", "--r", "1", "--x", x)
        assert code == 2
        assert out == ""
        assert "x = " in err


def test_numeric_failure_exits_3(capsys, monkeypatch):
    # y = x/(x + 1.6) keeps 2 < |y| < 4 on the path: the charts ping-pong
    monkeypatch.setattr(continuation, "SWITCH_THRESHOLD", 0.5)
    monkeypatch.setattr(continuation, "HYSTERESIS", 0.5)
    monkeypatch.setattr(continuation, "MAX_SWITCHES", 2)
    code, _, err = run_cli(capsys, "continue", "--theta", "1,0.6,0,-1.6",
                           "--ic=-2.3,3.285714285714287,3.2653061224489823",
                           "--path=-2.3;-2.6")
    assert code == 3
    assert "ChartThrashError" in err


def test_continue_through_y_equals_1(capsys):
    # rational solution y = x/(0.3 x + 1.4) passes 1e-3 from y = 1 near x = 2
    code, out, _ = run_cli(
        capsys, "continue", "--theta", "1,0.4,-0.7,-0.7",
        "--ic", "0.5+0.1i,0.3237080802196888+0.058250811350586677i,"
                "0.5820718504600523-0.022540257367082307i",
        "--path", "0.5+0.1i;2+0.001i;2.8+0.1i")
    assert code == 0
    fin = json.loads(out)["final"]
    x, y = complex(*fin["x"]), complex(*fin["y"])
    assert x == 2.8 + 0.1j
    exact = rational_solution_theta0_1(ThetaParams(1.0, 0.4, -0.7, -0.7), x)[0]
    assert abs(y - exact) / (1.0 + abs(exact)) < 1e-6


CASE_FLAGS = {
    "monodromy": {"a": {"theta": THETA},
                  "b": {"thx": "0.31", "thinf": "0.44", "s": "0.27", "r": "1"},
                  "c": {"th0": "0.21", "thx": "0.33", "s": "0.27"}},
    "fuchsian": {"a": {"theta": THETA, "r": "1"},
                 "b": {"thx": "0.31", "thinf": "0.44", "s": "0.27", "r": "1"},
                 "c": {"th0": "0.21", "thx": "0.33", "r1": "1", "rho": "0.5"}},
}


@pytest.mark.parametrize("command, case, flag", [
    (command, case, flag) for command, cases in CASE_FLAGS.items()
    for case, flags in cases.items() for flag in flags])
def test_missing_case_flag_is_named(capsys, command, case, flag):
    argv = [command, "--case", case]
    if command == "fuchsian":
        argv += ["--action", "build"]
    for other, value in CASE_FLAGS[command][case].items():
        if other != flag:
            argv += [f"--{other}", value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --{flag} is required for --case {case}\n"


def test_fuchsian_appendix2_needs_no_case(capsys, tmp_path):
    spec = tmp_path / "irr1.json"
    spec.write_text(json.dumps({"kind": "IRR1", "leading": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                                "coeffs": [[[[0.5, 0], [0.2, 0]], [[0.3, 0], [-0.5, 0]]]]}))
    code, out, _ = run_cli(capsys, "fuchsian", "--action", "appendix2",
                           "--json-in", str(spec))
    assert code == 0
    assert json.loads(out)["Omega1"] == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]


_IRR2 = {"kind": "IRR2", "leading": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
         "coeffs": [[[[0.5, 0.0], [0.2, 0.0]], [[0.3, 0.0], [-0.5, 0.0]]]] * 2, "n": 2}


def test_appendix2_irr2_at_x_0_exits_2_naming_x(capsys, tmp_path):
    spec = tmp_path / "irr2.json"
    spec.write_text(json.dumps(_IRR2))
    code, out, err = run_cli(capsys, "fuchsian", "--action", "appendix2",
                             "--json-in", str(spec), "--x", "0")
    assert (code, out) == (2, "")
    assert err == "error: --x must be nonzero for the IRR2 recursion, which divides by x^2\n"


def test_continue_csv_and_summary(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "continue", "--theta", "0.21,0.33,0.17,0.52",
                           "--ic", "0.01,1.35258971,-0.15817967",
                           "--path", "0.01;0.1", "--csv-out", str(csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_samples"] >= 2
    assert csv.read_text().startswith("x_re,x_im,")


def test_trajectory_csv_columns(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "continue", "--theta", "0.21,0.33,0.17,0.52",
                           "--ic", "0.01,1.35258971,-0.15817967",
                           "--path", "0.01;0.05", "--tol", "1e-8", "--csv-out", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "x_re,x_im,y_re,y_im,yp_re,yp_im,chart"
    assert len(lines) == json.loads(out)["n_samples"] + 1


def test_symmetry_rejects_xy_for_parameter_only_generators(capsys):
    code, _, _ = run_cli(capsys, "symmetry", "--gen", "w2", "--theta", THETA,
                         "--xy", "0.3,0.5")
    assert code == 2


def test_symmetry_map_pole_exits_2(capsys):
    code, out, err = run_cli(capsys, "symmetry", "--gen", "x2", "--theta", THETA,
                             "--xy", "0,0.7")
    assert code == 2
    assert out == ""
    assert err == "error: x2 pole at y = 0 or x = 0\n"


@pytest.mark.parametrize("argv,which", [
    (["hypergeom", "--which", "C01c", "--theta", "0.5,0.5,0,1"], "C01c"),
    # the build forms Cinf0 first, and Cinf0 needs Gamma(-1) too
    (["monodromy", "--case", "c", "--th0", "0.5", "--thx", "0.5", "--s", "0.3"], "Cinf0"),
])
def test_gamma_pole_exits_2_naming_the_matrix(capsys, argv, which):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {which}: connection-matrix Gamma pole: Gamma pole at z = (-1+0j)\n"


@pytest.mark.parametrize("which,theta", [("C01", "0,0.57,0.31,0.44"),
                                         ("C0inf", "0,0.57,0.31,0.44"),
                                         ("C01c", "0,0.57,0,1")])
def test_integer_th0_exits_2_naming_the_matrix(capsys, which, theta):
    # at th0 = 0 the Gamma products have no pole, but the matrix is singular,
    # and the oracle's Kummer basis at 0 degenerates the same way
    code, out, err = run_cli(capsys, "hypergeom", "--which", which, "--theta", theta, "--oracle")
    assert (code, out) == (2, "")
    assert err == f"error: {which}: integer th0 = 0: the basis at 0 is logarithmic\n"


def test_singular_conjugator_exits_2(capsys):
    # the square of the conjugator's largest entry overflows to inf, and the
    # singularity test of numerics.inv2 still refuses it
    code, out, err = run_cli(capsys, "monodromy", "--case", "b", "--thx", "0.31",
                             "--thinf", "0.44", "--s", "0.27", "--r", "1e-300")
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix is singular to tolerance, det = ")


def test_hypergeom_oracle_deviation(capsys):
    code, out, _ = run_cli(capsys, "hypergeom", "--which", "C01c",
                           "--theta", THETA, "--oracle")
    assert code == 0
    assert json.loads(out)["deviation"] < 1e-8


@pytest.mark.parametrize("klass,hypothesis", [
    ("form2", "th1 = +-thinf and th0 = +-thx"),
    ("form3", "thinf = 1 and th1 = 0"),
    ("taylor2", "th0 + thx = 1 and th1 = +-(thinf - 1)"),
    ("taylor3", "th0 = thx = 0"),
])
def test_sweep_rejects_a_class_no_draw_satisfies(capsys, klass, hypothesis):
    # four independent real thetas never meet the class's relation, so every
    # row would be an error and no coefficient would come out
    code, out, err = run_cli(capsys, "sweep", "--class", klass, "--count", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: --class {klass} needs {hypothesis}, which no random theta "
                   "draw satisfies; solve it with `pvilab series`\n")


def test_sweep_is_seeded_and_sorted(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "--count", "4", "--order", "4",
                         "--seed", "11")
    _, out2, _ = run_cli(capsys, "sweep", "--count", "4", "--order", "4",
                         "--seed", "11")
    assert out1 == out2
    doc = json.loads(out1)
    assert [r["index"] for r in doc["results"]] == [0, 1, 2, 3]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pvilab.cli", "symmetry", "--gen", "x1",
         "--theta", THETA],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["theta_image"][0] == [0.31, 0.0]


TRANSPORT_B = ["fuchsian", "--action", "transport", "--case", "b", "--thx", "0.31",
               "--thinf", "0.44", "--s", "0.27", "--r", "1"]
CONTINUE_IC = ["continue", "--theta", "0.21,0.33,0.17,0.52",
               "--ic", "0.01,1.35258971,-0.15817967", "--path", "0.01;0.1"]


@pytest.mark.parametrize("argv", [TRANSPORT_B, CONTINUE_IC], ids=["transport", "continue"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_not_finite_and_positive_exits_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err == f"error: --tol must be finite and positive, got {float(tol)}\n"


@pytest.mark.parametrize("argv", [TRANSPORT_B, CONTINUE_IC], ids=["transport", "continue"])
def test_tol_below_unit_roundoff_exits_2_at_once(capsys, argv):
    # without the floor the step size shrank until rounding noise passed an
    # error test the arithmetic cannot meet, which took minutes
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv, "--tol=1e-20")
    assert time.monotonic() - start < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol = 1e-20 is below the float unit roundoff")


def test_transport_loop_about_one_at_x_1e_300_exits_0():
    # x = 1e-300 gives the loop about 1 a radius of 1e-304 and 1 + r == 1;
    # the circle, anchored at its centre, never forms 1 + r
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "pvilab.cli", *TRANSPORT_B,
         "--x=1e-300", "--center=1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    mu = cmath.sqrt(-det2(fuchsian.build_case_b(0.31, 0.44, 0.27, 1.0).residue("1", 1e-300)))
    trace = complex(*json.loads(proc.stdout)["trace"])
    assert abs(trace - 2.0 * cmath.cos(2.0 * math.pi * mu)) <= 1e-9


# every command that computes in Python complex arithmetic, in one fresh
# interpreter; representation files for invert and identity-check
_COLD_ARGV = [
    ["monodromy", "--case", "a", "--theta", THETA],
    ["monodromy", "--case", "b", "--thx", "0.31", "--thinf", "0.44", "--s", "0.27+0.13i",
     "--r", "1.1", "--out", "{dir}/b.json"],
    ["monodromy", "--case", "c", "--th0", "0.23", "--thx", "0.57", "--s", "0.4-0.3i",
     "--out", "{dir}/c.json"],
    ["invert", "--what", "s-b", "--json-in", "{dir}/b.json"],
    ["invert", "--what", "s-c", "--json-in", "{dir}/c.json"],
    ["invert", "--what", "r", "--theta", THETA, "--t0x", "1.2", "--t1x", "0.9", "--t01", "1.1"],
    ["identity-check", "--json-in", "{dir}/b.json"],
    ["hypergeom", "--which", "C0inf", "--theta", THETA, "--oracle"],
    ["hypergeom", "--which", "C01c", "--theta", "0.23,0.57,0,1", "--oracle"],
    ["fuchsian", "--action", "build", "--case", "a", "--theta", THETA, "--r", "1"],
    ["fuchsian", "--action", "transport", *TRANSPORT_B[3:], "--x", "1e-3", "--center", "1"],
    ["fuchsian", "--action", "y-from-A", *TRANSPORT_B[3:], "--x", "0.01"],
    CONTINUE_IC,
    ["seed", "--theta", THETA, "--sigma", "0.3+0.2i", "--r", "0.8", "--x", "1e-3"],
    ["symmetry", "--gen", "x2", "--theta", THETA, "--xy", "0.4,0.7"],
]

_COLD_SCRIPT = """
import contextlib, io, json, sys
from pvilab.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_python_arithmetic_commands_do_not_import_numpy(tmp_path):
    argvs = [[a.format(dir=tmp_path) for a in argv] for argv in _COLD_ARGV]
    proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"codes": [0] * len(argvs), "numpy": False}


# commands that give each flag taking a complex value or list a value that
# starts with a minus sign; identity-check reads the case-a representation
_MINUS_ARGV = [
    ["series", "--theta", "-0.3,0.3,-1.5,1.5", "--class", "form2", "--a", "-0.4+0.1i",
     "--order", "6"],
    ["seed", "--theta", "-0.23,0.57,0.31,0.44", "--sigma", "-0.3+0.2i", "--r", "-0.8+0.1i",
     "--x", "-1e-3+1e-4i"],
    ["continue", "--theta", "1,0.4,-0.7,-0.7",
     "--ic", "-5.5+0.003i,21.99975808313524+0.06719912909928687i,"
     "22.399129106811355+0.1612758197036651i", "--path", "-5.5+0.003i;-3.8+0.003i"],
    ["continue", "--theta", "-2,1.5,0.2,0.3", "--ic", "0.5+0.5i,0.3,0.1",
     "--path", "0.5+0.5i;0.6+0.6i"],
    ["monodromy", "--case", "a", "--theta", "-0.23,0.57,0.31,0.44"],
    ["monodromy", "--case", "b", "--thx", "-0.31+0.01i", "--thinf", "-0.44+0.01i",
     "--s", "-0.27+0.13i", "--r", "-1.1+0.1i"],
    ["monodromy", "--case", "c", "--th0", "-0.23+0.01i", "--thx", "-0.57+0.01i",
     "--s", "-0.4-0.3i"],
    ["identity-check", "--json-in", "{rep}", "--theta", "-0.23,0.57,0.31,0.44"],
    ["invert", "--what", "r", "--theta", "-0.23,0.57,0.31,0.44", "--t0x", "-1.2+0.1i",
     "--t1x", "-0.9+0.1i", "--t01", "-1.1+0.1i", "--sigma", "-0.3+0.2i"],
    ["symmetry", "--gen", "x3", "--theta", "-0.23,0.57,0.31,0.44", "--sigma", "-0.3+0.2i",
     "--xy", "-0.4,0.7"],
    ["hypergeom", "--which", "C0inf", "--theta", "-0.23,0.57,0.31,0.44", "--oracle"],
    ["fuchsian", "--action", "build", "--case", "a", "--theta", "-0.21,0.33,0.17,0.52",
     "--r", "-1+0.1i"],
    ["fuchsian", "--action", "transport", "--case", "b", "--thx", "-0.31+0.01i",
     "--thinf", "-0.44+0.01i", "--s", "-0.27+0.1i", "--r", "-1+0.1i", "--x", "-1e-3+1e-4i",
     "--center", "-0.0+0i"],
    ["fuchsian", "--action", "y-from-A", "--case", "c", "--th0", "-0.21+0.01i",
     "--thx", "-0.33+0.01i", "--r1", "-1+0.1i", "--rho", "-0.5+0.1i", "--x", "-0.01+0.001i"],
]


def _complex_flags():
    """(command, flag) for each flag of build_parser() whose value is a
    complex number or a list of them: the one-value flags without a type or
    choices, other than file paths, --class and --gen."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, sp in sub.choices.items()
            for a in sp._actions
            if a.option_strings and a.nargs is None and a.type is None and a.choices is None
            and a.dest not in ("out", "json_in", "csv_out", "klass", "gen")]


@pytest.mark.parametrize("command, flag", _complex_flags())
def test_minus_leading_value_as_separate_argument(capsys, tmp_path, command, flag):
    """`--flag -value` gives the bytes of `--flag=-value`, for every flag that
    takes a complex value or list (argparse alone reads -value as an option)."""
    rep = tmp_path / "rep.json"
    main(["monodromy", "--case", "a", "--theta", THETA, "--out", str(rep)])
    argvs = [[a.format(rep=rep) for a in argv] for argv in _MINUS_ARGV
             if argv[0] == command and flag in argv and argv[argv.index(flag) + 1][0] == "-"]
    assert argvs, f"no command in _MINUS_ARGV gives {command} {flag} a minus-leading value"
    for argv in argvs:
        joined, rest = argv[:1], iter(argv[1:])
        for a in rest:
            joined.append(a if a == "--oracle" else f"{a}={next(rest)}")
        separate = run_cli(capsys, *argv)
        assert "expected one argument" not in separate[2]
        assert separate == run_cli(capsys, *joined)


def test_transport_document_records_the_default_radius(capsys):
    # the matrix is based at center + radius
    code, out, err = run_cli(capsys, *TRANSPORT_B, "--x=1e-3", "--center=1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert sorted(doc) == ["center", "matrix", "radius", "schema_version", "trace", "x"]
    assert doc["radius"] == fuchsian.default_radius(1e-3)


def test_transport_residue_overflow_exits_2_naming_x(capsys):
    code, out, err = run_cli(capsys, *TRANSPORT_B, "--x=1e300", "--center=0")
    assert (code, out) == (2, "")
    assert err.startswith("error: the residues at x = (1e+300+0j) overflow")


_POINT = st.one_of(st.sampled_from(["0", "1", "1e-300", "-1e-300", "1e300", "nan"]),
                   st.floats(-3.0, 3.0).map(repr))


def _reject_constant(name):
    raise ValueError(f"{name} in the JSON document")


def _strict_json(text):
    """The one JSON document in text, with NaN and Infinity rejected."""
    return json.loads(text, parse_constant=_reject_constant)


@given(x=_POINT, center=_POINT, log_tol=st.floats(-30.0, -6.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_transport_argv_property(x, center, log_tol):
    """Any --x, --center and --tol: exit 0, 2 or 3, no traceback, and on
    success exactly one JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*TRANSPORT_B, f"--x={x}", f"--center={center}",
                     f"--tol={10.0 ** log_tol!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


_CONT_INDEPENDENT = st.tuples(st.just("0.21,0.33,0.17,0.52"),
                              st.tuples(_POINT, _POINT, _POINT), _POINT)
# independent draws almost never give a path that can be integrated, so two
# branches in three start at the CI continue command's exact point on the
# rational solution y = x/(0.3 x + 1.4) and take a second vertex above it
_CONT_NEAR = st.tuples(
    st.just("1,0.4,-0.7,-0.7"),
    st.just(("0.5+0.1i", "0.3237080802196888+0.05825081135058668i",
             "0.5820718504600523-0.022540257367082314i")),
    st.tuples(st.floats(0.2, 0.8), st.floats(0.1, 0.5)).map(lambda t: f"{t[0]!r}+{t[1]!r}i"))


@given(point=st.one_of(_CONT_INDEPENDENT, _CONT_NEAR, _CONT_NEAR),
       log_tol=st.floats(-14.0, -6.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_continue_argv_property(point, log_tol):
    """Any --ic, second --path vertex and --tol: exit 0, 2 or 3, no
    traceback, and on success exactly one JSON document."""
    theta, ic, x1 = point
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["continue", "--theta", theta, f"--ic={','.join(ic)}",
                     f"--path={ic[0]};{x1}", f"--tol={10.0 ** log_tol!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


# the taylor-series benchmark's base points: (class, theta, a)
_TAYLOR_BASE = [
    ("form1", tuple(THETA.split(",")), None),
    ("riuffa", ("0.23", "0.57", "0.31", "-1.11"), None),
    ("form2", ("0.3", "0.3", "-1.5", "1.5"), "0.4"),
    ("form3", ("0.3", "0.5", "0", "1"), "0.7"),
    ("taylor1+", ("1", "0.4", "-0.7", "-0.7"), None),
    ("taylor1-", ("0.23+0.3i", "0.57", "0.31", "0.44"), None),
    ("taylor2", ("0.3", "0.7", "0.56", "0.44"), "0.3"),
    ("taylor3", ("0", "0", "0.31", "0.44"), "0.5"),
    ("generic", tuple(THETA.split(",")), repr((0.31 - 0.44 + 1.0) / (1.0 - 0.44))),
]
_A = st.none() | _POINT | st.just("1e100")
# independent draws almost never meet a class's theta hypotheses, so two
# branches in three start from a base point, keeping its a two times in three
_AT_BASE = st.tuples(st.sampled_from(_TAYLOR_BASE), st.integers(0, 2), _A).map(
    lambda t: (*t[0][:2], t[0][2] if t[1] else t[2]))
_INDEPENDENT = st.tuples(st.sampled_from(TAYLOR_CLASSES + ("taylor9",)),
                         st.tuples(_POINT, _POINT, _POINT, _POINT), _A)


@given(point=st.one_of(_INDEPENDENT, _AT_BASE, _AT_BASE), order=st.integers(1, 24))
@settings(max_examples=30, deadline=None, derandomize=True)
@example(point=("form2", ("0.3", "0.3", "-1.5", "1.5"), "1e100"), order=12)
@example(point=("form3", ("0.3", "0.5", "0", "1"), "1e300"), order=12)
@example(point=("form1", tuple(THETA.split(",")), None), order=24)
def test_series_argv_property(point, order):
    """Any --class, --theta, --a and --order: exit 0, 2 or 3, no traceback,
    and on success exactly one JSON document."""
    klass, theta, a = point
    argv = ["series", f"--theta={','.join(theta)}", f"--class={klass}", f"--order={order}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ([] if a is None else [f"--a={a}"]))
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


def _near(base):
    """A draw within 0.2 of each real component of a flag value; a complex
    one is kept."""
    if base.endswith("i"):
        return st.just(base)
    return st.tuples(*(st.floats(-0.2, 0.2).map(lambda d, v=v: repr(float(v) + d))
                       for v in base.split(","))).map(",".join)


def _draw_flags(draw, base):
    """Each flag of base near its value, except that in one draw in two one
    flag is any _POINT (independent draws almost never build a case)."""
    flags = {k: draw(_near(v)) for k, v in base.items()}
    wild = draw(st.sampled_from([None] * len(flags) + list(flags)))
    if wild is not None:
        n = len(flags[wild].split(","))
        flags[wild] = draw(st.tuples(*[_POINT] * n).map(",".join))
    return flags


@st.composite
def _invert_s_doc(draw):
    """(--what, the case of its document, the monodromy flags, the key to
    drop).  The case is the one --what needs two times in four; every flag
    is near the CI command's value, except that in one draw in two one flag
    is any _POINT (independent draws almost never build a representation).
    In one draw in two a stored key is deleted or set to null."""
    what = draw(st.sampled_from(["s-b", "s-c"]))
    case = draw(st.sampled_from([what[-1], what[-1], "a", "c" if what == "s-b" else "b"]))
    flags = _draw_flags(draw, _MONODROMY_BASE[case])
    keys = ["theta", "params.thx", "params.thinf", "params.s"]
    drop = draw(st.none() | st.tuples(st.sampled_from(keys), st.booleans()))
    return what, case, flags, drop


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(rep=_invert_s_doc())
@settings(max_examples=30, deadline=None, derandomize=True)
@example(rep=("s-c", "b", _MONODROMY_BASE["b"], None))
@example(rep=("s-b", "c", _MONODROMY_BASE["c"], None))
@example(rep=("s-c", "c", _MONODROMY_BASE["c"], ("theta", False)))
@example(rep=("s-b", "b", _MONODROMY_BASE["b"], ("params.thx", False)))
def test_invert_s_argv_property(rep):
    """`invert --what s-b|s-c` and `identity-check` on the document of
    `monodromy --case a|b|c` with any flags, and with a stored key deleted
    or null: exit 0, 2 or 3, no traceback, and on success exactly one JSON
    document."""
    what, case, flags, drop = rep
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rep.json")
        assert _main_captured(_monodromy_argv(case, flags, path))[0] in (0, 2, 3)
        if drop is not None and os.path.exists(path):
            _drop_key(path, *drop)
        for argv in (["invert", f"--what={what}"], ["identity-check"]):
            code, out, err = _main_captured(argv + [f"--json-in={path}"])
            assert code in (0, 2, 3)
            assert "Traceback" not in err
            if code == 0:
                _strict_json(out)


SEED_NAN = ["seed", "--theta=1e200,3,0.5i,1e-8", "--sigma=0.25i", "--r=1e-300", "--x=2"]
INVERT_NAN = ["invert", "--what=r", "--theta=0.25i,1e-300,-2.5,0.25i", "--t0x=1e200",
              "--t1x=0.5i", "--t01=1e-15"]


@given(theta=st.tuples(_POINT, _POINT, _POINT, _POINT), sigma=_POINT, r=_POINT,
       x=st.none() | _POINT, three_term=st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
@example(theta=("1e200", "3", "0.5i", "1e-8"), sigma="0.25i", r="1e-300", x="2",
         three_term=False)
def test_seed_argv_property(theta, sigma, r, x, three_term):
    """Any --theta, --sigma, --r, --x and --three-term: exit 0, 2 or 3, no
    traceback, and on success exactly one JSON document."""
    argv = ["seed", f"--theta={','.join(theta)}", f"--sigma={sigma}", f"--r={r}"]
    argv += ([] if x is None else [f"--x={x}"]) + (["--three-term"] if three_term else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


@given(theta=st.tuples(_POINT, _POINT, _POINT, _POINT), traces=st.tuples(_POINT, _POINT, _POINT),
       sigma=st.none() | _POINT)
@settings(max_examples=30, deadline=None, derandomize=True)
@example(theta=("0.25i", "1e-300", "-2.5", "0.25i"), traces=("1e200", "0.5i", "1e-15"),
         sigma=None)
def test_invert_r_argv_property(theta, traces, sigma):
    """Any --theta, traces and --sigma of `invert --what r`: exit 0, 2 or 3,
    no traceback, and on success exactly one JSON document."""
    argv = ["invert", "--what=r", f"--theta={','.join(theta)}"]
    argv += [f"--{k}={v}" for k, v in zip(("t0x", "t1x", "t01"), traces)]
    argv += [] if sigma is None else [f"--sigma={sigma}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())


@pytest.mark.parametrize("argv", [SEED_NAN, INVERT_NAN], ids=["seed", "invert"])
def test_result_not_finite_exits_3(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "numeric failure: FloatingPointError: the result is not finite (overflow)\n"
    # the document is built before --out is opened: no partial file
    code, _, _ = run_cli(capsys, *argv, f"--out={tmp_path / 'doc.json'}")
    assert code == 3 and not (tmp_path / "doc.json").exists()


# 10^17 orders need 1.39 EiB, beyond any address space in use, so the
# allocation fails at once; 10^18 is numpy's "array is too big", exit 2
@pytest.mark.parametrize("argv", [
    ["series", f"--theta={THETA}", "--class=form1", "--order=100000000000000000"],
    ["sweep", "--count=1", "--order=100000000000000000"],
], ids=["series", "sweep"])
def test_unallocatable_order_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: ") and "MemoryError" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,order", [
    (["--theta=0.3,0.3,-1.5,1.5", "--class=form2", "--a=1e100", "--order=12"], 2),
    (["--theta=0.3,0.5,0,1", "--class=form3", "--a=1e300"], 1),
])
def test_series_overflow_exits_3_naming_the_order(capsys, argv, order):
    code, out, err = run_cli(capsys, "series", *argv)
    assert (code, out) == (3, "")
    assert err == (f"numeric failure: FloatingPointError: order {order}: "
                   "the residual is not finite (overflow)\n")


@pytest.mark.parametrize("ic,path", [("1e300,0.5,0.5", "1e300;2.5"),
                                     ("2.5,0.5,1e300", "2.5;2.6")])
def test_continue_huge_inputs_fail_without_overflow(capsys, ic, path):
    # a segment from 1e300, and a y' that carries y past 1e154 within a step
    code, out, err = run_cli(capsys, "continue", "--theta", "0.21,0.33,0.17,0.52",
                             f"--ic={ic}", f"--path={path}")
    assert code in (2, 3)
    assert "OverflowError" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["identity-check"], ["invert", "--what", "s-b"]])
def test_representation_missing_key_names_key_and_path(capsys, tmp_path, command):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({"x": 1}))
    code, out, err = run_cli(capsys, *command, "--json-in", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: --json-in {p}: missing key 'matrices'\n"
    run_cli(capsys, "monodromy", "--case", "b", "--thx", "0.31", "--thinf", "0.44",
            "--s", "0.27", "--r", "1.0", "--out", str(p))
    doc = json.loads(p.read_text())
    del doc["matrices"]["Minf"]
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command, "--json-in", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: --json-in {p}: missing key 'Minf'\n"


@pytest.mark.parametrize("command, doc, key", [
    (["identity-check"], [1, 2], "matrices"),
    (["identity-check"], {"matrices": {"M0": 3, "Mx": 1, "M1": 1, "Minf": 1}}, "M0"),
    (["fuchsian", "--action", "appendix2"], [1], "kind"),
    (["fuchsian", "--action", "appendix2"], {"kind": "IRR1", "leading": 3, "coeffs": []},
     "leading"),
    (["fuchsian", "--action", "appendix2"], {"kind": "IRR1"}, "leading"),
], ids=["list", "int-matrix", "appendix2-list", "int-leading", "no-leading"])
def test_malformed_json_in_exits_2_naming_path_and_key(capsys, tmp_path, command, doc, key):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command, "--json-in", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --json-in {p}: ") and repr(key) in err
    assert err.count("\n") == 1


def _argv_doc(argv):
    """Run argv: exit 0, 2 or 3 and no traceback.  The strict JSON document
    printed on exit 0, else None."""
    code, out, err = _main_captured(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    return _strict_json(out) if code == 0 else None


def _pair(value):
    return isinstance(value, list) and len(value) == 2 and all(type(v) is float for v in value)


@st.composite
def _case_argv(draw, command, bases):
    """command --case with each of its flags drawn by _draw_flags."""
    case = draw(st.sampled_from(sorted(bases)))
    return [command, f"--case={case}",
            *(f"--{k}={v}" for k, v in _draw_flags(draw, bases[case]).items())]


_THETA_ANY = st.one_of(_near(THETA), st.tuples(*[_POINT] * 4).map(",".join))


@given(argv=_case_argv("monodromy", _MONODROMY_BASE))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_monodromy_argv_property(argv):
    """Any flags of `monodromy --case a|b|c`: exit 0, 2 or 3, no traceback,
    and on success one JSON document whose params and traces are pairs."""
    doc = _argv_doc(argv)
    if doc is not None:
        assert all(_pair(v) for v in (*doc["params"].values(), *doc["traces"].values()))


@given(argv=_case_argv("fuchsian", CASE_FLAGS["fuchsian"]),
       action=st.sampled_from(["build", "y-from-A"]), x=st.none() | _POINT)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fuchsian_argv_property(argv, action, x):
    """Any flags of `fuchsian --action build|y-from-A --case a|b|c` and any
    --x: exit 0, 2 or 3, no traceback, and on success one JSON document
    whose params, powers, coefficients and y are pairs."""
    doc = _argv_doc([*argv, f"--action={action}", *([] if x is None else [f"--x={x}"])])
    if doc is None:
        return
    if action == "build":
        terms = [t for rows in doc["entries"].values() for row in rows for cell in row
                 for t in cell]
        assert terms and all(_pair(t["power"]) and _pair(t["coeff"]) for t in terms)
        assert all(_pair(v) for v in doc["params"].values())
    else:
        assert _pair(doc["y"])


@given(gen=st.sampled_from(GENERATORS + XY_GENERATORS + ("z9",)), theta=_THETA_ANY,
       sigma=st.none() | _POINT, xy=st.none() | st.tuples(_POINT, _POINT).map(",".join))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_symmetry_argv_property(gen, theta, sigma, xy):
    """Any generator, --theta, --sigma and --xy of `symmetry`: exit 0, 2 or
    3, no traceback, and on success one JSON document of pairs."""
    argv = ["symmetry", f"--gen={gen}", f"--theta={theta}"]
    argv += ([] if sigma is None else [f"--sigma={sigma}"]) + ([] if xy is None else [f"--xy={xy}"])
    doc = _argv_doc(argv)
    if doc is not None:
        assert len(doc["theta_image"]) == 4 and all(_pair(t) for t in doc["theta_image"])
        assert sigma is None or _pair(doc["sigma_image"])
        assert xy is None or _pair(doc["xy_image"]["x"]) and _pair(doc["xy_image"]["y"])


@given(which=st.sampled_from(["C0inf", "C01", "Cinf0", "C01c"]), theta=_THETA_ANY,
       oracle=st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_hypergeom_argv_property(which, theta, oracle):
    """Any --which and --theta of `hypergeom`, with and without --oracle:
    exit 0, 2 or 3, no traceback, and on success one JSON document whose
    matrices are 2x2 of pairs."""
    doc = _argv_doc(["hypergeom", f"--which={which}", f"--theta={theta}",
                     *(["--oracle"] if oracle else [])])
    if doc is not None:
        for key in ("matrix", "oracle") if oracle else ("matrix",):
            assert len(doc[key]) == 2 and all(len(row) == 2 and all(_pair(z) for z in row)
                                              for row in doc[key])


@given(klass=st.sampled_from(TAYLOR_CLASSES + ("taylor9",)), order=st.integers(1, 24),
       count=st.integers(1, 8), seed=st.integers(-1, 2 ** 32))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_sweep_argv_property(klass, order, count, seed):
    """Any --class, --order, --count and --seed of `sweep`: exit 0, 2 or 3,
    no traceback, and on success one JSON document of count results whose
    theta and coefficients are pairs."""
    doc = _argv_doc(["sweep", f"--class={klass}", f"--order={order}", f"--count={count}",
                     f"--seed={seed}"])
    if doc is not None:
        assert [r["index"] for r in doc["results"]] == list(range(count))
        for r in doc["results"]:
            assert all(_pair(t) for t in r["theta"])
            assert "error" in r or len(r["coeffs"]) == order + 1 and all(map(_pair, r["coeffs"]))


def _complex_entries(extreme):
    """[re, im] pairs of finite floats, with 0, 1e-300 and 1e300 among them
    when extreme."""
    part = st.floats(-3.0, 3.0)
    if extreme:
        part |= st.sampled_from([0.0, 1e-300, 1e300])
    return st.tuples(part, part).map(list)


@st.composite
def _appendix2_spec(draw):
    """An appendix2 document: kind, a diagonal leading matrix whose two
    entries are equal one time in four, 1 to 3 coefficient matrices and n.
    One document in four may hold 0, 1e-300 and 1e300 (independent extreme
    entries almost always overflow the recursion)."""
    z = _complex_entries(draw(st.integers(0, 3)) == 0)
    a = draw(z)
    b = a if draw(st.integers(0, 3)) == 0 else draw(z)
    mat = st.tuples(z, z, z, z).map(lambda e: [e[:2], e[2:]])
    return {"kind": draw(st.sampled_from(["IRR1", "IRR2"])),
            "leading": [[a, [0.0, 0.0]], [[0.0, 0.0], b]],
            "coeffs": [draw(mat) for _ in range(draw(st.integers(1, 3)))],
            "n": draw(st.integers(1, 12))}


@given(spec=_appendix2_spec(), x=st.sampled_from(["0", "1e-3"]) | _POINT)
@settings(max_examples=30, deadline=None, derandomize=True)
@example(spec=_IRR2, x="0")
@example(spec=_IRR2, x="1e-300")
def test_appendix2_argv_property(spec, x):
    """Any document and --x of `fuchsian --action appendix2`: exit 0, 2 or
    3, no traceback, exit 2 on equal leading entries, and on success one
    JSON document whose coefficient matrices are 2x2 of pairs."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code, out, err = _main_captured(["fuchsian", "--action=appendix2",
                                         f"--json-in={path}", f"--x={x}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if spec["leading"][0][0] == spec["leading"][1][1]:
        assert code == 2
    if code == 0:
        doc = _strict_json(out)
        mats = doc["G"] + [doc["Omega1"]] if spec["kind"] == "IRR1" else \
            [doc["K1"], doc["K2"], doc["Lambda1"]]
        assert all(len(m) == 2 and all(len(row) == 2 and all(_pair(z) for z in row)
                                       for row in m) for m in mats)
