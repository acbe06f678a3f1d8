"""Command-line interface: schemas, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from pvilab import continuation
from pvilab.cli import main, parse_complex, parse_theta, rep_from_json

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
    exact = x / (0.3 * x + 1.4)
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


def test_continue_csv_and_summary(capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "continue", "--theta", "0.21,0.33,0.17,0.52",
                           "--ic", "0.01,1.35258971,-0.15817967",
                           "--path", "0.01;0.1", "--csv-out", str(csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_samples"] >= 2
    assert csv.read_text().startswith("x_re,x_im,")


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


def test_hypergeom_oracle_deviation(capsys):
    code, out, _ = run_cli(capsys, "hypergeom", "--which", "C01c",
                           "--theta", THETA, "--oracle")
    assert code == 0
    assert json.loads(out)["deviation"] < 1e-8


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
