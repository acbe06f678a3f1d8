#!/usr/bin/env python3
"""pvilab benchmark: run one workload and print its result as one JSON line.

    python3 bench/run.py --workload taylor-series --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; pvilab is imported from its src/.  With
--trace 0 the end-to-end metrics are measured (setup_s, part1_s..part3_s,
digits); with --trace 1 the per-layer metrics come from a separate traced
run.  Workloads, inputs and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import common  # noqa: E402

WORKLOADS = {
    "taylor-series": "wl_taylor",
    "monodromy-oracles": "wl_monodromy",
    "continuation": "wl_continuation",
    "cli-cold": "wl_cli",
}
SETUP_REPEATS = 7

# Imports what the workload calls and builds its inputs.
SETUP_PROBE = ("import sys, importlib; sys.path[:0] = sys.argv[1:3]; "
               "importlib.import_module(sys.argv[3]).build(int(sys.argv[4]))")


def measure_setup(module, seed):
    """Median over SETUP_REPEATS fresh interpreters of their wall time, in
    reference seconds: each over the mean of the fresh-interpreter
    calibrations before and after it.  One discarded run first fills the
    bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC), module, str(seed)]
    calibrate, ref = common.FRESH_PROCESS

    def wall():
        t = time.perf_counter()
        subprocess.run(cmd, env=common.pvilab_env(), capture_output=True, timeout=120,
                       check=True)
        return time.perf_counter() - t

    wall()
    cals, walls = [calibrate()], []
    for _ in range(SETUP_REPEATS):
        walls.append(wall())
        cals.append(calibrate())
    ratios = [w / ((a + b) / 2.0) for w, a, b in zip(walls, cals, cals[1:])]
    print(f"setup: median {statistics.median(walls):.4f} s as measured", file=sys.stderr)
    return statistics.median(ratios) * ref


def timed_passes(wl, inp, seconds, led):
    """Whole passes until `seconds` have elapsed.

    Returns, per pass, each part's seconds and the calibration seconds
    around it (the mean of the runs before and after the part), the
    outputs of the first pass, and the attempted and failed counts.  Every
    pass must reproduce the first pass's outputs."""
    parts, cals, first, attempted, failed = [], [], None, 0, 0
    calibrate, _ = getattr(wl, "CALIBRATION", common.SAME_PROCESS)
    start = time.perf_counter()
    while not parts or time.perf_counter() - start < seconds:
        gc.collect()
        marks = []
        t, out, a, f = wl.run_pass(inp, between=lambda: marks.append(calibrate()))
        parts.append(t)
        cals.append([(u + v) / 2.0 for u, v in zip(marks, marks[1:])])
        attempted, failed = attempted + a, failed + f
        if first is None:
            first = out
        else:
            led.prop("outputs identical in every pass", wl.same(first, out))
    return parts, cals, first, attempted, failed


def run_untraced(wl, module, args, led):
    setup_s = measure_setup(module, args.seed)
    inp = wl.build(args.seed)
    parts, cals, first, attempted, failed = timed_passes(wl, inp, args.seconds, led)
    wl.check(inp, first, led)
    metrics = {"setup_s": (setup_s, "s")}
    _, ref = getattr(wl, "CALIBRATION", common.SAME_PROCESS)
    for i in range(len(wl.PARTS)):
        # reference seconds: the part's time over the calibration time
        # around it, times the calibration's reference time
        ratio = statistics.median(p[i] / c[i] for p, c in zip(parts, cals))
        metrics[f"part{i + 1}_s"] = (ratio * ref, "s")
    metrics["digits"] = (led.digits(), "digits")
    raw = ", ".join(f"{statistics.median(p[i] for p in parts):.4f}" for i in range(len(wl.PARTS)))
    print(f"{len(parts)} timed passes; median part seconds as measured {raw}; median "
          f"calibration {statistics.median(c for row in cals for c in row):.4f} s", file=sys.stderr)
    print(f"worst scaled error {led.worst:.2e} ({led.worst_name})", file=sys.stderr)
    return metrics, attempted, failed


def run_traced(wl, module, args, led):
    import tracing
    from pvilab import acceptance
    check_names = [n for n, _ in acceptance.CRITERIA]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    if hasattr(wl, "IN_PROCESS"):
        wl.IN_PROCESS = True
    inp = wl.build(args.seed)
    per_pass, walls, attempted, failed, first = [], [], 0, 0, None
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < args.seconds:
        gc.collect()
        tracer.reset()
        t0 = time.perf_counter()
        _, out, a, f = wl.run_pass(inp)
        walls.append(time.perf_counter() - t0)
        per_pass.append(tracing.layer_metrics(*tracer.summary(), check_names))
        attempted, failed = attempted + a, failed + f
        if first is None:
            first = out
            tracer.dump(BENCH / "traces" / f"{args.workload}-seed{args.seed}.json.gz",
                        {"workload": args.workload, "seed": args.seed, "pass": 0})
    wl.check(inp, first, led)
    metrics = {}
    for name, value in per_pass[0].items():
        if name.endswith("ms"):
            value = statistics.median(p[name] for p in per_pass)
        elif any(p[name] != value for p in per_pass):
            print(f"warning: {name} differs between passes", file=sys.stderr)
        metrics[name] = (value, tracing.unit(name))
    cli_ms, own_ms = tracing.import_times()
    metrics["cli.import_ms"] = (cli_ms, "ms")
    metrics["cli.import_pvilab_ms"] = (own_ms, "ms")
    print(f"{len(per_pass)} traced passes, median pass {statistics.median(walls):.3f} s",
          file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "pvilab" / "__init__.py").is_file():
        print(f"error: no pvilab package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    module = WORKLOADS[args.workload]
    wl = importlib.import_module(module)
    led = common.Ledger()
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed = run(wl, module, args, led)
    for line in led.failures:
        print(f"CHECK FAILED  {line}", file=sys.stderr)
    print(json.dumps({"correct": led.ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
