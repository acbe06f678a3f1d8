"""Per-layer metrics from a traced run.

The wrappers are installed from here, around the functions each pvilab
module imports from the layer below (and the series-ring operators, the
residue evaluation and the acceptance checks).  Each call records a span
(name, start, end, parent) in a per-thread list kept in memory; the spans
of the first traced pass are written out when the run ends.  Every `_ms`
metric is a self time: a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

import common


class _ThreadState:
    __slots__ = ("spans", "stack", "counts", "solving")

    def __init__(self):
        self.spans, self.stack, self.counts, self.solving = [], [], Counter(), 0


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self._local = threading.local()
        self.states = []

    def state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self.states.append(st)
        return st

    def span(self, name, fn):
        perf, tracer = time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            spans, stack = st.spans, st.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
        return traced

    def summary(self):
        """(calls per span name, self seconds per span name, counters)."""
        calls, selfs, counts = Counter(), defaultdict(float), Counter()
        for st in self.states:
            child = [0.0] * len(st.spans)
            for name, t0, t1, parent in st.spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for (name, t0, t1, _), c in zip(st.spans, child):
                calls[name] += 1
                selfs[name] += t1 - t0 - c
            counts.update(st.counts)
        return calls, selfs, counts

    def dump(self, path, meta):
        starts = [st.spans[0][1] for st in self.states if st.spans]
        if not starts:
            return
        base = min(starts)
        threads = [[[n, round((a - base) * 1e6, 1), round((b - base) * 1e6, 1), p]
                    for n, a, b, p in st.spans] for st in self.states]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(dict(meta, unit="us", span_fields=["name", "start", "end", "parent"],
                           threads=threads), fh)


def _slots(result):
    """Coefficients in a solver result: b_0..b_N, P_1..P_N, or the (k, N) grid."""
    if hasattr(result, "p"):
        return int(result.meta["N"])
    return int(np.size(result.c))


def install(tracer):
    from pvilab import (acceptance, asymptotics, cli, continuation, fuchsian,
                        hypergeom, integrate, monodromy, numerics, pvi, series,
                        symmetries)
    span = tracer.span

    def residual_series(fn):
        inner = span("pvi.residual_series", fn)

        def traced(*args, **kwargs):
            st = tracer.state()
            if st.solving:
                st.counts["series.solver_residuals"] += 1
            return inner(*args, **kwargs)
        return traced

    def solver(fn):
        inner = span("series.solver", fn)

        def traced(*args, **kwargs):
            st = tracer.state()
            st.solving += 1
            try:
                out = inner(*args, **kwargs)
            finally:
                st.solving -= 1
            st.counts["series.coeff_slots"] += _slots(out)
            return out
        return traced

    def cont_integrate(fn):
        inner = span("continuation.integrate", fn)

        def traced(*args, **kwargs):
            traj = inner(*args, **kwargs)
            tracer.state().counts["continuation.chart_switches"] += sum(
                1 for e in traj.events if e.get("kind") == "chart-switch")
            return traj
        return traced

    def dp45(fn, caller):
        inner = span("integrate.dp45", fn)

        def traced(f, *args, step_cb=None, **kwargs):
            st = tracer.state()
            cb = None if step_cb is None else span(caller + ".step_cb", step_cb)

            def counted(t, y):
                st.counts["integrate.steps"] += 1
                return None if cb is None else cb(t, y)
            return inner(span(caller + ".rhs", f), *args, step_cb=counted, **kwargs)
        return traced

    wrappers = {}
    for fn, name in ((numerics.gamma, "numerics.gamma"), (numerics.cpow, "numerics.cpow"),
                     (numerics.digamma, "numerics.digamma"), (numerics.clog, "numerics.clog"),
                     (pvi.pvi_rhs, "pvi.rhs"),
                     (hypergeom.gauss_f, "hypergeom.gauss_f"),
                     (hypergeom.ode_transport, "hypergeom.ode_transport"),
                     (hypergeom.connection_matrix, "hypergeom.connection_matrix"),
                     (hypergeom.connection_oracle, "hypergeom.connection_oracle"),
                     (monodromy.build_case_a, "monodromy.build"),
                     (monodromy.build_case_b, "monodromy.build"),
                     (monodromy.build_case_c, "monodromy.build"),
                     (fuchsian.loop_monodromy, "fuchsian.loop_monodromy"),
                     (fuchsian.transport, "fuchsian.transport"),
                     (asymptotics.make_seed, "asymptotics.seed"),
                     (asymptotics.seed_value, "asymptotics.seed")):
        wrappers[id(fn)] = (fn, span(name, fn))
    for fn in (series.solve_taylor, series.solve_log_series, series.solve_omega_series):
        wrappers[id(fn)] = (fn, solver(fn))
    wrappers[id(pvi.pvi_residual_series)] = (pvi.pvi_residual_series,
                                             residual_series(pvi.pvi_residual_series))
    wrappers[id(continuation.integrate)] = (continuation.integrate,
                                            cont_integrate(continuation.integrate))
    # numerics itself stays unwrapped: its internal calls (the Gamma
    # reflection) are not calls into the layer from above
    for mod in (pvi, series, asymptotics, continuation, fuchsian, hypergeom,
                monodromy, symmetries, acceptance, cli):
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    for mod, caller in ((fuchsian, "fuchsian"), (hypergeom, "hypergeom"),
                        (continuation, "continuation")):
        mod.dp45 = dp45(integrate.dp45, caller)

    for cls in (series.PSeries, series.LogSeries, series.OmegaSeries):
        mul = span("series.ring.mul", cls.__mul__)
        cls.__mul__ = cls.__rmul__ = mul
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "deriv"):
            setattr(cls, op, span("series.ring.op", getattr(cls, op)))
    fuchsian.LinearSystem.residue = span("fuchsian.residue", fuchsian.LinearSystem.residue)
    continuation.Trajectory.residual_audit = span("continuation.residual_audit",
                                                  continuation.Trajectory.residual_audit)
    acceptance.CRITERIA = tuple((n, span("acceptance." + n, fn))
                                for n, fn in acceptance.CRITERIA)


def layer_metrics(calls, selfs, counts, check_names):
    def ms(*names):
        return 1e3 * sum(selfs[n] for n in names)

    rhs = sum(calls[c + ".rhs"] for c in ("fuchsian", "hypergeom", "continuation"))
    steps = counts["integrate.steps"]
    loops = calls["fuchsian.loop_monodromy"]
    slots = counts["series.coeff_slots"]
    out = {
        "numerics.gamma_calls": calls["numerics.gamma"],
        "numerics.cpow_calls": calls["numerics.cpow"],
        "numerics.ms": ms("numerics.gamma", "numerics.cpow", "numerics.digamma", "numerics.clog"),
        "pvi.residual_series_calls": calls["pvi.residual_series"],
        "pvi.residual_series_ms": ms("pvi.residual_series"),
        "pvi.rhs_calls": calls["pvi.rhs"],
        "pvi.rhs_ms": ms("pvi.rhs"),
        "series.ring_mul_calls": calls["series.ring.mul"],
        "series.ring_ms": ms("series.ring.mul", "series.ring.op"),
        "series.solver_self_ms": ms("series.solver"),
        "series.residuals_per_coeff": counts["series.solver_residuals"] / slots if slots else 0.0,
        "integrate.calls": calls["integrate.dp45"],
        "integrate.rhs_evals": rhs,
        "integrate.steps_accepted": steps,
        "integrate.rhs_per_step": rhs / steps if steps else 0.0,
        "integrate.self_ms": ms("integrate.dp45"),
        "fuchsian.rhs_evals_per_loop": calls["fuchsian.rhs"] / loops if loops else 0.0,
        "fuchsian.rhs_ms": ms("fuchsian.rhs"),
        "fuchsian.residue_ms": ms("fuchsian.residue"),
        "hypergeom.gauss_f_calls": calls["hypergeom.gauss_f"],
        "hypergeom.gauss_f_ms": ms("hypergeom.gauss_f"),
        "hypergeom.ode_transport_ms": ms("hypergeom.ode_transport"),
        "hypergeom.connection_matrix_ms": ms("hypergeom.connection_matrix"),
        "monodromy.build_ms": ms("monodromy.build"),
        "continuation.chart_switches": counts["continuation.chart_switches"],
        "continuation.self_ms": ms("continuation.integrate", "continuation.rhs",
                                   "continuation.step_cb", "continuation.residual_audit"),
        "asymptotics.seed_ms": ms("asymptotics.seed"),
    }
    for name in check_names:
        out[f"acceptance.{name}_ms"] = ms("acceptance." + name)
    return out


RATIOS = ("series.residuals_per_coeff", "integrate.rhs_per_step", "fuchsian.rhs_evals_per_loop")


def unit(name):
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name in RATIOS else "count"


def import_times(repeats=3):
    """(cumulative ms of `import pvilab.cli`, self ms of the pvilab modules
    alone) from -X importtime in fresh interpreters; medians, after one
    discarded run that fills the bytecode cache."""
    cli_ms, own_ms = [], []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pvilab.cli"],
                              env=common.pvilab_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        total, own = None, 0.0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue
            if parts[2].startswith("pvilab"):
                own += self_us
            if parts[2] == "pvilab.cli":
                total = cum_us
        if i and total is not None:
            cli_ms.append(total / 1e3)
            own_ms.append(own / 1e3)
    return statistics.median(cli_ms), statistics.median(own_ms)

