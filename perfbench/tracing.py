"""Spans around the public entry points of geoladders, and the per-layer
metrics derived from them.

A span records name, start, end, parent span and op id; spans stay in memory
and are written out when the run ends.  Christoffel evaluations (about ten
thousand per bump2d op) are too many to keep as spans, so each one adds a
count and its time to the span that is open when it runs.  Self time is a
span's duration minus its child spans and the Christoffel time charged to it.

Wrapping happens only inside ``installed``: it rebinds module attributes of
geoladders and methods of the workload's own space objects, and restores
every one of them on exit.  Nothing under the package's source is edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from geoladders import ChartSpace, GeometryError
from geoladders.cli import SYMMETRIC_FLEET

# (module, attribute, span name): names looked up at call time by the
# package's own code, so rebinding them puts a span around every call
MODULE_PATCHES = (
    ("geoladders.chart", "geodesic_flow", "chart.geodesic_flow"),
    ("geoladders.chart", "log_shooting", "chart.log_shooting"),
    ("geoladders.chart", "transport_ode", "chart.transport_ode"),
    ("geoladders.chart", "curvature_components", "chart.curvature_components"),
    ("geoladders.chart", "nabla_curvature_components",
     "chart.nabla_curvature_components"),
    ("geoladders.chart", "solve_ivp", "chart.solve_ivp"),
    ("geoladders.analysis", "ladder_step", "ladders.ladder_step"),
    ("geoladders.cli", "ladder_step", "ladders.ladder_step"),
)
SPACE_METHODS = ("exp", "log", "log_stats", "transport")
MARK = "_perfbench_span"
CURVATURE = ("chart.curvature_components", "chart.nabla_curvature_components")


def _info(name, out):
    if name == "chart.log_shooting":
        return {"iters": int(out[1])}
    if name == "chart.solve_ivp":
        return {"nfev": int(out.nfev), "steps": int(out.t.size - 1)}
    return None


class Span:
    __slots__ = ("name", "tag", "op", "parent", "t0", "t1", "info")

    def __init__(self, name, tag, op, parent):
        self.name, self.tag, self.op, self.parent = name, tag, op, parent
        self.t0 = self.t1 = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        # span id -> [Christoffel calls, seconds] charged to that span
        self.christoffel = defaultdict(lambda: [0, 0.0])
        self.missing: list[str] = []

    def wrap(self, name, fn, tag=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(name, tag, self.op, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(sid)
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except GeometryError as err:
                span.info = {"error": type(err).__name__}
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
            span.info = _info(name, out)
            return out

        setattr(wrapper, MARK, name)
        return wrapper

    def run_op(self, fn):
        self.op += 1
        return self.wrap("op", fn)()

    def count_christoffel(self, fn):
        agg, stack = self.christoffel, self.stack

        def wrapper(x):
            t0 = perf_counter()
            try:
                return fn(x)
            finally:
                cell = agg[stack[-1] if stack else -1]
                cell[0] += 1
                cell[1] += perf_counter() - t0

        setattr(wrapper, MARK, "chart.christoffel")
        return wrapper

    def dump(self, path, header):
        """Write the spans as gzip JSON lines, times in microseconds."""
        base = self.spans[0].t0 if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, s in enumerate(self.spans):
                calls, secs = self.christoffel.get(sid, (0, 0.0))
                fh.write(json.dumps([
                    sid, s.parent, s.op, s.name, s.tag,
                    round((s.t0 - base) * 1e6, 3), round((s.t1 - base) * 1e6, 3),
                    s.info, calls, round(secs * 1e6, 3)]) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, spaces):
    """Put the tracer's wrappers in place; restore everything on exit."""
    undo = []
    try:
        for modname, attr, span in MODULE_PATCHES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                tracer.missing.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, tracer.wrap(span, orig))
            undo.append(lambda mod=mod, attr=attr, orig=orig: setattr(mod, attr, orig))
        for space in spaces:
            for meth in SPACE_METHODS:
                setattr(space, meth, tracer.wrap("core." + meth, getattr(space, meth)))
                undo.append(lambda space=space, meth=meth: delattr(space, meth))
            if isinstance(space, ChartSpace):
                conn = space.conn
                space.conn = dataclasses.replace(
                    conn, christoffel=tracer.count_christoffel(conn.christoffel))
                undo.append(lambda space=space, conn=conn: setattr(space, "conn", conn))
        yield tracer
    finally:
        for fn in reversed(undo):
            fn()


def leftover_wrappers():
    """Names of geoladders module attributes that are still tracer wrappers."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "geoladders" or modname.startswith("geoladders."):
            for attr, value in vars(mod).items():
                if getattr(value, MARK, None) is not None:
                    found.append(f"{modname}.{attr}")
    return found


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better): the per-layer list of BENCHMARK.json, in order
LAYER_METRICS = (
    ("chart.christoffel_calls_per_op", "count", "lower"),
    ("chart.flow_calls_per_op", "count", "lower"),
    ("chart.log_calls_per_op", "count", "lower"),
    ("chart.newton_iters_per_log", "count", "lower"),
    ("chart.flows_per_newton_iter", "ratio", "lower"),
    ("chart.log_failed_frac", "frac", "lower"),
    ("chart.rhs_evals_per_flow", "count", "lower"),
    ("chart.ode_steps_per_flow", "count", "lower"),
    ("chart.flow_ms_p50", "ms", "lower"),
    ("chart.log_ms_p50", "ms", "lower"),
    ("chart.transport_ode_ms_p50", "ms", "lower"),
    ("chart.curvature_ms_per_op", "ms", "lower"),
    ("chart.christoffel_time_share", "frac", "lower"),
    ("chart.time_share", "frac", "lower"),
    ("ladders.step_ms_p50", "ms", "lower"),
    ("ladders.rung_ms_p50", "ms", "lower"),
    ("ladders.exp_calls_per_rung", "count", "lower"),
    ("ladders.log_calls_per_rung", "count", "lower"),
    ("ladders.exp_calls_per_step", "count", "lower"),
    ("ladders.log_calls_per_step", "count", "lower"),
    ("core.exp_us_p50", "us", "lower"),
    ("core.log_us_p50", "us", "lower"),
    ("core.transport_us_p50", "us", "lower"),
    ("core.time_share", "frac", "lower"),
    *((f"manifolds.{name}.op_ms_p50", "ms", "lower") for name in SYMMETRIC_FLEET),
    ("analysis.measured_ms_p50", "ms", "lower"),
    ("analysis.predicted_ms_p50", "ms", "lower"),
    ("analysis.oracle_time_share", "frac", "lower"),
    ("analysis.slope_min", "ratio", "higher"),
    ("analysis.slope_max", "ratio", "lower"),
    ("analysis.r_squared_min", "ratio", "higher"),
    ("analysis.predictor_defect_max", "ratio", "lower"),
    ("analysis.max_rel_error", "ratio", "lower"),
    ("cli.convergence_s", "s", "lower"),
    ("cli.exactness_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def _p50(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_rungs: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus a per-span-name summary.

    Layers a workload does not reach read 0.  The summary maps each span
    name to (calls, total seconds, self seconds).
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s.t1 - s.t0 for s in spans]
    chris = tracer.christoffel
    child = [0.0] * n
    for sid, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[sid]
    self_t = [dur[i] - child[i] - chris[i][1] if i in chris else dur[i] - child[i]
              for i in range(n)]

    # ancestor flags in one forward pass: a parent is always recorded first
    def flags(pred):
        out = [False] * n
        for sid, s in enumerate(spans):
            out[sid] = (s.parent >= 0 and (out[s.parent] or pred(spans[s.parent])))
        return out

    under_chart = flags(lambda s: s.name.startswith("chart."))
    under_curv = flags(lambda s: s.name in CURVATURE)
    under_ladder = flags(lambda s: s.name.startswith("ladders."))
    under_step = flags(lambda s: s.name == "ladders.ladder_step")
    under_transport = flags(lambda s: s.name == "ladders.transport_along_geodesic")
    under_core = flags(lambda s: s.name.startswith("core."))

    by_name = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s.name].append(sid)

    def durations(name, keep=lambda sid: True):
        return [dur[sid] for sid in by_name[name] if keep(sid)]

    ops = by_name["op"]
    n_ops = len(ops)
    op_total = sum(dur[sid] for sid in ops)
    flows = by_name["chart.geodesic_flow"]
    logs = by_name["chart.log_shooting"]
    iters = [spans[sid].info["iters"] for sid in logs
             if spans[sid].info and "iters" in spans[sid].info]
    log_failed = sum(1 for sid in logs
                     if spans[sid].info and "error" in spans[sid].info)
    log_ids = set(logs)
    flows_in_logs = sum(1 for sid in flows if spans[sid].parent in log_ids)
    flow_ids = set(flows)
    flow_odes = [spans[sid].info for sid in by_name["chart.solve_ivp"]
                 if spans[sid].parent in flow_ids and spans[sid].info]
    christoffel_calls = sum(c for c, _ in chris.values())
    christoffel_secs = sum(t for _, t in chris.values())

    def count(name, under, exclude_parent=None):
        return sum(1 for sid in by_name[name] if under[sid] and not (
            exclude_parent and spans[sid].parent >= 0
            and spans[spans[sid].parent].name == exclude_parent))

    def log_count(under):
        # a log_stats that falls back on log counts once
        return (count("core.log", under, exclude_parent="core.log_stats")
                + count("core.log_stats", under))

    steps = by_name["ladders.ladder_step"]
    transports = by_name["ladders.transport_along_geodesic"]
    rungs = len(transports) * n_rungs
    out = {
        "chart.christoffel_calls_per_op": _ratio(christoffel_calls, n_ops),
        "chart.flow_calls_per_op": _ratio(len(flows), n_ops),
        "chart.log_calls_per_op": _ratio(len(logs), n_ops),
        "chart.newton_iters_per_log": _ratio(sum(iters), len(iters)),
        "chart.flows_per_newton_iter": _ratio(flows_in_logs, sum(iters)),
        "chart.log_failed_frac": _ratio(log_failed, len(logs)),
        "chart.rhs_evals_per_flow": _ratio(sum(i["nfev"] for i in flow_odes),
                                           len(flows)),
        "chart.ode_steps_per_flow": _ratio(sum(i["steps"] for i in flow_odes),
                                           len(flows)),
        "chart.flow_ms_p50": _p50(durations("chart.geodesic_flow"), 1e3),
        "chart.log_ms_p50": _p50(durations("chart.log_shooting"), 1e3),
        "chart.transport_ode_ms_p50": _p50(durations("chart.transport_ode"), 1e3),
        "chart.curvature_ms_per_op": _ratio(1e3 * sum(
            dur[sid] for name in CURVATURE for sid in by_name[name]
            if not under_curv[sid]), n_ops),
        "chart.christoffel_time_share": _ratio(christoffel_secs, op_total),
        "chart.time_share": _ratio(sum(
            dur[sid] for sid, s in enumerate(spans)
            if s.name.startswith("chart.") and not under_chart[sid]), op_total),
        "ladders.step_ms_p50": _p50(durations("ladders.ladder_step"), 1e3),
        "ladders.rung_ms_p50": _p50([dur[sid] / n_rungs for sid in transports], 1e3),
        "ladders.exp_calls_per_rung": _ratio(count("core.exp", under_transport), rungs),
        "ladders.log_calls_per_rung": _ratio(log_count(under_transport), rungs),
        "ladders.exp_calls_per_step": _ratio(count("core.exp", under_step),
                                             len(steps)),
        "ladders.log_calls_per_step": _ratio(log_count(under_step), len(steps)),
        "core.exp_us_p50": _p50(durations("core.exp"), 1e6),
        "core.log_us_p50": _p50(durations("core.log"), 1e6),
        "core.transport_us_p50": _p50(durations("core.transport"), 1e6),
        "core.time_share": _ratio(sum(
            self_t[sid] for sid, s in enumerate(spans)
            if s.name.startswith("core.")), op_total),
        "analysis.measured_ms_p50": _p50(
            durations("analysis.pole_error_measured"), 1e3),
        "analysis.predicted_ms_p50": _p50(
            durations("analysis.pole_error_predicted"), 1e3),
        "analysis.oracle_time_share": _ratio(sum(durations(
            "core.transport",
            lambda sid: not under_ladder[sid] and not under_core[sid])), op_total),
    }
    for name in SYMMETRIC_FLEET:
        out[f"manifolds.{name}.op_ms_p50"] = _p50(
            [dur[sid] for sid in by_name["manifolds.trial"]
             if spans[sid].tag == name], 1e3)

    summary = {name: (len(sids), sum(dur[sid] for sid in sids),
                      sum(self_t[sid] for sid in sids))
               for name, sids in by_name.items() if sids}
    if christoffel_calls:
        summary["chart.christoffel"] = (christoffel_calls, christoffel_secs,
                                        christoffel_secs)
    return out, summary
