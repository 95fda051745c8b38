"""Benchmark of geoladders: one workload, one seed, one mode per invocation.

    python3 perfbench/run.py --workload bump-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet-rungs --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload fleet-exactness --seed 1 --check

Run from the root of a source tree; the package is imported from ``src/``
there and nowhere else.  Modes:

* ``--trace 0`` (timed): end-to-end metrics.  Ops run back to back, one
  client, one thread, each issued after the previous one finished, for
  ``--seconds`` seconds and at least 100 ops, ending on a unit boundary.
* ``--trace 1`` (traced): per-layer metrics.  A fixed number of units runs
  once untraced and once traced (so two runs with one seed do identical
  work), then one CLI command; spans go to ``perfbench/out/``.
* ``--check`` (untimed): a few units and their output checks only.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A timed or traced run that gets that far exits
0 and reports failed ops there; ``--check`` exits 1 when an output check
failed.  The exit code is 2 when there is no program to measure.

Only per-process tools are used: ``time.perf_counter``,
``time.process_time``, ``resource.getrusage`` and a per-process CPU-time
interval timer for the op deadline.  Any integer is a valid seed; seeds
are taken modulo 2**64.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bump-sweep", "fleet-exactness", "fleet-rungs")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_OPS = 100           # so that at least 10 samples lie beyond p90
MAX_RUN_FACTOR = 3.0    # a timed phase stops at this multiple of --seconds
OP_DEADLINE_S = 10.0    # an op that used this much CPU time has failed
SEED_MODULUS = 2 ** 64  # numpy seeds must be non-negative
SETUP_SAMPLES = 5
CAL_REPS = 50
CAL_REF_S = 250e-6      # the calibration on an unloaded 2-core Xeon VM
# traced runs replay a fixed number of units: about half of --seconds each
# way for bump-sweep, fewer for the fleets to bound the spans kept in memory
TRACE_UNITS_PER_S = {"bump-sweep": 0.25, "fleet-exactness": 12.0,
                     "fleet-rungs": 4.0}
CHECK_UNITS = {"bump-sweep": 1, "fleet-exactness": 25, "fleet-rungs": 25}
CLI_ARGS = {"bump-sweep": ("cli.convergence_s",
                           ["convergence", "--manifold", "bump2d"]),
            "fleet-exactness": ("cli.exactness_s", ["exactness"])}
MEASUREMENT = ("per-process tools only (time.perf_counter, time.process_time, "
               "resource.getrusage, a CPU-time setitimer for the op deadline); "
               "no system tracing, no cache dropping, no kernel or cgroup "
               "settings")


class OpTimeout(Exception):
    """An op used more than OP_DEADLINE_S of CPU time."""


def _on_deadline(signum, frame):
    raise OpTimeout(f"op exceeded its {OP_DEADLINE_S:g} s CPU-time deadline")


def pin_threads():
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import geoladders from ROOT/src, refusing any other copy."""
    pkg = ROOT / "src" / "geoladders"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no geoladders package at {pkg}", file=sys.stderr)
        raise SystemExit(2)
    if str(pkg.parent) not in sys.path:
        sys.path.insert(0, str(pkg.parent))
    import geoladders
    if Path(geoladders.__file__).resolve().parent != pkg:
        print(f"perfbench: geoladders imported from {geoladders.__file__}, "
              f"not {pkg}", file=sys.stderr)
        raise SystemExit(2)
    return geoladders


_reported = set()


def run_op(op, deadline=OP_DEADLINE_S):
    """Run one op under a deadline; returns (passed its check, failure kind).

    The deadline counts the process's CPU time, not wall time, so a busy
    host cannot make an op fail.  Any exception fails the op instead of
    ending the run; the first traceback of each unexpected kind goes to
    standard error.
    """
    from geoladders import GeometryError
    signal.setitimer(signal.ITIMER_PROF, deadline)
    try:
        return bool(op()), None
    except Exception as err:
        kind = type(err).__name__
        if not isinstance(err, (GeometryError, OpTimeout)) and kind not in _reported:
            _reported.add(kind)
            traceback.print_exc()
        return False, kind
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)   # wall seconds per op
    speed: list = field(default_factory=list)       # calibration around each op
    wall: float = 0.0
    cpu: float = 0.0
    failed: int = 0
    units: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def ops(self):
        return len(self.latencies)

    def normalized(self):
        """Op times scaled to the reference machine speed (see calibrate)."""
        return [lat * CAL_REF_S / cal for lat, cal in zip(self.latencies, self.speed)]


def calibrate():
    """Seconds a fixed kernel of small numpy calls takes right now.

    The machine's speed swings by up to 2x within seconds, whatever runs on
    it, so each op's wall time is divided by the mean of the calibrations
    just before and just after it and multiplied by CAL_REF_S.
    """
    import numpy as np
    gam, vel = np.ones((2, 2, 2)), np.array([0.3, 0.1])
    t0 = perf_counter()
    for _ in range(CAL_REPS):
        np.concatenate([vel, np.einsum("kij,i,j->k", gam, vel, vel)])
    return perf_counter() - t0


def run_phase(wl, seconds=0.0, units=None, tracer=None, deadline=OP_DEADLINE_S):
    """Closed loop over the workload's units.

    With ``units`` set, runs exactly that many; otherwise runs until both
    ``seconds`` and MIN_OPS are reached (or MAX_RUN_FACTOR * seconds passed),
    always finishing the unit in progress.
    """
    ph = Phase()
    t_start, c_start = perf_counter(), process_time()
    before = calibrate()
    while True:
        oks, raised = [], 0
        for op in wl.unit():
            if tracer is not None:
                op = (lambda op=op: tracer.run_op(op))
            t0 = perf_counter()
            ok, why = run_op(op, deadline)
            ph.latencies.append(perf_counter() - t0)
            after = calibrate()
            ph.speed.append(0.5 * (before + after))
            before = after
            oks.append(ok)
            if why:
                ph.reasons[why] += 1
                raised += 1
        final = wl.close_unit(oks)
        ph.failed += final.count(False)
        ph.reasons["check"] += final.count(False) - raised
        ph.units += 1
        elapsed = perf_counter() - t_start
        if units is not None:
            if ph.units >= units:
                break
        elif (elapsed >= seconds and ph.ops >= MIN_OPS) \
                or elapsed >= MAX_RUN_FACTOR * seconds:
            break
    ph.wall = perf_counter() - t_start
    ph.cpu = process_time() - c_start
    if not ph.reasons["check"]:
        del ph.reasons["check"]
    return ph


def setup(name, seed):
    """Import the program, build the workload's spaces, run one warm-up op.

    Returns the workload module and the seconds this took.
    """
    t0 = perf_counter()
    import_program()
    import workloads
    warm = workloads.make(name, seed)
    run_op(warm.unit()[0])
    return workloads, perf_counter() - t0


def _calibration():
    return statistics.median(calibrate() for _ in range(3))


def setup_samples(name, seed):
    """Set-up times of SETUP_SAMPLES fresh processes as (wall, scaled) pairs.

    Each is scaled by the mean of a calibration taken here just before the
    process starts and one it takes just after its set-up.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = _calibration()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        raw, after = (float(x) for x in proc.stdout.split()[-2:])
        samples.append((raw, raw * CAL_REF_S / (0.5 * (before + after))))
    return samples


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(name, seed, seconds):
    workloads, _ = setup(name, seed)
    setup_s = setup_samples(name, seed)
    wl = workloads.make(name, seed)
    ph = run_phase(wl, seconds)
    lat, norm = ph.latencies, ph.normalized()
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_s), "s", len(setup_s)),
        "ops_per_s": (ph.ops / sum(norm), "1/s", ph.ops),
        "op_ms_p50": (1e3 * statistics.median(norm), "ms", ph.ops),
        "op_ms_p90": (1e3 * _quantile(norm, 90), "ms", ph.ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }
    notes = {"failed_frac": ph.failed / ph.ops,
             "wall_clock": {
                 "setup_s": statistics.median(r for r, _ in setup_s),
                 "ops_per_s": ph.ops / ph.wall,
                 "op_ms_p50": 1e3 * statistics.median(lat),
                 "op_ms_p90": 1e3 * _quantile(lat, 90)},
             "calibration_us_p10_p50_p90": [
                 1e6 * _quantile(ph.speed, q) for q in (10, 50, 90)],
             "cpu_per_wall": ph.cpu / ph.wall, "wall_s": ph.wall,
             "units": ph.units, "failures": dict(ph.reasons),
             "setup_samples_s": setup_s, **wl.accuracy()}
    if hasattr(wl, "excluded"):
        notes["excluded_trials"] = wl.excluded
    return metrics, notes, ph.ops, ph.failed


def run_cli(argv):
    """One in-process geoladders command; returns (exit code, seconds)."""
    from geoladders import cli
    sink = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
    return code, perf_counter() - t0


def traced(name, seed, seconds):
    """Per-layer metrics; returns (metrics, notes, attempted, failed, tracer)."""
    workloads, _ = setup(name, seed)
    import tracing
    n_units = max(1, round(seconds * TRACE_UNITS_PER_S[name]))
    plain = workloads.make(name, seed)
    base = run_phase(plain, units=n_units)
    tracer = tracing.Tracer()
    wl = workloads.make(name, seed, wrap=tracer.wrap)
    with tracing.installed(tracer, wl.spaces().values()):
        ph = run_phase(wl, units=n_units, tracer=tracer)
    layers, summary = tracing.layer_metrics(tracer, workloads.N_RUNGS)
    layers.update(wl.accuracy())
    attempted, failed = base.ops + ph.ops, base.failed + ph.failed
    problems = []
    if plain.accuracy() != wl.accuracy():
        problems.append("traced and untraced accuracy differ")
    if name in CLI_ARGS:
        metric, argv = CLI_ARGS[name]
        code, secs = run_cli(argv)
        layers[metric] = secs
        attempted += 1
        if code != 0:
            problems.append(f"geoladders {' '.join(argv)} exited {code}")
    leftover = tracing.leftover_wrappers()
    if leftover:
        problems.append(f"still wrapped: {leftover}")
    layers["trace_overhead_frac"] = sum(ph.normalized()) / sum(base.normalized()) - 1.0
    # accuracy and cli metrics of the other workloads read 0
    metrics = {m: (layers.get(m, 0.0), unit, ph.ops)
               for m, unit, _ in tracing.LAYER_METRICS}
    notes = {"units": n_units, "untraced_wall_s": base.wall,
             "traced_wall_s": ph.wall, "spans": len(tracer.spans),
             "failures": dict(base.reasons + ph.reasons),
             "not_wrapped": tracer.missing, "problems": problems,
             "span_summary": summary}
    return metrics, notes, attempted, failed + len(problems), tracer


def check(name, seed):
    workloads, _ = setup(name, seed)
    wl = workloads.make(name, seed)
    ph = run_phase(wl, units=CHECK_UNITS[name])
    metrics = {m: (v, "ratio", ph.ops) for m, v in wl.accuracy().items()}
    notes = {"failed_frac": ph.failed / ph.ops, "failures": dict(ph.reasons)}
    return metrics, notes, ph.ops, ph.failed


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(name, seed, mode, seconds):
    import numpy
    import scipy
    return {
        "workload": name, "seed": seed, "mode": mode, "seconds": seconds,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "measurement": MEASUREMENT,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="any integer; taken modulo 2**64")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="untimed: a few units and their output checks")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed %= SEED_MODULUS
    return args


def main(argv=None):
    args = _parse(argv)
    pin_threads()
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGPROF, _on_deadline)
    if args.setup_probe:
        print(setup(args.workload, args.seed)[1], _calibration())
        return 0
    mode = "check" if args.check else ("traced" if args.trace else "timed")
    tracer = None
    if mode == "check":
        metrics, notes, attempted, failed = check(args.workload, args.seed)
    elif mode == "timed":
        metrics, notes, attempted, failed = timed(args.workload, args.seed,
                                                  args.seconds)
    else:
        metrics, notes, attempted, failed, tracer = traced(
            args.workload, args.seed, args.seconds)
    record = run_record(args.workload, args.seed, mode, args.seconds)
    correct = failed == 0

    for name, (value, unit, samples) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:6s} n={samples}")
    summary = notes.pop("span_summary", None)
    if summary:
        print(f"{'span':36s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}")
        for span, (calls, total, self_s) in sorted(
                summary.items(), key=lambda kv: -kv[1][2]):
            print(f"{span:36s} {calls:9d} {1e3 * total:11.2f} {1e3 * self_s:11.2f}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    print("record: " + json.dumps(record))

    stem = f"{args.workload}-seed{args.seed}-{mode}"
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    try:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{stem}.json").write_text(json.dumps(
            {"record": record, "notes": notes, "result": result}, indent=1,
            default=str))
        if tracer is not None:
            tracer.dump(OUT / f"{stem}.spans.jsonl.gz", record)
    except OSError as err:
        print(f"perfbench: could not write {OUT}: {err}", file=sys.stderr)
    print(json.dumps(result))
    if not correct:
        print(f"perfbench: {failed} of {attempted} ops failed their checks: "
              f"{notes.get('failures')} {notes.get('problems', '')}",
              file=sys.stderr)
    return 1 if mode == "check" and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
