"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest -q perfbench
"""

import importlib
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import geoladders as gl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# metrics that count work or record accuracy, as opposed to timing it
EXACT = [name for name, unit, _ in tracing.LAYER_METRICS
         if unit in ("count", "ratio") or name == "chart.log_failed_frac"]


@pytest.fixture(autouse=True)
def op_deadline():
    old = signal.signal(signal.SIGPROF, run._on_deadline)
    yield
    signal.signal(signal.SIGPROF, old)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_counters_and_accuracy(name):
    first = run.traced(name, 3, seconds=1)
    second = run.traced(name, 3, seconds=1)
    assert first[2] == second[2] and first[3] == second[3]
    assert {m: first[0][m][0] for m in EXACT} == {m: second[0][m][0] for m in EXACT}
    assert first[1]["problems"] == []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_any_integer_is_a_seed(name):
    args = run._parse(["--workload", name, "--seed", "-1"])
    assert args.seed == 2 ** 64 - 1
    workloads.make(name, args.seed).unit()


def test_nan_christoffel_counts_as_failed_ops():
    conn = gl.ChartConnection(2, lambda x: np.full((2, 2, 2), np.nan),
                              chart_bounds=(np.full(2, -2.0), np.full(2, 2.0)))
    space = gl.ChartSpace("nan-chart", conn, metric=lambda x: np.eye(2),
                          anchor=[0.3, 0.1])
    ph = run.run_phase(workloads.BumpSweep(0, space=space), units=1, deadline=0.5)
    assert ph.ops == len(workloads.SCALES)
    assert ph.failed / ph.ops > 0


def test_sweep_outside_criterion_2_is_recorded_not_failed():
    wl = workloads.BumpSweep(0)
    wl.errors = list(workloads.SCALES ** 3.5)
    assert wl.close_unit([True] * len(workloads.SCALES)) == [True] * 7
    acc = wl.accuracy()
    assert acc["criterion_2_sweeps_outside"] == 1
    assert acc["analysis.slope_min"] == pytest.approx(3.5)


def test_unexpected_exception_fails_the_op_not_the_run():
    assert run.run_op(lambda: 1 / 0) == (False, "ZeroDivisionError")


def test_traced_run_leaves_nothing_wrapped():
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _ in tracing.MODULE_PATCHES}
    tracer = tracing.Tracer()
    wl = workloads.make("bump-sweep", 0, wrap=tracer.wrap)
    space, conn = wl.space, wl.space.conn
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, wl.spaces().values()):
            assert tracing.leftover_wrappers()
            tracer.run_op(wl.unit()[-1])
            raise RuntimeError("leave the traced block early")
    assert tracer.christoffel and tracer.spans
    assert tracing.leftover_wrappers() == []
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    assert space.conn is conn
    assert not set(tracing.SPACE_METHODS) & set(vars(space))


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracing.LAYER_METRICS)
    metrics = run.timed("fleet-rungs", 0, seconds=0.0)[0]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == [(name, unit) for name, (_, unit, _) in metrics.items()]
