"""The CLI's output, bit for bit: the 23 runs of ``golden/cli_runs.py``
against the bytes kept in ``golden/cli_runs.txt``, and the chart engine's
runs of ``golden/engine_runs.py`` against ``golden/engine_runs.txt``.

The runs are made in one child process under ``cli_runs.pinned_env()``.
Where the child's platform line (machine, numpy, OpenBLAS build and core,
C library) is the one recorded with the golden bytes, the outputs must be
byte-identical.  Anywhere else the kernels cannot be pinned to the ones
that made the bytes, so the test compares every number to 1e-12 relative
instead and says why in a ``GoldenBytesNotCompared`` warning.  Two more
tests hold the ``bump2d`` runs to their bytes under another OpenBLAS kernel
and under the compensated ``sum()`` of Python 3.12 and later.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

from geoladders import chart, core
from geoladders.cli import main
from golden import cli_runs, engine_runs

# a number in the runs' text: a CSV cell, a coordinate, a comment's value,
# or a float in hex
_NUMBER = re.compile(
    r"(?<![\w.+-])[-+]?(?:0x[\da-f]+\.?[\da-f]*p[-+]\d+"
    r"|\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
_REL_TOL = 1e-12
# numbers up to this size are round-off themselves, such as the fleet's
# exactness and oracle errors, and are not compared; the smallest other
# number in the runs is 6.4e-10
_ROUND_OFF = 1e-12


class GoldenBytesNotCompared(Warning):
    """The golden runs were compared number by number, not byte for byte."""


def _runs(text):
    """Run header line -> the run's output."""
    chunks = re.split(r"^==> ", text, flags=re.M)[1:]
    return dict(chunk.split("\n", 1) for chunk in chunks)


def _moved(got, want):
    """For every run whose bytes differ: its header and the largest
    relative change of a number, or inf if the text around them differs."""
    moved = []
    got_runs = _runs(got)
    for header, body in _runs(want).items():
        mine = got_runs.get(header)
        if mine == body:
            continue
        change = math.inf
        if mine is not None and _NUMBER.sub("#", mine) == _NUMBER.sub("#", body):
            change = 0.0
            for a, b in zip(_NUMBER.findall(mine), _NUMBER.findall(body)):
                x, y = _float(a), _float(b)
                size = max(abs(x), abs(y))
                if x == y or math.isnan(x) and math.isnan(y):
                    continue
                if math.isnan(x) or math.isnan(y) or math.isinf(size):
                    change = math.inf
                elif size > _ROUND_OFF:
                    change = max(change, abs(x - y) / size)
        moved.append((header, change))
    return moved + [(header, math.inf) for header in got_runs.keys()
                    - _runs(want).keys()]


def _float(text):
    return float.fromhex(text) if "x" in text else float(text)


def _golden(runs=cli_runs):
    header, text = runs.GOLDEN_FILE.read_bytes().decode("utf-8").split(
        "\n", 1)
    return header.removeprefix("# "), text


def _match_golden(runs):
    """The runs of the golden module ``runs``, made in a child process
    under the pinned environment, against its golden file."""
    # the child imports the package from where this process does
    env = dict(cli_runs.pinned_env(), PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, runs.__file__],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    platform, want = _golden(runs)
    moved = _moved(got["text"], want)
    if got["platform"] == platform:
        assert not moved, f"runs whose bytes moved (largest relative " \
            f"change): {moved}; regenerate with {runs.__file__} --write " \
            f"only if the change is meant"
        return
    warnings.warn(GoldenBytesNotCompared(
        f"compared to {_REL_TOL:g} relative, not byte for byte: the runs "
        f"were made on '{got['platform']}' and the golden bytes on "
        f"'{platform}'"))
    assert [m for m in moved if not m[1] <= _REL_TOL] == []


def test_cli_runs_match_their_golden_bytes():
    _match_golden(cli_runs)


def test_engine_runs_match_their_golden_bytes():
    # every step loop's state and step counts, and every flow's, transport's
    # and log's result, on the six built-in charts
    _match_golden(engine_runs)


def test_golden_comparison_passes_round_off_and_nothing_more():
    _, want = _golden()
    assert _moved(want, want) == []
    error = "0.0011020069401534804"  # pole_v2's convergence error at h = 0.2
    assert want.count(error) == 1

    def moved_by(factor):
        return _moved(want.replace(error, repr(float(error) * factor)), want)

    (header, change), = moved_by(1.0 + 4e-13)
    assert header.startswith("geoladders convergence") and change < _REL_TOL
    assert moved_by(1.0 + 4e-12)[0][1] > _REL_TOL
    # the text around the numbers is compared as it is
    renamed = want.replace("# fitted_slope=3.986266", "# slope=3.986266", 1)
    assert [change for _, change in _moved(renamed, want)] == [math.inf]


def test_golden_comparison_reads_floats_in_hex():
    _, want = _golden(engine_runs)
    assert _moved(want, want) == []
    # the first coordinate of the first flow's endpoint, twice in its run
    value = want.split("\n", 2)[1].split()[1]
    assert want.count(value) == 2

    def moved_by(factor):
        return _moved(want.replace(value, (_float(value) * factor).hex()),
                      want)

    (header, change), = moved_by(1.0 + 4e-13)
    assert header.startswith("flow bump2d") and change < _REL_TOL
    assert moved_by(1.0 + 4e-12)[0][1] > _REL_TOL


# the core that OpenBLAS 0.3.31 names when pinned to Prescott
_PINNED_CORE = "Katmai"
_RENDER_CHILD = """
import json
from golden import cli_runs
print(json.dumps({"platform": cli_runs.platform_line(),
                  "text": cli_runs.render_runs()}))
"""


def test_bump2d_runs_are_the_golden_bytes_under_the_haswell_kernel():
    # the chart engine's norms, sums, fits and Broyden products are Python
    # floats, so the bump2d runs do not depend on the OpenBLAS kernel; the
    # fleet's closed forms call BLAS, and their runs may move
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = set(fh.read().split())
    except OSError:
        flags = set()
    if not {"avx2", "fma"} <= flags:
        pytest.skip("/proc/cpuinfo lists no avx2 and fma: no Haswell kernel")
    env = dict(cli_runs.pinned_env(), OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", _RENDER_CHILD],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    platform, want = _golden()
    if got["platform"] != platform.replace(f" {_PINNED_CORE} ", " Haswell "):
        pytest.skip(f"the golden bytes were made on '{platform}', the Haswell "
                    f"runs on '{got['platform']}'")
    assert [m for m in _moved(got["text"], want) if "bump2d" in m[0]] == []


def _compensated_sum(values, start=0):
    """sum() of Python 3.12 and later on floats: Neumaier's compensated
    summation, which rounds otherwise than a left-to-right sum."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_bump2d_transport_does_not_depend_on_the_python_sum(monkeypatch,
                                                              capsys):
    # the golden platform line records no Python version: the engine's
    # norms and products sum left to right, and its two-term sums round
    # alike under both algorithms
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    argv = ["transport", "--manifold", "bump2d", "--seed", "7"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    for module in (core, chart):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
