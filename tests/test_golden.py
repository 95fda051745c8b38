"""The CLI's output, bit for bit: the 23 runs of ``golden/cli_runs.py``
against the bytes kept in ``golden/cli_runs.txt``.

The runs are made in one child process under ``cli_runs.pinned_env()``.
Where the child's platform line (machine, numpy, OpenBLAS build and core,
C library) is the one recorded with the golden bytes, the outputs must be
byte-identical.  Anywhere else the kernels cannot be pinned to the ones
that made the bytes, so the test compares every number to 1e-12 relative
instead and says why in a ``GoldenBytesNotCompared`` warning.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

from golden import cli_runs

# a number in the runs' text: a CSV cell, a coordinate, a comment's value
_NUMBER = re.compile(
    r"(?<![\w.+-])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
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
                x, y = float(a), float(b)
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


def _golden():
    header, text = cli_runs.GOLDEN_FILE.read_bytes().decode("utf-8").split(
        "\n", 1)
    return header.removeprefix("# "), text


def test_cli_runs_match_their_golden_bytes():
    # the child imports the package from where this process does
    env = dict(cli_runs.pinned_env(), PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, cli_runs.__file__],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    platform, want = _golden()
    moved = _moved(got["text"], want)
    if got["platform"] == platform:
        assert not moved, f"runs whose bytes moved (largest relative " \
            f"change): {moved}; regenerate with tests/golden/cli_runs.py " \
            f"--write only if the change is meant"
        return
    warnings.warn(GoldenBytesNotCompared(
        f"compared to {_REL_TOL:g} relative, not byte for byte: the runs "
        f"were made on '{got['platform']}' and the golden bytes on "
        f"'{platform}'"))
    assert [m for m in moved if not m[1] <= _REL_TOL] == []


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
