"""The golden CLI runs: 23 geoladders commands whose stdout, stderr and exit
codes are kept in ``cli_runs.txt`` and compared byte for byte by
``tests/test_golden.py``.

Their last bits depend on which machine code the libraries pick at load
time, so the runs are made under ``pinned_env()``: the OpenBLAS kernel is
pinned to Prescott, which every x86-64 CPU runs, and numpy's SIMD loops and
glibc's libm are kept off the AVX2, FMA and AVX-512 variants that change
how sin, cos, exp and log round.  The first line of ``cli_runs.txt`` names
the platform the runs were made on: the machine, the numpy version, the
OpenBLAS build with the core name it reported, and the C library.

    PYTHONPATH=src python tests/golden/cli_runs.py --write

regenerates ``cli_runs.txt``; the script runs itself again under
``pinned_env()`` when it is not pinned.  Without ``--write`` it prints the
platform line and the rendered runs as one JSON object.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

GOLDEN_FILE = Path(__file__).with_name("cli_runs.txt")
# with NPY_DISABLE_CPU_FEATURES, which names the features numpy dispatches
PINNED = {"OPENBLAS_CORETYPE": "Prescott",
          "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}

RUNS = (
    [["exactness", "--trials", "30", "--seed", "3"]]
    + [["convergence", "--manifold", "bump2d", "--seed", "11", "--scheme", kind]
       for kind in ("pole_v1", "pole_v2", "pole_alt", "pole_avg", "schild")]
    + [["convergence", "--manifold", "bump2d", "--seed", "11",
        "--n-rungs", "2"],
       ["bch-check", "--manifold", "bump2d", "--seed", "11"]]
    + [["transport", "--manifold", name, "--seed", "7", "--n-rungs", rungs]
       for name in ("sphere-2", "hyperbolic-2", "spd-3", "so3", "bump2d")
       for rungs in ("1", "4", "16")]
)


def pinned_env():
    """os.environ with the variables that pin the libraries' machine code;
    they act on the process started with them, which loads numpy anew."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    # numpy skips the names of features this CPU lacks
    return dict(os.environ, **PINNED,
                NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))


def openblas_config():
    """The build line of the OpenBLAS that numpy loaded, with the core name
    it runs, or None where numpy's BLAS is not an OpenBLAS that says so."""
    import numpy  # noqa: F401  (loads the BLAS)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_",
                       "scipy_openblas_get_config", "openblas_get_config"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_char_p
                return " ".join(getter().decode().split())
    return None


def platform_line():
    import numpy
    return "; ".join([platform.machine(), f"numpy {numpy.__version__}",
                      openblas_config() or "BLAS not OpenBLAS",
                      " ".join(platform.libc_ver()) or "libc unknown"])


def render_runs():
    """Every run in this process, each as a header line with its command
    and exit code, then its stdout, then its stderr if any."""
    from geoladders.cli import main
    parts = []
    for argv in RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append(f"==> geoladders {' '.join(argv)} (exit {code})\n")
        parts.append(out.getvalue())
        if err.getvalue():
            parts.append("--- stderr\n" + err.getvalue())
    return "".join(parts)


def main(argv, script=__file__, golden_file=GOLDEN_FILE, render=render_runs):
    """Print or, with ``--write``, write the runs that ``render`` makes, in
    a process under ``pinned_env()``: ``script`` runs itself again under it
    when this one is not pinned."""
    if ("NPY_DISABLE_CPU_FEATURES" not in os.environ
            or any(os.environ.get(k) != v for k, v in PINNED.items())):
        return subprocess.call([sys.executable, script, *argv],
                               env=pinned_env())
    line = platform_line()
    if "--write" not in argv:
        print(json.dumps({"platform": line, "text": render()}))
        return 0
    if platform.machine() not in ("x86_64", "AMD64") or "OpenBLAS" not in line:
        print(f"{Path(script).stem}: not writing {golden_file}: the BLAS "
              f"kernel cannot be pinned on {line}", file=sys.stderr)
        return 1
    golden_file.write_bytes(f"# {line}\n{render()}".encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
