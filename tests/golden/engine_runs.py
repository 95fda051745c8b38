"""The chart engine's golden runs: flows, transports and logs on six
built-in charts, kept in ``engine_runs.txt`` and compared by
``tests/test_golden.py`` under the platform rule of the CLI runs: byte for
byte where the platform line matches, to 1e-12 relative elsewhere.

Each run writes, in float hex, every step loop it made, as the state the
loop returned and its numbers of accepted and rejected steps, and then its
result: the endpoint and velocity of a flow, the vector, endpoint and
velocity of a transport, the vector and iteration count of a log, or the
type, message and evidence of the error it raised.  The runs cover
rejected steps (the first step of almost every flow is rejected), a log
whose line search takes trials that leave the chart, a log whose line
search finds no decrease, a box and an interior escape, and logs at a
looser tolerance than the default.

    PYTHONPATH=src python tests/golden/engine_runs.py --write

regenerates ``engine_runs.txt`` under ``cli_runs.pinned_env()``; without
``--write`` the script prints the platform line and the rendered runs as
one JSON object.
"""

import sys
from pathlib import Path

try:
    from golden import cli_runs
except ImportError:  # run as a script, whose directory is on sys.path
    import cli_runs

GOLDEN_FILE = Path(__file__).with_name("engine_runs.txt")

_X2, _V2, _U2, _Y2 = (0.3, 0.1), (0.2, -0.1), (0.0, 1.0), (0.6, -0.2)
_X3, _V3, _U3, _Y3 = ((0.3, 0.1, -0.2), (0.2, -0.1, 0.4), (0.0, 1.0, 0.5),
                      (0.5, 0.2, 0.1))
# (p11, p12, p22) of positive-definite matrices
_SPD = ((1.0, 0.2, 0.8), (0.3, -0.1, 0.2), (0.1, 0.5, -0.2), (1.4, -0.1, 0.6))
_LOOSE = {"ode_rel_tol": 1e-10}

# (kind, chart, arguments, ToleranceConfig fields)
RUNS = (
    [(kind, name, args, {})
     for name, (x, v, u, y) in [("bump2d", (_X2, _V2, _U2, _Y2)),
                                ("sphere2-stereographic", (_X2, _V2, _U2, _Y2)),
                                ("hyperbolic2-ball", (_X2, _V2, _U2, _Y2)),
                                ("flat-3", (_X3, _V3, _U3, _Y3)),
                                ("so3-rotvec", (_X3, _V3, _U3, _Y3)),
                                ("spd2-entries", _SPD)]
     for kind, args in [("flow", (x, v)), ("transport", (u, x, v)),
                        ("log", (x, y))]]
    + [
        # two rejected steps, the first step's among them
        ("flow", "bump2d", ((0.0, 0.0), (0.4, 0.3)), {}),
        ("transport", "bump2d", ((0.1, -0.3), (-0.5, 0.2), (1.2, 0.1)), {}),
        ("flow", "bump2d", ((1.5, 0.0), (2.0, 0.5)), {}),
        ("flow", "hyperbolic2-ball", ((0.0, 0.0), (8.5, 8.5)), {}),
        ("flow", "sphere2-stereographic", ((0.1, 0.1), (0.0, 1.5)), {}),
        # a first trial far past the target, and a line search whose
        # trials leave the chart
        ("log", "sphere2-stereographic", ((0.0, 0.0), (1.5, 0.0)), {}),
        ("log", "bump2d", ((0.3797, -0.4358), (0.9129, 1.4111)), {}),
        # a line search with no decrease
        ("log", "sphere2-stereographic",
         ((0.3797, -0.4358), (0.9129, 1.4111)), {}),
        ("log", "bump2d", ((0.3977, 0.3442), (-1.4433, -0.9049)), {}),
        ("log", "hyperbolic2-ball", ((-0.6, 0.3), (0.5, 0.4)), {}),
        ("log", "bump2d", (_X2, _Y2), _LOOSE),
        ("log", "so3-rotvec", (_X3, _Y3), _LOOSE),
        ("log", "bump2d", (_X2, _X2), {}),
    ]
)


def _hex(values):
    return " ".join(float(c).hex() for c in values)


def _evidence(err):
    fields = [f"error {type(err).__name__} {str(err)!r}"]
    for name in ("t", "residual"):
        if getattr(err, name, None) is not None:
            fields.append(f"{name} {float(getattr(err, name)).hex()}")
    for name in ("accepted", "rejected"):
        if getattr(err, name, None) is not None:
            fields.append(f"{name} {getattr(err, name)}")
    return " ".join(fields)


def render_runs():
    """Every run in this process, each as a header line with its call, then
    one line per step loop and one for its result or error."""
    from geoladders import (GeometryError, ToleranceConfig, chart,
                            make_chart)
    step_loop, lines = chart._dop853, []

    def recorded(*args):
        try:
            z, accepted, rejected = step_loop(*args)
        except GeometryError as err:
            lines.append(f"solve {_evidence(err)}\n")
            raise
        lines.append(f"solve {_hex(z)} accepted {accepted} "
                     f"rejected {rejected}\n")
        return z, accepted, rejected

    calls = {"flow": lambda *a: chart.geodesic_flow(*a, 1.0, tol),
             "transport": lambda *a: chart.transport_ode(*a, 1.0, tol),
             "log": lambda *a: chart.log_shooting(*a, tol)}
    chart._dop853 = recorded
    try:
        for kind, name, args, fields in RUNS:
            tol = ToleranceConfig(**fields)
            lines.append(f"==> {kind} {name} {args} {fields}\n")
            try:
                out = calls[kind](make_chart(name), *args)
            except GeometryError as err:
                lines.append(f"{_evidence(err)}\n")
                continue
            if kind == "log":
                lines.append(f"v {_hex(out[0])} iterations {out[1]}\n")
            else:
                lines.append(" | ".join(_hex(a) for a in out) + "\n")
    finally:
        chart._dop853 = step_loop
    return "".join(lines)


def main(argv):
    return cli_runs.main(argv, __file__, GOLDEN_FILE, render_runs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
