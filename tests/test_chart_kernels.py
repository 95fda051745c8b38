"""The chart engine's generated kernels against the hand-written loop they
replace (``loop_reference``): the same states and step counts to the bit,
and the same errors with the same evidence.  On conformal charts the
generated step attempts write each stage's derivative out, where the loop
calls the hand-written right-hand side."""

import math
import re
import traceback

import numpy as np
import pytest

import loop_reference
from geoladders import (
    ChartConnection,
    DomainEscape,
    MaxStepsExceeded,
    NonFinite,
    ToleranceConfig,
    geodesic_flow,
    log_shooting,
    make_chart,
    transport_ode,
)
from geoladders import chart
from geoladders.core import _dot
from test_golden import _compensated_sum


def _evidence(err):
    return (type(err), str(err), getattr(err, "t", None),
            getattr(err, "accepted", None), getattr(err, "rejected", None))


def _reference_kernel(conn, vectors, jacobi):
    """The kernel of the geodesic carrying ``vectors`` vectors or, with
    ``jacobi``, of the 2-d Jacobi seed, which only a 2-d connection with
    ``grad_f`` and ``hess_f`` has, on the hand-written right-hand sides;
    the reference loop calls no step attempt."""
    d = conn.dim
    if jacobi:
        if d != 2 or conn.grad_f is None or conn.hess_f is None:
            return None
        return chart._Kernel(loop_reference.conformal_rhs(conn, True), None,
                             2 * d)
    rhs = (loop_reference.symbol_rhs(conn) if conn.grad_f is None
           else loop_reference.conformal_rhs(conn))
    return chart._Kernel(rhs, None, (2 + vectors) * d)


def _solves(monkeypatch, run, reference):
    """Every step loop that run() makes, as its state in float hex and its
    numbers of accepted and rejected steps, or as its error's evidence,
    followed by the evidence of the error run() raised, if any: on the
    generated kernels, or with ``reference`` on the hand-written ones."""
    solves = []
    with monkeypatch.context() as m:
        step_loop = chart._dop853
        if reference:
            step_loop = loop_reference.dop853
            # a connection binds each of its kernels once, on first use:
            # here every flow binds its kernel anew, on the hand-written
            # right-hand sides
            for name, shape in (("_geodesic", (0, False)),
                                ("_transport", (1, False)),
                                ("_jacobi", (0, True))):
                m.setattr(ChartConnection, name, property(
                    lambda conn, shape=shape: _reference_kernel(conn, *shape)))

        def recorded(*args):
            try:
                z, accepted, rejected = step_loop(*args)
            except Exception as err:
                solves.append(_evidence(err))
                raise
            solves.append(([c.hex() for c in z], accepted, rejected))
            return z, accepted, rejected

        m.setattr(chart, "_dop853", recorded)
        try:
            run()
        except Exception as err:
            solves.append(_evidence(err))
    return solves


def _same_as_reference(monkeypatch, run):
    generated = _solves(monkeypatch, run, False)
    assert generated == _solves(monkeypatch, run, True)
    return generated


_X, _V, _U, _Y = [0.3, 0.1], [0.2, -0.1], [0.0, 1.0], [0.6, -0.2]
# the integrator's relative and absolute tolerances at the defaults
_ODE_TOL = (ToleranceConfig().ode_rel_tol, ToleranceConfig().ode_abs_tol)


@pytest.mark.parametrize(
    "name", ["bump2d", "sphere2-stereographic", "hyperbolic2-ball"])
def test_conformal_flows_match_the_loop_bit_for_bit(name, monkeypatch):
    # plain, transport and Jacobi flows, and a log, which runs the Jacobi
    # seed at its looser tolerance and then plain flows
    conn = make_chart(name)
    runs = [lambda: geodesic_flow(conn, _X, _V),
            lambda: transport_ode(conn, _U, _X, _V),
            lambda: chart._jacobi_flow(conn, np.array(_X), np.array(_V),
                                       *_ODE_TOL),
            lambda: log_shooting(conn, _X, _Y)]
    for run in runs:
        solves = _same_as_reference(monkeypatch, run)
        assert solves and all(len(s) == 3 for s in solves)


@pytest.mark.parametrize("name", ["flat-3", "so3-rotvec"])
def test_symbol_flows_match_the_loop_bit_for_bit(name, monkeypatch):
    # the generated numpy contraction and stages against the hand-written
    # ones, at state sizes 6 and 9
    conn = make_chart(name)
    x, v, u = [0.3, 0.1, -0.2], [0.2, -0.1, 0.4], [0.0, 1.0, 0.5]
    for run in (lambda: geodesic_flow(conn, x, v),
                lambda: transport_ode(conn, u, x, v),
                lambda: log_shooting(conn, x, [0.5, 0.2, 0.1])):
        solves = _same_as_reference(monkeypatch, run)
        assert solves and all(len(s) == 3 for s in solves)


def test_flow_that_rejects_steps_matches_the_loop(bump, monkeypatch):
    [(_, accepted, rejected)] = _same_as_reference(
        monkeypatch, lambda: geodesic_flow(bump.conn, [0.0, 0.0], [0.4, 0.3]))
    assert (accepted, rejected) == (6, 2)


def _beyond(wall, error, value):
    """A conformal factor gradient, flat up to x_0 = wall, that raises
    ``error`` or returns ``value`` beyond it."""
    def grad_f(x):
        if x[0] > wall:
            if error is not None:
                raise error("beyond the wall")
            return [value, 0.0]
        return [0.0, 0.0]
    return grad_f


def _ends_in(solves, error, match):
    kind, message, *_ = solves[-1]
    assert kind is error and match in message


def test_box_escape_matches_the_loop(monkeypatch):
    # on a chart with only symbols and on a conformal one, whose stages
    # write the derivative out
    for conn, x, v in [
            (ChartConnection(2, lambda x: np.zeros((2, 2, 2)),
                             chart_bounds=(np.full(2, -1.0), np.full(2, 1.0))),
             [0.5, 0.0], [1.0, 0.0]),
            (make_chart("bump2d"), [1.5, 0.0], [2.0, 0.5])]:
        solves = _same_as_reference(monkeypatch,
                                    lambda: geodesic_flow(conn, x, v))
        _ends_in(solves, DomainEscape, "left the chart bounds")


def test_interior_escape_matches_the_loop(monkeypatch):
    conn = make_chart("hyperbolic2-ball")
    solves = _same_as_reference(
        monkeypatch, lambda: geodesic_flow(conn, [0.0, 0.0], [8.5, 8.5]))
    _ends_in(solves, DomainEscape, "left the chart's interior")


def test_domain_escapes_inside_a_step_match_the_loop(monkeypatch):
    # stages past a wall that raises DomainEscape reject their steps until
    # the flow stalls at the wall; stages near the stereographic chart's
    # point at infinity reject theirs until the step size underflows
    wall = ChartConnection.conformal(2, _beyond(0.5, DomainEscape, None))
    solves = _same_as_reference(
        monkeypatch, lambda: geodesic_flow(wall, [0.5 - 1e-12, 0.0],
                                           [1e-3, 0.0]))
    _ends_in(solves, DomainEscape, "stalled")
    sphere = make_chart("sphere2-stereographic")
    solves = _same_as_reference(
        monkeypatch, lambda: geodesic_flow(sphere, [0.0, 0.0], [3.0, 0.0]))
    _ends_in(solves, DomainEscape, "step size")


def test_non_finite_at_a_finite_stage_matches_the_loop(monkeypatch):
    # the gradient is NaN past x_0 = 0.4, which a stage of the first step
    # reaches at a finite state: the error is the connection's, raised
    conn = ChartConnection.conformal(2, _beyond(0.4, None, math.nan))
    for run in (lambda: geodesic_flow(conn, _X, _V),
                lambda: transport_ode(conn, _U, _X, _V)):
        _ends_in(_same_as_reference(monkeypatch, run), NonFinite,
                 "gradient is not finite")
    # and the Jacobi flow's Hessian, read through ChartConnection._hessian
    conn = ChartConnection.conformal(
        2, lambda x: [0.0, 0.0], hess_f=lambda x: [
            [math.nan if x[0] > 0.4 else 0.0, 0.0], [0.0, 0.0]])
    solves = _same_as_reference(
        monkeypatch, lambda: chart._jacobi_flow(
            conn, np.array(_X), np.array(_V), *_ODE_TOL))
    _ends_in(solves, NonFinite, "Hessian is not finite")


def test_step_budget_matches_the_loop(bump, monkeypatch):
    monkeypatch.setattr(chart, "_MAX_STEPS", 5)
    solves = _same_as_reference(
        monkeypatch, lambda: geodesic_flow(bump.conn, [0.0, 0.0], [0.4, 0.3]))
    _ends_in(solves, MaxStepsExceeded, "budget of 5 steps")
    assert solves[-1][3:] == (3, 2)
    solves = _same_as_reference(
        monkeypatch, lambda: transport_ode(bump.conn, _U, [0.0, 0.0],
                                           [0.4, 0.3]))
    _ends_in(solves, MaxStepsExceeded, "budget of 5 steps")


def test_traceback_shows_the_generated_line():
    # the generated stages are registered with linecache under names that
    # give their shape, so a traceback quotes the stage that raised or, on
    # a conformal chart, whose derivative is written out in the stages, the
    # check that raised
    symbols = ChartConnection(2, lambda x: np.full(
        (2, 2, 2), math.nan if x[0] > 0.4 else 0.0))
    with pytest.raises(NonFinite) as info:
        transport_ode(symbols, _U, _X, _V)
    text = "".join(traceback.format_exception(info.value))
    stage = re.search(r'File "<chart kernel dim=2 vectors=1>", line \d+, '
                      r"in stages\n +(.*)\n", text)
    assert re.fullmatch(r"k(\d+)_0, (k\1_\d, ){4}k\1_5 = rhs\(y\)",
                        stage[1])
    conn = ChartConnection.conformal(2, _beyond(0.4, None, math.nan))
    with pytest.raises(NonFinite) as info:
        transport_ode(conn, _U, _X, _V)
    text = "".join(traceback.format_exception(info.value))
    assert re.search(r'File "<chart conformal kernel dim=2 vectors=1>", '
                     r"line \d+, in stages\n +raise NonFinite\(\n", text)


def _three_dimensional_conformal():
    def grad_f(x):
        s = 1.0 + sum(xi * xi for xi in x)
        return [-2.0 * xi / s for xi in x]
    return ChartConnection.conformal(3, grad_f)


def _left_to_right_sum(values, start=0):
    """sum() before Python 3.12: a left-to-right sum, as the generated
    dot products are."""
    total = float(start)
    for x in values:
        total += x
    return total


def test_three_dimensional_conformal_flows_match_the_loop_bit_for_bit(
        monkeypatch):
    # the fused stages of a 3-d conformal chart, with 0 and 1 carried
    # vectors, and its log, which starts from the first-order seed; the
    # reference sums its dot products left to right, on every version
    monkeypatch.setattr(loop_reference, "sum", _left_to_right_sum,
                        raising=False)
    conn = _three_dimensional_conformal()
    x, v, u = [0.3, 0.1, -0.2], [0.2, -0.1, 0.4], [0.0, 1.0, 0.5]
    for run in (lambda: geodesic_flow(conn, x, v),
                lambda: transport_ode(conn, u, x, v),
                lambda: log_shooting(conn, x, [0.5, 0.2, 0.1])):
        solves = _same_as_reference(monkeypatch, run)
        assert solves and all(len(s) == 3 for s in solves)


def test_three_dimensional_conformal_rhs_sums_left_to_right(monkeypatch):
    # each dot product is core._dot's left-to-right sum from 0.0, on every
    # Python version; the loop's sum() is Neumaier's compensated sum from
    # Python 3.12 on, which rounds otherwise on some of these draws
    conn = _three_dimensional_conformal()
    rhs = chart._kernel(conn, 1, False).rhs
    monkeypatch.setattr(loop_reference, "sum", _compensated_sum,
                        raising=False)
    compensated = loop_reference.conformal_rhs(conn)
    rng = np.random.default_rng(21)
    differs = 0
    for _ in range(200):
        z = np.concatenate([rng.uniform(-0.5, 0.5, 3),
                            rng.standard_normal(6)]).tolist()
        x, v, w = z[:3], z[3:6], z[6:]
        f = conn.grad_f(x)
        fv, vv, fw, vw = _dot(f, v), _dot(v, v), _dot(f, w), _dot(v, w)
        want = [*v, *(-(fv * vi + fv * vi - vv * fi)
                      for vi, fi in zip(v, f)),
                *(-(fv * wi + fw * vi - vw * fi)
                  for wi, vi, fi in zip(w, v, f))]
        assert [c.hex() for c in rhs(z)] == [c.hex() for c in want]
        differs += compensated(z) != want
    assert differs > 0
