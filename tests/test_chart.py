import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from geoladders import (
    ChartConnection,
    ChartSpace,
    DomainEscape,
    MaxStepsExceeded,
    NoConvergence,
    NonFinite,
    ToleranceConfig,
    christoffels_from_metric,
    curvature_components,
    geodesic_flow,
    log_shooting,
    make_chart,
    make_space,
    nabla_curvature_components,
    pole_error_measured,
    pole_error_predicted,
    transport_ode,
)
from geoladders import chart
from geoladders.manifolds import _hat, _rodrigues, _so3_rotation_vector_chart
from helpers import count_engine_calls


def flat_chart(n=2, bounds=None):
    return ChartConnection(dim=n, christoffel=lambda x: np.zeros((n, n, n)),
                           chart_bounds=bounds)


class CountingChristoffel:
    """Wraps a connection's christoffel, grad_f and hess_f callables and
    counts their evaluations together."""

    def __init__(self, conn):
        self.calls = 0
        self.conn = dataclasses.replace(
            conn, christoffel=self._counted(conn.christoffel),
            grad_f=conn.grad_f and self._counted(conn.grad_f),
            hess_f=conn.hess_f and self._counted(conn.hess_f))

    def _counted(self, fn):
        def wrapper(x):
            self.calls += 1
            return fn(x)
        return wrapper


# frozen from a step-halving classical RK4 oracle (Richardson difference
# below 1e-12 at n = 512 substeps)
BUMP_EXP_ORACLE = np.array([0.10098092258132939, 0.19865901710410314])


def richardson_rk4_geodesic(conn, x, v, target=1e-12):
    def run(n):
        z = np.concatenate([x, v])
        h = 1.0 / n

        def rhs(z):
            pos, vel = z[:2], z[2:]
            g = conn.gamma(pos)
            return np.concatenate(
                [vel, -np.einsum("kij,i,j->k", g, vel, vel)])

        for _ in range(n):
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return z

    n = 8
    prev = run(n)
    while n < 2 ** 16:
        n *= 2
        cur = run(n)
        if np.max(np.abs(cur - prev)) < target:
            return cur
        prev = cur
    raise AssertionError("oracle did not settle")


# -- geodesic flow -------------------------------------------------------------

def test_flat_chart_flow_is_straight():
    conn = flat_chart()
    pos, vel = geodesic_flow(conn, [1.0, 2.0], [3.0, 4.0], 1.0)
    assert np.allclose(pos, [4.0, 6.0], atol=1e-12)
    assert np.allclose(vel, [3.0, 4.0], atol=1e-12)


def test_bump_flow_matches_step_halving_oracle(bump):
    pos, _ = geodesic_flow(bump.conn, [0.0, 0.0], [0.1, 0.2], 1.0,
                           bump.tolerances)
    assert np.max(np.abs(pos - BUMP_EXP_ORACLE)) <= 1e-12
    fresh = richardson_rk4_geodesic(bump.conn, np.zeros(2),
                                    np.array([0.1, 0.2]))
    assert np.max(np.abs(fresh[:2] - BUMP_EXP_ORACLE)) <= 1e-12


def test_flow_semigroup_property(bump):
    x = np.array([-0.2, 0.1])
    v = np.array([0.3, -0.25])
    pos_full, vel_full = geodesic_flow(bump.conn, x, v, 1.0,
                                       bump.tolerances)
    pos_half, vel_half = geodesic_flow(bump.conn, x, v, 0.5,
                                       bump.tolerances)
    pos_two, vel_two = geodesic_flow(bump.conn, pos_half, vel_half, 0.5,
                                     bump.tolerances)
    assert np.max(np.abs(pos_two - pos_full)) <= 1e-11
    assert np.max(np.abs(vel_two - vel_full)) <= 1e-11


def test_flow_reversibility(bump):
    x = np.array([0.15, -0.1])
    v = np.array([0.2, 0.3])
    q, w = geodesic_flow(bump.conn, x, v, 1.0, bump.tolerances)
    back_pos, back_vel = geodesic_flow(bump.conn, q, -w, 1.0,
                                       bump.tolerances)
    assert np.max(np.abs(back_pos - x)) <= 1e-11
    assert np.max(np.abs(back_vel + v)) <= 1e-11


def test_flow_conserves_metric_speed(bump):
    x = np.array([0.1, 0.2])
    v = np.array([0.25, -0.2])
    q, w = geodesic_flow(bump.conn, x, v, 1.0, bump.tolerances)
    speed0 = math.sqrt(v @ bump.metric(x) @ v)
    speed1 = math.sqrt(w @ bump.metric(q) @ w)
    assert abs(speed1 - speed0) / speed0 <= 1e-10


def test_flow_domain_escape():
    conn = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    with pytest.raises(DomainEscape):
        geodesic_flow(conn, [0.0, 0.0], [3.0, 0.0], 1.0)
    with pytest.raises(DomainEscape):
        geodesic_flow(conn, [5.0, 0.0], [0.1, 0.0], 1.0)


def test_transport_from_outside_the_box_is_domain_escape():
    # the geodesic runs back into the box, but it starts outside: the
    # transport along it escapes as the geodesic does, at any time
    conn = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    for t in (1.0, 0.0):
        with pytest.raises(DomainEscape, match="initial point outside"):
            transport_ode(conn, [0.0, 1.0], [1.5, 0.0], [-1.0, 0.0], t)
    space = ChartSpace("flat-box", conn)
    p = space.point([1.5, 0.0])
    u, v = space.tangent(p, [0.0, 1.0]), space.tangent(p, [-1.0, 0.0])
    with pytest.raises(DomainEscape, match="initial point outside"):
        space.exp(p, v)
    with pytest.raises(DomainEscape, match="initial point outside"):
        space.exp_transport(u, v)


def _ball_space():
    return ChartSpace("ball", make_chart("hyperbolic2-ball"))


# both lie in the chart's box: (0.9, 0.9) outside the unit disc, the second
# inside it, at 1 - r^2 = 5e-10, within the rim margin of the interior test
_OUTSIDE_THE_DISC = [(0.9, 0.9), (math.sqrt(0.5 - 2.5e-10),) * 2]


@pytest.mark.parametrize("coords", _OUTSIDE_THE_DISC)
def test_ball_point_outside_the_interior_is_not_a_member(coords):
    space = _ball_space()
    assert space.membership_residual(space.point(coords)) == math.inf
    assert space.membership_residual(space.point([0.3, 0.8])) == 0.0


@pytest.mark.parametrize("coords, reason", zip(
    _OUTSIDE_THE_DISC,
    ["outside the unit disc", "outside the chart's interior"]))
def test_integration_from_outside_the_interior_is_domain_escape(coords,
                                                                 reason):
    # the interior test applies to the initial state as to every accepted
    # one, after the connection's own evaluation there, and also to a flow
    # of no time, which returned the point before
    conn = make_chart("hyperbolic2-ball")
    for t in (1.0, 0.0):
        with pytest.raises(DomainEscape, match=reason):
            geodesic_flow(conn, coords, [-0.01, 0.0], t)
        with pytest.raises(DomainEscape, match=reason):
            transport_ode(conn, [0.0, 0.01], coords, [-0.01, 0.0], t)


@pytest.mark.parametrize("coords", _OUTSIDE_THE_DISC)
def test_log_from_outside_the_domain_is_domain_escape(coords):
    # no shooting trial can start there, so it is not a failed solve
    space = _ball_space()
    p, q = space.point(coords), space.point([0.1, 0.0])
    with pytest.raises(DomainEscape, match="base point of the log outside"):
        space.log(p, q)
    box = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    with pytest.raises(DomainEscape, match="base point of the log outside"):
        log_shooting(box, [1.5, 0.0], [0.5, 0.0])


@pytest.mark.parametrize("coords", _OUTSIDE_THE_DISC)
def test_log_toward_a_target_outside_the_domain_is_domain_escape(coords):
    # no shooting trial can end there either: a solve toward (0.9, 0.9) ran
    # three iterations and raised NoConvergence for a line search that
    # found no decrease
    space = _ball_space()
    p, q = space.point([0.1, 0.0]), space.point(coords)
    with pytest.raises(DomainEscape, match=r"target \[.*\] of the log outside"):
        space.log(p, q)
    box = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    with pytest.raises(DomainEscape, match="target .* of the log outside"):
        log_shooting(box, [0.5, 0.0], [1.5, 0.0])


def test_flow_that_leaves_the_interior_inside_the_box_says_so():
    # the flow stops near (0.7071, 0.7071), well inside the ball chart's box
    # but within the rim margin of its interior test
    with pytest.raises(DomainEscape, match="left the chart's interior") as info:
        geodesic_flow(make_chart("hyperbolic2-ball"), [0.0, 0.0], [8.5, 8.5])
    assert "chart bounds" not in str(info.value)


def test_flow_through_the_chart_singularity_is_domain_escape():
    # the stereographic chart has no bounds; from the origin at this speed
    # the geodesic reaches the north pole, the chart's point at infinity,
    # and the adaptive step size underflows before t = 1, after 7,113
    # connection evaluations; a 4(5) pair spends about 29,000 getting there
    counter = CountingChristoffel(make_chart("sphere2-stereographic"))
    with pytest.raises(DomainEscape, match="step size"):
        geodesic_flow(counter.conn, [0.0, 0.0], [3.0, 0.0])
    assert counter.calls <= 10_000


def test_adaptive_step_budget_stops_a_running_solve(bump, monkeypatch):
    full = CountingChristoffel(bump.conn)
    geodesic_flow(full.conn, [0.0, 0.0], [0.4, 0.3], 1.0, bump.tolerances)
    monkeypatch.setattr(chart, "_MAX_STEPS", 5)
    counter = CountingChristoffel(bump.conn)
    with pytest.raises(MaxStepsExceeded) as info:
        geodesic_flow(counter.conn, [0.0, 0.0], [0.4, 0.3], 1.0,
                      bump.tolerances)
    # the solve stops at its budget of step attempts instead of running to
    # t = 1: the start rule's evaluation, 11 stages per attempt, accepted or
    # not, and the derivative at the end of each accepted step short of t
    err = info.value
    assert (err.accepted, err.rejected) == (3, 2)
    assert (counter.calls == 1 + 11 * chart._MAX_STEPS + err.accepted
            < full.calls)
    assert 0.0 < err.t < 1.0


def test_flow_into_a_wall_of_the_domain_is_domain_escape():
    # the straight line from just before the wall x_0 = 0.5, beyond which
    # the connection raises, reaches it at t = 1e-9: stages past the wall
    # reject their steps, and the accepted steps before it creep up until
    # they no longer move the state, while the step size stays far above
    # its least value.  The flow ran its whole step budget into
    # MaxStepsExceeded (28,798 evaluations at a budget of 3,000 steps);
    # the first accepted step that leaves the state unchanged now raises.
    # The 182 evaluations are the start rule's one, 12 rejections whose
    # first stage is already past the wall, which shrink the first step
    # from 1 to 4e-9, then 10 accepted steps of 12 evaluations, the last of
    # them the stalled one, and 10 more rejections of 49 evaluations in all:
    # the accepted steps that creep from 1e-12 to within an ulp of the wall
    # are the scheme's own step control, which the loop keeps
    def grad_f(x):
        if x[0] > 0.5:
            raise DomainEscape("beyond the wall")
        return np.zeros(2)

    counter = CountingChristoffel(ChartConnection.conformal(2, grad_f))
    x = [0.5 - 1e-12, 0.0]
    with pytest.raises(DomainEscape, match="stalled") as info:
        geodesic_flow(counter.conn, x, [1e-3, 0.0])
    assert counter.calls == 182
    err = info.value
    assert (err.accepted, err.rejected) == (10, 22)
    assert err.t == pytest.approx(1e-9, rel=1e-4)
    # a flow at rest, or too slow to move the state, is not stalled: its
    # one step ends the interval, after the start rule's evaluation and the
    # step's 11 stages
    for v in ([0.0, 0.0], [1e-20, 0.0]):
        counter.calls = 0
        pos, vel = geodesic_flow(counter.conn, x, v)
        u_t, _, _ = transport_ode(counter.conn, [0.0, 1.0], x, v)
        assert pos.tolist() == x and vel.tolist() == v
        assert u_t.tolist() == [0.0, 1.0]
        assert counter.calls == 2 * 12


@pytest.mark.parametrize("start, attempts", [
    (-1e-2, (21, 24)), (-1.0, (130, 66))])
def test_flow_whose_step_size_underflows_is_domain_escape(start, attempts):
    # the straight line from x_0 = start reaches the wall x_0 = 0, beyond
    # which the connection raises, at t = -start.  Unlike the wall at 0.5
    # above, coordinates near 0 are dense, so every accepted step still
    # moves the state while the steps shrink toward the wall, until the
    # step size falls below the least one, 10 ulp(t).  A rejection cuts the
    # step by 5, so each flow pins that floor only within such a band;
    # together these two change their counts of accepted and rejected step
    # attempts for any factor outside (9.5, 12)
    def grad_f(x):
        if x[0] > 0.0:
            raise DomainEscape("beyond the wall")
        return np.zeros(2)

    counter = CountingChristoffel(ChartConnection.conformal(2, grad_f))
    end = -start
    with pytest.raises(DomainEscape, match="fell below the spacing of "
                       f"numbers at t={end:.6g}$") as info:
        geodesic_flow(counter.conn, [start, 0.0], [1.0, 0.0])
    err = info.value
    assert (err.accepted, err.rejected) == attempts
    # the time reached, just short of the wall
    assert (1.0 - 1e-14) * end < err.t < end


def test_step_loop_errors_carry_their_evidence():
    # each error the step loop raises carries the time it reached and its
    # numbers of accepted and rejected steps: a flow out of the box in its
    # first step, one whose state overflows in its first step, and one that
    # leaves the ball chart's interior; an error raised elsewhere, as for
    # an initial point outside the box, carries None
    box = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    for run, message, evidence in [
            (lambda: geodesic_flow(box, [0.9, 0.0], [1.0, 0.0], 100.0),
             "left the chart bounds", (math.sqrt(1.81), 1, 0)),
            (lambda: geodesic_flow(flat_chart(), [1.7e308, 0.0],
                                   [1e307, 0.0]),
             "state is not finite", (1.0, 1, 0)),
            (lambda: geodesic_flow(make_chart("hyperbolic2-ball"),
                                   [0.0, 0.0], [8.5, 8.5]),
             "left the chart's interior", (0.9323561113637201, 63, 9)),
            (lambda: geodesic_flow(box, [1.5, 0.0], [1.0, 0.0]),
             "initial point outside", (None, None, None))]:
        with pytest.raises(DomainEscape, match=message) as info:
            run()
        err = info.value
        assert (err.t, err.accepted, err.rejected) == evidence
    assert vars(MaxStepsExceeded("budget")) == vars(DomainEscape("wall")) == {
        "t": None, "accepted": None, "rejected": None}


# the bump's short flows, as the pole ladder makes them at scales h <= 0.1;
# along the bump's gradient, (1, 0), a |v| = 0.1 flow still has its first
# step rejected and makes 35 evaluations
_START_X = np.array([0.3, 0.1])
_START_DIR = np.array([0.6, 0.8])


@pytest.mark.parametrize("speed", [0.02, 0.05, 0.1])
def test_short_flow_takes_one_adaptive_step(bump, speed):
    # the first step spans the whole interval and passes the error test:
    # the start rule's evaluation and the step's 11 later stages, 12 in all;
    # scipy's tolerance-sized first step took three steps, 38 in all
    v = speed * _START_DIR
    u = speed * np.array([-0.8, 0.6])
    flow = CountingChristoffel(bump.conn)
    geodesic_flow(flow.conn, _START_X, v)
    transport = CountingChristoffel(bump.conn)
    transport_ode(transport.conn, u, _START_X, v)
    assert flow.calls <= 14
    assert transport.calls <= 14


def test_step_loop_tableau_is_scipys():
    # the engine holds DOP853's coefficients as literals so that importing
    # it does not load scipy; each must be scipy's double, bit for bit
    assert len(chart._STAGE_ROWS) == DOP853.n_stages - 1
    rows = [(row, DOP853.A[i, :i])
            for i, row in enumerate(chart._STAGE_ROWS, 1)]
    for mine, scipys in [*rows, (chart._B, DOP853.B), (chart._E5, DOP853.E5),
                         (chart._E3, DOP853.E3)]:
        assert all(type(c) is float for c in mine)
        assert np.array(mine).tobytes() == scipys.tobytes()
    assert chart._ERROR_EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)


def _record_solves(monkeypatch):
    """Record every step loop the engine runs: its arguments, its endpoint
    and its numbers of accepted and rejected steps."""
    step_loop, solves = chart._dop853, []

    def recorded(*args):
        out = step_loop(*args)
        solves.append((args, *out))
        return out

    monkeypatch.setattr(chart, "_dop853", recorded)
    return solves


def test_flow_evaluates_the_derivative_only_where_a_step_follows(
        bump, monkeypatch):
    # the start rule's evaluation, the 11 later stages of each attempt,
    # accepted or rejected, and the derivative at the end of each accepted
    # step short of t, the next step's first stage: 94 evaluations here,
    # where computing it after every attempt made 101
    solves = _record_solves(monkeypatch)
    counter = CountingChristoffel(bump.conn)
    geodesic_flow(counter.conn, [0.0, 0.0], [0.4, 0.3])
    [(_, _, accepted, rejected)] = solves
    assert (accepted, rejected) == (6, 2)
    assert counter.calls == 1 + 11 * (accepted + rejected) + accepted - 1


def test_flow_of_no_time_returns_its_start(bump, monkeypatch):
    # a flow of length 0 runs no step loop, but its start rule's evaluation
    # still checks that the connection can be evaluated there
    solves = _record_solves(monkeypatch)
    counter = CountingChristoffel(bump.conn)
    x, v, u = [0.3, 0.1], [0.4, -0.3], [0.0, 1.0]
    pos, vel = geodesic_flow(counter.conn, x, v, 0.0)
    u_t, _, _ = transport_ode(counter.conn, u, x, v, 0.0)
    assert pos.tolist() == x and vel.tolist() == v and u_t.tolist() == u
    assert counter.calls == 2
    assert solves == []

    def grad_f(x):
        if x[0] > 0.5:
            raise DomainEscape("beyond the wall")
        return [0.0, 0.0]

    with pytest.raises(DomainEscape, match="beyond the wall"):
        geodesic_flow(ChartConnection.conformal(2, grad_f), [0.6, 0.0],
                      [1.0, 0.0], 0.0)


def _scipy_steps(rhs, z0, t, h0, rtol, atol, controlled):
    """scipy's DOP853 on the same problem: (endpoint, accepted steps,
    rejected steps).  Its error norm is a root mean square over all
    components: an infinite atol takes a component out of it, and scaling
    the others' tolerances by sqrt(controlled / size) gives them the norm
    of a flow of those components alone."""
    scale = math.sqrt(controlled / z0.size)
    atols = np.full(z0.size, math.inf)
    atols[:controlled] = atol * scale
    sol = solve_ivp(lambda _, z: rhs(z.tolist()), (0.0, t), z0,
                    method="DOP853", first_step=h0, rtol=rtol * scale,
                    atol=atols)
    assert sol.success
    accepted = sol.t.size - 1
    # one evaluation at t = 0 and 12 per step attempt
    return sol.y[:, -1], accepted, (sol.nfev - 1) // 12 - accepted


def _flows_match_scipy(solves):
    rejected = 0
    for (_, rhs, z0, _, t, h0, *tolerances), z, acc, rej in solves:
        ref, ref_acc, ref_rej = _scipy_steps(rhs, z0, t, h0, *tolerances)
        assert (acc, rej) == (ref_acc, ref_rej)
        assert np.linalg.norm(z - ref) <= 1e-14 * np.linalg.norm(ref)
        rejected += rej
    return rejected


def test_step_loop_takes_scipys_steps_on_bump_flows(bump, monkeypatch):
    solves = _record_solves(monkeypatch)
    rng = np.random.default_rng(31)
    tol = ToleranceConfig()
    for _ in range(8):
        x = rng.uniform(-0.5, 0.5, 2)
        v = rng.uniform(0.05, 1.0) * rng.normal(size=2)
        u = rng.normal(size=2)
        geodesic_flow(bump.conn, x, v)
        transport_ode(bump.conn, u, x, v)
        chart._jacobi_flow(bump.conn, x, v, tol)
    assert len(solves) == 24
    _flows_match_scipy(solves)


def test_step_loop_takes_scipys_steps_on_a_symbols_only_chart(monkeypatch):
    conn = make_chart("spd2-entries")
    solves = _record_solves(monkeypatch)
    x = np.array([1.3, 0.2, 0.9])
    geodesic_flow(conn, x, [0.4, -0.1, 0.25])
    transport_ode(conn, [0.2, 0.05, -0.3], x, [0.4, -0.1, 0.25])
    log_shooting(conn, x, [1.0, 0.1, 1.2])
    assert len(solves) >= 4
    _flows_match_scipy(solves)


def test_step_loop_takes_scipys_steps_after_a_rejected_first_step(
        bump, monkeypatch):
    # along the bump's gradient the whole-interval first step is rejected
    solves = _record_solves(monkeypatch)
    v = 0.1 * np.array([1.0, 0.0])
    geodesic_flow(bump.conn, _START_X, v)
    transport_ode(bump.conn, 0.1 * np.array([0.0, 1.0]), _START_X, v)
    assert [(acc, rej) for _, _, acc, rej in solves] == [(2, 1)] * 2
    assert _flows_match_scipy(solves) == 2


STEP_LOOP_PROPERTY = settings(derandomize=True, database=None,
                              deadline=None, max_examples=30)


def _random_velocity(rng, dim):
    """A velocity of uniformly drawn direction and speed up to 1."""
    v = rng.standard_normal(dim)
    return rng.uniform(0.0, 1.0) / np.linalg.norm(v) * v


@STEP_LOOP_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_step_loop_takes_scipys_steps_on_random_bump_flows(bump, seed):
    # a geodesic, a transport and a Jacobi flow from anywhere in the box at
    # speeds up to 1; a flow that leaves the box raises DomainEscape, which
    # scipy, without the box, does not: the flows that finish are compared
    rng = np.random.default_rng(seed)
    x, v = rng.uniform(-2.0, 2.0, 2), _random_velocity(rng, 2)
    u = rng.standard_normal(2)
    with pytest.MonkeyPatch.context() as mp:
        solves = _record_solves(mp)
        for run in (lambda: geodesic_flow(bump.conn, x, v),
                    lambda: transport_ode(bump.conn, u, x, v),
                    lambda: chart._jacobi_flow(bump.conn, x, v,
                                               bump.tolerances)):
            try:
                run()
            except DomainEscape:
                pass
    _flows_match_scipy(solves)


SPD2_CHART = make_chart("spd2-entries")


@STEP_LOOP_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_step_loop_takes_scipys_steps_on_random_spd_flows(seed):
    # a geodesic and a transport on the symbols-only chart of 2x2 SPD
    # matrices (p11, p12, p22), from a positive definite point; its
    # geodesics stay positive definite, and the chart has no box to leave
    rng = np.random.default_rng(seed)
    p11, p22 = rng.uniform(0.5, 2.0, 2)
    x = np.array([p11, rng.uniform(-0.8, 0.8) * math.sqrt(p11 * p22), p22])
    v, u = _random_velocity(rng, 3), rng.standard_normal(3)
    with pytest.MonkeyPatch.context() as mp:
        solves = _record_solves(mp)
        geodesic_flow(SPD2_CHART, x, v)
        transport_ode(SPD2_CHART, u, x, v)
    assert len(solves) == 2
    _flows_match_scipy(solves)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_integration_time_must_be_finite_and_non_negative(bump, t):
    x, v = _START_X, 0.1 * _START_DIR
    with pytest.raises(ValueError, match="finite and non-negative"):
        geodesic_flow(bump.conn, x, v, t)
    with pytest.raises(ValueError, match="finite and non-negative"):
        transport_ode(bump.conn, v, x, v, t)


@pytest.mark.parametrize("name", ["bump2d", "sphere2-stereographic",
                                  "spd2-entries"])
def test_chart_vectors_of_the_wrong_length_raise_value_error(name):
    # the right-hand sides slice the state by the chart's dimension, so a
    # vector one coordinate too long would be integrated as another state
    conn = make_chart(name)
    d = conn.dim
    x = np.array([1.3, 0.2, 0.9]) if d == 3 else np.array([0.1, 0.2])
    v, long = 0.1 * np.ones(d), np.ones(d + 1)
    for run in (lambda: geodesic_flow(conn, long, v),
                lambda: geodesic_flow(conn, x, long),
                lambda: transport_ode(conn, long, x, v),
                lambda: transport_ode(conn, v, long, v),
                lambda: log_shooting(conn, x, long)):
        with pytest.raises(ValueError, match="shape"):
            run()
    if conn.chart_bounds is not None:
        with pytest.raises(ValueError, match="coordinates"):
            conn.in_bounds(long.tolist())


def test_flow_stops_at_its_first_step_outside_the_box():
    # a straight line that leaves the box in its first step of length
    # |z0| / |f0|; the box is checked after every accepted step, so the flow
    # does not run on to t = 100 first
    counter = CountingChristoffel(
        flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))))
    with pytest.raises(DomainEscape, match="chart bounds"):
        geodesic_flow(counter.conn, [0.9, 0.0], [1.0, 0.0], 100.0)
    assert counter.calls == 13


def _tight_geodesic(conn, x, v):
    """(position, velocity) at t = 1 from DOP853 at about 100 eps, through
    the symbols rather than the engine's contraction."""
    def rhs(_, z):
        vel = z[2:]
        return np.concatenate(
            [vel, -np.einsum("kij,i,j->k", conn.gamma(z[:2]), vel, vel)])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x, v]), method="DOP853",
                    rtol=2.3e-14, atol=1e-16)
    return sol.y[:2, -1], sol.y[2:, -1]


@pytest.mark.parametrize("speed", [0.02, 0.05, 0.1, 0.2, 0.4, 0.6])
def test_long_first_step_keeps_flow_accuracy(bump, speed):
    x, v = geodesic_flow(bump.conn, _START_X, speed * _START_DIR)
    x_ref, v_ref = _tight_geodesic(bump.conn, _START_X, speed * _START_DIR)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert np.abs(v - v_ref).max() <= 1e-12


def test_first_step_is_bounded_on_a_fast_flow(bump):
    # a first step of the whole interval overflows in its own stages here and
    # raises NonFinite; the bound |z0| / |f0| keeps them finite
    x0 = np.array([-0.78441401, 0.32252676])
    v0 = np.array([2.48956592, -4.92907011])
    x, v = geodesic_flow(bump.conn, x0, v0)
    x_ref, v_ref = _tight_geodesic(bump.conn, x0, v0)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert np.abs(v - v_ref).max() <= 1e-12


def test_overflowing_stages_are_rejected_steps_without_warnings(bump):
    # a line-search trial of a far bump2d log: stages of its early steps
    # overflow, their error estimates are infinite or NaN and scipy rejects
    # them; numpy's warnings on the way are not raised
    x0 = np.array([-0.020512248239137887, 0.4585229997993715])
    v0 = np.array([-2.738216109319155, -11.189856960466967])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, v = geodesic_flow(bump.conn, x0, v0)
    x_ref, v_ref = _tight_geodesic(bump.conn, x0, v0)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert np.abs(v - v_ref).max() <= 1e-12


@pytest.mark.parametrize("conn, x, v", [
    # stage positions overflow mid-solve, where the bump's gradient is not
    # finite: rejected steps, then the box, not a NonFinite
    (make_chart("bump2d"), (-0.0205, 0.4585), (1e30, 1e30)),
    # the initial derivative's norm overflows
    (make_chart("bump2d"), (0.3, 0.1), (1e150, 1e150)),
    # a chart without bounds, whose endpoint would be infinite
    (flat_chart(), (1e308, 0.0), (1e308, 0.0)),
], ids=["bump-stages", "bump-start", "flat-endpoint"])
def test_flow_whose_state_overflows_is_domain_escape(conn, x, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainEscape):
            geodesic_flow(conn, x, v)


@pytest.mark.parametrize("x", [(0.8, 0.8), (0.999, 0.1), (0.6, 0.8)])
def test_hyperbolic_ball_point_outside_the_disc_is_domain_escape(x):
    # inside the chart's box but not in the unit disc, where the conformal
    # factor's formulas give a metric of the wrong sign
    conn = make_chart("hyperbolic2-ball")
    x = np.array(x)
    assert conn.in_bounds(x)
    for fn in (conn.grad_f, conn.hess_f,
               lambda p: geodesic_flow(conn, p, [0.1, 0.0])):
        with pytest.raises(DomainEscape, match="unit disc"):
            fn(x)


def _poincare_exp(x, v):
    # the unit disc's exponential map, x (+) tanh(|v|_x / 2) v / |v| in
    # Moebius addition, with |v|_x = 2 |v| / (1 - |x|^2)
    nv = np.linalg.norm(v)
    u = math.tanh(nv / (1.0 - x @ x)) * v / nv
    xu, xx, uu = x @ u, x @ x, u @ u
    return ((1 + 2 * xu + uu) * x + (1 - xx) * u) / (1 + 2 * xu + xx * uu)


def test_hyperbolic_ball_flow_whose_stages_overshoot_the_rim_finishes():
    # the geodesic stays inside the disc (its end is at r = 0.978), but
    # stages of its long first steps land outside it; they are rejected
    # steps, not a DomainEscape that ends the solve
    conn = make_chart("hyperbolic2-ball")
    x, v = np.array([0.3, 0.8]), np.array([-0.25, 0.2])
    y = _poincare_exp(x, v)
    assert np.linalg.norm(y) > 0.97
    assert np.abs(geodesic_flow(conn, x, v)[0] - y).max() <= 1e-12
    u = np.array([0.1, 0.05])
    _, end, _ = transport_ode(conn, u, x, v)
    assert np.abs(end - y).max() <= 1e-12
    v_rec, _ = log_shooting(conn, x, y)
    assert np.abs(v_rec - v).max() <= 1e-9


def test_hyperbolic_ball_flow_into_the_rim_margin_is_domain_escape():
    # flows whose exact end lies within the rim margin (1 - r^2 <= 1e-9)
    # returned endpoints up to 1.5 off the closed form before the chart had
    # an interior test; now each flow raises DomainEscape or lands within
    # 1e-6, and the flows that finish are those of the bare box, bit for bit
    conn = make_chart("hyperbolic2-ball")
    bare = dataclasses.replace(conn, interior=None)
    rng = np.random.default_rng(2024)
    outcomes = {"escaped": 0, "finished": 0, "bare_off": 0}
    for _ in range(40):
        x = 0.95 * math.sqrt(rng.uniform()) * _unit(rng.uniform(0, 2 * math.pi))
        v = rng.uniform(0.1, 12.0) * _unit(rng.uniform(0, 2 * math.pi))
        y = _poincare_exp(x, v)
        try:
            end, _ = geodesic_flow(conn, x, v)
        except DomainEscape:
            outcomes["escaped"] += 1
            try:
                bare_end, _ = geodesic_flow(bare, x, v)
            except DomainEscape:
                continue
            outcomes["bare_off"] += int(np.abs(bare_end - y).max() > 1e-6)
            continue
        outcomes["finished"] += 1
        assert 1.0 - y @ y > 1e-9
        assert np.abs(end - y).max() <= 1e-6
        assert np.array_equal(end, geodesic_flow(bare, x, v)[0])
    assert min(outcomes.values()) > 0, outcomes


def _unit(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def test_torsion_warning_on_asymmetric_symbols():
    def lopsided(x):
        g = np.zeros((2, 2, 2))
        g[0, 0, 1] = 1e-6  # no matching [0, 1, 0] entry
        return g

    conn = ChartConnection(dim=2, christoffel=lopsided)
    with pytest.warns(RuntimeWarning, match="symmetrizing"):
        g = conn.gamma(np.zeros(2))
    assert g[0, 0, 1] == g[0, 1, 0] == pytest.approx(5e-7)


@pytest.mark.parametrize("name", ["bump2d", "hyperbolic2-ball", "so3-rotvec"])
def test_in_bounds_of_one_point_matches_the_array_path(name):
    # the step loop checks each accepted state as a list of floats
    conn = make_chart(name)
    lo, hi = conn.chart_bounds
    d = conn.dim
    points = [lo, hi, 0.5 * (lo + hi),
              np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(d):
            p = 0.5 * (lo + hi)
            p[k] = bad
            points.append(p)
    points.append(np.where(np.arange(d) % 2, lo, np.nextafter(hi, np.inf)))
    expected = [True, True, True, False, False] + [False] * (3 * d) + [False]
    for p, inside in zip(points, expected):
        assert conn.in_bounds(p) is inside
        assert conn.in_bounds(p.tolist()) is inside
    # one point only: a stack of points is not a point
    with pytest.raises(ValueError, match="one point"):
        conn.in_bounds(np.column_stack(points[:3]))


# -- conformal contraction -------------------------------------------------------

CONFORMAL_CHARTS = ("bump2d", "sphere2-stereographic", "hyperbolic2-ball")


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_conformal_contraction_matches_symbols(name):
    # the closed form in _flow_rhs contracts the conformal symbols, read off
    # the right-hand side: -G(x)(v, v) on the velocity row, -G(x)(v, w) on
    # each vector's
    conn = make_chart(name)
    rhs = chart._flow_rhs(conn)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        v = rng.standard_normal(2)
        rows = rng.standard_normal((3, 2))
        got = -np.array(rhs(np.concatenate([x, v, rows.ravel()]).tolist())[2:])
        ref = np.einsum("kij,i,...j->...k", conn.gamma(x), v,
                        np.vstack([v, rows])).ravel()
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_flow_rhs_is_the_contraction_bit_for_bit(name):
    # on both branches the geodesic and the transport rows are one
    # contraction, to the last bit: carrying vectors leaves the geodesic's
    # rows as they are, and the velocity carried as a vector gets the
    # velocity's row; the symbol branch rounds as gamma(x) @ v times a row
    conn = make_chart(name)
    symbols = dataclasses.replace(conn, grad_f=None)
    rng = np.random.default_rng(12)
    for c in (conn, symbols):
        rhs = chart._flow_rhs(c)
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, 2)
            v, w = rng.standard_normal((2, 2))
            geodesic = np.array(rhs(np.concatenate([x, v]).tolist()))
            carried = np.array(rhs(np.concatenate([x, v, w, v]).tolist()))
            assert np.array_equal(carried[:4], geodesic)
            assert np.array_equal(carried[6:], geodesic[2:])
            if c is symbols:
                gv = c.gamma(x) @ v
                ref = np.concatenate([v, -(gv @ v), -(gv @ w), -(gv @ v)])
                assert np.array_equal(carried, ref)


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_flow_rhs_through_the_gradient_matches_its_symbol_branch(name):
    # the closed form in Python floats and the product with the symbols
    # contract one connection, on the velocity alone and with vectors
    conn = make_chart(name)
    rhs = chart._flow_rhs(conn)
    by_symbols = chart._flow_rhs(dataclasses.replace(conn, grad_f=None))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        for rows in (rng.standard_normal((1, 2)), rng.standard_normal((3, 2))):
            z = np.concatenate([x, rows.ravel()]).tolist()
            got, ref = np.array(rhs(z)), np.array(by_symbols(z))
            assert got.shape == ref.shape == (len(z),)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_shooting_start_is_the_inverse_series_on_the_symbols(name):
    conn = make_chart(name)

    def contract(x, v, w):
        return np.einsum("kij,i,j->k", conn.gamma(x), v, w)

    rng = np.random.default_rng(14)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 2)
        # short enough that the series is trusted and d does not fall back
        d = 0.1 * rng.standard_normal(2)
        ref = (d + contract(x + d / 3.0, d, d) / 2.0
               + contract(x, d, contract(x, d, d)) / 6.0)
        assert np.linalg.norm(ref - d) <= 0.25 * np.linalg.norm(d)
        got = chart._shooting_start(conn, x, d)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_jacobi_flow_geodesic_rows_are_the_plain_rhs(bump, monkeypatch):
    solves = _record_solves(monkeypatch)
    chart._jacobi_flow(bump.conn, _START_X, 0.3 * _START_DIR,
                       ToleranceConfig())
    [((_, jacobi_rhs, *_), *_)] = solves
    plain_rhs = chart._flow_rhs(bump.conn)
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = rng.standard_normal(6)
        z[:2] = rng.uniform(-0.6, 0.6, 2)
        z = z.tolist()
        assert jacobi_rhs(z)[:4] == plain_rhs(z[:4])


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_conformal_hessian_matches_differences_of_the_gradient(name):
    conn = make_chart(name)
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        # the callbacks return Python floats, which numpy differences
        fd = np.column_stack([
            (np.asarray(conn.grad_f((x + e).tolist()))
             - np.asarray(conn.grad_f((x - e).tolist()))) / (2 * h)
            for e in h * np.eye(2)])
        # relative to the Hessian, which reaches 20 near the ball's rim
        assert np.abs(np.asarray(conn.hess_f(x.tolist())) - fd).max() <= (
            1e-8 * max(1.0, np.abs(fd).max()))


def _numpy_factor_callbacks(name):
    """The numpy formulas the conformal charts' float callbacks replaced, as
    (grad_f, hess_f) of a point array.  r^2 is np.sum(x * x), two rounded
    squares and their rounded sum as in the float callbacks: the replaced
    x @ x runs through BLAS, whose kernel may fuse the second square into
    the sum, and on such a CPU it differs from them in the last bit."""
    if name == "bump2d":
        beta = 1.0
        return (lambda x: np.array([2.0 * beta * x[0], 0.0]),
                lambda x: np.diag([2.0 * beta, 0.0]))
    if name == "sphere2-stereographic":
        def grad_f(x):
            r2 = float(np.sum(x * x))
            return -2.0 * x / (1.0 + r2)

        def hess_f(x):
            s = 1.0 + float(np.sum(x * x))
            return -2.0 * np.eye(2) / s + 4.0 * np.outer(x, x) / (s * s)

        return grad_f, hess_f

    def grad_f(x):
        return 2.0 * x / (1.0 - float(np.sum(x * x)))

    def hess_f(x):
        s = 1.0 - float(np.sum(x * x))
        return 2.0 * np.eye(2) / s + 4.0 * np.outer(x, x) / (s * s)

    return grad_f, hess_f


def _chart_points(name, rng, n=50):
    """n seeded points in the chart's domain, inside the disc for the
    ball, and points with a zero coordinate, where a product is -0.0."""
    if name == "hyperbolic2-ball":
        angle, radius = rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0, 0.99, n)
        points = radius[:, None] * np.column_stack([np.cos(angle),
                                                    np.sin(angle)])
    else:
        points = rng.uniform(-1.9, 1.9, (n, 2))
    return [*points, np.array([0.0, -0.3]), np.array([-0.4, 0.0]),
            np.array([-0.0, 0.5])]


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_float_factor_callbacks_keep_the_bits_of_the_numpy_formulas(name):
    # the float callbacks follow the operation order of the numpy formulas
    # they replaced, so every value keeps its bits, the sign of a zero too;
    # the symbols built from them match the ones built from those formulas
    conn = make_chart(name)
    grad_ref, hess_ref = _numpy_factor_callbacks(name)
    for x in _chart_points(name, np.random.default_rng(23)):
        # the one operation numpy may round otherwise: within an ulp
        r2 = float(x @ x)
        assert abs(float(np.sum(x * x)) - r2) <= math.ulp(r2)
        grad, hess = (np.asarray(fn(x.tolist()))
                      for fn in (conn.grad_f, conn.hess_f))
        assert grad.tobytes() == grad_ref(x).tobytes()
        assert hess.tobytes() == hess_ref(x).tobytes()
        df = grad_ref(x)
        g = df[:, None] * np.eye(2)[:, None, :]
        symbols = g + g.transpose(0, 2, 1) - df[:, None, None] * np.eye(2)
        assert conn.christoffel(x).tobytes() == symbols.tobytes()


def _recording(conn):
    """The connection with grad_f and hess_f wrapped to record the types of
    the points and of their coordinates that each receives."""
    seen = {"grad_f": set(), "hess_f": set()}

    def recorded(name, fn):
        def wrapper(x):
            seen[name].add((type(x), *{type(xi) for xi in x}))
            return fn(x)
        return wrapper

    return dataclasses.replace(
        conn, grad_f=recorded("grad_f", conn.grad_f),
        hess_f=recorded("hess_f", conn.hess_f)), seen


def test_factor_callbacks_receive_lists_of_floats():
    # on the geodesic, transport and Jacobi paths, and from the symbols
    # ChartConnection.conformal builds
    conn, seen = _recording(make_chart("bump2d"))
    x, v = [0.3, 0.1], [0.2, -0.1]
    geodesic_flow(conn, x, v)
    transport_ode(conn, [0.0, 1.0], x, v)
    chart._jacobi_flow(conn, np.array(x), np.array(v), ToleranceConfig())
    assert seen == {"grad_f": {(list, float)}, "hess_f": {(list, float)}}
    seen["grad_f"].clear()
    ChartConnection.conformal(2, conn.grad_f).christoffel(np.array(x))
    assert seen["grad_f"] == {(list, float)}


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_conformal_right_hand_sides_make_no_numpy_call(name, monkeypatch):
    # the plain, transport and Jacobi right-hand sides compute in Python
    # floats from end to end: no numpy function runs in an evaluation, and
    # every number they return is a float, not a numpy scalar
    solves = _record_solves(monkeypatch)
    conn = make_chart(name)
    chart._jacobi_flow(conn, np.array([0.2, -0.1]), np.array([0.1, 0.2]),
                       ToleranceConfig())
    [((_, jacobi_rhs, *_), *_)] = solves
    plain_rhs = chart._flow_rhs(conn)
    states = [(plain_rhs, [0.2, -0.1, 0.1, 0.2]),
              (plain_rhs, [0.2, -0.1, 0.1, 0.2, 0.5, -0.7]),
              (jacobi_rhs, [0.2, -0.1, 0.1, 0.2, 0.3, 1.0])]
    numpy_calls = []

    def profile(frame, event, arg):
        if event == "c_call" and "numpy" in str(getattr(arg, "__module__",
                                                        "")):
            numpy_calls.append(arg)

    for rhs, z in states:
        sys.setprofile(profile)
        try:
            out = rhs(z)
        finally:
            sys.setprofile(None)
        assert numpy_calls == []
        assert len(out) == len(z) and {type(o) for o in out} == {float}


@pytest.mark.parametrize("grad_f, hess_f, message", [
    (lambda x: [0.0, 0.0, 0.0], None, "grad_f returned 3 numbers"),
    (lambda x: [0.0], None, "grad_f returned 1 numbers"),
    (lambda x: [0.0, 0.0], lambda x: [[0.0, 0.0]] * 3, "3 rows"),
    (lambda x: [0.0, 0.0], lambda x: [[0.0, 0.0], [0.0]],
     "a row of 1 numbers"),
    (lambda x: [0.0, 0.0], lambda x: [[0.0, 0.0, 0.0]] * 2,
     "a row of 3 numbers"),
], ids=["grad-long", "grad-short", "hess-rows", "hess-row-short",
        "hess-row-long"])
def test_factor_callbacks_of_the_wrong_length_raise_value_error(
        grad_f, hess_f, message):
    # the right-hand sides zip the callbacks' numbers with the state, and
    # would not notice a wrong length; a geodesic flow reads no Hessian
    conn = ChartConnection.conformal(
        2, grad_f, chart_bounds=(np.full(2, -2.0), np.full(2, 2.0)),
        hess_f=hess_f)
    runs = [lambda: log_shooting(conn, [0.3, 0.1], [0.5, 0.2])]
    if hess_f is None:
        runs.append(lambda: geodesic_flow(conn, [0.3, 0.1], [0.2, 0.1]))
    for run in runs:
        with pytest.raises(ValueError, match=message):
            run()


@pytest.mark.parametrize("wall, entry", [
    (-math.inf, (0, 0)), (0.4, (0, 0)), (-math.inf, (0, 1)), (0.4, (0, 1)),
], ids=["at-start", "in-a-stage", "at-start-off-diagonal",
        "in-a-stage-off-diagonal"])
def test_nan_conformal_hessian_raises_non_finite(wall, entry):
    # at a finite state, from the Jacobi flow's first evaluation or from
    # the stage of a step that crosses x_0 = wall, past which the Hessian
    # is NaN; a stage that is not finite would reject its step instead.
    # The seed reads only the diagonal, and an entry off it is checked too
    def hess_f(x):
        h = [[0.0, 0.0], [0.0, 0.0]]
        if x[0] > wall:
            h[entry[0]][entry[1]] = math.nan
        return h

    conn = ChartConnection.conformal(
        2, lambda x: [0.0, 0.0],
        chart_bounds=(np.full(2, -2.0), np.full(2, 2.0)), hess_f=hess_f)
    with pytest.raises(NonFinite, match="Hessian is not finite"):
        log_shooting(conn, [0.3, 0.1], [0.5, 0.2])


def test_factor_callbacks_returning_arrays_flow_as_floats():
    # numpy's float64 rounds as a Python float, so a chart whose callbacks
    # return arrays flows, transports and shoots to the same bits, at
    # numpy's cost per element
    floats = make_chart("bump2d")
    grad_f, hess_f = _numpy_factor_callbacks("bump2d")
    arrays = dataclasses.replace(floats, grad_f=grad_f, hess_f=hess_f)
    x, v, y = [0.3, 0.1], [0.2, -0.1], [0.6, -0.2]
    for run in (lambda c: geodesic_flow(c, x, v),
                lambda c: transport_ode(c, [0.0, 1.0], x, v),
                lambda c: log_shooting(c, x, y)):
        got, ref = run(arrays), run(floats)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("name", CONFORMAL_CHARTS)
def test_flow_through_the_gradient_matches_flow_through_the_symbols(name):
    conn = make_chart(name)
    symbols = dataclasses.replace(conn, grad_f=None)
    x, v, u = np.array([0.2, -0.1]), np.array([0.3, 0.25]), np.array([-0.15, 0.4])
    for run in (lambda c: geodesic_flow(c, x, v),
                lambda c: transport_ode(c, u, x, v)):
        fast, slow = np.concatenate(run(conn)), np.concatenate(run(symbols))
        assert np.max(np.abs(fast - slow)) <= 1e-12


# -- shooting -------------------------------------------------------------------

def test_flat_chart_log_is_difference(monkeypatch):
    flows = []

    def flow(*args):
        flows.append(args)
        return geodesic_flow(*args)

    one_flow = CountingChristoffel(flat_chart())
    geodesic_flow(one_flow.conn, [0.0, 0.0], [1.0, 1.0])
    monkeypatch.setattr(chart, "geodesic_flow", flow)
    counter = CountingChristoffel(flat_chart())
    v, iters = log_shooting(counter.conn, [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(v, [1.0, 1.0], atol=1e-12)
    assert iters == 0
    # a chart with only symbols shoots the chart difference on a plain flow:
    # no trial beyond it, and no symbols spent on a Jacobian
    assert len(flows) == 1
    assert counter.calls == one_flow.calls


def test_flat_conformal_chart_log_confirms_the_guess_on_a_plain_flow(
        monkeypatch):
    # a chart with a Hessian shoots its first trial on a Jacobi flow, whose
    # steps are not exp's: a guess that meets the target there is returned
    # only after the plain flow exp takes meets it too
    conn = ChartConnection.conformal(2, lambda x: np.zeros(2),
                                     hess_f=lambda x: np.zeros((2, 2)))
    x, y = np.zeros(2), np.ones(2)
    end, jac = chart._jacobi_flow(conn, x, y - x, ToleranceConfig())
    assert np.allclose(end, y, atol=1e-12)
    assert np.allclose(jac, np.eye(2), atol=1e-12)
    flows = _flows_failing_after(monkeypatch, math.inf, DomainEscape)
    v, iters = log_shooting(conn, x, y)
    assert np.allclose(v, y - x, atol=1e-12)
    assert iters == 0
    assert len(flows) == 1
    assert np.linalg.norm(geodesic_flow(conn, x, v)[0] - y) <= 1e-11


def _bump_round_trips(bump):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        v *= 0.5 / max(1.0, np.linalg.norm(v))
        y, _ = geodesic_flow(bump.conn, x, v, 1.0,
                             bump.tolerances)
        yield x, v, y


def test_bump_exp_log_round_trip(bump):
    for x, v, y in _bump_round_trips(bump):
        v_rec, _ = log_shooting(bump.conn, x, y, bump.tolerances)
        assert np.max(np.abs(v_rec - v)) <= 1e-9
        end, _ = geodesic_flow(bump.conn, x, v_rec, 1.0,
                               bump.tolerances)
        # small-h predictor checks (criterion 3) need the final residual
        # well below the 1e-11 convergence target
        assert np.linalg.norm(end - y) <= 1e-14


def test_bump_log_christoffel_budget(bump):
    # a finite-difference Newton Jacobian spends 11,748 evaluations on these
    # five solves; the quasi-Newton solve seeded with I - G(x)(v, .) spent
    # 2,463 (2,451 with scipy's tolerance-sized first step, 5,781 when its
    # flows ran on a 4(5) pair instead of DOP853), and seeded with the
    # Jacobi-field Jacobian it spent 2,170, each of whose Jacobi right-hand
    # sides reads grad_f and hess_f once (2,201 while the start rule's
    # evaluation was repeated as the first stage).  It spent 2,073 while
    # each step also evaluated the derivative at its end, after the last
    # step too, and the seed ran at the solve's tolerance, and 1,771 while
    # the seed integrated the variational equation; it spends 1,747
    counter = CountingChristoffel(bump.conn)
    for x, _, y in _bump_round_trips(bump):
        log_shooting(counter.conn, x, y, bump.tolerances)
    assert counter.calls <= 3500


def test_log_at_round_off_makes_no_polishing_flow(bump, monkeypatch):
    # a quasi-Newton step that lands within 8 eps max(1, |y|_inf) of y ends
    # the solve: the polishing step after it cannot lower the residual by
    # more than round-off, so it is not tried.  On the second of these
    # round trips the last quasi-Newton step lands at 1.6e-15
    flows = _flows_failing_after(monkeypatch, math.inf, DomainEscape)
    skipped = 0
    for x, _, y in _bump_round_trips(bump):
        flows.clear()
        v, _ = log_shooting(bump.conn, x, y, bump.tolerances)
        residuals = [np.linalg.norm(geodesic_flow(*args)[0] - y)
                     for args in flows]
        floor = 8.0 * np.finfo(float).eps * max(1.0, np.abs(y).max())
        at_floor = [i for i, r in enumerate(residuals) if r <= floor]
        if at_floor:
            assert at_floor[0] == len(flows) - 1
            assert np.array_equal(flows[-1][2], v)
            skipped += len(flows) > 1 and residuals[-2] > 1e-11
    assert skipped >= 1


def test_stereographic_exp_log_round_trip():
    conn = make_chart("sphere2-stereographic")
    x = np.array([0.3, -0.4])
    v = np.array([0.5, 0.35])
    y, _ = geodesic_flow(conn, x, v, 1.0)
    v_rec, iters = log_shooting(conn, x, y)
    assert iters >= 1
    assert np.max(np.abs(v_rec - v)) <= 1e-9
    assert np.linalg.norm(geodesic_flow(conn, x, v_rec, 1.0)[0] - y) <= 1e-14


def test_near_antipodal_shooting_signals_no_convergence():
    conn = make_chart("sphere2-stereographic")
    with pytest.raises(NoConvergence):
        log_shooting(conn, np.zeros(2), np.array([200.0, 0.0]),
                     ToleranceConfig(max_shooting_iters=12))


def _flows_failing_after(monkeypatch, n, error):
    """Make every geodesic flow after the first n raise error."""
    flows = []

    def flow(*args):
        flows.append(args)
        if len(flows) > n:
            raise error("injected")
        return geodesic_flow(*args)

    monkeypatch.setattr(chart, "geodesic_flow", flow)
    return flows


def test_failed_shooting_trial_reports_current_residual(monkeypatch):
    conn = make_chart("sphere2-stereographic")
    # the first trial, the Jacobi flow from the chart difference (the series
    # start moves it too far), runs through the chart's point at infinity;
    # the solve still holds v = 0, whose residual is |y - x|
    x, y = np.zeros(2), np.array([3.0, 1.0])
    assert np.array_equal(chart._shooting_start(conn, x, y - x), y - x)
    with pytest.raises(NoConvergence, match="trial failed") as info:
        log_shooting(conn, x, y)
    assert info.value.residual == pytest.approx(math.sqrt(10.0))
    assert isinstance(info.value.__cause__, DomainEscape)
    # a line-search trial, the first geodesic flow, that exhausts the step
    # budget ends the solve at the residual of the first trial, whose
    # endpoint lands at chart radius tan(1.5)
    x, y = np.zeros(2), np.array([1.5, 0.0])
    assert np.array_equal(chart._shooting_start(conn, x, y - x), y - x)
    _flows_failing_after(monkeypatch, 0, MaxStepsExceeded)
    with pytest.raises(NoConvergence, match="trial failed") as info:
        log_shooting(conn, x, y)
    assert info.value.residual == pytest.approx(math.tan(1.5) - 1.5)
    assert isinstance(info.value.__cause__, MaxStepsExceeded)


@pytest.mark.parametrize("name, x, y, v", [
    # the first quasi-Newton step overshoots through the chart's point at
    # infinity; half of it does not, and the solve goes on to the log
    ("sphere2-stereographic", (0.0, 0.0), (1.5, 0.0), (math.atan(1.5), 0.0)),
    # a target outside the [-0.5, 0.5]^2 sampling square whose first trials
    # leave the box
    ("bump2d", (0.3797, -0.4358), (0.9129, 1.4111), None),
], ids=["stereographic-overshoot", "bump2d-far-target"])
def test_line_search_trial_that_leaves_the_chart_is_rejected(name, x, y, v):
    conn = make_chart(name)
    x, y = np.array(x), np.array(y)
    v_log, _ = log_shooting(conn, x, y)
    assert np.linalg.norm(geodesic_flow(conn, x, v_log)[0] - y) <= 1e-11
    if v is not None:
        assert np.allclose(v_log, v, atol=1e-9)


def test_line_search_with_every_trial_escaping_raises_current_residual(
        monkeypatch):
    # after the first trial, the Jacobi flow at the seed's tolerance, every
    # geodesic flow escapes: the five trials of the first iteration are
    # rejected
    conn = make_chart("sphere2-stereographic")
    x, y = np.zeros(2), np.array([0.9, 0.4])
    v0 = chart._shooting_start(conn, x, y - x)
    end, _ = chart._jacobi_flow(conn, x, v0,
                                chart._seed_tolerances(ToleranceConfig()))
    start = np.linalg.norm(end - y)
    flows = _flows_failing_after(monkeypatch, 0, DomainEscape)
    with pytest.raises(NoConvergence, match="line search") as info:
        log_shooting(conn, x, y)
    assert info.value.residual == start
    assert len(flows) == 5


def test_shooting_reports_residual_when_stalled():
    conn = make_chart("sphere2-stereographic")
    with pytest.raises(NoConvergence) as info:
        log_shooting(conn, np.zeros(2), np.array([0.9, 0.4]),
                     ToleranceConfig(max_shooting_iters=1))
    assert info.value.residual is not None


def test_shooting_line_search_without_decrease_raises_best_residual():
    # a target past the equator of the sphere as seen from x: none of the
    # five trials of the third iteration lowers the residual; the solve
    # stops there and reports the residual it held after the second
    # iteration, as a solve stopped there does, instead of taking a worse
    # trial
    conn = make_chart("sphere2-stereographic")
    x = np.array([0.3797, -0.4358])
    y = np.array([0.9129, 1.4111])
    with pytest.raises(NoConvergence, match="stalled after 2") as held:
        log_shooting(conn, x, y, ToleranceConfig(max_shooting_iters=2))
    with pytest.raises(NoConvergence, match="no decrease at iteration 3") as info:
        log_shooting(conn, x, y)
    assert info.value.residual == held.value.residual


@pytest.mark.parametrize("x, y", [
    ((0.3977, 0.3442), (-1.4433, -0.9049)),
    ((0.4889, -0.3123), (-1.2749, 1.1329)),
])
def test_rejected_trials_update_the_shooting_jacobian(bump, x, y):
    # targets outside the sampling square, where the first-order Jacobian is
    # poor: halving its step finds no decrease, but a Jacobian that also
    # learns from each rejected trial finds a descent direction
    v, _ = log_shooting(bump.conn, x, y, bump.tolerances)
    end, _ = geodesic_flow(bump.conn, x, v, 1.0, bump.tolerances)
    assert np.linalg.norm(end - y) <= 1e-11


def _far_bump_pairs():
    # targets up to 1.6 out in each coordinate, far outside the sampling
    # square
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.5, 0.5, (60, 2))
    ys = rng.uniform(-1.6, 1.6, (60, 2))
    return list(zip(xs, ys))


def test_far_bump_pairs_all_converge_without_warnings(bump):
    # an overflowing line-search trial once escaped the 43rd solve as a
    # RuntimeWarning
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in _far_bump_pairs():
            v, _ = log_shooting(bump.conn, x, y, bump.tolerances)
            end, _ = geodesic_flow(bump.conn, x, v, 1.0, bump.tolerances)
            worst = max(worst, np.linalg.norm(end - y))
    assert worst <= 1e-13


def _bump_log_pairs(bump):
    return ([(x, y) for x, _, y in _bump_round_trips(bump)]
            + _far_bump_pairs())


def test_only_the_shooting_seed_runs_at_the_seed_tolerance(bump, monkeypatch):
    # the Jacobi flow that seeds each log, with its 6-component state, runs
    # at the seed's looser tolerance; every line-search trial, polishing
    # step and confirmation is a plain flow at the solve's own, the map exp
    # integrates
    tol = bump.tolerances
    seed = chart._seed_tolerances(tol)
    assert seed.ode_rel_tol > tol.ode_rel_tol
    assert seed.ode_abs_tol == tol.ode_abs_tol
    pairs = _bump_log_pairs(bump)
    solves = _record_solves(monkeypatch)
    for x, y in pairs:
        solves.clear()
        log_shooting(bump.conn, x, y, tol)
        (first, *_), *rest = solves
        assert first[2].size == 6
        assert first[-3:] == (seed.ode_rel_tol, seed.ode_abs_tol, 4)
        assert rest
        for args, *_ in rest:
            assert args[2].size == 4
            assert args[-3:] == (tol.ode_rel_tol, tol.ode_abs_tol, 4)


def test_a_tighter_shooting_seed_saves_no_iterations(bump, monkeypatch):
    # the seed only starts the quasi-Newton solve: integrated at the
    # solve's own tolerance it costs more steps and buys no iteration.  On
    # these 65 logs both seeds take 492 iterations, where two far logs
    # trade one (12 and 6 iterations against 11 and 7), and the tighter one
    # spends 174,715 evaluations against 165,131
    pairs = _bump_log_pairs(bump)

    def iterations():
        return sum(log_shooting(bump.conn, x, y, bump.tolerances)[1]
                   for x, y in pairs)

    loose = iterations()
    jacobi_flow = chart._jacobi_flow
    monkeypatch.setattr(
        chart, "_jacobi_flow",
        lambda conn, x, v, tolerances: jacobi_flow(conn, x, v,
                                                   bump.tolerances))
    assert iterations() >= loose


def test_singular_shooting_jacobian_is_no_convergence():
    # on a line with G = 1 the geodesic from 0 at speed v ends at
    # log(1 + v): the first trial, v = y - x = 1, misses y = 1, and the
    # first-order Jacobian 1 - G v there is 0
    conn = ChartConnection(dim=1, christoffel=lambda x: np.ones((1, 1, 1)))
    with pytest.raises(NoConvergence, match="singular") as info:
        log_shooting(conn, [0.0], [1.0])
    assert info.value.residual == pytest.approx(1.0 - math.log(2.0))


@pytest.mark.parametrize("failure", ["flow", "solve"])
def test_failed_polishing_step_keeps_the_converged_velocity(
        bump, monkeypatch, failure):
    # the step after convergence is kept only if it lowers the residual; a
    # singular Jacobian or a flow that fails there leaves the last
    # quasi-Newton trial's velocity, and the step still counts
    x, _, y = next(_bump_round_trips(bump))
    flows = _flows_failing_after(monkeypatch, math.inf, DomainEscape)
    solve, solves = np.linalg.solve, []

    def counted_solve(a, b):
        solves.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    v_ref, iters_ref = log_shooting(bump.conn, x, y, bump.tolerances)
    # the polishing flow was the last, and it was kept
    assert np.array_equal(flows[-1][2], v_ref)
    converged = flows[-2][2]
    assert not np.array_equal(converged, v_ref)
    n_flows, n_solves = len(flows), len(solves)
    if failure == "flow":
        flows = _flows_failing_after(monkeypatch, n_flows - 1, DomainEscape)
    else:
        def failing_solve(a, b):
            solves.append(a)
            if len(solves) == n_solves:
                raise np.linalg.LinAlgError("injected")
            return solve(a, b)

        solves.clear()
        monkeypatch.setattr(np.linalg, "solve", failing_solve)
    v, iters = log_shooting(bump.conn, x, y, bump.tolerances)
    assert np.array_equal(v, converged)
    assert iters == iters_ref


@pytest.mark.parametrize("beyond", [DomainEscape("beyond the wall"),
                                    [math.nan, 0.0]],
                         ids=["domain-escape", "not-finite"])
def test_third_order_guess_falls_back_where_the_connection_fails(beyond):
    # x + d/3 lies past a wall beyond which the connection raises or is not
    # finite: the guess is the chart difference d itself
    def grad_f(x):
        if x[0] > 0.5:
            if isinstance(beyond, Exception):
                raise beyond
            return beyond
        return [0.5 * x[0], 0.0]

    conn = ChartConnection.conformal(2, grad_f)
    x = np.array([0.4, 0.0])
    d = np.array([0.4, 0.1])
    assert np.array_equal(chart._shooting_start(conn, x, d), d)
    # a step that stays before the wall moves the guess
    assert not np.array_equal(chart._shooting_start(conn, x, 0.1 * d),
                              0.1 * d)


# -- Jacobi fields ---------------------------------------------------------------

@pytest.mark.parametrize("name, x, v", [
    ("bump2d", (0.3, 0.1), (0.4, -0.3)),
    ("sphere2-stereographic", (0.3, -0.4), (0.5, 0.35)),
    ("hyperbolic2-ball", (0.2, -0.3), (0.3, 0.2)),
])
def test_jacobi_flow_jacobian_matches_central_differences(name, x, v):
    conn = make_chart(name)
    x, v = np.array(x), np.array(v)
    end, jac = chart._jacobi_flow(conn, x, v, ToleranceConfig())
    # the geodesic rides along with the scalar Jacobi equation
    assert np.abs(end - geodesic_flow(conn, x, v)[0]).max() <= 1e-12
    tight = ToleranceConfig(ode_rel_tol=1e-13, ode_abs_tol=1e-13)
    h = 1e-4
    fd = np.column_stack([
        (geodesic_flow(conn, x, v + e, 1.0, tight)[0]
         - geodesic_flow(conn, x, v - e, 1.0, tight)[0]) / (2 * h)
        for e in h * np.eye(x.size)])
    # the differences' own error is about 1e-8 here; the first-order model
    # I - G(x)(v, .) misses by 0.06 to 0.19
    assert np.abs(jac - fd).max() <= 1e-7


def test_jacobi_flow_reads_gradient_and_hessian_once_per_evaluation(
        bump, monkeypatch):
    solves = _record_solves(monkeypatch)
    counter = CountingChristoffel(bump.conn)
    chart._jacobi_flow(counter.conn, _START_X, 0.3 * _START_DIR,
                       ToleranceConfig())
    # the start rule's evaluation, 11 stages per step attempt and the
    # derivative at the end of each accepted step but the last
    [(_, _, accepted, rejected)] = solves
    assert counter.calls == 2 * (1 + 11 * (accepted + rejected)
                                 + accepted - 1)


def test_jacobi_flow_controls_the_geodesic_at_a_plain_flows_error_norm(
        bump, monkeypatch):
    # of the 6 components of the seed state (x, v, b, b') only the
    # geodesic's 4 enter the error norm, at the tolerances of a plain flow
    solves = _record_solves(monkeypatch)
    tol = ToleranceConfig()
    chart._jacobi_flow(bump.conn, _START_X, 0.3 * _START_DIR, tol)
    geodesic_flow(bump.conn, _START_X, 0.3 * _START_DIR, 1.0, tol)
    (jacobi, *_), (plain, *_) = solves
    for args in (jacobi, plain):
        assert args[-3:] == (tol.ode_rel_tol, tol.ode_abs_tol, 4)
    assert jacobi[2].size == 6 and plain[2].size == 4
    # a field a million times larger, whose errors grow with it, leaves the
    # geodesic's steps, and so its endpoint, unchanged to the last bit
    conn, rhs, z0, f0, *rest = jacobi
    big = np.concatenate([z0[:4], 1e6 * z0[4:]])
    z, accepted, rejected = chart._dop853(conn, rhs, z0, f0, *rest)
    z_big, accepted_big, rejected_big = chart._dop853(conn, rhs, big,
                                                      rhs(big.tolist()),
                                                      *rest)
    assert (accepted_big, rejected_big) == (accepted, rejected)
    assert np.array_equal(z_big[:4], z[:4])


def test_jacobi_flow_of_no_velocity_is_the_identity(bump):
    # the Jacobian's formula divides by |v|^2, which is 0 here: the seed
    # returns the exact Jacobian, the identity, without a warning, and a log
    # from a point to itself returns 0 in no iteration
    x = np.array([0.3, 0.1])
    end, jac = chart._jacobi_flow(bump.conn, x, np.zeros(2), ToleranceConfig())
    assert np.array_equal(end, x)
    assert np.array_equal(jac, np.eye(2))
    v, iters = log_shooting(bump.conn, x, x)
    assert np.array_equal(v, np.zeros(2)) and iters == 0


def _stereographic_3_sphere():
    """The unit 3-sphere's conformal chart from its north pole, with the
    Hessian of its factor, counting the Hessian's reads."""
    reads = []

    def grad_f(x):
        s = 1.0 + sum(xi * xi for xi in x)
        return [-2.0 * xi / s for xi in x]

    def hess_f(x):
        reads.append(x)
        s = 1.0 + sum(xi * xi for xi in x)
        return [[-2.0 * (i == j) / s + 4.0 * x[i] * x[j] / (s * s)
                 for j in range(3)] for i in range(3)]

    return ChartConnection.conformal(3, grad_f, hess_f=hess_f), reads


def test_three_dimensional_conformal_chart_shoots_from_the_first_order_seed(
        monkeypatch):
    # the scalar Jacobi equation holds on a surface only: a 3-d conformal
    # chart starts from the chart difference on a plain flow, with the
    # first-order Jacobian I - G(x)(v, .), and never reads its Hessian.
    # This log takes 9 iterations; seeded by the 3-d variational equation
    # it took 7
    conn, reads = _stereographic_3_sphere()
    x, y = np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.3, -0.2])
    monkeypatch.setattr(chart, "_jacobi_flow", lambda *args: pytest.fail(
        "the 2-d seed ran"))
    flows = _flows_failing_after(monkeypatch, math.inf, DomainEscape)
    v, iters = log_shooting(conn, x, y)
    assert np.array_equal(flows[0][2], y - x)
    assert iters == 9
    assert np.linalg.norm(geodesic_flow(conn, x, v)[0] - y) <= 1e-11
    assert reads == []


def test_nabla_curvature_is_built_once_per_point_and_connection(monkeypatch):
    space = make_space("bump2d")
    rng = np.random.default_rng(4)
    p = space.anchor_point()
    a, u, v, w = (space.random_direction(rng, p) for _ in range(4))
    calls = count_engine_calls(monkeypatch, "nabla_curvature_components")
    got = [space.nabla_curvature(p, a, u, v, w),
           space.nabla_curvature(p, u, v, w, a)]
    assert calls["nabla_curvature_components"] == 1
    dr = nabla_curvature_components(space.conn, p.coords)
    for out, args in zip(got, ((a, u, v, w), (u, v, w, a))):
        ref = np.einsum("mlijk,m,i,j,k->l", dr, *(t.components for t in args))
        assert np.array_equal(out.components, ref)
    q = space.exp(p, 0.1 * u)
    b = space.random_direction(rng, q)
    space.nabla_curvature(q, b, b, b, b)
    assert calls["nabla_curvature_components"] == 2
    space.conn = dataclasses.replace(space.conn)
    space.nabla_curvature(q, b, b, b, b)
    space.nabla_curvature(q, b, b, b, b)
    assert calls["nabla_curvature_components"] == 3


def test_a_sweep_op_leaves_the_space_unchanged():
    # a space is immutable after construction: the measured error and the
    # predictor, with its cached tensor, keep nothing in the space
    space = make_space("bump2d")
    m = space.anchor_point()
    u, v = (0.1 * space.random_direction(np.random.default_rng(s), m)
            for s in (1, 2))
    before = dict(vars(space))
    anchor = space.anchor.copy()
    pole_error_measured(space, m, u, v)
    pole_error_predicted(space, m, u, v)
    assert vars(space).keys() == before.keys()
    assert all(vars(space)[k] is before[k] for k in before)
    assert np.array_equal(space.anchor, anchor)


# -- transport ------------------------------------------------------------------

def test_flat_transport_identity():
    conn = flat_chart()
    u, pos, _ = transport_ode(conn, [0.3, -0.7], [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(u, [0.3, -0.7], atol=1e-12)
    assert np.allclose(pos, [1.0, 1.0], atol=1e-12)


def test_velocity_self_transport(bump):
    x = np.array([0.2, -0.1])
    v = np.array([0.3, 0.2])
    _, vel_end = geodesic_flow(bump.conn, x, v, 1.0,
                               bump.tolerances)
    moved, _, _ = transport_ode(bump.conn, v, x, v, 1.0,
                                bump.tolerances)
    assert np.max(np.abs(moved - vel_end)) <= 1e-10


def test_transport_composes_along_the_same_geodesic(bump):
    x = np.array([-0.15, 0.05])
    v = np.array([0.4, 0.3])
    u = np.array([0.2, -0.5])
    direct, _, _ = transport_ode(bump.conn, u, x, v, 1.0,
                                 bump.tolerances)
    mid_pos, mid_vel = geodesic_flow(bump.conn, x, v, 0.5,
                                     bump.tolerances)
    first, _, _ = transport_ode(bump.conn, u, x, v, 0.5,
                                bump.tolerances)
    second, _, _ = transport_ode(bump.conn, first, mid_pos, mid_vel, 0.5,
                                 bump.tolerances)
    assert np.max(np.abs(second - direct)) <= 1e-11


def test_transport_preserves_metric_norm(bump):
    x = np.array([0.1, 0.1])
    v = np.array([0.3, -0.2])
    u = np.array([-0.4, 0.25])
    moved, pos, _ = transport_ode(bump.conn, u, x, v, 1.0,
                                  bump.tolerances)
    n0 = math.sqrt(u @ bump.metric(x) @ u)
    n1 = math.sqrt(moved @ bump.metric(pos) @ moved)
    assert abs(n1 - n0) / n0 <= 1e-10


@pytest.mark.parametrize("name", ["bump2d", "sphere2-stereographic"])
def test_exp_transport_matches_exp_and_transport(name):
    # one transport ODE against a geodesic flow plus a shooting solve and a
    # second transport ODE
    space = ChartSpace(name, make_chart(name), metric=None)
    p = space.point([0.2, -0.1])
    u = space.tangent(p, [-0.15, 0.4])
    v = space.tangent(p, [0.3, 0.25])
    out = space.exp_transport(u, v)
    q = space.exp(p, v)
    assert np.max(np.abs(out.base.coords - q.coords)) <= 1e-12
    assert np.max(np.abs(out.components
                         - space.transport(u, q).components)) <= 1e-10


# -- chart vs closed form: every fleet member with a chart realization ---------

def _stereographic_maps():
    def to_emb(c):
        r2 = float(c @ c)
        return np.array([2 * c[0], 2 * c[1], r2 - 1.0]) / (1.0 + r2)

    def demb(c):
        r2 = float(c @ c)
        s = 1.0 + r2
        phi = np.array([2 * c[0], 2 * c[1], r2 - 1.0])
        dphi = np.array([[2.0, 0.0], [0.0, 2.0], [2 * c[0], 2 * c[1]]])
        return (dphi * s - np.outer(phi, 2.0 * c)) / s ** 2

    return to_emb, demb


def test_sphere_chart_matches_closed_form():
    sp = make_space("sphere-2")
    conn = make_chart("sphere2-stereographic")
    to_emb, demb = _stereographic_maps()
    c0 = np.array([0.2, -0.1])
    w = np.array([0.3, 0.25])
    u_chart = np.array([-0.15, 0.4])
    c1, _ = geodesic_flow(conn, c0, w, 1.0)
    p = sp.point(to_emb(c0))
    q = sp.exp(p, sp.tangent(p, demb(c0) @ w))
    assert np.max(np.abs(to_emb(c1) - q.coords)) <= 1e-10
    moved, c1b, _ = transport_ode(conn, u_chart, c0, w, 1.0)
    closed = sp.transport(sp.tangent(p, demb(c0) @ u_chart), q)
    assert np.max(np.abs(demb(c1b) @ moved - closed.components)) <= 1e-9


def test_hyperbolic_chart_matches_closed_form():
    hy = make_space("hyperbolic-2")
    conn = make_chart("hyperbolic2-ball")

    def to_hyp(b):
        r2 = float(b @ b)
        return np.array([1.0 + r2, 2 * b[0], 2 * b[1]]) / (1.0 - r2)

    def dhyp(b):
        r2 = float(b @ b)
        s = 1.0 - r2
        phi = np.array([1.0 + r2, 2 * b[0], 2 * b[1]])
        dphi = np.array([[2 * b[0], 2 * b[1]], [2.0, 0.0], [0.0, 2.0]])
        return (dphi * s + np.outer(phi, 2.0 * b)) / s ** 2

    b0 = np.array([0.1, -0.2])
    w = np.array([0.2, 0.15])
    u = np.array([0.3, 0.1])
    b1, _ = geodesic_flow(conn, b0, w, 1.0)
    p = hy.point(to_hyp(b0))
    q = hy.exp(p, hy.tangent(p, dhyp(b0) @ w))
    assert np.max(np.abs(to_hyp(b1) - q.coords)) <= 1e-10
    moved, b1b, _ = transport_ode(conn, u, b0, w, 1.0)
    closed = hy.transport(hy.tangent(p, dhyp(b0) @ u), q)
    assert np.max(np.abs(dhyp(b1b) @ moved - closed.components)) <= 1e-9


def test_spd_chart_matches_closed_form():
    spd = make_space("spd-2")
    conn = make_chart("spd2-entries")
    pmat = np.array([[1.3, 0.2], [0.2, 0.9]])
    vmat = np.array([[0.4, -0.1], [-0.1, 0.25]])
    umat = np.array([[0.2, 0.05], [0.05, -0.3]])

    def entries(mat):
        return np.array([mat[0, 0], mat[0, 1], mat[1, 1]])

    c1, _ = geodesic_flow(conn, entries(pmat), entries(vmat), 1.0)
    p = spd.point(pmat.ravel())
    q = spd.exp(p, spd.tangent(p, vmat.ravel()))
    assert np.max(np.abs(entries(q.coords.reshape(2, 2)) - c1)) <= 1e-10
    moved, _, _ = transport_ode(conn, entries(umat), entries(pmat),
                                entries(vmat), 1.0)
    closed = spd.transport(spd.tangent(p, umat.ravel()), q)
    assert np.max(np.abs(entries(closed.components.reshape(2, 2)) - moved)) \
        <= 1e-9


def test_so3_chart_matches_closed_form():
    so3 = make_space("so3")
    conn, _, right_jacobian = _so3_rotation_vector_chart()
    th0 = np.array([0.3, -0.2, 0.4])
    omega = np.array([0.25, 0.1, -0.15])  # body velocity
    u_body = np.array([0.1, 0.3, -0.2])
    thdot = np.linalg.solve(right_jacobian(th0), omega)
    udot = np.linalg.solve(right_jacobian(th0), u_body)
    th1, _ = geodesic_flow(conn, th0, thdot, 1.0)
    r0 = _rodrigues(th0)
    p = so3.point(r0.ravel())
    q = so3.exp(p, so3.tangent(p, (r0 @ _hat(omega)).ravel()))
    assert np.max(np.abs(_rodrigues(th1) - q.coords.reshape(3, 3))) <= 1e-10
    moved, th1b, _ = transport_ode(conn, udot, th0, thdot, 1.0)
    closed_body = q.coords.reshape(3, 3).T @ \
        so3.transport(so3.tangent(p, (r0 @ _hat(u_body)).ravel()),
                      q).components.reshape(3, 3)
    assert np.max(np.abs(_hat(right_jacobian(th1b) @ moved) - closed_body)) \
        <= 1e-9


# -- curvature ------------------------------------------------------------------

def test_flat_chart_curvature_zero():
    assert np.allclose(curvature_components(flat_chart(), [0.3, 0.4]), 0.0)
    assert np.allclose(
        nabla_curvature_components(flat_chart(), [0.3, 0.4]), 0.0)


def test_stereographic_chart_recovers_unit_sectional_curvature():
    conn = make_chart("sphere2-stereographic")
    x = np.array([0.25, -0.15])
    r = curvature_components(conn, x)
    r2 = float(x @ x)
    g = (4.0 / (1.0 + r2) ** 2) * np.eye(2)
    scale = math.sqrt(g[0, 0])
    e1 = np.array([1.0, 0.0]) / scale
    e2 = np.array([0.0, 1.0]) / scale
    k = float(np.einsum("lijk,i,j,k->l", r, e1, e2, e2) @ g @ e1)
    assert k == pytest.approx(1.0, abs=1e-6)


def test_bump_gauss_curvature_matches_conformal_formula(bump):
    for pt in ([0.3, 0.1], [0.0, 0.0], [-0.4, 0.2]):
        x = np.array(pt)
        r = curvature_components(bump.conn, x)
        g = bump.metric(x)
        s = math.exp(-bump.beta * x[0] ** 2)
        e1 = np.array([s, 0.0])
        e2 = np.array([0.0, s])
        k = float(np.einsum("lijk,i,j,k->l", r, e1, e2, e2) @ g @ e1)
        assert k == pytest.approx(bump.gauss_curvature(x), abs=1e-6)


def test_curvature_against_loop_holonomy(bump):
    # transport around a small counterclockwise coordinate square and compare
    # the defect against the curvature contraction: (loop - id)u / eps^2
    # converges to -R(e1, e2)u
    conn = bump.conn

    def straight_transport(u, a, b, steps=200):
        u = u.copy()
        h = 1.0 / steps
        d = b - a

        def rhs(t, u):
            g = conn.gamma(a + t * d)
            return -np.einsum("kij,i,j->k", g, d, u)

        t = 0.0
        for _ in range(steps):
            k1 = rhs(t, u)
            k2 = rhs(t + h / 2, u + 0.5 * h * k1)
            k3 = rhs(t + h / 2, u + 0.5 * h * k2)
            k4 = rhs(t + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return u

    x0 = np.array([0.3, 0.1])
    u0 = np.array([0.7, -0.4])
    r = curvature_components(conn, x0)
    expected = -np.einsum("lijk,i,j,k->l", r, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), u0)
    eps = 0.01
    corners = [x0, x0 + [eps, 0.0], x0 + [eps, eps], x0 + [0.0, eps], x0]
    u = u0.copy()
    for a, b in zip(corners[:-1], corners[1:]):
        u = straight_transport(u, np.asarray(a, float), np.asarray(b, float))
    defect = (u - u0) / eps ** 2
    assert np.max(np.abs(defect - expected)) <= 5e-3  # O(eps) truncation


def test_fd_curvature_convergence_order(monkeypatch):
    # the bump symbols are linear in position (central differences exact), so
    # probe the stencil order on the stereographic chart, whose symbols are
    # rational and whose sectional curvature is exactly 1; the step is the
    # module's, as no coordinate of x passes 1
    conn = make_chart("sphere2-stereographic")
    x = np.array([0.25, -0.15])
    r2 = float(x @ x)
    g = (4.0 / (1.0 + r2) ** 2) * np.eye(2)
    scale = math.sqrt(g[0, 0])
    e1 = np.array([1.0, 0.0]) / scale
    e2 = np.array([0.0, 1.0]) / scale
    steps = np.geomspace(3e-2, 3e-3, 6)
    errs = []
    for h in steps:
        monkeypatch.setattr(chart, "_FD_STEP", float(h))
        r = curvature_components(conn, x)
        k = float(np.einsum("lijk,i,j,k->l", r, e1, e2, e2) @ g @ e1)
        errs.append(abs(k - 1.0))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 1.8  # central differences: second order


def test_chart_curvature_skew_after_antisymmetrization(bump):
    r = curvature_components(bump.conn, np.array([0.2, -0.3]))
    assert np.array_equal(r, -np.einsum("ljik->lijk", r))


def test_stereographic_chart_is_locally_symmetric():
    conn = make_chart("sphere2-stereographic")
    dr = nabla_curvature_components(conn, np.array([0.2, 0.1]))
    assert np.max(np.abs(dr)) <= 1e-5


def test_bump_nabla_curvature_against_transport_conjugation(bump):
    conn = bump.conn
    x = np.array([0.3, 0.1])
    dr = nabla_curvature_components(conn, x)
    rng = np.random.default_rng(13)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    probes = [rng.standard_normal(2) for _ in range(3)]

    def conjugated(t):
        if t == 0.0:
            r = curvature_components(conn, x)
            return np.einsum("lijk,i,j,k->l", r, *probes)
        pos, vel = geodesic_flow(conn, x, direction * t, 1.0,
                                 bump.tolerances)
        moved = [transport_ode(conn, pr, x, direction * t, 1.0,
                               bump.tolerances)[0]
                 for pr in probes]
        r = curvature_components(conn, pos)
        val = np.einsum("lijk,i,j,k->l", r, *moved)
        return transport_ode(conn, val, pos, -vel, 1.0,
                             bump.tolerances)[0]

    delta = 1e-3
    fd = (conjugated(delta) - conjugated(-delta)) / (2.0 * delta)
    contracted = np.einsum("mlijk,m,i,j,k->l", dr, direction, *probes)
    assert np.max(np.abs(fd - contracted)) <= 2e-5


def test_fd_stencil_domain_escape(monkeypatch):
    conn = flat_chart(bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    monkeypatch.setattr(chart, "_FD_STEP", 1e-3)
    with pytest.raises(DomainEscape):
        curvature_components(conn, np.array([1.0, 0.0]))


def test_christoffels_from_metric_matches_conformal_closed_form(bump):
    gamma_fd = christoffels_from_metric(bump.metric)
    x = np.array([0.25, -0.35])
    assert np.max(np.abs(gamma_fd(x) - bump.conn.gamma(x))) <= 1e-8


def test_chart_space_wraps_engine(bump):
    p = bump.point([0.0, 0.0])
    v = bump.tangent(p, [0.1, 0.2])
    q = bump.exp(p, v)
    assert np.max(np.abs(q.coords - BUMP_EXP_ORACLE)) <= 1e-12
    vec, iters = bump.log_stats(p, q)
    assert iters >= 1
    assert np.max(np.abs(vec.components - v.components)) <= 1e-9


def test_chart_registry_unknown_name():
    with pytest.raises(ValueError):
        make_chart("nope")


def test_nan_conformal_gradient_raises_non_finite():
    conn = ChartConnection.conformal(
        2, lambda x: np.full(2, np.nan),
        chart_bounds=(np.full(2, -2.0), np.full(2, 2.0)))
    with pytest.raises(NonFinite):
        geodesic_flow(conn, [0.3, 0.1], [0.1, 0.0])
    with pytest.raises(NonFinite):
        transport_ode(conn, [0.0, 1.0], [0.3, 0.1], [0.1, 0.0])


def test_nan_christoffel_raises_non_finite():
    # unchecked, a NaN symbol makes the integrator's time NaN, and it never
    # terminates
    conn = ChartConnection(2, lambda x: np.full((2, 2, 2), np.nan),
                           chart_bounds=(np.full(2, -2.0), np.full(2, 2.0)))
    with pytest.raises(NonFinite):
        geodesic_flow(conn, [0.3, 0.1], [0.1, 0.0])
