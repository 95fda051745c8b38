import math

import numpy as np
import pytest

from geoladders import (
    InsufficientData,
    alt_error_predicted,
    bch_numeric,
    bch_series,
    convergence_order,
    generic_directions,
    ladder_step,
    make_space,
    one_step_error_sweep,
    pole_error_measured,
    pole_error_predicted,
)

from helpers import count_engine_calls


# -- double-exponential series ---------------------------------------------------

def test_bch_euclidean_is_vector_addition():
    space = make_space("euclidean-3")
    x = space.point([0.0, 1.0, 2.0])
    v = space.tangent(x, [0.1, 0.2, -0.3])
    u = space.tangent(x, [-0.4, 0.5, 0.6])
    want = v.components + u.components
    for order in (1, 2, 3, 4):
        assert np.allclose(bch_series(space, x, v, u, order).components,
                           want, atol=1e-15)
    assert np.allclose(bch_numeric(space, x, v, u).components, want,
                       atol=1e-14)


def test_bch_order_two_equals_order_one():
    sp = make_space("sphere-2")
    x = sp.point([1.0, 0.0, 0.0])
    v = sp.tangent(x, [0.0, 0.2, 0.1])
    u = sp.tangent(x, [0.0, -0.1, 0.3])
    one = bch_series(sp, x, v, u, 1)
    two = bch_series(sp, x, v, u, 2)
    assert np.array_equal(one.components, two.components)
    for order in (0, 5):
        with pytest.raises(ValueError):
            bch_series(sp, x, v, u, order)


def test_bch_degenerate_arguments():
    sp = make_space("sphere-2")
    x = sp.point([1.0, 0.0, 0.0])
    v = sp.tangent(x, [0.0, 0.3, -0.1])
    zero = sp.tangent(x, [0.0, 0.0, 0.0])
    # u = 0: every curvature term contains u
    out = bch_numeric(sp, x, v, zero)
    assert (out - v).component_norm <= 1e-12
    assert np.array_equal(bch_series(sp, x, v, zero, 4).components,
                          v.components)
    # v = 0: series reduces to u, numerically too
    out = bch_numeric(sp, x, zero, v)
    assert (out - v).component_norm <= 1e-12
    assert np.array_equal(bch_series(sp, x, zero, v, 4).components,
                          v.components)


def test_bch_sphere_third_order_closed_form():
    # at x = e1 with v = a e2, u = b e3 the series corrections are exactly
    # (-a b^2 / 3) e2 + (a^2 b / 6) e3
    sp = make_space("sphere-2")
    x = sp.point([1.0, 0.0, 0.0])
    a, b = 0.1, 0.1
    v = sp.tangent(x, [0.0, a, 0.0])
    u = sp.tangent(x, [0.0, 0.0, b])
    series = bch_series(sp, x, v, u, 3)
    want = np.array([0.0, a - a * b * b / 3.0, b + a * a * b / 6.0])
    assert np.allclose(series.components, want, atol=1e-15)
    # the numeric double exponential differs only at fifth order
    num = bch_numeric(sp, x, v, u)
    assert (num - series).component_norm <= 1.2e-6  # measured 7.13e-7 = C h^5


@pytest.mark.parametrize("order,min_slope", [(1, 1.8), (3, 4.8), (4, 4.8)])
def test_bch_residual_decay_on_sphere(order, min_slope):
    sp = make_space("sphere-2")
    rng = np.random.default_rng(6)
    m = sp.random_point(rng)
    u_dir, v_dir = generic_directions(sp, m, rng)
    scales = np.geomspace(0.5, 0.05, 7)
    residuals = []
    for h in scales:
        u = float(h) * u_dir
        v = float(h) * v_dir
        residuals.append(
            (bch_numeric(sp, m, v, u)
             - bch_series(sp, m, v, u, order)).component_norm)
    rep = convergence_order(scales, residuals)
    assert rep.fitted_slope >= min_slope


def test_bch_order_four_identical_to_three_on_sphere(rng):
    sp = make_space("sphere-2")
    m = sp.random_point(rng)
    u_dir, v_dir = generic_directions(sp, m, rng)
    a = bch_series(sp, m, 0.3 * v_dir, 0.2 * u_dir, 3)
    b = bch_series(sp, m, 0.3 * v_dir, 0.2 * u_dir, 4)
    assert np.array_equal(a.components, b.components)


@pytest.mark.parametrize("name", ["euclidean-1", "sphere-1"])
def test_generic_directions_rejects_one_dimensional_space(name):
    space = make_space(name)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="dimension 1"):
        generic_directions(space, space.random_point(np.random.default_rng(1)),
                           rng)
    assert rng.bit_generator.state == state  # raised before any draw


def test_generic_directions_keep_pairs_off_parallel(bump):
    # on a near-parallel pair R(u, v) nearly vanishes with the leading error
    # term: from this seed the 60th pair of a |cos| <= 0.99 cut had cos
    # -0.9885 and a predictor defect of 0.24 at h = 0.0431, past criterion
    # 3's 0.15
    m = bump.anchor_point()
    rng = np.random.default_rng(8209)
    for _ in range(60):
        u_dir, v_dir = generic_directions(bump, m, rng)
        assert abs(bump.inner(u_dir, v_dir)) <= 0.95
    h = float(np.geomspace(0.2, 0.02, 7)[4])
    assert h == pytest.approx(0.0431, abs=1e-4)
    u, v = h * u_dir, h * v_dir
    pred = pole_error_predicted(bump, m, u, v)
    defect = pole_error_measured(bump, m, u, v, "pole_v2") - pred
    assert defect.component_norm <= 0.15 * pred.component_norm


# -- predictors -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sphere-2", "hyperbolic-2", "spd-3", "so3"])
def test_predictors_vanish_on_symmetric_fleet(name, rng):
    space = make_space(name)
    m = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, m)
    v = 0.4 * space.random_direction(rng, m)
    assert pole_error_predicted(space, m, u, v).component_norm <= 1e-8
    assert alt_error_predicted(space, m, u, v).component_norm <= 1e-8


def test_predictors_vanish_for_parallel_arguments(bump):
    m = bump.anchor_point()
    u = bump.tangent(m, [0.2, 0.1])
    v = 1.7 * u
    assert pole_error_predicted(bump, m, u, v).component_norm <= 1e-12
    assert alt_error_predicted(bump, m, u, v).component_norm <= 1e-12


def test_average_of_predictors_is_material(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(77)
    for _ in range(5):
        u_dir, v_dir = generic_directions(bump, m, rng)
        u = 0.1 * u_dir
        v = 0.1 * v_dir
        a = pole_error_predicted(bump, m, u, v)
        b = alt_error_predicted(bump, m, u, v)
        avg = 0.5 * (a + b)
        assert avg.component_norm > 0.1 * max(a.component_norm,
                                              b.component_norm)


# -- measured error protocol -------------------------------------------------------

def test_measured_error_zero_on_euclidean():
    space = make_space("euclidean-2")
    m = space.point([0.2, -0.1])
    u = space.tangent(m, [0.3, 0.1])
    v = space.tangent(m, [0.1, 0.25])
    err = pole_error_measured(space, m, u, v, "pole_v2")
    assert err.component_norm <= 1e-14


@pytest.mark.parametrize("name", ["sphere-2", "spd-3", "so3"])
def test_measured_error_at_exactness_tolerance_on_symmetric(name, rng):
    space = make_space(name)
    m = space.random_point(rng)
    u = 0.4 * space.random_direction(rng, m)
    v = 0.5 * space.random_direction(rng, m)
    err = pole_error_measured(space, m, u, v, "pole_v2")
    assert err.component_norm <= space.tolerances.exactness_tol


def test_measured_matches_predicted_and_defect_shrinks(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    defects = []
    for h in (0.05, 0.025, 0.0125):
        u = h * u_dir
        v = h * v_dir
        meas = pole_error_measured(bump, m, u, v, "pole_v2")
        pred = pole_error_predicted(bump, m, u, v)
        defects.append((meas - pred).component_norm / pred.component_norm)
    assert defects[0] <= 0.15
    assert defects[0] > defects[1] > defects[2]


def test_alt_measured_matches_alt_predictor(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    u = 0.05 * u_dir
    v = 0.05 * v_dir
    meas = pole_error_measured(bump, m, u, v, "pole_alt")
    pred = alt_error_predicted(bump, m, u, v)
    assert (meas - pred).component_norm / pred.component_norm <= 0.15


def test_variant_difference_matches_predictor_difference(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    u = 0.05 * u_dir
    v = 0.05 * v_dir
    dmeas = (pole_error_measured(bump, m, u, v, "pole_alt")
             - pole_error_measured(bump, m, u, v, "pole_v2"))
    dpred = (alt_error_predicted(bump, m, u, v)
             - pole_error_predicted(bump, m, u, v))
    assert (dmeas - dpred).component_norm / dpred.component_norm <= 0.15


def _measured_by_log_protocol(space, m, u, v, scheme):
    """The measured error with the geodesic recovered by log maps: exp to
    the ends, transport along log-shot geodesics to p and back to m.  The
    step is handed m, as pole_error_measured hands it; the midpoint's own
    effect is pinned by test_step_given_its_midpoint_matches_one_computing_it.
    """
    p = space.exp(m, -v)
    q = space.exp(m, v)
    u_q = ladder_step(space, p, q, space.transport(u, p), scheme, m)
    return space.transport(u_q, m) - u


@pytest.mark.parametrize("scheme", ["pole_v2", "pole_alt"])
def test_measured_error_matches_the_log_protocol(bump, scheme):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    for h in (0.2, 0.05, 0.02):
        ref = _measured_by_log_protocol(bump, m, h * u_dir, h * v_dir, scheme)
        meas = pole_error_measured(bump, m, h * u_dir, h * v_dir, scheme)
        assert (meas - ref).component_norm <= 1e-8 * ref.component_norm


def test_measured_error_makes_two_log_solves(bump, monkeypatch):
    # the ladder step's symmetry and final log: the step is handed m, so it
    # shoots no log for the midpoint; the oracle follows its geodesic with
    # three transport ODEs and shoots no log of its own
    calls = count_engine_calls(monkeypatch, "log_shooting", "transport_ode")
    m = bump.anchor_point()
    u_dir, v_dir = generic_directions(bump, m, np.random.default_rng(12345))
    pole_error_measured(bump, m, 0.1 * u_dir, 0.1 * v_dir, "pole_v2")
    assert calls == {"log_shooting": 2, "transport_ode": 3}


@pytest.mark.parametrize("scheme", ["pole_v1", "pole_v2", "pole_alt",
                                    "pole_avg"])
def test_step_given_its_midpoint_matches_one_computing_it(bump, scheme):
    # pole_error_measured hands the step m, which is the midpoint of
    # [exp_m(-v), exp_m(v)] up to integration error; against the step that
    # shoots its own midpoint this moves the result by round-off only
    # (at most 8.7e-14 here)
    m = bump.anchor_point()
    u_dir, v_dir = generic_directions(bump, m, np.random.default_rng(12345))
    for h in (0.2, 0.05, 0.02):
        u, v = h * u_dir, h * v_dir
        p, q = bump.exp(m, -v), bump.exp(m, v)
        u_p = bump.transport(u, p)
        given = ladder_step(bump, p, q, u_p, scheme, m)
        computed = ladder_step(bump, p, q, u_p, scheme)
        assert (given - computed).component_norm <= 1e-12


def test_one_step_sweep_has_fourth_order_slope(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    scales = np.geomspace(0.2, 0.02, 7)
    errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales, "pole_v2")
    rep = convergence_order(scales, errors)
    assert 3.7 <= rep.fitted_slope <= 4.3
    assert rep.r_squared >= 0.999


# -- convergence-order fitting -------------------------------------------------------

def test_convergence_order_synthetic_quartic():
    scales = np.geomspace(1.0, 0.05, 7)
    errors = 3.7 * scales ** 4
    rep = convergence_order(scales, errors)
    assert rep.fitted_slope == pytest.approx(4.0, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    assert rep.intercept == pytest.approx(math.log(3.7), abs=1e-10)
    assert rep.n_used == 7


def test_convergence_order_synthetic_cubic():
    scales = np.geomspace(0.5, 0.01, 9)
    rep = convergence_order(scales, 0.2 * scales ** 3)
    assert rep.fitted_slope == pytest.approx(3.0, abs=1e-12)


def test_convergence_order_masks_noise_floor():
    scales = np.geomspace(1.0, 0.01, 9)
    errors = 1e-3 * scales ** 2
    errors[-2:] = 1e-17  # below the default floor
    rep = convergence_order(scales, errors)
    assert rep.noise_floor_mask.sum() == 2
    assert rep.n_used == 7
    assert rep.fitted_slope == pytest.approx(2.0, abs=1e-9)


def test_convergence_order_requires_five_scales():
    with pytest.raises(InsufficientData):
        convergence_order([0.4, 0.2, 0.1, 0.05], [1, 1, 1, 1])


def test_convergence_order_requires_a_decade():
    scales = np.geomspace(0.2, 0.1, 6)
    with pytest.raises(InsufficientData):
        convergence_order(scales, 0.1 * scales ** 2)


def test_convergence_order_requires_four_points_above_floor():
    scales = np.geomspace(1.0, 0.05, 6)
    errors = np.full(6, 1e-18)
    errors[:2] = [1e-2, 1e-3]
    with pytest.raises(InsufficientData):
        convergence_order(scales, errors)


def test_convergence_order_validates_shapes():
    with pytest.raises(ValueError):
        convergence_order([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        convergence_order([0.5, 0.25, -0.1, 0.05, 0.02], [1, 1, 1, 1, 1])
