import math

import numpy as np
import pytest

from geoladders import (
    InsufficientData,
    NonFinite,
    Sphere,
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
from geoladders import analysis
from geoladders.analysis import (bch_residual_sweep, default_noise_floor,
                                 sample_trial)

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
    residuals = bch_residual_sweep(sp, m, u_dir, v_dir, scales)[order]
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


def test_generic_directions_edges(monkeypatch):
    # a cosine of exactly 0.95 is kept; all-parallel draws give up after
    # the first direction and 100 more
    space = make_space("euclidean-2")
    m = space.point([0.0, 0.0])
    e1 = space.tangent(m, [1.0, 0.0])
    edge = space.tangent(m, [0.95, 0.5])
    assert space.inner(e1, edge) == 0.95
    draws = iter([e1, edge])
    monkeypatch.setattr(space, "random_direction", lambda rng, p: next(draws))
    u_dir, v_dir = generic_directions(space, m, None)
    assert u_dir is e1 and v_dir is edge
    calls = []
    monkeypatch.setattr(space, "random_direction",
                        lambda rng, p: calls.append(1) or e1)
    with pytest.raises(RuntimeError, match="non-parallel"):
        generic_directions(space, m, None)
    assert len(calls) == 101


# -- predictors -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sphere-2", "hyperbolic-2", "spd-3", "so3"])
def test_predictors_vanish_on_symmetric_fleet(name, rng):
    space = make_space(name)
    m = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, m)
    v = 0.4 * space.random_direction(rng, m)
    assert pole_error_predicted(space, m, u, v).component_norm <= 1e-8
    assert pole_error_predicted(space, m, u, -v).component_norm <= 1e-8
    for kind in ("pole_v1", "pole_v2", "pole_alt", "pole_avg"):
        assert not pole_error_predicted(space, m, u, v, kind).components.any()


def test_predictors_vanish_for_parallel_arguments(bump):
    m = bump.anchor_point()
    u = bump.tangent(m, [0.2, 0.1])
    v = 1.7 * u
    assert pole_error_predicted(bump, m, u, v).component_norm <= 1e-12
    assert pole_error_predicted(bump, m, u, -v).component_norm <= 1e-12


def test_reversed_term_is_the_pole_term_at_minus_v(bump):
    # the reversed variant's leading term, written out as its own formula,
    # is the main variant's at -v, negated, bit for bit
    m = bump.anchor_point()
    rng = np.random.default_rng(2024)
    for h in (0.2, 0.05, 0.02):
        for _ in range(10):
            u_dir, v_dir = generic_directions(bump, m, rng)
            u = h * u_dir
            v = h * v_dir
            t1 = bump.nabla_curvature(m, v, u, v, 5.0 * u + 2.0 * v)
            t2 = bump.nabla_curvature(m, u, u, v, v + 2.0 * u)
            alt = (-1.0 / 12.0) * (t1 + t2)
            got = -pole_error_predicted(bump, m, u, -v)
            assert np.array_equal(got.components, alt.components)
            got = pole_error_predicted(bump, m, u, v, "pole_alt")
            assert np.array_equal(got.components, alt.components)
            # the mean of the two kinds' terms
            avg = 0.5 * (pole_error_predicted(bump, m, u, v)
                         - pole_error_predicted(bump, m, u, -v))
            got = pole_error_predicted(bump, m, u, v, "pole_avg")
            assert np.array_equal(got.components, avg.components)


@pytest.mark.parametrize("kind", ["schild", "pole_c"])
def test_kind_without_a_leading_term_is_a_value_error(bump, kind):
    m = bump.anchor_point()
    u, v = bump.tangent(m, [0.2, 0.1]), bump.tangent(m, [-0.1, 0.2])
    with pytest.raises(ValueError, match="no leading-term predictor"):
        pole_error_predicted(bump, m, u, v, kind)


def test_average_of_predictors_is_material(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(77)
    for _ in range(5):
        u_dir, v_dir = generic_directions(bump, m, rng)
        u = 0.1 * u_dir
        v = 0.1 * v_dir
        a = pole_error_predicted(bump, m, u, v)
        b = -pole_error_predicted(bump, m, u, -v)
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


def test_variant_difference_matches_predictor_difference(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    u = 0.05 * u_dir
    v = 0.05 * v_dir
    dmeas = (pole_error_measured(bump, m, u, v, "pole_alt")
             - pole_error_measured(bump, m, u, v, "pole_v2"))
    dpred = (-pole_error_predicted(bump, m, u, -v)
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


def test_sweep_of_several_rungs_is_the_measured_error_of_as_many(bump):
    m = bump.anchor_point()
    u_dir, v_dir = generic_directions(bump, m, np.random.default_rng(8))
    scales = [0.2, 0.05]
    errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales, "pole_alt",
                                  n_rungs=2)
    want = [pole_error_measured(bump, m, h * u_dir, h * v_dir, "pole_alt",
                                n_rungs=2).component_norm for h in scales]
    assert errors.tolist() == want


def test_sweep_runs_one_rung_by_default(monkeypatch):
    # criteria 2, 4 and 6 sweep without n_rungs: one ladder step per scale,
    # handed the midpoint, and no rail
    sp = make_space("sphere-2")
    m = sp.point([1.0, 0.0, 0.0])
    u_dir, v_dir = generic_directions(sp, m, np.random.default_rng(3))

    def rail(*args):
        raise AssertionError("a one-rung sweep builds no rail")

    monkeypatch.setattr(analysis, "transport_along_geodesic", rail)
    errors = one_step_error_sweep(sp, m, u_dir, v_dir, [0.2, 0.1])
    assert errors.shape == (2,)


# -- trial sampling ------------------------------------------------------------------

def test_sample_trial_caps_scale_with_a_binding_injectivity_radius():
    # dist <= 0.9 inj and |u| <= 0.45 inj; with inj = 1 these caps bind
    # before the fixed ones, 2 and 1
    sp = Sphere(2)
    sp.injectivity_radius = 1.0
    rng = np.random.default_rng(12)
    dists, norms = [], []
    for _ in range(200):
        p, q, u = sample_trial(sp, rng)
        dists.append(sp.dist(p, q))
        norms.append(sp.norm(u))
    assert 0.85 < max(dists) <= 0.9 + 1e-12
    assert 0.42 < max(norms) <= 0.45 + 1e-12


def test_exactness_sweep_excludes_a_trial_at_the_radius(monkeypatch):
    # the conditions are strict: |log_p(q)| or |u| equal to the injectivity
    # radius excludes the trial, and a radius above both keeps it
    sp = Sphere(2)
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.exp(p, sp.tangent(p, [0.0, 0.6, 0.2]))
    dist = sp.norm(sp.log(p, q))
    short, unit = (sp.tangent(p, [0.0, 0.0, c]) for c in (0.1, 1.0))
    assert sp.norm(short) < dist < sp.norm(unit) == 1.0
    for u, inj, excluded in ((short, dist, 1), (unit, 1.0, 1),
                             (unit, 1.5, 0)):
        monkeypatch.setattr(analysis, "sample_trial", lambda *args: (p, q, u))
        sp.injectivity_radius = inj
        assert analysis.exactness_sweep(sp, ("pole_v2",), 1, None)[1] \
            == excluded


# -- convergence-order fitting -------------------------------------------------------

def test_default_noise_floor_is_100_eps_of_the_problem_scale():
    eps = np.finfo(float).eps
    assert default_noise_floor() == 100.0 * eps
    assert default_noise_floor(3.0) == 100.0 * eps * 3.0

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


def test_convergence_order_accepts_exactly_four_points_above_floor():
    # five scales over one decade; a zero error is masked, not refused
    scales = np.geomspace(1.0, 0.1, 5)
    errors = 0.5 * scales ** 3
    errors[-1] = 0.0
    rep = convergence_order(scales, errors)
    assert rep.noise_floor_mask.tolist() == [False] * 4 + [True]
    assert rep.fitted_slope == pytest.approx(3.0, abs=1e-12)
    errors[-2] = 0.0
    with pytest.raises(InsufficientData, match="only 3 points"):
        convergence_order(scales, errors)


def test_convergence_order_masks_an_error_at_the_floor():
    # at the floor is noise: off the power law, it would bend the slope
    scales = np.geomspace(1.0, 0.01, 6)
    errors = 1e-3 * scales ** 2
    errors[-1] = 1e-9
    rep = convergence_order(scales, errors, noise_floor=1e-9)
    assert rep.noise_floor_mask.tolist() == [False] * 5 + [True]
    assert rep.fitted_slope == pytest.approx(2.0, abs=1e-12)


def test_convergence_order_decade_edge():
    # a decade short by its 1e-12 relative slack is accepted, and one short
    # by twice the slack is refused
    decade = 10.0 * (1.0 - 1e-12)
    rep = convergence_order([decade, 5.0, 3.0, 2.0, 1.0],
                            [decade ** 2, 25.0, 9.0, 4.0, 1.0])
    assert rep.fitted_slope == pytest.approx(2.0, abs=1e-12)
    short = 10.0 * (1.0 - 2e-12)
    with pytest.raises(InsufficientData, match="decade"):
        convergence_order([short, 5.0, 3.0, 2.0, 1.0], [1.0] * 5)


def test_convergence_order_of_constant_errors_has_r_squared_one():
    # ss_tot = 0: the flat line fits exactly
    rep = convergence_order(np.geomspace(1.0, 0.1, 5), [0.01] * 5)
    assert rep.fitted_slope == 0.0
    assert rep.r_squared == 1.0


def test_convergence_order_validates_shapes():
    with pytest.raises(ValueError):
        convergence_order([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        convergence_order([0.5, 0.25, -0.1, 0.05, 0.02], [1, 1, 1, 1, 1])
    with pytest.raises(ValueError, match="positive"):
        convergence_order([0.5, 0.25, 0.0, 0.05, 0.02], [1, 1, 1, 1, 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_convergence_order_rejects_non_finite_data(bad):
    # a NaN error would fit a NaN slope, which compares False with any
    # threshold; the fit raises instead, whichever argument holds it
    scales = np.geomspace(0.5, 0.02, 6)
    errors = 0.1 * scales ** 4
    errors[2] = bad
    with pytest.raises(NonFinite, match="errors are not finite"):
        convergence_order(scales, errors)
    scales[0] = bad
    with pytest.raises(NonFinite, match="scales are not finite"):
        convergence_order(scales, 0.1 * np.ones(6))
