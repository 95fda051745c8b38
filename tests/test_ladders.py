import functools
import math

import numpy as np
import pytest

from geoladders import (
    CutLocus,
    NoConvergence,
    convergence_order,
    ladder_step,
    ladders,
    make_space,
    transport_along_geodesic,
)
from geoladders.cli import exactness_sweep

from helpers import count_engine_calls, pole_exactness_worst

ALL_KINDS = ("schild", "pole_v1", "pole_v2", "pole_alt", "pole_avg")
POLE_KINDS = ("pole_v1", "pole_v2", "pole_alt", "pole_avg")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_euclidean_steps_are_exact(kind):
    space = make_space("euclidean-2")
    p = space.point([0.3, -0.2])
    q = space.point([1.1, 0.7])
    u = space.tangent(p, [0.4, 0.9])
    out = ladder_step(space, p, q, u, kind)
    assert np.allclose(out.components, u.components, atol=1e-14)
    assert np.allclose(out.base.coords, q.coords)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_vector_maps_to_zero(kind):
    space = make_space("sphere-2")
    p = space.point([1.0, 0.0, 0.0])
    q = space.exp(p, space.tangent(p, [0.0, 0.4, 0.1]))
    out = ladder_step(space, p, q, space.tangent(p, [0.0, 0.0, 0.0]), kind)
    assert out.component_norm <= 1e-12


def test_pole_v1_v2_equivalence_across_fleet(fleet, rng):
    for space in fleet.values():
        for _ in range(20):
            p = space.random_point(rng)
            cap = 0.5 * min(space.validity_radius, 2.0)
            q = space.exp(p, (rng.uniform(0.2, 1.0) * cap) *
                          space.random_direction(rng, p))
            u = (rng.uniform(0.2, 1.0) * 0.5 * cap) * \
                space.random_direction(rng, p)
            a = ladder_step(space, p, q, u, "pole_v1")
            b = ladder_step(space, p, q, u, "pole_v2")
            assert (a - b).component_norm <= 1e-9, space.name


def test_pole_v1_v2_equivalence_on_bump(bump, rng):
    for _ in range(5):
        p = bump.random_point(rng)
        q = bump.exp(p, (0.35 * rng.uniform(0.3, 1.0)) *
                     bump.random_direction(rng, p))
        u = (0.3 * rng.uniform(0.3, 1.0)) * bump.random_direction(rng, p)
        a = ladder_step(bump, p, q, u, "pole_v1")
        b = ladder_step(bump, p, q, u, "pole_v2")
        assert (a - b).component_norm <= 1e-9


@pytest.mark.parametrize("name", ["sphere-2", "hyperbolic-2", "spd-3", "so3"])
def test_symmetric_space_exactness(fleet, rng, name):
    worst = pole_exactness_worst(fleet[name], rng, 25, POLE_KINDS)
    for kind, err in worst.items():
        assert err <= 1e-10, (name, kind, err)


def test_sphere_half_injectivity_pole_exact():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.point([0.0, 1.0, 0.0])  # dist pi/2 < inj pi
    u = sp.tangent(p, [0.0, 0.15, 0.26])
    oracle = sp.transport(u, q)
    out = ladder_step(sp, p, q, u, "pole_v1")
    assert (out - oracle).component_norm <= 1e-10 * sp.norm(u)


def test_spd_pole_exact_anywhere(rng):
    spd = make_space("spd-3")
    for _ in range(5):
        p = spd.random_point(rng)
        q = spd.exp(p, 1.5 * spd.random_direction(rng, p))
        u = 1.2 * spd.random_direction(rng, p)
        oracle = spd.transport(u, q)
        for kind in POLE_KINDS:
            err = spd.norm(ladder_step(spd, p, q, u, kind) - oracle)
            assert err <= 1e-10 * spd.norm(u)


def test_so3_pole_matches_transvection_transport(rng):
    so3 = make_space("so3")
    for _ in range(5):
        p = so3.random_point(rng)
        q = so3.exp(p, (0.45 * math.pi) * so3.random_direction(rng, p))
        u = 0.6 * so3.random_direction(rng, p)
        oracle = so3.transport(u, q)
        out = ladder_step(so3, p, q, u, "pole_v2")
        assert so3.norm(out - oracle) <= 1e-10 * so3.norm(u)


def test_reversal_round_trip_on_symmetric_fleet(fleet, rng):
    for name in ("sphere-2", "hyperbolic-2", "spd-3", "so3"):
        space = fleet[name]
        p = space.random_point(rng)
        cap = 0.45 * min(space.validity_radius, 2.0)
        q = space.exp(p, cap * space.random_direction(rng, p))
        u = (0.8 * cap) * space.random_direction(rng, p)
        there = ladder_step(space, p, q, u, "pole_v2")
        back = ladder_step(space, q, p, there, "pole_v2")
        assert space.norm(back - u) <= 2e-10 * space.norm(u)


def test_schild_first_order_error_on_sphere():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.exp(p, sp.tangent(p, [0.0, 0.2, 0.0]))
    u = sp.tangent(p, [0.0, 0.0, 0.2])
    err = (ladder_step(sp, p, q, u, "schild")
           - sp.transport(u, q)).component_norm
    assert 0.0 < err <= 0.2 ** 3


def test_linearity_defect_decays_at_fourth_order(bump):
    # at joint scale h both step(alpha u) and alpha step(u) equal the exact
    # transport up to the quartic one-step error, so their defect is O(h^4)
    m = bump.anchor_point()
    rng = np.random.default_rng(23)
    from geoladders import generic_directions

    u_dir, v_dir = generic_directions(bump, m, rng)
    alpha = 0.37
    scales = np.geomspace(0.3, 0.03, 6)
    defects = []
    for h in scales:
        v = float(h) * v_dir
        p = bump.exp(m, -v)
        q = bump.exp(m, v)
        u = float(h) * bump.transport(u_dir, p)
        a = ladder_step(bump, p, q, alpha * u, "pole_v2")
        b = alpha * ladder_step(bump, p, q, u, "pole_v2")
        defects.append((a - b).component_norm)
    rep = convergence_order(scales, defects)
    assert rep.fitted_slope >= 3.6
    assert rep.r_squared >= 0.99


def test_linearity_exact_on_symmetric_spaces(rng):
    sp = make_space("sphere-2")
    p = sp.random_point(rng)
    q = sp.exp(p, 0.9 * sp.random_direction(rng, p))
    u = 0.7 * sp.random_direction(rng, p)
    a = ladder_step(sp, p, q, 0.41 * u, "pole_v2")
    b = 0.41 * ladder_step(sp, p, q, u, "pole_v2")
    assert (a - b).component_norm <= 1e-10


# -- multi-rung driver ----------------------------------------------------------

def test_single_rung_reduces_to_step():
    sp = make_space("sphere-2")
    rng = np.random.default_rng(31)
    p = sp.random_point(rng)
    q = sp.exp(p, 0.8 * sp.random_direction(rng, p))
    u = 0.5 * sp.random_direction(rng, p)
    res = transport_along_geodesic(sp, p, q, u, 1, "pole_v2")
    direct = ladder_step(sp, p, q, u, "pole_v2")
    assert np.array_equal(res.vector.components, direct.components)


def test_euclidean_driver_exact_any_rungs():
    space = make_space("euclidean-3")
    p = space.point([0.0, 0.0, 1.0])
    q = space.point([2.0, -1.0, 0.0])
    u = space.tangent(p, [0.3, 0.4, -0.2])
    for n in (1, 2, 5):
        res = transport_along_geodesic(space, p, q, u, n, "schild")
        assert np.allclose(res.vector.components, u.components, atol=1e-13)


# Under joint scaling the one-step error grows like h^s: s = 4 for the pole
# ladder (criterion 2), s = 3 for Schild's (criterion 6).  Each of n rungs
# carries u / n over a segment 1 / n long, so after the sum over rungs and
# the rescaling by n the error falls like n^(2 - s) (Guigui & Pennec, Found.
# Comput. Math. 2022); measured here: -2.14 and -0.87.
RUNG_RATES = {"pole_v2": -2.0, "schild": -1.0}


@functools.lru_cache(maxsize=None)
def _rung_errors(bump, scheme):
    """Errors of 1, 2, 4 and 8 rungs against the oracle on one bump2d rail."""
    p = bump.point([-0.35, -0.2])
    q = bump.point([0.45, 0.25])
    rng = np.random.default_rng(42)
    u = 0.8 * bump.random_direction(rng, p)
    oracle = bump.transport(u, q)
    return tuple(
        (transport_along_geodesic(bump, p, q, u, n, scheme).vector
         - oracle).component_norm
        for n in (1, 2, 4, 8))


@pytest.mark.parametrize("scheme", sorted(RUNG_RATES))
def test_bump_error_decreases_monotonically_with_rungs(bump, scheme):
    errors = _rung_errors(bump, scheme)
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    rate = np.polyfit(np.log([1, 2, 4, 8]), np.log(errors), 1)[0]
    assert abs(rate - RUNG_RATES[scheme]) <= 0.3, rate
    # on the same rail the pole ladder beats Schild's at every rung count
    pole, schild = _rung_errors(bump, "pole_v2"), _rung_errors(bump, "schild")
    assert all(a < b for a, b in zip(pole, schild)), (pole, schild)


def test_bump_midpoint_and_symmetry_residuals(bump):
    # on each rung of a 3-rung rail: the midpoint m of [a, b] satisfies
    # log_m(a) = -log_m(b), and the symmetry s_m(x) satisfies
    # log_m(s_m(x)) = -log_m(x)
    p = bump.point([-0.2, 0.0])
    q = bump.point([0.3, 0.2])
    w = bump.log(p, q)
    rail = [p, bump.exp(p, (1 / 3) * w), bump.exp(p, (2 / 3) * w), q]
    rng = np.random.default_rng(3)
    for a, b in zip(rail, rail[1:]):
        m = bump.midpoint(a, b)
        mid_res = (bump.log(m, a) + bump.log(m, b)).component_norm
        assert mid_res <= 1e-9
        x = bump.exp(a, (0.4 / 3) * bump.random_direction(rng, a))
        sym_res = (bump.log(m, x)
                   + bump.log(m, bump.geodesic_symmetry(m, x))).component_norm
        assert sym_res <= 1e-9


def test_driver_reports_failing_rung_index():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.point([-1.0, 0.0, 0.0])  # antipodal chord: the first log fails
    u = sp.tangent(p, [0.0, 0.1, 0.0])
    with pytest.raises(CutLocus):
        transport_along_geodesic(sp, p, q, u, 4, "pole_v2")
    # failure inside a rung carries the rung index.  A pole_v2 rail shoots
    # its one closing log on the last rung: a transported vector of norm pi
    # (3 pi before the 1/3 rung scaling) makes that log land on the antipode
    q2 = sp.exp(p, sp.tangent(p, [0.0, 1.0, 0.0]))
    u2 = sp.tangent(p, [0.0, 0.0, 3.0 * math.pi])
    with pytest.raises(CutLocus, match="rung 3/3"):
        transport_along_geodesic(sp, p, q2, u2, 3, "pole_v2")


@pytest.mark.parametrize("scheme", ["pole_v1", "pole_v2", "pole_alt"])
def test_failing_hand_off_reports_the_rung_it_starts(monkeypatch, scheme):
    # the symmetry through the rail point at 2/3 hands rung 2's reflected
    # point on to rung 3; the midpoints of a 3-rung rail sit elsewhere
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    w = sp.tangent(p, [0.0, 1.2, 0.4])
    q, rail_point = sp.exp(p, w), sp.exp(p, (2 / 3) * w)
    u = sp.tangent(p, [0.0, 0.3, -0.5])

    def symmetry(m, x, fn=sp.geodesic_symmetry):
        if np.allclose(m.coords, rail_point.coords, atol=1e-12):
            raise NoConvergence("hand-off failed", residual=0.25)
        return fn(m, x)

    monkeypatch.setattr(sp, "geodesic_symmetry", symmetry)
    with pytest.raises(NoConvergence, match="rung 3/3: hand-off failed") as info:
        transport_along_geodesic(sp, p, q, u, 3, scheme)
    assert info.value.residual == 0.25


def test_driver_keeps_the_error_evidence(monkeypatch):
    err = NoConvergence("shooting stalled", residual=0.5)

    def failing_exp(p, v):
        raise err

    space = make_space("euclidean-2")
    p = space.point([0.0, 0.0])
    u = space.tangent(p, [0.1, 0.2])
    monkeypatch.setattr(space, "exp", failing_exp)
    with pytest.raises(NoConvergence, match="rung 1/2: shooting stalled") as info:
        transport_along_geodesic(space, p, space.point([1.0, 0.0]), u, 2)
    assert info.value is err
    assert info.value.residual == 0.5


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("scheme", ["pole_v2", "schild"])
def test_rung_exp_and_log_counts(monkeypatch, scheme, n):
    # the rail, pole midpoints included, comes from one geodesic call along
    # the one log of [p, q].  pole_v2 then makes one exp, on the first rung,
    # and one closing log, on the last: each later rung opens with the
    # symmetry of its predecessor's reflected point through the rail point
    # they share, so its n rungs make 2n - 1 symmetries.  A Schild rung's
    # midpoint is a geodesic call of its own.  The sphere's symmetry is
    # closed-form
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.exp(p, sp.tangent(p, [0.0, 1.2, 0.4]))
    u = sp.tangent(p, [0.0, 0.3, -0.5])
    calls = {"exp": 0, "log": 0, "geodesic": 0, "geodesic_symmetry": 0}
    for name in calls:
        def counted(*args, fn=getattr(sp, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sp, name, counted)
    transport_along_geodesic(sp, p, q, u, n, scheme)
    want = ({"exp": 1, "log": 2, "geodesic": 1, "geodesic_symmetry": 2 * n - 1}
            if scheme == "pole_v2"
            else {"exp": 2 * n, "log": 3 * n + 1, "geodesic": n + 1,
                  "geodesic_symmetry": 0})
    assert calls == want


def _folded_steps(space, p, q, u, n, kind):
    """transport_along_geodesic as a rung-by-rung fold of ladder_step: each
    rail point and midpoint is exp_p of its own fraction of log_p(q)."""
    w = space.log(p, q)
    rail = [p, *(space.exp(p, (i / n) * w) for i in range(1, n)), q]
    scaling = 1.0 / n
    current = scaling * u
    for i in range(n):
        mid = (None if kind == "schild"
               else space.exp(p, ((2 * i + 1) / (2 * n)) * w))
        current = ladder_step(space, rail[i], rail[i + 1], current, kind, mid)
    return (1.0 / scaling) * current


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bump_rail_is_a_fold_of_steps(bump, kind, n):
    # on a chart the symmetry a rung hands on is exp_q(-log_q(z)) itself, so
    # the rail keeps the bits of the fold it replaces
    p = bump.point([-0.3, -0.1])
    q = bump.point([0.35, 0.2])
    u = 0.6 * bump.random_direction(np.random.default_rng(17), p)
    got = transport_along_geodesic(bump, p, q, u, n, kind).vector
    want = _folded_steps(bump, p, q, u, n, kind)
    assert np.array_equal(got.base.coords, want.base.coords)
    assert np.array_equal(got.components, want.components)


def test_exactness_trial_contract_calls():
    # one trial of the four pole kinds builds one rung record: the sample
    # makes q by one exp; the log of [p, q] gives the distance and, by one
    # geodesic call, the midpoint; the kinds share exp_p(u), exp_p(-u) and
    # the two reflected logs at q, and pole_v1 adds an exp and two logs of
    # its own.  The sphere's symmetry is closed-form
    sp = make_space("sphere-2")
    calls = dict.fromkeys(("exp", "log", "geodesic_symmetry", "geodesic",
                           "transport", "midpoint"), 0)
    for name in calls:
        def counted(*args, fn=getattr(sp, name), name=name):
            calls[name] += 1
            return fn(*args)
        setattr(sp, name, counted)
    trials = 5
    _, excluded = exactness_sweep(sp, POLE_KINDS, trials,
                                  np.random.default_rng(7))
    assert excluded == 0
    per_trial = {"exp": 4, "log": 5, "geodesic_symmetry": 2, "geodesic": 1,
                 "transport": 1, "midpoint": 0}
    assert calls == {k: trials * n for k, n in per_trial.items()}


def test_vector_scaling_is_inverted_exactly():
    space = make_space("euclidean-2")
    p = space.point([0.0, 0.0])
    q = space.point([1.0, 1.0])
    u = space.tangent(p, [2.0, -3.0])
    # the driver carries u / 4 through the rungs and scales the result back
    res = transport_along_geodesic(space, p, q, u, 4, "pole_v2")
    assert np.allclose(res.vector.components, u.components, atol=1e-14)


def test_scheme_validation():
    space = make_space("euclidean-2")
    p = space.point([0.0, 0.0])
    u = space.tangent(p, [1.0, 0.0])
    with pytest.raises(ValueError, match="unknown ladder kind"):
        ladder_step(space, None, None, None, "zigzag")
    with pytest.raises(ValueError, match="unknown ladder kind"):
        transport_along_geodesic(space, p, space.point([1.0, 0.0]), u, 2,
                                 "zigzag")
    with pytest.raises(ValueError, match="n_rungs"):
        transport_along_geodesic(space, p, space.point([1.0, 0.0]), u, 0,
                                 "pole_v2")


def test_alt_equals_v2_on_symmetric_spaces(rng):
    sp = make_space("sphere-2")
    p = sp.random_point(rng)
    q = sp.exp(p, 0.9 * sp.random_direction(rng, p))
    u = 0.6 * sp.random_direction(rng, p)
    a = ladder_step(sp, p, q, u, "pole_alt")
    b = ladder_step(sp, p, q, u, "pole_v2")
    assert (a - b).component_norm <= 1e-10


def test_averaged_step_is_the_mean_of_variants(bump, monkeypatch):
    p = bump.point([-0.1, 0.1])
    q = bump.point([0.3, -0.05])
    u = 0.3 * bump.random_direction(np.random.default_rng(9), p)
    calls = count_engine_calls(monkeypatch, "log_shooting")
    avg = ladder_step(bump, p, q, u, "pole_avg")
    # one shared midpoint, then a symmetry and a final log per variant
    assert calls["log_shooting"] == 5
    a = ladder_step(bump, p, q, u, "pole_v2")
    b = ladder_step(bump, p, q, u, "pole_alt")
    assert np.array_equal(avg.components, 0.5 * (a.components + b.components))
