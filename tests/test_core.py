import math

import numpy as np
import pytest

from geoladders import (
    Euclidean,
    InvalidBase,
    NonFinite,
    Point,
    Sphere,
    TangentVector,
    ToleranceConfig,
    Unsupported,
    make_space,
)

from conftest import FLEET_NAMES


def test_tolerance_defaults():
    tol = ToleranceConfig()
    assert tol.exactness_tol == 1e-10
    assert tol.ode_rel_tol == tol.ode_abs_tol == 1e-12
    assert tol.max_shooting_iters == 100


@pytest.mark.parametrize("field", ["exactness_tol", "ode_rel_tol", "ode_abs_tol"])
def test_tolerances_must_be_positive(field):
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: 0.0})
    with pytest.raises(ValueError):
        ToleranceConfig(**{field: -1e-3})


@pytest.mark.parametrize("field", ["exactness_tol", "ode_rel_tol", "ode_abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tolerances_must_be_finite(field, value):
    # NaN passes a "<= 0" test, and an infinite ode_abs_tol turns the
    # integrator's error control off
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ToleranceConfig(**{field: value})


@pytest.mark.parametrize("rel_tol", [1e-15, 2.2e-14])
def test_ode_rel_tol_below_scipy_floor_is_rejected(rel_tol):
    # the chart integrator keeps scipy's floor of 100 eps = 2.22e-14
    with pytest.raises(ValueError, match=r"ode_rel_tol must be at least 2\.22e-14"):
        ToleranceConfig(ode_rel_tol=rel_tol)


def test_ode_rel_tol_at_scipy_floor_is_accepted():
    floor = 100.0 * np.finfo(float).eps
    assert ToleranceConfig(ode_rel_tol=floor).ode_rel_tol == floor


def test_point_coords_coerced_to_float_array():
    p = Point([1, 2, 3], "euclidean-3")
    assert p.coords.dtype == float
    assert p.coords.shape == (3,)


def test_tangent_vector_length_must_match_base():
    p = Point([0.0, 0.0], "euclidean-2")
    with pytest.raises(InvalidBase):
        TangentVector(p, [1.0, 2.0, 3.0])


def test_tangent_vector_arithmetic():
    p = Point([0.0, 0.0], "euclidean-2")
    a = TangentVector(p, [1.0, 2.0])
    b = TangentVector(p, [0.5, -1.0])
    assert np.allclose((a + b).components, [1.5, 1.0])
    assert np.allclose((a - b).components, [0.5, 3.0])
    assert np.allclose((2.0 * a).components, [2.0, 4.0])
    assert np.allclose((-a).components, [-1.0, -2.0])
    assert a.component_norm == pytest.approx(math.sqrt(5.0))


def test_vectors_from_different_bases_do_not_combine():
    p = Point([0.0, 0.0], "euclidean-2")
    q = Point([1.0, 0.0], "euclidean-2")
    a = TangentVector(p, [1.0, 0.0])
    b = TangentVector(q, [1.0, 0.0])
    with pytest.raises(InvalidBase):
        a + b


def test_exp_rejects_vector_based_elsewhere():
    space = Euclidean(2)
    p = space.point([0.0, 0.0])
    q = space.point([1.0, 0.0])
    v = space.tangent(q, [1.0, 1.0])
    with pytest.raises(InvalidBase):
        space.exp(p, v)


def test_base_points_agree_per_coordinate_within_1e_8():
    space = Euclidean(2)
    p = space.point([0.3, -0.2])
    here = space.tangent(p, [0.0, 1.0])

    def based_at(coords):
        return TangentVector(Point(coords, space.name), [1.0, 0.0])

    near = based_at(p.coords + [5e-9, -5e-9])
    assert np.allclose(space.exp(p, near).coords, [1.3, -0.2])
    assert np.allclose((here + near).components, [1.0, 1.0])
    far = based_at(p.coords + [0.0, 2e-8])
    with pytest.raises(InvalidBase):
        space.exp(p, far)
    for other in (far, based_at([0.3, math.nan]), based_at([math.inf, -0.2])):
        with pytest.raises(InvalidBase):
            here + other
        with pytest.raises(InvalidBase):
            other - here


def test_a_base_equal_to_the_point_is_still_checked():
    # a vector based at the very point exp was given skips the second check;
    # an equal but distinct base is checked in full
    space = Euclidean(2)
    p = space.point([0.3, -0.2])
    v = TangentVector(Point(p.coords.copy(), "euclidean-3"), [1.0, 0.0])
    with pytest.raises(InvalidBase, match="belongs to 'euclidean-3'"):
        space.exp(p, v)
    with pytest.raises(InvalidBase, match="belongs to 'euclidean-3'"):
        space.geodesic(p, v, [0.5])
    same = TangentVector(Point(p.coords.copy(), space.name), [1.0, 0.0])
    assert np.array_equal(space.exp(p, same).coords, [1.3, -0.2])


@pytest.mark.parametrize("name", ["euclidean-3", "bump2d"])
def test_geodesic_default_kernel_is_exp_bit_for_bit(name):
    space = make_space(name)
    rng = np.random.default_rng(11)
    times = [0.125, -0.5, 1.0, 0.3, 0.75]
    for _ in range(3):
        p = space.random_point(rng)
        v = 0.3 * space.random_direction(rng, p)
        for t, y in zip(times, space.geodesic(p, v, times), strict=True):
            assert np.array_equal(y.coords, space.exp(p, t * v).coords)


@pytest.mark.parametrize("name", ["sphere-2", "bump2d"])
def test_geodesic_validates_like_exp(name):
    space = make_space(name)
    rng = np.random.default_rng(5)
    p = space.random_point(rng)
    v = 0.3 * space.random_direction(rng, p)
    elsewhere = space.exp(p, v)
    with pytest.raises(InvalidBase):
        space.geodesic(p, TangentVector(elsewhere, v.components), [0.5])
    offset = np.zeros(space.ambient_dim)
    offset[1] = math.nan
    with pytest.raises(NonFinite):
        space.geodesic(p, TangentVector(p, v.components + offset), [0.5])
    for bad in ([0.5, math.nan], [math.inf], [[0.5]], 0.5):
        with pytest.raises(ValueError, match="times must be a finite 1-d"):
            space.geodesic(p, v, bad)
    assert space.geodesic(p, v, []) == []
    # t == 0 or v == 0: p itself, as exp gives
    start, half = space.geodesic(p, v, [0.0, 0.5])
    assert start is p and half is not p
    assert all(y is p for y in space.geodesic(p, 0.0 * v, [0.5, -1.0]))


def test_exp_zero_vector_is_identity_exactly():
    space = Sphere(2)
    p = space.point([1.0, 0.0, 0.0])
    v = space.tangent(p, [0.0, 0.0, 0.0])
    assert space.exp(p, v) is p


def test_log_same_point_is_zero_without_work():
    space = Sphere(2)
    p = space.point([0.0, 1.0, 0.0])
    out = space.log(p, p)
    assert not out.components.any()


def test_point_wrap_validates_length():
    space = Euclidean(3)
    with pytest.raises(ValueError):
        space.point([1.0, 2.0])


def test_point_of_the_wrong_length_is_invalid_base():
    space = Sphere(2)
    q = space.point([1.0, 0.0, 0.0])
    with pytest.raises(InvalidBase, match="has 2 coordinates, expected 3"):
        space.log(Point([0.0, 1.0], "sphere-2"), q)


def test_transport_to_its_own_base_returns_a_copy(monkeypatch):
    space = Sphere(2)
    p = space.point([0.0, 1.0, 0.0])
    u = space.tangent(p, [0.3, 0.0, -0.4])
    monkeypatch.setattr(space, "_transport",
                        lambda *args: pytest.fail("the kernel ran"))
    q = space.point(p.coords.copy())
    out = space.transport(u, q)
    assert out.base is q
    assert out.components.tobytes() == u.components.tobytes()
    assert not np.shares_memory(out.components, u.components)


def test_euclidean_exp_log_transport():
    space = Euclidean(2)
    p = space.point([1.0, 2.0])
    v = space.tangent(p, [3.0, 4.0])
    q = space.exp(p, v)
    assert np.allclose(q.coords, [4.0, 6.0])
    assert np.allclose(space.log(p, q).components, [3.0, 4.0])
    moved = space.transport(v, q)
    assert np.allclose(moved.components, v.components)


def test_midpoint_euclidean():
    space = Euclidean(2)
    m = space.midpoint(space.point([0.0, 0.0]), space.point([2.0, 4.0]))
    assert np.allclose(m.coords, [1.0, 2.0])


def test_geodesic_symmetry_euclidean_central():
    space = Euclidean(2)
    out = space.geodesic_symmetry(space.point([1.0, 1.0]),
                                  space.point([0.0, 0.0]))
    assert np.allclose(out.coords, [2.0, 2.0])


def test_metricless_space_raises_unsupported():
    from geoladders import ChartConnection, ChartSpace

    conn = ChartConnection(dim=2, christoffel=lambda x: np.zeros((2, 2, 2)))
    space = ChartSpace("flat", conn)
    p = space.point([0.0, 0.0])
    u = space.tangent(p, [1.0, 0.0])
    with pytest.raises(Unsupported):
        space.inner(u, u)


def test_dist_uses_metric_norm():
    space = Sphere(2)
    p = space.point([1.0, 0.0, 0.0])
    q = space.point([0.0, 1.0, 0.0])
    assert space.dist(p, q) == pytest.approx(math.pi / 2.0, abs=1e-14)


@pytest.mark.parametrize("name", ["sphere-2", "bump2d"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_raise_non_finite(name, bad):
    space = make_space(name)
    rng = np.random.default_rng(5)
    p = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, p)
    q = space.exp(p, u)
    offset = np.zeros(space.ambient_dim)
    offset[1] = bad
    bad_u = TangentVector(p, u.components + offset)
    bad_p = Point(p.coords + offset, space.name)
    with pytest.raises(NonFinite):
        space.exp(p, bad_u)
    with pytest.raises(NonFinite):
        space.exp(bad_p, TangentVector(bad_p, u.components))
    with pytest.raises(NonFinite):
        space.log(p, bad_p)
    with pytest.raises(NonFinite):
        space.log(bad_p, q)
    with pytest.raises(NonFinite):
        space.transport(bad_u, q)
    with pytest.raises(NonFinite):
        space.transport(u, bad_p)
    # every vector argument is checked, curvature's too
    with pytest.raises(NonFinite):
        space.curvature(p, u, bad_u, u)
    with pytest.raises(NonFinite):
        space.nabla_curvature(p, u, u, u, bad_u)
    # and outside coordinates where they enter
    with pytest.raises(NonFinite):
        space.point(bad_p.coords)
    with pytest.raises(NonFinite):
        space.tangent(p, bad_u.components)


@pytest.mark.parametrize("name", [*FLEET_NAMES, "bump2d"])
def test_vectors_past_the_float_range_raise_non_finite(name):
    # a finite 1e160 component squares past the float range in any norm:
    # NonFinite from the vector check, before a kernel warns, returns inf
    # or integrates, in every vector argument
    space = make_space(name)
    rng = np.random.default_rng(5)
    p = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, p)
    q = space.exp(p, u)
    offset = np.zeros(space.ambient_dim)
    offset[1] = 1e160
    big = TangentVector(p, u.components + offset)
    calls = [lambda: space.exp(p, big),
             lambda: space.geodesic(p, big, [0.5]),
             lambda: space.geodesic(p, u, [0.5, 1e160]),
             lambda: space.transport(big, q),
             lambda: space.exp_transport(big, u),
             lambda: space.exp_transport(u, big),
             lambda: space.tangent(p, big.components)]
    for i in range(3):
        args = [u, u, u]
        args[i] = big
        calls.append(lambda args=args: space.curvature(p, *args))
    for i in range(4):
        args = [u, u, u, u]
        args[i] = big
        calls.append(lambda args=args: space.nabla_curvature(p, *args))
    for call in calls:
        with pytest.raises(NonFinite, match="leaves the float range"):
            call()


@pytest.mark.parametrize("name", [*FLEET_NAMES, "bump2d"])
def test_metric_maps_check_their_vectors(name):
    # inner, norm and dist take their vectors through the one vector rule:
    # a NaN or a 1e200 component raises NonFinite, with no numpy warning,
    # in either argument; vectors at another point are InvalidBase
    space = make_space(name)
    rng = np.random.default_rng(5)
    p = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, p)
    q = space.exp(p, u)
    assert space.norm(u) == pytest.approx(0.3, rel=1e-12)
    assert space.dist(p, q) == pytest.approx(0.3, rel=1e-9)
    for bad, message in ((math.nan, "not finite"),
                         (1e200, "leaves the float range")):
        offset = np.zeros(space.ambient_dim)
        offset[1] = bad
        w = TangentVector(p, u.components + offset)
        for call in (lambda: space.norm(w), lambda: space.inner(w, w),
                     lambda: space.inner(u, w), lambda: space.inner(w, u)):
            with pytest.raises(NonFinite, match=message):
                call()
    with pytest.raises(InvalidBase):
        space.inner(u, space.random_direction(rng, q))


@pytest.mark.parametrize("name", ["sphere-2", "bump2d"])
def test_exp_transport_validates_like_exp_and_transport(name):
    space = make_space(name)
    rng = np.random.default_rng(5)
    p = space.random_point(rng)
    u = 0.3 * space.random_direction(rng, p)
    # v = 0: a copy of u at p, without integrating anything
    out = space.exp_transport(u, 0.0 * u)
    assert out.base is p
    assert np.array_equal(out.components, u.components)
    assert out.components is not u.components
    offset = np.zeros(space.ambient_dim)
    offset[1] = math.nan
    with pytest.raises(NonFinite):
        space.exp_transport(u, TangentVector(p, u.components + offset))
    with pytest.raises(NonFinite):
        space.exp_transport(TangentVector(p, u.components + offset), u)
    elsewhere = space.exp(p, u)
    with pytest.raises(InvalidBase):
        space.exp_transport(u, TangentVector(elsewhere, u.components))
