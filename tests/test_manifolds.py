import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm, null_space

from geoladders import (
    CutLocus,
    NonFinite,
    NotSPD,
    Sphere,
    TangentVector,
    core,
    ladder_step,
    make_chart,
    make_space,
    manifolds,
    registry_names,
)
from geoladders.analysis import POLE_SCHEMES, exactness_sweep
from geoladders.manifolds import _hat, _mink

from conftest import FLEET_NAMES
from helpers import (
    bianchi_residual,
    curvature_skew_residual,
    midpoint_residual,
    round_trip_residual,
    symmetry_composition_residual,
    symmetry_involution_residual,
    transport_conjugation_derivative,
    transport_isometry_residual,
    transport_linearity_residual,
)


def test_registry_names_and_flags():
    assert registry_names() == ("euclidean-n", "sphere-n", "hyperbolic-n",
                                "spd-n", "so3", "bump2d")
    for name in ("euclidean-3", "sphere-2", "hyperbolic-2", "spd-3", "so3"):
        space = make_space(name)
        assert space.name == name
        assert space.locally_symmetric
        assert space.has_metric
    bump = make_space("bump2d")
    assert not bump.locally_symmetric
    with pytest.raises(ValueError):
        make_space("torus-2")


@pytest.mark.parametrize("name", ["euclidean-1", "sphere-1", "hyperbolic-1",
                                  "spd-2", "so3", "bump2d"])
def test_registry_family_builds_at_minimum_dimension(name):
    assert make_space(name).name == name


@pytest.mark.parametrize("build", [
    lambda: make_space("sphere-0"),
    lambda: make_space("hyperbolic-0"),
    lambda: make_space("spd-1"),
    lambda: Sphere(0),
    lambda: make_space("euclidean-0"),
])
def test_below_minimum_dimension_is_rejected(build):
    with pytest.raises(ValueError, match="at least"):
        build()


@pytest.mark.parametrize("lookup", [make_space, make_chart])
@pytest.mark.parametrize("name", ["torus-2", "sphere-x", "flat-x", "sphere-n"])
def test_unregistered_names_are_rejected(lookup, name):
    with pytest.raises(ValueError, match="unknown"):
        lookup(name)


@pytest.mark.parametrize("lookup, name", [
    (make_space, "sphere-02"), (make_space, "sphere-00"),
    (make_space, "sphere-\u0662"), (make_chart, "flat-03"),
    (make_chart, "flat-\uff13")])
def test_family_dimensions_have_one_spelling(lookup, name):
    # ASCII digits with no leading zero: "sphere-02" would build sphere-2
    # under a second name, and the CLI would print and hash that name
    with pytest.raises(ValueError, match="unknown"):
        lookup(name)


@pytest.mark.parametrize("name", ["flat-3", "bump2d", "sphere2-stereographic",
                                  "hyperbolic2-ball", "spd2-entries",
                                  "so3-rotvec"])
def test_readme_chart_names_build(name):
    conn = make_chart(name)
    x = np.resize([0.3, 0.1, 0.2], conn.dim)  # inside every chart's domain
    assert np.isfinite(conn.gamma(x)).all()


def test_sphere_injectivity_radius_is_pi():
    assert make_space("sphere-2").injectivity_radius == math.pi
    assert make_space("so3").injectivity_radius == math.pi


# -- sphere ------------------------------------------------------------------

def test_sphere_exp_quarter_and_half_circle():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.exp(p, sp.tangent(p, [0.0, math.pi / 2.0, 0.0]))
    assert np.allclose(q.coords, [0.0, 1.0, 0.0], atol=1e-15)
    r = sp.exp(p, sp.tangent(p, [0.0, math.pi, 0.0]))
    assert np.allclose(r.coords, [-1.0, 0.0, 0.0], atol=1e-15)


def test_sphere_log_inverts_exp():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.point([0.0, 1.0, 0.0])
    v = sp.log(p, q)
    assert np.allclose(v.components, [0.0, math.pi / 2.0, 0.0], atol=1e-15)


def test_sphere_antipodal_log_raises_cut_locus():
    sp = make_space("sphere-2")
    with pytest.raises(CutLocus):
        sp.log(sp.point([1.0, 0.0, 0.0]), sp.point([-1.0, 0.0, 0.0]))


def test_sphere_transport_examples():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.point([0.0, 1.0, 0.0])
    normal = sp.transport(sp.tangent(p, [0.0, 0.0, 0.7]), q)
    assert np.allclose(normal.components, [0.0, 0.0, 0.7], atol=1e-15)
    velocity = sp.transport(sp.tangent(p, [0.0, 0.4, 0.0]), q)
    assert np.allclose(velocity.components, [-0.4, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_tangent_basis_is_scipys_null_space(n):
    # numpy's SVD under scipy's null_space rank rule, bit for bit and laid
    # out in memory as scipy's, so that a random direction drawn through
    # the basis rounds as it did: with the columns contiguous instead, the
    # exactness sweep's sphere-2 figures moved in the last digits
    space = Sphere(n)
    rng = np.random.default_rng(40 + n)
    for _ in range(200):
        x = space.random_point(rng).coords
        basis = space._tangent_basis(x)
        ref = null_space(x[None, :])
        assert basis.shape == ref.shape == (n + 1, n)
        assert basis.tobytes() == ref.tobytes()
        assert basis.strides == ref.strides
        z = rng.standard_normal(n)
        assert (basis @ z).tobytes() == (ref @ z).tobytes()
        eps = np.finfo(float).eps
        assert np.abs(basis.T @ basis - np.eye(n)).max() <= 8 * eps
        assert np.abs(x @ basis).max() <= 8 * eps


def test_sphere_curvature_closed_form():
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    u = sp.tangent(p, [0.0, 1.0, 0.0])
    v = sp.tangent(p, [0.0, 0.0, 1.0])
    out = sp.curvature(p, u, v, v)
    assert np.allclose(out.components, [0.0, 1.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = sp.random_point(rng)
        a = sp.random_direction(rng, m)
        b = sp.random_direction(rng, m)
        c = sp.random_direction(rng, m)
        got = sp.curvature(m, a, b, c).components
        want = (sp.inner(b, c) * a - sp.inner(a, c) * b).components
        assert np.linalg.norm(got - want) <= 1e-12


def test_sphere_midpoint_symmetry():
    sp = make_space("sphere-2")
    m = sp.midpoint(sp.point([1.0, 0.0, 0.0]), sp.point([0.0, 1.0, 0.0]))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(m.coords, [s, s, 0.0], atol=1e-15)
    flipped = sp.geodesic_symmetry(sp.point([1.0, 0.0, 0.0]),
                                   sp.point([0.0, 1.0, 0.0]))
    assert np.allclose(flipped.coords, [0.0, -1.0, 0.0], atol=1e-15)


# -- hyperbolic ---------------------------------------------------------------

def test_hyperbolic_exp_closed_form():
    hy = make_space("hyperbolic-2")
    p = hy.point([1.0, 0.0, 0.0])
    t = 0.7
    q = hy.exp(p, hy.tangent(p, [0.0, t, 0.0]))
    assert np.allclose(q.coords, [math.cosh(t), math.sinh(t), 0.0], atol=1e-14)
    v = hy.log(p, q)
    assert np.allclose(v.components, [0.0, t, 0.0], atol=1e-14)


def test_hyperbolic_membership_and_tangency():
    hy = make_space("hyperbolic-2")
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = hy.random_point(rng)
        assert hy.membership_residual(p) <= 1e-9
        u = hy.random_direction(rng, p)
        assert hy.tangency_residual(u) <= 1e-9
        q = hy.exp(p, 0.8 * u)
        assert hy.membership_residual(q) <= 1e-9


def test_hyperbolic_membership_needs_a_positive_time_coordinate():
    # the lower sheet, and the plane between the sheets, are not members
    hy = make_space("hyperbolic-2")
    for coords in ([-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
        assert hy.membership_residual(hy.point(coords)) == math.inf


@pytest.mark.parametrize("name", ["sphere-2", "hyperbolic-2"])
def test_kernels_at_a_vector_whose_squared_norm_underflows(name):
    # |v|^2 of v = (0, 1e-170, 0) underflows to 0, so every kernel takes
    # its angle-0 branch: the geodesic keeps p to its rounding, the
    # transport along v is the identity, and the log to a point 1e-170
    # away finds a tangential part of norm 0 and returns 0
    space = make_space(name)
    p = space.point([1.0, 0.0, 0.0])
    v = space.tangent(p, [0.0, 1e-170, 0.0])
    u = space.tangent(p, [0.0, 0.0, 1.0])
    for q in space.geodesic(p, v, [0.5, 1.0]):
        assert np.abs(q.coords - p.coords).max() <= 1e-170
    moved = space.exp_transport(u, v)
    assert moved.components.tolist() == [0.0, 0.0, 1.0]
    assert moved.base.coords.tolist() == space.exp(p, v).coords.tolist()
    q = space.point([1.0, 1e-170, 0.0])
    assert space.log(p, q).components.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("coords", [
    [0.7175, 6.6e-6],  # spatial part of a fleet-exactness trial point
    [1e-12, 0.9],
    [0.0, -2.5],
    [3.0, 1e-9, 0.0],
])
def test_hyperbolic_tangent_basis_is_tangent_near_an_axis(coords):
    # a small spatial coordinate used to leave a basis vector 6e-11 off the
    # tangent space, enough to push a pole-ladder error above 1e-10
    y = np.asarray(coords)
    hy = make_space(f"hyperbolic-{y.size}")
    p = hy.point(np.concatenate([[math.sqrt(1.0 + float(y @ y))], y]))
    basis = hy.tangent_basis(p)
    minkowski = np.diag([-1.0] + [1.0] * y.size)
    assert np.max(np.abs(p.coords @ minkowski @ basis)) <= 1e-14
    assert np.allclose(basis.T @ minkowski @ basis, np.eye(y.size), atol=1e-13)


def test_far_hyperbolic_exactness_sweep_raises_no_untyped_error():
    # at distances up to 8 the Minkowski norm that exp used to renormalize by
    # cancelled to a negative number: ValueError from math.sqrt; exactness
    # is not asserted this far out, where the closed forms lose digits
    worst, _ = exactness_sweep(make_space("hyperbolic-2"), POLE_SCHEMES, 300,
                               np.random.default_rng(7), 8.0, 6.0)
    assert all(map(math.isfinite, worst.values()))


@pytest.mark.parametrize("speed", [400.0, 1000.0])
def test_hyperbolic_exp_overflow_is_non_finite(speed):
    # unchecked, exp returns [inf, 2.6e173, 0] at speed 400, and math.cosh
    # raises a bare OverflowError at 1000
    hy = make_space("hyperbolic-2")
    p = hy.point([1.0, 0.0, 0.0])
    with pytest.raises(NonFinite, match="geodesic length"):
        hy.exp(p, hy.tangent(p, [0.0, speed, 0.0]))


def test_hyperbolic_exp_is_finite_just_below_the_overflow_guard():
    hy = make_space("hyperbolic-2")
    p = hy.point([1.0, 0.0, 0.0])
    q = hy.exp(p, hy.tangent(p, [0.0, 354.0, 0.0]))
    assert q.coords[1] == pytest.approx(math.sinh(354.0), rel=1e-12)
    assert math.isfinite(q.coords[0])


def _far_hyperbolic_transports(distance):
    """50 seeded transports of a unit vector over the given distance."""
    hy, rng = make_space("hyperbolic-2"), np.random.default_rng(1)
    for _ in range(50):
        p = hy.random_point(rng)
        q = hy.exp(p, distance * hy.random_direction(rng, p))
        yield hy, hy.random_direction(rng, p), q


def test_far_hyperbolic_transport_overflow_is_non_finite():
    # the tangency projection at q overflowed with a numpy warning on 32 of
    # these draws, and returned inf where warnings are not errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hy, u, q in _far_hyperbolic_transports(300.0):
            with pytest.raises(NonFinite, match="transport leaves the float"):
                hy.transport(u, q)


def test_far_hyperbolic_transport_inside_the_guard_keeps_its_bits():
    # the guard only reads: the transport is the closed form's to the bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hy, u, q in _far_hyperbolic_transports(200.0):
            x, w = u.base.coords, u.components
            v = hy.log(u.base, q).components
            y, theta = hy._exp(x, v), math.sqrt(max(_mink(v, v), 0.0))
            ue = _mink(w, v) / theta
            out = (w + (ue * (math.cosh(theta) - 1.0) / theta) * v
                   + (ue * math.sinh(theta)) * x)
            want = out + _mink(y, out) * y
            assert hy.transport(u, q).components.tobytes() == want.tobytes()


def test_hyperbolic_constant_negative_curvature():
    hy = make_space("hyperbolic-2")
    rng = np.random.default_rng(3)
    p = hy.random_point(rng)
    u = hy.random_direction(rng, p)
    v = hy.random_direction(rng, p)
    # orthonormalize to read off the sectional curvature
    v = v - hy.inner(u, v) * u
    v = (1.0 / hy.norm(v)) * v
    k = hy.inner(hy.curvature(p, u, v, v), u)
    assert k == pytest.approx(-1.0, abs=1e-12)


# -- SPD ----------------------------------------------------------------------

def test_spd_exp_at_identity_is_matrix_exponential():
    spd = make_space("spd-2")
    eye = spd.point(np.eye(2).ravel())
    v = spd.tangent(eye, np.diag([0.3, -0.4]).ravel())
    out = spd.exp(eye, v).coords.reshape(2, 2)
    assert np.allclose(out, np.diag([math.exp(0.3), math.exp(-0.4)]), atol=1e-14)


@pytest.mark.parametrize("eig", [800.0, -800.0])
def test_spd_exp_out_of_float_range_is_non_finite(eig):
    # unchecked, exp returns an all-NaN matrix at 800 and the singular
    # diag(0, 1, 1) at -800
    spd = make_space("spd-3")
    eye = spd.point(np.eye(3).ravel())
    with pytest.raises(NonFinite, match="matrix exponential"):
        spd.exp(eye, spd.tangent(eye, np.diag([eig, 0.0, 0.0]).ravel()))


def test_spd_exp_range_check_leaves_room_for_the_base_point():
    # exp(700) is finite, but not once the base's eigenvalue e^20 scales it
    spd = make_space("spd-2")
    p = spd.point(np.diag([math.exp(20.0), 1.0]).ravel())
    with pytest.raises(NonFinite):
        spd.exp(p, spd.tangent(p, np.diag([700.0 * math.exp(20.0), 0.0]).ravel()))
    q = spd.exp(p, spd.tangent(p, np.diag([680.0 * math.exp(20.0), 0.0]).ravel()))
    assert q.coords[0] == pytest.approx(math.exp(700.0), rel=1e-12)


def test_spd_transport_diagonal_example():
    spd = make_space("spd-2")
    eye = spd.point(np.eye(2).ravel())
    q = spd.point(np.diag([4.0, 1.0]).ravel())
    a, b = 0.37, -1.2
    moved = spd.transport(spd.tangent(eye, np.diag([a, b]).ravel()), q)
    assert np.allclose(moved.components.reshape(2, 2),
                       np.diag([4.0 * a, b]), atol=1e-13)


def test_spd_midpoint_example():
    spd = make_space("spd-2")
    eye = spd.point(np.eye(2).ravel())
    q = spd.point(np.diag([4.0, 1.0]).ravel())
    m = spd.midpoint(eye, q)
    assert np.allclose(m.coords.reshape(2, 2), np.diag([2.0, 1.0]), atol=1e-13)
    res = spd.log(m, eye) + spd.log(m, q)
    assert res.component_norm <= 1e-10


def test_spd_rejects_non_positive_matrices():
    spd = make_space("spd-2")
    bad = spd.point(np.diag([1.0, -0.5]).ravel())
    eye = spd.point(np.eye(2).ravel())
    with pytest.raises(NotSPD):
        spd.log(eye, bad)
    with pytest.raises(NotSPD):
        spd.exp(bad, spd.tangent(bad, np.eye(2).ravel()))
    # a base that is not SPD raises each time: the failure is not kept
    for _ in range(2):
        with pytest.raises(NotSPD, match="base point"):
            spd.log(bad, eye)
    # the symmetry's Cholesky factor of the reflected point is its check
    with pytest.raises(NotSPD, match="point is not positive definite"):
        spd.geodesic_symmetry(eye, bad)
    # the inner product reads the base's factor, as exp and log do
    with pytest.raises(NotSPD, match="base point"):
        spd.inner(TangentVector(bad, np.eye(2).ravel()),
                  TangentVector(bad, np.eye(2).ravel()))


def _spd_symmetry_by_lapack(x, y, n):
    # x y^-1 x = a^T a, a = L^-1 x, by LAPACK's Cholesky factor of y's
    # symmetric part and its LU solve, the form the Python-float kernel
    # replaced
    m = y.reshape(n, n)
    low = np.linalg.cholesky(0.5 * (m + m.T))
    a = np.linalg.solve(low, x.reshape(n, n))
    g = a.T @ a
    return (0.5 * (g + g.T)).ravel()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spd_symmetry_is_the_lapack_form(n):
    # within 1e-14 of the result's largest entry, and symmetric bit for bit
    # without a symmetrization; most sampled points are not symmetric bit
    # for bit, so the factor reads their symmetric part
    spd = make_space(f"spd-{n}")
    rng = np.random.default_rng(97)
    for _ in range(2000):
        m, p = spd.random_point(rng), spd.random_point(rng)
        got = spd.geodesic_symmetry(m, p).coords
        want = _spd_symmetry_by_lapack(m.coords, p.coords, n)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        g = got.reshape(n, n)
        assert np.array_equal(g, g.T)


@pytest.mark.parametrize("n", [2, 3])
def test_spd_symmetry_rejects_a_singular_or_indefinite_point(n):
    # all ones has rank 1: its second pivot is 0 exactly
    spd = make_space(f"spd-{n}")
    eye = spd.point(np.eye(n).ravel())
    indefinite = np.eye(n)
    indefinite[-1, -1] = -0.5
    for bad in (np.ones((n, n)), indefinite):
        with pytest.raises(NotSPD, match="point is not positive definite"):
            spd.geodesic_symmetry(eye, spd.point(bad.ravel()))
    # a NaN pivot fails the kernel's check too
    nan = np.eye(n)
    nan[1, 0] = math.nan
    with pytest.raises(NotSPD, match="point is not positive definite"):
        spd._geodesic_symmetry(eye.coords, nan.ravel())


def test_spd_symmetry_range_bound_is_twice_the_squared_entry_sum():
    # x = c I reflected through I is c^2 I, and a = c I has |entries| summing
    # to A = 2c: at 2 A^2 = 0.75 of the limit it passes, at 1.5 it raises
    spd = make_space("spd-2")
    eye = spd.point(np.eye(2).ravel())
    for share, passes in ((0.75, True), (1.5, False)):
        c = math.sqrt(share * core._FLOAT_LIMIT / 8.0)
        m = spd.point(c * np.eye(2).ravel())
        if passes:
            got = spd.geodesic_symmetry(m, eye).coords
            assert got.tolist() == [c * c, 0.0, 0.0, c * c]
        else:
            with pytest.raises(NonFinite, match="reflection leaves"):
                spd.geodesic_symmetry(m, eye)


def _spd_inner_by_solves(spd, u, v):
    # tr(P^-1 U P^-1 V) by two LU solves, the form the factor replaced
    p = u.base.coords.reshape(spd.n, spd.n)
    a = np.linalg.solve(p, u.components.reshape(spd.n, spd.n))
    b = np.linalg.solve(p, v.components.reshape(spd.n, spd.n))
    return float(np.trace(a @ b))


def test_spd_inner_from_the_factor_is_the_trace_form():
    # within 1e-14 of |u| |v|, the scale of either form's rounding: near
    # orthogonal pairs make the value itself far smaller.  Swapping u and v
    # swaps the two factors of the contraction, which keeps its bits
    spd = make_space("spd-3")
    rng = np.random.default_rng(83)
    for _ in range(2000):
        p = spd.random_point(rng)
        u, v = (rng.uniform(0.1, 3.0) * spd.random_direction(rng, p)
                for _ in range(2))
        got = spd.inner(u, v)
        scale = spd.norm(u) * spd.norm(v)
        assert abs(got - _spd_inner_by_solves(spd, u, v)) <= 1e-14 * scale
        assert spd.inner(v, u) == got
        assert spd.inner(u, u) >= 0.0


@pytest.mark.parametrize("n, draws", [(2, 500), (3, 2000), (4, 500)])
def test_spd_tangent_basis_is_the_column_loop_bit_for_bit(n, draws):
    # one stacked product P^1/2 F P^1/2 over the basis of Sym(n), against
    # the loop over its matrices that it replaced, kept here as the
    # reference; the layout is the loop's too
    spd = make_space(f"spd-{n}")
    rng = np.random.default_rng(89)
    for _ in range(draws):
        p = spd.random_point(rng)
        ps = spd._sqrt_pair(p.coords)[0]
        cols = []
        for i in range(n):
            for j in range(i, n):
                f = np.zeros((n, n))
                if i == j:
                    f[i, i] = 1.0
                else:
                    f[i, j] = f[j, i] = 1.0 / math.sqrt(2.0)
                cols.append((ps @ f @ ps).ravel())
        got = spd.tangent_basis(p)
        assert np.array_equal(got, np.column_stack(cols))
        assert got.flags.c_contiguous


@pytest.mark.parametrize("name, m, p", [
    ("hyperbolic-2", [1e160, 1e160, 0.0], [1e160, -1e160, 0.0]),
    ("spd-3", 1e200 * np.eye(3).ravel(), 1e-200 * np.eye(3).ravel()),
])
def test_symmetry_out_of_the_float_range_raises_non_finite(name, m, p):
    # finite inputs whose reflection overflows: NonFinite, not a warning
    space = make_space(name)
    with pytest.raises(NonFinite, match="leaves the float range"):
        space.geodesic_symmetry(space.point(m), space.point(p))


@pytest.mark.parametrize("kind", POLE_SCHEMES)
def test_spd_pole_kind_factors_each_base_once(monkeypatch, kind):
    # the bases a pole step factors: p (the midpoint, exp_p(+-u)), exp_p(u)
    # (pole_v1's log and exp there) and q (the final logs)
    spd = make_space("spd-3")
    rng = np.random.default_rng(11)
    p = spd.random_point(rng)
    q = spd.exp(p, 0.8 * spd.random_direction(rng, p))
    u = 0.5 * spd.random_direction(rng, p)
    bases = []

    def factor(m):
        bases.append(m.tobytes())
        return sqrt_pair(m)

    sqrt_pair = manifolds._sqrt_pair
    monkeypatch.setattr(manifolds, "_sqrt_pair", factor)
    # the cache is the process's: empty it of the bases the sampling above
    # factored
    manifolds._cached_sqrt_pair.cache_clear()
    out = ladder_step(spd, p, q, u, kind)
    assert len(bases) == len(set(bases)) == (3 if kind == "pole_v1" else 2)
    # the cached factors are read-only, and the step's result is the one a
    # space that factors every base afresh gives
    ps, pis, _ = spd._sqrt_pair(p.coords)
    assert make_space("spd-3")._sqrt_pair(p.coords)[0] is ps
    for a in (ps, pis):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    monkeypatch.setattr(spd, "_sqrt_pair",
                        lambda x: sqrt_pair(x.reshape(3, 3)))
    want = ladder_step(spd, p, q, u, kind)
    assert np.array_equal(out.components, want.components)


# -- SO(3) --------------------------------------------------------------------

def test_so3_symmetry_at_identity_is_inversion():
    so3 = make_space("so3")
    rng = np.random.default_rng(4)
    eye = so3.point(np.eye(3).ravel())
    h = so3.random_point(rng)
    out = so3.geodesic_symmetry(eye, h)
    hm = h.coords.reshape(3, 3)
    assert np.allclose(out.coords.reshape(3, 3), hm.T, atol=1e-15)
    again = so3.geodesic_symmetry(eye, out)
    assert np.allclose(again.coords, h.coords, atol=1e-15)


SO3_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                        max_examples=150)

# rotation angles on both sides of the series branch at 1e-8, generic ones,
# and ones within 1e-3 of the cut locus at pi, short of its 1e-6 margin
so3_angles = st.one_of(
    st.floats(-11.0, -5.0).map(lambda e: 10.0 ** e),
    st.floats(1e-5, math.pi - 1e-3),
    st.floats(-5.5, -3.0).map(lambda e: math.pi - 10.0 ** e),
)


@SO3_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3), theta=so3_angles)
@example(seed=1, axis=(0.48, 0.6, 0.64), theta=0.99e-8)
@example(seed=1, axis=(0.48, 0.6, 0.64), theta=1.01e-8)
@example(seed=2, axis=(0.0, 0.0, 1.0), theta=math.pi - 1e-3)
@example(seed=2, axis=(0.0, 0.0, 1.0), theta=math.pi - 1.1e-6)
def test_so3_exp_and_log_are_scipys_expm_and_logm(seed, axis, theta):
    # the body matrices of the Python-float kernels against scipy's matrix
    # exponential and logarithm.  Near pi the log reads the rotation's axis
    # from sin(theta) times it, so the log of a rounded point is good to
    # about eps / (pi - theta) there, whatever the method
    so3 = make_space("so3")
    p = so3.random_point(np.random.default_rng(seed))
    r = p.coords.reshape(3, 3)
    size = float(np.linalg.norm(axis))
    assume(size >= 0.1)
    w = (theta / size) * np.array(axis)
    q = so3.exp(p, so3.tangent(p, (r @ _hat(w)).ravel()))
    assert np.abs(q.coords.reshape(3, 3) - r @ expm(_hat(w))).max() <= 1e-14
    body = r.T @ so3.log(p, q).components.reshape(3, 3)
    want = logm(r.T @ q.coords.reshape(3, 3))
    assert np.abs(body - want.real).max() <= \
        1e-14 / min(1.0, math.pi - theta)


def test_so3_random_point_is_the_determinant_form_bit_for_bit():
    # the column swap that makes det = +1 is picked by the sign of the
    # triple product of the rows; np.linalg.det, the form it replaced and
    # kept here as the reference, picks the same on every draw
    so3 = make_space("so3")
    mine, ref = np.random.default_rng(71), np.random.default_rng(71)
    for _ in range(10000):
        q, rr = np.linalg.qr(ref.standard_normal((3, 3)))
        q = q * np.sign(np.diag(rr))
        if np.linalg.det(q) < 0.0:
            q[:, [0, 1]] = q[:, [1, 0]]
        assert np.array_equal(so3.random_point(mine).coords, q.ravel())


def test_so3_inner_is_the_matrix_contraction_bit_for_bit():
    # <U, V> = tr(U^T V) / 2 is the dot product of the flat entries, and
    # numpy sums the two in the same order
    so3 = make_space("so3")
    rng = np.random.default_rng(61)
    for _ in range(2000):
        p = so3.random_point(rng)
        u, v = (rng.uniform(0.1, 3.0) * so3.random_direction(rng, p)
                for _ in range(2))
        want = 0.5 * float(np.tensordot(u.components.reshape(3, 3),
                                        v.components.reshape(3, 3)))
        assert so3.inner(u, v) == want


@pytest.mark.parametrize("name", ["sphere-2", "so3"])
def test_exp_past_the_norms_float_range_is_non_finite(name):
    # unchecked, numpy's norm squares past the float range from a length of
    # about 1.3e154, and math.sin(inf) raised a bare ValueError in exp while
    # geodesic returned NaN points
    space = make_space(name)
    rng = np.random.default_rng(9)
    p = space.random_point(rng)
    d = space.random_direction(rng, p)
    assert np.isfinite(space.exp(p, 1e150 * d).coords).all()
    assert np.isfinite(space.geodesic(p, d, [0.5, 1e150])[1].coords).all()
    for length in (1e155, 1e300):
        with pytest.raises(NonFinite, match="leaves the float range"):
            space.exp(p, length * d)
        with pytest.raises(NonFinite, match="leaves the float range"):
            space.geodesic(p, d, [0.5, length])
        with pytest.raises(NonFinite, match="leaves the float range"):
            space.geodesic(p, length * d, [0.5])


def test_euclidean_exp_at_a_far_point_is_finite_or_non_finite():
    # x + v would overflow to an inf point; the vector check bounds v below
    # about 1e154, which cannot move a coordinate near the float maximum
    space = make_space("euclidean-3")
    p = space.point([1.7e308, 0.0, 0.0])
    with pytest.raises(NonFinite, match="leaves the float range"):
        space.exp(p, TangentVector(p, [1e308, 0.0, 0.0]))
    q = space.exp(p, space.tangent(p, [9e153, 0.0, 0.0]))
    assert np.array_equal(q.coords, p.coords)


def test_so3_log_branch_at_half_turn():
    so3 = make_space("so3")
    eye = so3.point(np.eye(3).ravel())
    half_turn = so3.point(expm(_hat([math.pi, 0.0, 0.0])).ravel())
    with pytest.raises(CutLocus):
        so3.log(eye, half_turn)


@pytest.mark.parametrize("name", ["so3", "sphere-2"])
def test_exp_transport_follows_exp_past_the_cut_locus(name):
    # exp_transport(u, v) carries u along t -> exp(t v) whatever |v|, so it
    # agrees with 64 short steps that each carry the velocity along too,
    # at the cut locus (|v| = pi) and past it
    space = make_space(name)
    rng = np.random.default_rng(3)
    p = space.random_point(rng)
    d = space.random_direction(rng, p)
    u = space.random_direction(rng, p)
    for length in (math.pi, 4.0, 5.5):
        out = space.exp_transport(u, length * d)
        uk, vk = u, (length / 64) * d
        for _ in range(64):
            uk, vk = space.exp_transport(uk, vk), space.exp_transport(vk, vk)
        assert np.max(np.abs(out.base.coords - uk.base.coords)) <= 1e-12
        assert np.max(np.abs(out.components - uk.components)) <= 1e-12


def test_so3_transvection_matches_closed_form_transport():
    # the composition of the symmetries at the midpoint and the endpoint
    # moves the geodesic along itself; its differential is the transport
    so3 = make_space("so3")
    rng = np.random.default_rng(5)
    p = so3.random_point(rng)
    q = so3.exp(p, 1.1 * so3.random_direction(rng, p))
    m = so3.midpoint(p, q)
    u = 0.8 * so3.random_direction(rng, p)
    p1 = so3.exp(p, 1e-3 * u)
    moved = so3.geodesic_symmetry(q, so3.geodesic_symmetry(m, p1))
    expected = so3.exp(q, 1e-3 * so3.transport(u, q))
    assert np.linalg.norm(moved.coords - expected.coords) <= 1e-12


def test_so3_geodesics_are_one_parameter_subgroups():
    so3 = make_space("so3")
    rng = np.random.default_rng(6)
    p = so3.random_point(rng)
    w = np.array([0.2, -0.3, 0.5])
    r = p.coords.reshape(3, 3)
    v = so3.tangent(p, (r @ _hat(w)).ravel())
    q = so3.exp(p, v)
    assert np.allclose(q.coords.reshape(3, 3), r @ expm(_hat(w)), atol=1e-14)


def test_so3_rotvec_right_jacobian_small_angle_branch():
    # below theta = 1e-6 the chart's right Jacobian is I - K/2 + K^2/6; at
    # 9e-7 the closed form still holds a to the last bits, written without
    # cancellation, and b = (theta - sin theta) / theta^3 to three digits
    right_jacobian = manifolds._so3_rotation_vector_chart()[2]
    theta = 9e-7
    w = theta * np.array([0.48, 0.6, 0.64])
    j, k = right_jacobian(w), _hat(w)
    a = 2.0 * math.sin(0.5 * theta) ** 2 / theta ** 2
    b = (theta - math.sin(theta)) / theta ** 3
    np.testing.assert_allclose(0.5 * (j.T - j), a * k, rtol=1e-12)
    np.testing.assert_allclose(0.5 * (j + j.T) - np.eye(3), b * (k @ k),
                               rtol=1e-2)


# -- bump metric --------------------------------------------------------------

def test_bump_gauss_curvature_closed_form(bump):
    assert bump.gauss_curvature([0.0, 0.0]) == pytest.approx(-2.0)
    x = np.array([0.3, 0.1])
    assert bump.gauss_curvature(x) == pytest.approx(
        -2.0 * math.exp(-2.0 * 0.3 ** 2))


def test_bump_flat_when_beta_zero():
    from geoladders import BumpMetric2D, ladder_step

    flat = BumpMetric2D(0.0)
    assert flat.locally_symmetric
    p = flat.point([0.1, -0.2])
    q = flat.point([0.4, 0.3])
    u = flat.tangent(p, [0.2, 0.1])
    for kind in ("schild", "pole_v1", "pole_v2", "pole_alt", "pole_avg"):
        out = ladder_step(flat, p, q, u, kind)
        assert np.allclose(out.components, u.components, atol=1e-11)


def test_bump_curvature_derivative_is_material(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(7)
    u = bump.random_direction(rng, m)
    v = bump.random_direction(rng, m)
    out = bump.nabla_curvature(m, u, u, v, v)
    assert out.component_norm > 1e-3


# -- fleet-wide structural invariants -----------------------------------------

@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_round_trip(fleet, rng, name):
    assert round_trip_residual(fleet[name], rng) <= 1e-9


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_midpoint_barycenter(fleet, rng, name):
    assert midpoint_residual(fleet[name], rng) <= 1e-9


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_symmetry_involution(fleet, rng, name):
    assert symmetry_involution_residual(fleet[name], rng) <= 1e-9


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_transport_linearity(fleet, rng, name):
    assert transport_linearity_residual(fleet[name], rng) <= 1e-10


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_transport_isometry(fleet, rng, name):
    assert transport_isometry_residual(fleet[name], rng) <= 1e-10


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_curvature_skew_exact(fleet, rng, name):
    assert curvature_skew_residual(fleet[name], rng) == 0.0


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_first_bianchi(fleet, rng, name):
    assert bianchi_residual(fleet[name], rng) <= 1e-8


@pytest.mark.parametrize("name", ["sphere-2", "so3", "spd-3", "hyperbolic-2"])
def test_fleet_symmetry_composition_law(fleet, rng, name):
    assert symmetry_composition_residual(fleet[name], rng) <= 1e-12


def test_euclidean_curvature_and_derivative_vanish(fleet, rng):
    space = fleet["euclidean-3"]
    p = space.random_point(rng)
    u = space.random_direction(rng, p)
    v = space.random_direction(rng, p)
    w = space.random_direction(rng, p)
    assert space.curvature(p, u, v, w).component_norm == 0.0
    assert space.nabla_curvature(p, u, u, v, w).component_norm == 0.0


@pytest.mark.parametrize("name", ["sphere-2", "hyperbolic-2", "spd-3", "so3"])
def test_locally_symmetric_certification(fleet, rng, name):
    # independent route: the transport-conjugated curvature must be constant
    # along geodesics, so its derivative vanishes
    space = fleet[name]
    p = space.random_point(rng)
    direction = space.random_direction(rng, p)
    u = space.random_direction(rng, p)
    v = space.random_direction(rng, p)
    w = space.random_direction(rng, p)
    deriv = transport_conjugation_derivative(space, p, direction, u, v, w)
    assert np.linalg.norm(deriv) <= 1e-8
    claimed = space.nabla_curvature(p, direction, u, v, w)
    assert claimed.component_norm == 0.0


def test_bump_membership_and_sampling(bump, rng):
    p = bump.random_point(rng)
    assert bump.membership_residual(p) == 0.0
    assert np.all(np.abs(p.coords) <= 0.5)
    u = bump.random_direction(rng, p)
    assert bump.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_membership_and_tangency_tolerances(fleet, rng):
    for space in fleet.values():
        p = space.random_point(rng)
        assert space.membership_residual(p) <= 1e-9
        u = space.random_direction(rng, p)
        assert space.tangency_residual(u) <= 1e-9
        q = space.exp(p, 0.7 * u)
        assert space.membership_residual(q) <= 1e-9


def test_schild_regression_baseline_on_sphere():
    # one geodesic parallelogram at h = 0.2: the error against the closed
    # form is genuinely third order (well below h^3 = 8e-3) and pinned here
    # as a regression value
    sp = make_space("sphere-2")
    p = sp.point([1.0, 0.0, 0.0])
    q = sp.exp(p, sp.tangent(p, [0.0, 0.2, 0.0]))
    u = sp.tangent(p, [0.0, 0.0, 0.2])
    err = (ladder_step(sp, p, q, u, "schild")
           - sp.transport(u, q)).component_norm
    assert 0.0 < err < 0.2 ** 3
    assert err == pytest.approx(0.0040266145346893305, rel=1e-9)
