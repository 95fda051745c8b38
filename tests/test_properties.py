"""Property-based checks of the ConnectionSpace contract on the closed-form
fleet, inside half the validity radius (capped at 1).

Hypothesis draws the base point's seed and the tangent vectors' coordinates
in an orthonormal tangent basis.  The runs are derandomized and keep no
example database, so they are reproducible and write nothing to the tree.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FLEET_NAMES
from geoladders import (GeometryError, NonFinite, ladder_step,
                        transport_along_geodesic)
from helpers import sample_radius

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)

seeds = st.integers(0, 2 ** 32 - 1)


def draw_tangent(data, space, p, lo=0.1, hi=1.0):
    """A tangent vector at p with metric norm in [lo, hi] * sample_radius."""
    c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=space.dim,
                                    max_size=space.dim)))
    norm = float(np.linalg.norm(c))
    assume(norm >= 0.1)
    length = data.draw(st.floats(lo, hi)) * sample_radius(space)
    return space.tangent(p, space.tangent_basis(p) @ ((length / norm) * c))


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, data=st.data())
def test_exp_log_round_trip(fleet, name, seed, data):
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    v = draw_tangent(data, space, p, lo=0.0)
    assert (space.log(p, space.exp(p, v)) - v).component_norm <= 1e-9


@pytest.mark.parametrize("name", ["hyperbolic-2", "spd-3"])
@PROPERTY
@given(seed=seeds, data=st.data())
def test_long_exp_is_finite_or_a_typed_error(fleet, name, seed, data):
    # far beyond the validity radius the closed forms overflow; that must
    # surface as a GeometryError, never as inf, NaN or a bare OverflowError
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    v = draw_tangent(data, space, p, lo=0.0, hi=1e4 / sample_radius(space))
    try:
        q = space.exp(p, v)
    except GeometryError:
        return
    assert np.isfinite(q.coords).all()


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, times=st.lists(st.floats(-1.5, 1.5), max_size=6),
       data=st.data())
def test_geodesic_is_exp_at_each_time(fleet, name, seed, times, data):
    # a closed-form kernel factors the shared work out of the times, so it
    # rounds differently from exp, but only by a few eps
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    v = draw_tangent(data, space, p, lo=0.0, hi=2.0)
    eps = np.finfo(float).eps
    for t, y in zip(times, space.geodesic(p, v, times), strict=True):
        ref = space.exp(p, t * v).coords
        bound = 64 * eps * max(1.0, float(np.abs(ref).max()))
        assert np.abs(y.coords - ref).max() <= bound
        assert space.membership_residual(y) <= 1e-9


@pytest.mark.parametrize("name", ["hyperbolic-2", "spd-3"])
@PROPERTY
@given(seed=seeds, t=st.floats(-2e3, 2e3), data=st.data())
def test_geodesic_overflows_where_exp_does(fleet, name, seed, t, data):
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    v = draw_tangent(data, space, p)
    try:
        space.exp(p, t * v)
    except NonFinite:
        with pytest.raises(NonFinite):
            space.geodesic(p, v, [0.5, t])
        return
    for y in space.geodesic(p, v, [0.5, t]):
        assert np.isfinite(y.coords).all()


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, alpha=st.floats(-2.0, 2.0), data=st.data())
def test_transport_is_a_linear_isometry(fleet, name, seed, alpha, data):
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    q = space.exp(p, draw_tangent(data, space, p))
    u = draw_tangent(data, space, p)
    w = draw_tangent(data, space, p)
    pu, pw = space.transport(u, q), space.transport(w, q)
    assert abs(space.inner(pu, pw) - space.inner(u, w)) <= 1e-10
    lhs = space.transport(alpha * u + w, q)
    assert (lhs - (alpha * pu + pw)).component_norm <= 1e-10


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, data=st.data())
def test_exp_transport_is_exp_then_transport(fleet, name, seed, data):
    # the default kernel is the closed-form exp followed by the closed-form
    # transport, so the two routes agree to the last bit
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    u = draw_tangent(data, space, p, lo=0.0)
    v = draw_tangent(data, space, p)
    q = space.exp(p, v)
    out = space.exp_transport(u, v)
    assert np.array_equal(out.base.coords, q.coords)
    assert np.array_equal(out.components, space.transport(u, q).components)


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, data=st.data())
def test_geodesic_symmetry_is_an_involution(fleet, name, seed, data):
    space = fleet[name]
    m = space.random_point(np.random.default_rng(seed))
    p = space.exp(m, draw_tangent(data, space, m, lo=0.0))
    back = space.geodesic_symmetry(m, space.geodesic_symmetry(m, p))
    assert np.linalg.norm(back.coords - p.coords) <= 1e-9


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, data=st.data())
def test_pole_ladder_is_exact(fleet, name, seed, data):
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    q = space.exp(p, draw_tangent(data, space, p))
    u = draw_tangent(data, space, p)
    err = space.norm(ladder_step(space, p, q, u, "pole_v2")
                     - space.transport(u, q))
    assert err <= space.tolerances.exactness_tol * space.norm(u)


@pytest.mark.parametrize("name", FLEET_NAMES)
@PROPERTY
@given(seed=seeds, n=st.integers(1, 16), data=st.data())
def test_pole_rails_are_exact(fleet, name, seed, n, data):
    # the rail hands each rung its predecessor's reflected point through a
    # closed-form symmetry instead of an exp of the step's log; on a
    # symmetric space every rung stays exact, so the n-rung rail is too
    space = fleet[name]
    p = space.random_point(np.random.default_rng(seed))
    q = space.exp(p, draw_tangent(data, space, p))
    u = draw_tangent(data, space, p)
    oracle = space.transport(u, q)
    bound = space.tolerances.exactness_tol * space.norm(u)
    for kind in ("pole_v1", "pole_v2", "pole_alt", "pole_avg"):
        out = transport_along_geodesic(space, p, q, u, n, kind).vector
        assert space.norm(out - oracle) <= bound, kind
