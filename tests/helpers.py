"""Shared property checks used by the unit suites and the acceptance gate."""

from collections import Counter

import numpy as np

from geoladders import chart


def count_engine_calls(monkeypatch, *names):
    """Count calls of the named chart-engine functions, by name."""
    calls = Counter()
    for name in names:
        def counted(*args, fn=getattr(chart, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(chart, name, counted)
    return calls


def sample_radius(space):
    """Safe tangent-vector scale: half the space's injectivity radius,
    capped at 1."""
    return 0.5 * min(space.injectivity_radius, 2.0)


def round_trip_residual(space, rng, trials=10):
    """max |log(p, exp(p, v)) - v| over random draws."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        v = (rng.uniform(0.1, 1.0) * sample_radius(space)) * \
            space.random_direction(rng, p)
        back = space.log(p, space.exp(p, v))
        worst = max(worst, (back - v).component_norm)
    return worst


def midpoint_residual(space, rng, trials=10):
    """max |log_m(p) + log_m(q)| over random pairs."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        v = (rng.uniform(0.1, 1.0) * sample_radius(space)) * \
            space.random_direction(rng, p)
        q = space.exp(p, v)
        m = space.midpoint(p, q)
        res = space.log(m, p) + space.log(m, q)
        worst = max(worst, res.component_norm)
    return worst


def symmetry_involution_residual(space, rng, trials=10):
    """max |s_m(s_m(p)) - p| in chart/embedding coordinates."""
    worst = 0.0
    for _ in range(trials):
        m = space.random_point(rng)
        v = (rng.uniform(0.1, 1.0) * sample_radius(space)) * \
            space.random_direction(rng, m)
        p = space.exp(m, v)
        back = space.geodesic_symmetry(m, space.geodesic_symmetry(m, p))
        worst = max(worst, float(np.linalg.norm(back.coords - p.coords)))
    return worst


def transport_linearity_residual(space, rng, trials=10):
    """Additivity and homogeneity defect of the transport oracle."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        q = space.exp(p, (0.8 * sample_radius(space)) *
                      space.random_direction(rng, p))
        u = space.random_direction(rng, p)
        w = space.random_direction(rng, p)
        alpha = rng.uniform(-2.0, 2.0)
        lhs = space.transport(alpha * u + w, q)
        rhs = alpha * space.transport(u, q) + space.transport(w, q)
        worst = max(worst, (lhs - rhs).component_norm)
    return worst


def transport_isometry_residual(space, rng, trials=10):
    """Relative defect of <Pu, Pv>_q against <u, v>_p."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        q = space.exp(p, (0.8 * sample_radius(space)) *
                      space.random_direction(rng, p))
        u = space.random_direction(rng, p)
        v = space.random_direction(rng, p)
        before = space.inner(u, v)
        after = space.inner(space.transport(u, q), space.transport(v, q))
        worst = max(worst, abs(after - before))
    return worst


def curvature_skew_residual(space, rng, trials=10):
    """|R(u,v)w + R(v,u)w|; exactly zero for the closed-form spaces."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        u = space.random_direction(rng, p)
        v = space.random_direction(rng, p)
        w = space.random_direction(rng, p)
        res = space.curvature(p, u, v, w) + space.curvature(p, v, u, w)
        worst = max(worst, res.component_norm)
    return worst


def bianchi_residual(space, rng, trials=10):
    """First Bianchi identity, relative to the curvature scale."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        u = space.random_direction(rng, p)
        v = space.random_direction(rng, p)
        w = space.random_direction(rng, p)
        a = space.curvature(p, u, v, w)
        b = space.curvature(p, v, w, u)
        c = space.curvature(p, w, u, v)
        scale = max(a.component_norm, b.component_norm, c.component_norm, 1e-30)
        worst = max(worst, (a + b + c).component_norm / scale)
    return worst


def symmetry_composition_residual(space, rng, trials=10):
    """s_q o s_p o s_q = s_{s_q(p)}, the composition law of symmetric spaces."""
    worst = 0.0
    for _ in range(trials):
        p = space.random_point(rng)
        q = space.exp(p, (0.5 * sample_radius(space)) *
                      space.random_direction(rng, p))
        x = space.exp(p, (0.4 * sample_radius(space)) *
                      space.random_direction(rng, p))
        lhs = space.geodesic_symmetry(
            q, space.geodesic_symmetry(p, space.geodesic_symmetry(q, x)))
        rhs = space.geodesic_symmetry(space.geodesic_symmetry(q, p), x)
        worst = max(worst, float(np.linalg.norm(lhs.coords - rhs.coords)))
    return worst


def transport_conjugation_derivative(space, p, direction, u, v, w, delta=1e-4):
    """Finite-difference covariant derivative of R via transport conjugation.

    d/dt [ transport back of R_{gamma(t)}(transported u, v) w ] at t = 0,
    along the geodesic gamma with gamma'(0) = direction.  An independent
    route to (nabla_direction R)(u, v)w built only from exp, transport and
    the pointwise curvature.
    """
    def conjugated(t):
        if t == 0.0:
            return space.curvature(p, u, v, w).components
        x = space.exp(p, t * direction)
        ut = space.transport(u, x)
        vt = space.transport(v, x)
        wt = space.transport(w, x)
        rx = space.curvature(x, ut, vt, wt)
        return space.transport(rx, p).components

    return (conjugated(delta) - conjugated(-delta)) / (2.0 * delta)

