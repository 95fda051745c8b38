"""Series evaluators, transport error meters and convergence-order fits.

The double-exponential expansion (a BCH-type formula for affine connection
spaces) is evaluated both from curvature callbacks (truncated series) and
numerically from exp/transport/log, so the two routes validate each other.
The pole-ladder error predictors evaluate the closed-form leading error term
of one ladder step; the measured-error protocol runs a scheme across a
symmetric segment and compares against the transport oracle at the midpoint,
where all quantities are parallel translated before comparison.  The oracle
follows that segment's geodesic with ``exp_transport`` from the midpoint, and
the ladder step is handed that midpoint, so neither shoots a log map to find
a geodesic or a point the protocol already holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConnectionSpace, InsufficientData, Point, TangentVector
from .ladders import ladder_step, transport_along_geodesic

__all__ = [
    "ConvergenceReport",
    "bch_series",
    "bch_numeric",
    "pole_error_predicted",
    "alt_error_predicted",
    "pole_error_measured",
    "one_step_error_sweep",
    "generic_directions",
    "convergence_order",
    "default_noise_floor",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ConvergenceReport:
    """Least-squares log-log fit of errors against scales.

    ``noise_floor_mask`` flags the scales whose errors sat at or below the
    noise floor and were excluded from the fit.
    """

    scales: np.ndarray
    errors: np.ndarray
    fitted_slope: float
    intercept: float
    r_squared: float
    noise_floor_mask: np.ndarray

    @property
    def n_used(self) -> int:
        return int((~self.noise_floor_mask).sum())


def bch_series(space: ConnectionSpace, x: Point, v: TangentVector,
               u: TangentVector, order: int) -> TangentVector:
    """Truncated double-exponential series log_x(exp(v) then exp(u)) at x.

    Order 1 is v + u; order 2 equals order 1 (a torsion-free connection has
    no quadratic terms); order 3 adds the curvature group and order 4 the
    curvature-derivative group.  Coefficient set: v + u + R(u,v)v/6
    + R(u,v)u/3 + nabla_v R(u,v)v/12 + nabla_u R(u,v)v/24
    + 5 nabla_v R(u,v)u/24 + nabla_u R(u,v)u/12.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be one of 1, 2, 3, 4")
    terms = [v + u]
    if order >= 3:
        terms += [(1.0 / 6.0) * space.curvature(x, u, v, v),
                  (1.0 / 3.0) * space.curvature(x, u, v, u)]
    if order >= 4:
        terms += [(1.0 / 12.0) * space.nabla_curvature(x, v, u, v, v),
                  (1.0 / 24.0) * space.nabla_curvature(x, u, u, v, v),
                  (5.0 / 24.0) * space.nabla_curvature(x, v, u, v, u),
                  (1.0 / 12.0) * space.nabla_curvature(x, u, u, v, u)]
    total = np.zeros(space.ambient_dim)
    for term in terms:
        total = total + term.components
    return TangentVector(x, total)


def bch_numeric(space: ConnectionSpace, x: Point, v: TangentVector,
                u: TangentVector) -> TangentVector:
    """Ground truth for the series: log of the double exponential.

    log_x(exp_y(transport of u to y)) with y = exp_x(v), u carried along the
    geodesic t -> exp_x(t v) by the space's ``exp_transport``.
    """
    uy = space.exp_transport(u, v)
    return space.log(x, space.exp(uy.base, uy))


def pole_error_predicted(space: ConnectionSpace, m: Point, u: TangentVector,
                         v: TangentVector) -> TangentVector:
    """Leading error term of one pole-ladder step, evaluated at the midpoint.

    (nabla_v R(u,v)(5u - 2v) + nabla_u R(u,v)(v - 2u)) / 12.  Vanishes on
    locally symmetric spaces, where the curvature is covariantly constant.
    """
    t1 = space.nabla_curvature(m, v, u, v, 5.0 * u - 2.0 * v)
    t2 = space.nabla_curvature(m, u, u, v, v - 2.0 * u)
    return (1.0 / 12.0) * (t1 + t2)


def alt_error_predicted(space: ConnectionSpace, m: Point, u: TangentVector,
                        v: TangentVector) -> TangentVector:
    """Leading error of the reversed-symmetry pole variant.

    -(nabla_v R(u,v)(5u + 2v) + nabla_u R(u,v)(v + 2u)) / 12, obtained by the
    same order-by-order inversion of the double-exponential series as the
    main-variant predictor and confirmed against the measured error (the
    relative defect vanishes linearly in the joint scale).  The average of
    the two predictors, -(nabla_v R(u,v)v + nabla_u R(u,v)u) / 6, is
    generically nonzero: averaging the variants cannot cancel the
    third-order error.
    """
    t1 = space.nabla_curvature(m, v, u, v, 5.0 * u + 2.0 * v)
    t2 = space.nabla_curvature(m, u, u, v, v + 2.0 * u)
    return (-1.0 / 12.0) * (t1 + t2)


def pole_error_measured(space: ConnectionSpace, m: Point, u: TangentVector,
                        v: TangentVector, scheme="pole_v2",
                        n_rungs: int = 1) -> TangentVector:
    """Measured one-step transport error, compared at the midpoint.

    Follows the geodesic t -> exp_m(t v) both ways from m: to p = exp_m(-v),
    carrying u along, and to q = exp_m(v), carrying v along as the geodesic's
    velocity v_q there.  Runs the scheme from p to q, transports the result
    back along the reversed geodesic t -> exp_q(-t v_q), which ends at m up
    to integration error, and subtracts u.  The geodesic is never recovered
    by a log map.  A one-step pole scheme is handed m as the midpoint of
    [p, q], which it is up to integration error, so its only logs are its
    symmetry's and its final one; n_rungs > 1 builds its own rail.
    """
    u_p = space.exp_transport(u, -v)
    v_q = space.exp_transport(v, v)
    if n_rungs == 1:
        u_q = ladder_step(space, u_p.base, v_q.base, u_p, scheme, m)
    else:
        u_q = transport_along_geodesic(space, u_p.base, v_q.base, u_p,
                                       n_rungs, scheme).vector
    u_back = space.exp_transport(u_q, -v_q)
    return TangentVector(m, u_back.components) - u


def one_step_error_sweep(space: ConnectionSpace, m: Point,
                         u_dir: TangentVector, v_dir: TangentVector,
                         scales, scheme="pole_v2") -> np.ndarray:
    """Norms of the measured one-step error under joint scaling u, v <- h."""
    out = []
    for h in scales:
        err = pole_error_measured(space, m, float(h) * u_dir,
                                  float(h) * v_dir, scheme)
        out.append(err.component_norm)
    return np.asarray(out)


def generic_directions(space: ConnectionSpace, m: Point,
                       rng: np.random.Generator, max_tries: int = 100):
    """Two seeded unit directions at m, rejecting near-parallel pairs.

    Pairs with |cos angle| > 0.95 (|sin| < 0.31) are redrawn: on a
    near-parallel pair R(u, v) nearly vanishes, and the leading error term
    with it, so the scaling protocol would measure the next order instead.
    Generic draws are neither parallel nor orthogonal.  A space of
    dimension below 2 has no such pair and raises ValueError at once.
    """
    if space.dim < 2:
        raise ValueError(f"{space.name} has dimension {space.dim}; a "
                         "non-parallel direction pair needs at least 2")
    u_dir = space.random_direction(rng, m)
    for _ in range(max_tries):
        v_dir = space.random_direction(rng, m)
        cos = space.inner(u_dir, v_dir) if space.has_metric else float(
            u_dir.components @ v_dir.components)
        if abs(cos) <= 0.95:
            return u_dir, v_dir
    raise RuntimeError("could not draw a non-parallel direction pair")


def default_noise_floor(problem_scale: float = 1.0) -> float:
    """Errors at or below 100 eps times the problem scale count as noise."""
    return 100.0 * _EPS * problem_scale


def convergence_order(scales, errors, noise_floor: float | None = None,
                      problem_scale: float = 1.0) -> ConvergenceReport:
    """Fit log(error) against log(scale) by least squares.

    Requires at least 5 scales spanning a decade; points at or below the
    noise floor are masked out and at least 4 must survive, otherwise
    InsufficientData is raised.
    """
    s = np.asarray(scales, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.shape != e.shape or s.ndim != 1:
        raise ValueError("scales and errors must be matching 1-d sequences")
    if np.any(s <= 0.0) or np.any(e < 0.0):
        raise ValueError("scales must be positive and errors non-negative")
    if s.size < 5:
        raise InsufficientData(f"need at least 5 scales, got {s.size}")
    if s.max() / s.min() < 10.0 * (1.0 - 1e-12):
        raise InsufficientData("scales must span at least one decade")
    floor = noise_floor if noise_floor is not None \
        else default_noise_floor(problem_scale)
    masked = e <= floor
    used = ~masked
    if used.sum() < 4:
        raise InsufficientData(
            f"only {int(used.sum())} points above the noise floor")
    ls = np.log(s[used])
    le = np.log(e[used])
    slope, intercept = np.polyfit(ls, le, 1)
    fit = slope * ls + intercept
    ss_res = float(np.sum((le - fit) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ConvergenceReport(
        scales=s, errors=e, fitted_slope=float(slope),
        intercept=float(intercept), r_squared=r2, noise_floor_mask=masked,
    )
