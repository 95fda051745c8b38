"""Series evaluators, transport error meters, experiment kernels and
convergence-order fits.

The double-exponential expansion (a BCH-type formula for affine connection
spaces) is evaluated both from curvature callbacks (truncated series) and
numerically from exp/transport/log, so the two routes validate each other.
The pole-ladder error predictor evaluates the closed-form leading error term
of one ladder step, for either pole variant; the measured-error protocol
runs a scheme across a symmetric segment and compares against the transport
oracle at the midpoint, where all quantities are parallel translated before
comparison.  The oracle
follows that segment's geodesic with ``exp_transport`` from the midpoint, and
the ladder step is handed that midpoint, so neither shoots a log map to find
a geodesic or a point the protocol already holds.  The CLI, the tests and
the benchmark run the experiments here and keep no copies of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConnectionSpace, InsufficientData, NonFinite, Point,
                   TangentVector, _require_finite, _unit_direction)
from .ladders import (_TAKES_MIDPOINT, _rung, _sign, ladder_step,
                      transport_along_geodesic)

__all__ = [
    "ConvergenceReport",
    "bch_series",
    "bch_numeric",
    "pole_error_predicted",
    "pole_error_measured",
    "one_step_error_sweep",
    "generic_directions",
    "convergence_order",
]

_EPS = np.finfo(float).eps
POLE_SCHEMES = _TAKES_MIDPOINT


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


def bch_residual_sweep(space: ConnectionSpace, m: Point,
                       u_dir: TangentVector, v_dir: TangentVector,
                       scales) -> dict:
    """Order -> norms of bch_numeric minus bch_series at that order, for
    orders 1, 3 and 4, under joint scaling u, v <- h, from one bch_numeric
    per scale."""
    residuals = {1: [], 3: [], 4: []}
    for h in scales:
        u, v = float(h) * u_dir, float(h) * v_dir
        numeric = bch_numeric(space, m, v, u)
        for order in residuals:
            residuals[order].append(
                (numeric - bch_series(space, m, v, u, order)).component_norm)
    return residuals


def pole_error_predicted(space: ConnectionSpace, m: Point, u: TangentVector,
                         v: TangentVector, scheme="pole_v2") -> TangentVector:
    """Leading error term of one step of a pole-ladder kind, evaluated at the
    midpoint.

    A kind that opens at exp_p(σu) has the main term P(u, v) =
    (nabla_v R(u,v)(5u - 2v) + nabla_u R(u,v)(v - 2u)) / 12 at σv, times
    σ: pole_v1 and pole_v2 have P(u, v), and the reversed-symmetry variant
    pole_alt has -P(u, -v) = -(nabla_v R(u,v)(5u + 2v)
    + nabla_u R(u,v)(v + 2u)) / 12, obtained by the same order-by-order
    inversion of the double-exponential series and confirmed against the
    measured error (the relative defect vanishes linearly in the joint
    scale).  Each vanishes on locally symmetric spaces, where the curvature
    is covariantly constant.  pole_avg has the mean of the two,
    -(nabla_v R(u,v)v + nabla_u R(u,v)u) / 6, which is generically
    nonzero: averaging the variants cannot cancel the third-order error.
    Any other kind, Schild's ladder included, raises ValueError.
    """
    if scheme == "pole_avg":
        return 0.5 * (pole_error_predicted(space, m, u, v)
                      - pole_error_predicted(space, m, u, -v))
    sign = _sign(scheme)
    if not sign:
        raise ValueError(f"no leading-term predictor for {scheme!r}")
    if sign == -1:
        return -pole_error_predicted(space, m, u, -v)
    # m, u and v checked once, then the two contractions on their
    # components: the elementwise operations of the vector arithmetic
    space._check_point(m)
    space._check_base(u, m)
    space._check_base(v, m)
    x, uc, vc = m.coords, u.components, v.components
    t1 = space._nabla_curvature(x, vc, uc, vc, 5.0 * uc - 2.0 * vc)
    t2 = space._nabla_curvature(x, uc, uc, vc, vc - 2.0 * uc)
    return TangentVector(m, (1.0 / 12.0) * (t1 + t2))


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
                         scales, scheme="pole_v2",
                         n_rungs: int = 1) -> np.ndarray:
    """Norms of the measured error of n_rungs rungs under joint scaling
    u, v <- h."""
    out = []
    for h in scales:
        err = pole_error_measured(space, m, float(h) * u_dir,
                                  float(h) * v_dir, scheme, n_rungs)
        out.append(err.component_norm)
    return np.asarray(out)


def generic_directions(space: ConnectionSpace, m: Point,
                       rng: np.random.Generator):
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
    for _ in range(100):  # draws of the second direction before giving up
        v_dir = space.random_direction(rng, m)
        cos = space.inner(u_dir, v_dir) if space.has_metric else float(
            u_dir.components @ v_dir.components)
        if abs(cos) <= 0.95:
            return u_dir, v_dir
    raise RuntimeError("could not draw a non-parallel direction pair")


def sample_trial(space: ConnectionSpace, rng: np.random.Generator,
                 dist_cap: float | None = None, u_cap: float | None = None):
    """One seeded (p, q, u) triple with caps keeping the ladder constructions
    inside the injectivity radius (dist <= 0.9 inj, |u| <= 0.45 inj by
    default).
    """
    inj = space.injectivity_radius
    finite = math.isfinite(inj)  # False for inf and for unknown (NaN)
    dcap = dist_cap if dist_cap is not None else (
        min(0.9 * inj, 2.0) if finite else 2.0)
    ucap = u_cap if u_cap is not None else (
        min(0.45 * inj, 1.0) if finite else 1.0)
    p = space.random_point(rng)
    # both directions are drawn from one tangent basis at p, in the order
    # of two random_direction calls
    basis = space.tangent_basis(p)
    d = rng.uniform(0.1, 1.0) * dcap
    q = space.exp(p, d * _unit_direction(rng, p, basis))
    r = rng.uniform(0.1, 1.0) * ucap
    u = r * _unit_direction(rng, p, basis)
    return p, q, u


def exactness_sweep(space: ConnectionSpace, schemes, trials: int,
                    rng: np.random.Generator,
                    dist_cap: float | None = None,
                    u_cap: float | None = None):
    """Max relative transport error per pole kind over seeded trials.

    Trials violating the exactness conditions, |log_p(q)| and |u| under a
    finite injectivity radius, are excluded and counted, not failed.  Each
    trial takes one log w of [p, q], which gives the distance the conditions
    test, the oracle, u transported along t -> exp_p(t w), and the midpoint
    exp_p(w / 2), and builds one rung record, from which every kind reads its
    step: the kinds share the midpoint, the openings exp_p(u) and exp_p(-u)
    and the pole_v2 and pole_alt steps, and each is computed once.  A log of
    [p, q] or a relative error that is not finite raises NonFinite, which
    the conditions and max would otherwise drop.
    """
    inj = space.injectivity_radius
    worst = {kind: 0.0 for kind in schemes}
    excluded = 0
    for trial in range(trials):
        p, q, u = sample_trial(space, rng, dist_cap, u_cap)
        w = space.log(p, q)
        if not all(map(math.isfinite, w.components.tolist())):
            raise NonFinite(f"{space.name}: log_p(q) is not finite at trial "
                            f"{trial}")
        u_norm = space.norm(u)
        if math.isfinite(inj) and not (space.norm(w) < inj and u_norm < inj):
            excluded += 1
            continue
        # space.transport(u, q) from the log already taken: both carry u
        # along t -> exp_p(t w), so the oracle keeps transport's bits
        oracle = TangentVector(q, space.exp_transport(u, w).components)
        # space.midpoint(p, q), from the log already taken
        m = space.geodesic(p, w, (0.5,))[0]
        rung = _rung(space, p, q, u, m)
        for kind in schemes:
            diff = rung.step(kind) - oracle
            try:
                rel = space.norm(diff) / u_norm
            except NonFinite:
                # the vector check names neither the kind nor the trial
                rel = math.nan
            if not math.isfinite(rel):
                raise NonFinite(f"{space.name}/{kind}: relative error {rel} "
                                f"at trial {trial}")
            worst[kind] = max(worst[kind], rel)
    return worst, excluded


def default_noise_floor(problem_scale: float = 1.0) -> float:
    """Errors at or below 100 eps times the problem scale count as noise."""
    return 100.0 * _EPS * problem_scale


def _log_fit(scales, errors, floor: float):
    """(slope, intercept, r_squared) of the least-squares line through the
    points (log h, log e) whose error e is above floor, or None when fewer
    than 3 are.  In Python floats summed by math.fsum, so the fit rounds
    alike whichever BLAS, LAPACK or SIMD kernels numpy runs."""
    pts = [(math.log(h), math.log(e))
           for h, e in zip(scales, errors) if e > floor]
    if len(pts) < 3:
        return None
    xs, ys = zip(*pts)
    mx, my = math.fsum(xs) / len(pts), math.fsum(ys) / len(pts)
    dx, dy = [x - mx for x in xs], [y - my for y in ys]
    slope = (math.fsum(a * b for a, b in zip(dx, dy))
             / math.fsum(a * a for a in dx))
    intercept = my - slope * mx
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    ss_tot = math.fsum(b * b for b in dy)
    return slope, intercept, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def convergence_order(scales, errors,
                      noise_floor: float | None = None) -> ConvergenceReport:
    """Fit log(error) against log(scale) by least squares.

    Requires at least 5 scales spanning a decade; points at or below the
    noise floor (default: that of a unit problem scale) are masked out and
    at least 4 must survive, otherwise InsufficientData is raised.  A scale
    or error that is not finite raises NonFinite: it would fit a NaN slope.
    """
    s = np.asarray(scales, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.shape != e.shape or s.ndim != 1:
        raise ValueError("scales and errors must be matching 1-d sequences")
    _require_finite(s, "scales")
    _require_finite(e, "errors")
    if np.any(s <= 0.0) or np.any(e < 0.0):
        raise ValueError("scales must be positive and errors non-negative")
    if s.size < 5:
        raise InsufficientData(f"need at least 5 scales, got {s.size}")
    if s.max() / s.min() < 10.0 * (1.0 - 1e-12):
        raise InsufficientData("scales must span at least one decade")
    floor = noise_floor if noise_floor is not None \
        else default_noise_floor()
    masked = e <= floor
    used = ~masked
    if used.sum() < 4:
        raise InsufficientData(
            f"only {int(used.sum())} points above the noise floor")
    slope, intercept, r2 = _log_fit(s.tolist(), e.tolist(), floor)
    return ConvergenceReport(
        scales=s, errors=e, fitted_slope=slope, intercept=intercept,
        r_squared=r2, noise_floor_mask=masked,
    )
